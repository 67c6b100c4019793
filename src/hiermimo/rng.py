"""Deterministic seed derivation.

Every run draws all of its randomness from one master seed. Consumers derive
independent generators through ``derive_rng(master, *path)`` where ``path``
is a tuple of small integers naming the purpose (constants below) plus any
per-item indices, so no two consumers share a stream. Each consumer reads
its stream in a fixed order (a Monte Carlo run reads its draws in draw
order), so results are deterministic per seed.
"""

import numpy as np

# purpose tags used as the first path element; each value is part of its
# streams' seeds, so a tag keeps its number
CORRELATION = 0
POLICY_MC = 2
FFR_MC = 3
COMP_MC = 4


def derive_rng(master_seed, *path):
    """Generator for purpose ``path`` under ``master_seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))
    )


def as_rng(seed):
    """Accept an int seed, a SeedSequence, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
