"""Bipartite BS-user topology graph built from correlation traces.

A cross link (k, n) exists when the serving-link path gain is within a
factor theta of the cross-link gain: trace(C[k, serving]) < theta *
trace(C[k, n]). Such users must be protected from BS n's transmissions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class TopologyGraph:
    num_bs: int
    num_users: int
    serving: dict  # user -> serving bs
    edges: frozenset  # (user, bs) pairs
    assoc_users: dict  # bs -> tuple of associated users
    neighbor_users: dict  # bs -> tuple of non-associated users with an edge
    neighbor_bs: dict  # user -> tuple of non-serving BSs with an edge


def build_topology(corr_set, theta):
    """Build the graph at linear threshold theta > 1; serving edges always present."""
    if theta <= 1:
        raise ParameterError(f"theta must exceed 1 (linear scale), got {theta}")
    serving = dict(corr_set.serving)
    edges = set()
    for k in range(corr_set.num_users):
        bk = serving[k]
        edges.add((k, bk))
        serve_trace = corr_set.matrix(k, bk).trace()
        for n in range(corr_set.num_bs):
            if n == bk:
                continue
            if serve_trace < theta * corr_set.matrix(k, n).trace():
                edges.add((k, n))
    assoc = {
        n: tuple(sorted(k for k in range(corr_set.num_users) if serving[k] == n))
        for n in range(corr_set.num_bs)
    }
    neigh_users = {
        n: tuple(sorted(k for (k, b) in edges if b == n and serving[k] != n))
        for n in range(corr_set.num_bs)
    }
    neigh_bs = {
        k: tuple(sorted(n for (u, n) in edges if u == k and serving[k] != n))
        for k in range(corr_set.num_users)
    }
    return TopologyGraph(
        num_bs=corr_set.num_bs,
        num_users=corr_set.num_users,
        serving=serving,
        edges=frozenset(edges),
        assoc_users=assoc,
        neighbor_users=neigh_users,
        neighbor_bs=neigh_bs,
    )


def served_and_blocked(graph, selected):
    """Every BS n's (S_n, B_n), indexed by n: the selected users it serves,
    and the selected users that neighbor it (its nulling targets), each in
    index order. This is the one place a selection is split per BS."""
    selected = sorted(set(selected))
    for k in selected:
        if not (0 <= k < graph.num_users):
            raise ParameterError(f"unknown user index {k}")
    split = [([], []) for _ in range(graph.num_bs)]
    for k in selected:  # in index order, so each list comes out sorted
        split[graph.serving[k]][0].append(k)
        for n in graph.neighbor_bs[k]:
            split[n][1].append(k)
    return [(tuple(users), tuple(blocked)) for users, blocked in split]


def theta_from_db(theta_db):
    return float(10.0 ** (theta_db / 10.0))
