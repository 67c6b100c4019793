import numpy as np
import pytest

from hiermimo.corrmat import CorrelationSet, _gaussian, _trace_scaled_factors, from_dense
from hiermimo.errors import ParameterError
from hiermimo.precoder import inner_precoders
from hiermimo.topology import build_topology


def random_clustered_correlation(m, rank, path_gain, seed):
    """The M x rank factor F of a random rank-limited correlation C = F F^H
    = path_gain * normalize(A A^H), drawn and factored as the network
    generator does for each (cluster, BS): A is M x rank with i.i.d. unit
    complex Gaussian entries, and the Gram matrix is rescaled so its trace
    equals M before applying the path gain. A zero gain gives a zero
    factor."""
    if not (1 <= rank <= m):
        raise ParameterError(f"rank must satisfy 1 <= rank <= {m}, got {rank}")
    if path_gain < 0:
        raise ParameterError("path_gain must be non-negative")
    return _trace_scaled_factors(_gaussian(m, rank, seed), float(path_gain))


def link_set(links, serving, clusters=None):
    """Correlation set of the M x r link factors ``links``, {(k, n): F},
    zero-padded into one array; every user is its own cluster unless
    ``clusters`` says otherwise."""
    num_users = 1 + max(k for k, _ in links)
    num_bs = 1 + max(n for _, n in links)
    m = next(iter(links.values())).shape[0]
    factor = np.zeros((num_users, num_bs, m, max(f.shape[1] for f in links.values())),
                      dtype=complex)
    for (k, n), f in links.items():
        factor[k, n, :, : f.shape[1]] = f
    clusters = {k: k for k in range(num_users)} if clusters is None else clusters
    return CorrelationSet(factor, serving, clusters)


def dense(f):
    """The correlation matrix F F^H of a link factor."""
    return f @ f.conj().T


def link_basis(f):
    """Orthonormal basis of a link factor's column space: F / sqrt(lambda)."""
    return f / np.sqrt(np.sum(np.abs(f) ** 2, axis=0))


def single_cell_set(m, num_users, rank, gains=None, seed0=100):
    """One-BS correlation set with independent random link matrices."""
    gains = gains or [1.0] * num_users
    links = {
        (k, 0): random_clustered_correlation(m, rank, gains[k], seed=seed0 + k)
        for k in range(num_users)
    }
    return link_set(links, {k: 0 for k in range(num_users)})


def served_by(power, outer, serving=None):
    """BS n -> the users of the power map ``power`` that n serves, sorted,
    for every BS with an outer precoder in ``outer``. ``serving`` maps each
    user to its serving BS; without it every user is served by BS 0, as in
    a single-cell network."""
    home = (lambda k: 0) if serving is None else serving.__getitem__
    return {n: tuple(k for k in sorted(power) if home(k) == n) for n in outer}


def full_inner_precoders(power, outer, channels, nu, serving=None):
    """Inner precoders of every BS of the power map ``power`` with the outer
    precoders ``outer`` from (..., K, N, M) channel realizations: RZF on the
    effective channels h^H F_n, projected from the M-dimensional channels,
    with regularizer M nu. ``serving`` is as in ``served_by``."""
    return {
        n: inner_precoders(channels[..., list(users), n, :].conj() @ outer[n],
                           channels.shape[-1], nu)
        for n, users in served_by(power, outer, serving).items()
    }


def de_rel_err(mc, de):
    """|mc - de| / de where de > 0 and NaN elsewhere: the relative error of
    Monte Carlo means against their deterministic equivalents, as
    validation.csv's rel_err gives it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(de > 0, np.abs(mc - de) / de, np.nan)


def diag_corr(m, trace):
    """Factor of a diagonal correlation matrix with a prescribed trace (full
    rank)."""
    return from_dense((trace / m) * np.eye(m, dtype=complex))


def trace_table_set(m, traces, serving):
    """Correlation set whose link matrices are diagonal with given traces.

    traces: list of per-user lists, one trace per BS.
    """
    num_users = len(traces)
    num_bs = len(traces[0])
    links = {
        (k, n): diag_corr(m, traces[k][n])
        for k in range(num_users)
        for n in range(num_bs)
    }
    return link_set(links, dict(enumerate(serving)))


@pytest.fixture(scope="session")
def desk():
    """Default desk network: N=2, K=6, M=16, rank 3, with cross edges."""
    from hiermimo.corrmat import build_hotspot_network
    from hiermimo.topology import theta_from_db

    cs = build_hotspot_network(2, 6, 16, 3, seed=7, inter_site_m=300.0)
    graph = build_topology(cs, theta_from_db(10.0))
    return cs, graph
