import numpy as np
import pytest

from hiermimo.corrmat import CorrelationMatrix, CorrelationSet, random_clustered_correlation
from hiermimo.precoder import inner_precoders
from hiermimo.topology import build_topology


def single_cell_set(m, num_users, rank, gains=None, seed0=100):
    """One-BS correlation set with independent random link matrices."""
    gains = gains or [1.0] * num_users
    mats = {
        (k, 0): random_clustered_correlation(m, rank, gains[k], seed=seed0 + k)
        for k in range(num_users)
    }
    return CorrelationSet(1, num_users, mats, {k: 0 for k in range(num_users)},
                          {k: k for k in range(num_users)})


def full_inner_precoders(control, channels, nu):
    """Inner precoders of every BS of ``control`` from (..., K, N, M) channel
    realizations: RZF on the effective channels h^H F_n, projected from the
    M-dimensional channels, with regularizer M nu."""
    return {
        n: inner_precoders(channels[..., list(users), n, :].conj() @ control.outer[n],
                           channels.shape[-1], nu)
        for n, users in control.selected.items()
    }


def de_rel_err(mc, de):
    """|mc - de| / de where de > 0 and NaN elsewhere: the relative error of
    Monte Carlo means against their deterministic equivalents, as
    validation.csv's rel_err gives it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(de > 0, np.abs(mc - de) / de, np.nan)


def diag_corr(m, trace):
    """Diagonal correlation matrix with a prescribed trace (full rank)."""
    entries = (trace / m) * np.eye(m, dtype=complex)
    return CorrelationMatrix.from_dense(entries, m, trace / m)


def trace_table_set(m, traces, serving):
    """Correlation set whose link matrices are diagonal with given traces.

    traces: list of per-user lists, one trace per BS.
    """
    num_users = len(traces)
    num_bs = len(traces[0])
    mats = {
        (k, n): diag_corr(m, traces[k][n])
        for k in range(num_users)
        for n in range(num_bs)
    }
    return CorrelationSet(num_bs, num_users, mats, dict(enumerate(serving)),
                          {k: k for k in range(num_users)})


@pytest.fixture(scope="session")
def desk():
    """Default desk network: N=2, K=6, M=16, rank 3, with cross edges."""
    from hiermimo.corrmat import build_hotspot_network
    from hiermimo.topology import theta_from_db

    cs = build_hotspot_network(2, 6, 16, 3, seed=7, inter_site_m=300.0)
    graph = build_topology(cs, theta_from_db(10.0))
    return cs, graph
