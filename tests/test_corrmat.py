import numpy as np
import pytest

from hiermimo.corrmat import (
    CorrelationMatrix,
    build_hotspot_network,
    dump_correlation_set,
    load_correlation_set,
    one_ring_correlation,
    path_gain_log_distance,
    random_clustered_correlation,
    sample_channel,
)
from hiermimo.errors import ParameterError, ValidationError


def test_random_clustered_rank_and_trace():
    gain = path_gain_log_distance(250.0, 3.76, ref_gain_db=90.0)
    mat = random_clustered_correlation(48, 6, gain, seed=0)
    mat.validate()
    w = np.linalg.eigvalsh(mat.entries)
    assert np.count_nonzero(w > 1e-9 * w[-1]) == 6
    assert np.isclose(mat.trace(), 48 * gain, rtol=1e-10)
    f = mat.factor()
    assert f.shape == (48, 6)
    assert np.linalg.norm(f @ f.conj().T - mat.entries) <= 1e-12 * np.linalg.norm(mat.entries)


def test_random_clustered_zero_gain_is_zero_matrix():
    mat = random_clustered_correlation(4, 4, 0.0, seed=3)
    assert np.all(mat.entries == 0)
    assert mat.trace() == 0.0
    assert mat.factor().shape == (4, 0)


def test_random_clustered_spectrum_m8_d2():
    mat = random_clustered_correlation(8, 2, 1.0, seed=7)
    w = np.linalg.eigvalsh(mat.entries)
    assert np.count_nonzero(w > 1e-9 * w[-1]) == 2
    assert np.isclose(w.sum(), 8.0, atol=1e-10)


def test_random_clustered_deterministic():
    a = random_clustered_correlation(16, 3, 2.0, seed=42)
    b = random_clustered_correlation(16, 3, 2.0, seed=42)
    c = random_clustered_correlation(16, 3, 2.0, seed=43)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


@pytest.mark.parametrize("m,rank,gain", [(4, 0, 1.0), (4, 5, 1.0), (4, 2, -1.0)])
def test_random_clustered_rejects_bad_parameters(m, rank, gain):
    with pytest.raises(ParameterError):
        random_clustered_correlation(m, rank, gain, seed=0)


def test_one_ring_point_scatterer_is_rank_one():
    mat = one_ring_correlation(2, 0.3, 1e-6, 0.5, 1.0)
    w = np.linalg.eigvalsh(mat.entries)
    assert np.count_nonzero(w > 1e-9 * w[-1]) == 1


def test_one_ring_trace():
    mat = one_ring_correlation(32, 0.0, np.pi / 9, 0.5, 1.0)
    assert abs(mat.trace() - 32.0) < 1e-8
    mat.validate()


def test_one_ring_entry_against_trapezoid_oracle():
    m, center, spread, spacing = 8, np.pi / 6, np.pi / 12, 0.5
    mat = one_ring_correlation(m, center, spread, spacing, 1.0)
    angles = np.linspace(center - spread, center + spread, 2000)
    integrand = np.exp(-2j * np.pi * spacing * (0 - 1) * np.sin(angles))
    oracle = np.trapezoid(integrand, angles) / (2 * spread)
    assert abs(mat.entries[0, 1] - oracle) < 1e-6


def test_one_ring_rejects_bad_spread():
    with pytest.raises(ParameterError):
        one_ring_correlation(4, 0.0, 0.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        one_ring_correlation(4, 0.0, np.pi, 0.5, 1.0)


def test_path_gain_values():
    assert np.isclose(path_gain_log_distance(1.0, 3.76, -30.0), 1e-3, rtol=1e-12)
    assert np.isclose(path_gain_log_distance(100.0, 3.76, 0.0), 10 ** (-7.52), rtol=1e-12)
    by_hand = 10 ** ((-14.81 - 10 * 3.76 * np.log10(250.0)) / 10.0)
    assert np.isclose(path_gain_log_distance(250.0, 3.76, -14.81), by_hand, rtol=1e-12)
    with pytest.raises(ParameterError):
        path_gain_log_distance(0.0)


def test_sample_channel_zero_matrix():
    mat = random_clustered_correlation(4, 4, 0.0, seed=0)
    h = sample_channel(mat, seed=1)
    assert np.all(h == 0)


def test_sample_channel_identity_norm():
    m = 8
    mat = CorrelationMatrix(np.eye(m, dtype=complex), m, 1.0)
    rng = np.random.default_rng(11)
    draws = 10_000
    norms = np.array([np.sum(np.abs(sample_channel(mat, rng)) ** 2) for _ in range(draws)])
    stderr = norms.std(ddof=1) / np.sqrt(draws)
    assert abs(norms.mean() - m) < 3 * stderr


def test_sample_channel_stays_in_rank_space():
    mat = random_clustered_correlation(32, 6, 1.0, seed=5)
    basis = mat.basis()
    h = sample_channel(mat, seed=9)
    residual = h - basis @ (basis.conj().T @ h)
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(h)


def test_sample_channel_deterministic():
    mat = random_clustered_correlation(8, 2, 1.0, seed=1)
    assert np.array_equal(sample_channel(mat, seed=4), sample_channel(mat, seed=4))


def test_sample_covariance_converges():
    m, draws = 8, 10_000
    mat = random_clustered_correlation(m, 3, 1.0, seed=2)
    rng = np.random.default_rng(3)
    acc = np.zeros((m, m), dtype=complex)
    for _ in range(draws):
        h = sample_channel(mat, rng)
        acc += np.outer(h, h.conj())
    acc /= draws
    err = np.linalg.norm(acc - mat.entries, "fro") / np.linalg.norm(mat.entries, "fro")
    assert err <= 5 * np.sqrt(m / draws)


def test_validate_rejects_non_hermitian():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError):
        CorrelationMatrix(bad, 2, 1.0).validate()


def test_validate_rejects_rank_violation():
    mat = random_clustered_correlation(8, 4, 1.0, seed=0)
    mat.rank_hint = 2
    with pytest.raises(ValidationError):
        mat.validate()


def test_validate_rejects_trace_mismatch():
    mat = random_clustered_correlation(8, 4, 1.0, seed=0)
    mat.path_gain = 2.0
    with pytest.raises(ValidationError):
        mat.validate()


def test_hotspot_network_valid_and_clustered():
    # 6 users per cell, 2/3 in 2 hotspots -> 2 users share each hotspot
    cs = build_hotspot_network(2, 12, 16, 3, seed=7)
    cs.validate()
    clusters = {}
    for k in range(12):
        clusters.setdefault(cs.cluster_ids[k], []).append(k)
    shared = [users for users in clusters.values() if len(users) > 1]
    assert shared, "hotspots should put several users in one cluster"
    for users in shared:
        ref = users[0]
        for k in users[1:]:
            for n in range(2):
                assert np.array_equal(
                    cs.matrix(ref, n).entries, cs.matrix(k, n).entries
                )


def test_dump_load_round_trip(tmp_path):
    cs = build_hotspot_network(2, 4, 8, 2, seed=5)
    path = tmp_path / "corr.txt"
    dump_correlation_set(cs, path)
    loaded = load_correlation_set(path)
    assert loaded.num_bs == cs.num_bs and loaded.num_users == cs.num_users
    assert loaded.serving == cs.serving and loaded.cluster_ids == cs.cluster_ids
    for key, mat in cs.matrices.items():
        assert np.array_equal(loaded.matrices[key].entries, mat.entries)


def test_hotspot_network_rejects_cells_inside_the_minimum_distance():
    with pytest.raises(ParameterError):
        build_hotspot_network(2, 4, 8, 2, seed=1, inter_site_m=70.0)
