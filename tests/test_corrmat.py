import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermimo.corrmat import (
    RANK_TOL,
    build_hotspot_network,
    dump_correlation_set,
    from_dense,
    link_channels,
    load_correlation_set,
    path_gain_log_distance,
    sample_channel,
    sample_coefficients,
)
from hiermimo.errors import ParameterError, ValidationError

from conftest import dense, link_basis, link_set, random_clustered_correlation


def one_link(f):
    """A one-user, one-BS set of the link factor ``f``."""
    return link_set({(0, 0): f}, {0: 0})


def test_random_clustered_rank_and_trace():
    gain = path_gain_log_distance(250.0, 3.76, ref_gain_db=90.0)
    f = random_clustered_correlation(48, 6, gain, seed=0)
    one_link(f).validate()
    w = np.linalg.eigvalsh(dense(f))
    assert np.count_nonzero(w > 1e-9 * w[-1]) == 6
    assert f.shape == (48, 6)
    assert np.isclose(np.sum(np.abs(f) ** 2), 48 * gain, rtol=1e-10)


def test_random_clustered_zero_gain_is_zero_matrix():
    f = random_clustered_correlation(4, 4, 0.0, seed=3)
    assert np.all(f == 0)
    cs = one_link(f)
    assert cs.trace[0, 0] == 0.0 and cs.rank[0, 0] == 0
    assert cs.link(0, 0).shape == (4, 0)


def test_random_clustered_spectrum_m8_d2():
    w = np.linalg.eigvalsh(dense(random_clustered_correlation(8, 2, 1.0, seed=7)))
    assert np.count_nonzero(w > 1e-9 * w[-1]) == 2
    assert np.isclose(w.sum(), 8.0, atol=1e-10)


def test_random_clustered_deterministic():
    a = random_clustered_correlation(16, 3, 2.0, seed=42)
    b = random_clustered_correlation(16, 3, 2.0, seed=42)
    c = random_clustered_correlation(16, 3, 2.0, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("m,rank,gain", [(4, 0, 1.0), (4, 5, 1.0), (4, 2, -1.0)])
def test_random_clustered_rejects_bad_parameters(m, rank, gain):
    with pytest.raises(ParameterError):
        random_clustered_correlation(m, rank, gain, seed=0)


def test_path_gain_values():
    assert np.isclose(path_gain_log_distance(1.0, 3.76, -30.0), 1e-3, rtol=1e-12)
    assert np.isclose(path_gain_log_distance(100.0, 3.76, 0.0), 10 ** (-7.52), rtol=1e-12)
    by_hand = 10 ** ((-14.81 - 10 * 3.76 * np.log10(250.0)) / 10.0)
    assert np.isclose(path_gain_log_distance(250.0, 3.76, -14.81), by_hand, rtol=1e-12)
    with pytest.raises(ParameterError):
        path_gain_log_distance(0.0)


def test_sample_channel_zero_matrix():
    h = sample_channel(one_link(random_clustered_correlation(4, 4, 0.0, seed=0)), seed=1)
    assert h.shape == (1, 1, 4)
    assert np.all(h == 0)


def test_sample_channel_identity_norm():
    m = 8
    cs = one_link(from_dense(np.eye(m, dtype=complex)))
    rng = np.random.default_rng(11)
    draws = 10_000
    norms = np.array([np.sum(np.abs(sample_channel(cs, rng)) ** 2) for _ in range(draws)])
    stderr = norms.std(ddof=1) / np.sqrt(draws)
    assert abs(norms.mean() - m) < 3 * stderr


def test_sample_channel_stays_in_rank_space():
    f = random_clustered_correlation(32, 6, 1.0, seed=5)
    b = link_basis(f)
    h = sample_channel(one_link(f), seed=9)[0, 0]
    residual = h - b @ (b.conj().T @ h)
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(h)


def test_sample_channel_deterministic():
    cs = one_link(random_clustered_correlation(8, 2, 1.0, seed=1))
    assert np.array_equal(sample_channel(cs, seed=4), sample_channel(cs, seed=4))


def test_sample_channel_count_stacks_consecutive_lone_draws():
    # a count gives a leading draw axis read from one fill of the generator:
    # the same draws, and the same generator state after, as that many lone
    # calls on it, however the count is split
    single = one_link(random_clustered_correlation(8, 3, 1.0, seed=6))
    cs = build_hotspot_network(2, 5, 8, 2, seed=3, inter_site_m=300.0)
    for corr in (single, cs):
        rng, lone_rng, split_rng = (np.random.default_rng(4) for _ in range(3))
        stacked = sample_channel(corr, rng, 7)
        lone = np.stack([sample_channel(corr, lone_rng) for _ in range(7)])
        split = np.concatenate([sample_channel(corr, split_rng, c) for c in (1, 4, 2)])
        assert stacked.flags.c_contiguous
        assert np.array_equal(stacked, lone)
        assert np.array_equal(stacked, split)
        assert rng.standard_normal() == lone_rng.standard_normal() == split_rng.standard_normal()


def test_sample_channel_is_the_factor_times_the_coefficients():
    # a draw reads one 1 x R coefficient row per link (R the set's widest
    # rank); sample_channel multiplies them by the factor, and a count
    # stacks consecutive lone draws of the coefficients as well
    single = one_link(random_clustered_correlation(8, 3, 1.0, seed=6))
    cs = build_hotspot_network(2, 5, 8, 2, seed=3, inter_site_m=300.0)
    for corr, shape in ((single, (1, 1, 1, 3)), (cs, (5, 2, 1, 2))):
        rng, lone_rng, channel_rng = (np.random.default_rng(8) for _ in range(3))
        w = sample_coefficients(corr, rng, 6)
        assert w.shape == (6,) + shape
        assert np.array_equal(w, np.stack([sample_coefficients(corr, lone_rng) for _ in range(6)]))
        assert np.array_equal(link_channels(corr, w), sample_channel(corr, channel_rng, 6))
        assert rng.standard_normal() == lone_rng.standard_normal() == channel_rng.standard_normal()


def test_sample_covariance_converges():
    # alone, and in a set that pads this rank-3 link to the width of a rank-5
    # one, so that its draw reads normals that multiply zero factor columns
    m, draws = 8, 10_000
    f = random_clustered_correlation(m, 3, 1.0, seed=2)
    wide = random_clustered_correlation(m, 5, 1.0, seed=4)
    for cs in (one_link(f), link_set({(0, 0): f, (0, 1): wide}, {0: 0})):
        rng = np.random.default_rng(3)
        acc = np.zeros((m, m), dtype=complex)
        for _ in range(draws):
            h = sample_channel(cs, rng)[0, 0]
            acc += np.outer(h, h.conj())
        acc /= draws
        err = np.linalg.norm(acc - dense(f), "fro") / np.linalg.norm(dense(f), "fro")
        assert err <= 5 * np.sqrt(m / draws)


def test_validate_rejects_non_hermitian():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError):
        from_dense(bad)


def test_validate_rejects_non_orthogonal_factor():
    skewed = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # F F^H is PSD, F is no eigen-factor
    with pytest.raises(ValidationError, match=r"link \(0, 0\)"):
        one_link(skewed).validate()


def test_dense_input_keeps_the_trace_of_its_clamped_factor():
    # eigenvalues below 1e-9 of the largest hold 5e-10 of the trace, more
    # than the 1e-10 trace tolerance: they are dropped from the factor, and
    # the link's trace is that of the two it keeps
    w = np.array([1.0, 1.0, 5e-10, 5e-10])
    cs = one_link(from_dense(np.diag(w).astype(complex))).validate()
    assert cs.rank[0, 0] == 2 and cs.factor.shape[-1] == 2
    assert np.isclose(cs.trace[0, 0], 2.0, rtol=1e-15)


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
                assert np.array_equal(cs.link(ref, n), cs.link(k, n))
                assert cs.label[k, n] == ref


def test_dump_load_round_trip(tmp_path):
    cs = build_hotspot_network(2, 4, 8, 2, seed=5)
    path = tmp_path / "corr.txt"
    dump_correlation_set(cs, path)
    loaded = load_correlation_set(path)
    assert loaded.num_bs == cs.num_bs and loaded.num_users == cs.num_users
    assert loaded.serving == cs.serving and loaded.cluster_ids == cs.cluster_ids
    links = [(k, n) for k in range(4) for n in range(2)]
    # the file holds the dumped set's dense matrices exactly ...
    rows = path.read_text().splitlines()[3:]
    for (k, n), row in zip(links, rows):
        parsed = np.array([complex(float(re), float(im))
                           for re, im in (tok.split(",") for tok in row.split())])
        assert np.array_equal(parsed.reshape(8, 8), dense(cs.link(k, n)))
    # ... and the loaded factors give them back to round-off
    for k, n in links:
        want, back = dense(cs.link(k, n)), loaded.link(k, n)
        assert np.linalg.norm(dense(back) - want) <= 1e-12 * np.linalg.norm(want)


def test_hotspot_network_rejects_cells_inside_the_minimum_distance():
    with pytest.raises(ParameterError):
        build_hotspot_network(2, 4, 8, 2, seed=1, inter_site_m=70.0)


# A factor-stored network against the dense definition C = g M A A^H / tr(A A^H),
# A drawn from the normals that random_clustered_correlation reads.


def dense_definition(m, rank, gain, seed):
    """The dense C and its Hermitian square root from the eigenpairs of C,
    eigenvalues below 1e-9 of the largest clamped to zero."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))) / np.sqrt(2.0)
    gram = a @ a.conj().T
    c = (gain * m / np.real(np.trace(gram))) * gram
    w, v = np.linalg.eigh(c)
    root = (v * np.sqrt(np.where(w > 1e-9 * max(w[-1], 0.0), w, 0.0))) @ v.conj().T
    return c, root


@st.composite
def factor_networks(draw):
    num_bs, num_users = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    m = draw(st.integers(1, 32))
    rank = draw(st.integers(1, m))
    seed = draw(st.integers(0, 2**32 - 1))
    # users with one cluster id are cloned hotspot users: one normalized factor per BS
    cluster = [draw(st.integers(0, num_users - 1)) for _ in range(num_users)]
    zero = draw(st.sets(st.tuples(st.sampled_from(cluster), st.integers(0, num_bs - 1))))
    gains = draw(st.lists(st.floats(1e-3, 1e3), min_size=num_users * num_bs,
                          max_size=num_users * num_bs))
    links = {}
    for k in range(num_users):
        for n in range(num_bs):
            gain = 0.0 if (cluster[k], n) in zero else gains[k * num_bs + n]
            links[(k, n)] = (gain, [seed, cluster[k], n])
    factors = {link: np.sqrt(gain) * random_clustered_correlation(m, rank, 1.0, s)
               for link, (gain, s) in links.items()}
    cs = link_set(factors, {k: 0 for k in range(num_users)}, dict(enumerate(cluster)))
    return cs, links, rank


def rel_gap(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@settings(max_examples=100, deadline=None)
@given(factor_networks())
def test_factor_network_matches_dense_definition(case):
    cs, links, rank = case
    cs.validate()
    m = cs.dim
    for (k, n), (gain, seed) in links.items():
        f = cs.link(k, n)
        b = link_basis(f)
        c, root = dense_definition(m, rank, gain, seed)
        assert rel_gap(f @ f.conj().T, c) <= 1e-12
        assert rel_gap(f @ b.conj().T, root) <= 1e-12  # C^(1/2) = F B^H
        assert np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])) <= 1e-12
        assert abs(cs.trace[k, n] - m * gain) <= 1e-12 * m * gain
        assert cs.rank[k, n] <= rank
        # the padded factor holds nothing past the link's rank
        assert not np.any(cs.factor[k, n, :, cs.rank[k, n]:])


def rank_mixed_links():
    """Ranks 1..3 and a zero link (1, 0), so that the padded factor is wider
    than some links."""
    return {
        (k, n): random_clustered_correlation(6, 1 + (k + n) % 3,
                                             0.0 if (k, n) == (1, 0) else 1.0, seed=10 * k + n)
        for k in range(3)
        for n in range(2)
    }


def test_set_stores_each_link_factor_as_a_view_of_its_padded_arrays():
    alone = rank_mixed_links()
    cs = link_set(rank_mixed_links(), {0: 0, 1: 1, 2: 0}, {0: 0, 1: 1, 2: 2})
    for (k, n), f in alone.items():
        link = cs.link(k, n)
        if cs.rank[k, n]:  # a zero link's empty factor holds no memory
            assert np.shares_memory(link, cs.factor)
            assert np.array_equal(link, f)
        else:
            assert link.shape == (6, 0) and not np.any(f)


def test_set_drops_columns_below_the_rank_threshold_and_keeps_the_others_in_order():
    f = random_clustered_correlation(6, 3, 1.0, seed=1)
    junk = f.copy()
    junk[:, 1] *= 1e-6  # at most 1e-12 of the largest column power: below RANK_TOL
    cs = one_link(junk)
    assert cs.rank[0, 0] == 2 and cs.factor.shape[-1] == 2
    assert np.array_equal(cs.link(0, 0), f[:, [0, 2]])


def lowest_equal_link(cs, k, n):
    """The lowest user whose link to BS n has bitwise the factor of k's."""
    bits = cs.factor[:, n].view(np.uint64)
    return next(u for u in range(cs.num_users) if np.array_equal(bits[u], bits[k]))


def check_derived_arrays(cs):
    for k in range(cs.num_users):
        for n in range(cs.num_bs):
            row = cs.factor[k, n]
            power = np.sum(np.abs(row) ** 2, axis=0)
            rank = int(np.count_nonzero(power > RANK_TOL * np.max(power, initial=0.0)))
            assert cs.rank[k, n] == rank
            assert not np.any(row[:, rank:])
            assert cs.trace[k, n] == np.sum(np.abs(row) ** 2)
            assert cs.label[k, n] == lowest_equal_link(cs, k, n)


@settings(max_examples=40, deadline=None)
@given(num_bs=st.integers(1, 3), num_users=st.integers(1, 8), m=st.integers(2, 12),
       rank=st.integers(1, 4), hotspots=st.integers(1, 3),
       fraction=st.sampled_from([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]), seed=st.integers(0, 2**16))
def test_derived_arrays_of_generated_networks(tmp_path_factory, num_bs, num_users, m, rank,
                                              hotspots, fraction, seed):
    cs = build_hotspot_network(num_bs, num_users, m, min(rank, m), seed,
                               hotspots_per_cell=hotspots, hotspot_fraction=fraction)
    check_derived_arrays(cs)
    # a generated network labels each user with the lowest member of its cluster
    lowest = {}
    for k in range(num_users):
        lowest.setdefault(cs.cluster_ids[k], k)
    for k in range(num_users):
        assert list(cs.label[k]) == [lowest[cs.cluster_ids[k]]] * num_bs
    # a text round trip keeps the serving map, the clusters, the ranks and the labels
    path = tmp_path_factory.mktemp("dump") / "corr.txt"
    dump_correlation_set(cs, path)
    loaded = load_correlation_set(path)
    assert loaded.serving == cs.serving and loaded.cluster_ids == cs.cluster_ids
    assert np.array_equal(loaded.rank, cs.rank)
    assert np.array_equal(loaded.label, cs.label)


def test_derived_arrays_of_a_rank_mixed_set_with_a_zero_link():
    links = rank_mixed_links()
    links[(2, 1)] = links[(0, 1)].copy()  # a clone of user 0 at BS 1
    cs = link_set(links, {0: 0, 1: 1, 2: 0})
    check_derived_arrays(cs)
    assert cs.rank[1, 0] == 0 and cs.trace[1, 0] == 0.0
    assert cs.label[2, 1] == 0 and cs.label[2, 0] == 2
