from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hiermimo import det_equiv
from hiermimo.corrmat import (
    from_dense,
    build_hotspot_network,
    sample_channel,
)
from hiermimo.det_equiv import (
    GAIN_MAX_ITER,
    GAIN_TOL,
    GainCache,
    de_rate_power,
    full_de,
    projected_factor,
    solve_effective_gains,
)
from hiermimo.errors import ConvergenceError, ValidationError
from hiermimo.precoder import transmit_power
from hiermimo.scheduler import (
    best_control_exhaustive,
    build_outer_precoders,
    best_control_greedy,
    weighted_sum_rate,
)
from hiermimo.topology import build_topology, theta_from_db

from conftest import (
    dense,
    full_inner_precoders,
    link_basis,
    link_set,
    random_clustered_correlation,
    single_cell_set,
)


def isotropic_gain_root(m, nu):
    """Root of m x^2 + (1 + m nu - m) x - m nu = 0 (single isotropic user)."""
    b, c = 1 + m * nu - m, -m * nu
    return (-b + np.sqrt(b * b - 4 * m * c)) / (2 * m)


def test_projection_passthrough_and_annihilation():
    mat = random_clustered_correlation(8, 3, 1.0, seed=1)
    empty = np.zeros((8, 0), dtype=complex)
    assert np.array_equal(projected_factor(mat, empty), mat)
    full_basis = link_basis(mat)
    wiped = projected_factor(mat, full_basis)
    wiped = wiped @ wiped.conj().T
    assert np.linalg.norm(wiped) <= 1e-10 * np.linalg.norm(dense(mat))


def test_projection_matches_explicit_product():
    rng = np.random.default_rng(2)
    mat = random_clustered_correlation(8, 4, 1.0, seed=3)
    basis = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))[0]
    proj = np.eye(8) - basis @ basis.conj().T
    oracle = proj @ dense(mat) @ proj
    projected = projected_factor(mat, basis)
    assert np.linalg.norm(projected @ projected.conj().T - oracle) <= 1e-12


def test_gain_fixed_point_zero_matrices():
    sol = solve_effective_gains([np.zeros((8, 3), dtype=complex), np.zeros((8, 0))], nu=0.01)
    assert np.all(sol.gains == 0.0)
    assert sol.iterations <= 2


def test_gain_fixed_point_isotropic_closed_form():
    m, nu = 16, 0.01
    sol = solve_effective_gains([np.eye(m, dtype=complex)], nu)  # C = I = F F^H
    root = isotropic_gain_root(m, nu)
    assert abs(sol.gains[0] - root) <= 1e-6
    assert abs(root - 0.938159) <= 1e-6


def test_gain_fixed_point_symmetry():
    mat = random_clustered_correlation(16, 4, 1.0, seed=9)
    sol = solve_effective_gains([mat, mat.copy()], nu=0.01, tol=1e-12)
    assert abs(sol.gains[0] - sol.gains[1]) <= 1e-12


def test_gain_fixed_point_residual_monotone_after_burn_in():
    rng = np.random.default_rng(4)
    for seed in range(5):
        mats = [random_clustered_correlation(16, 3, float(g), seed=50 + seed * 7 + i)
                for i, g in enumerate(rng.uniform(0.2, 3.0, size=4))]
        sol = solve_effective_gains(mats, nu=0.01, tol=1e-12)
        hist = sol.residual_history
        for later, earlier in zip(hist[3:], hist[2:]):
            assert later <= earlier + 1e-12


def test_gain_fixed_point_scale_covariance():
    mats = [random_clustered_correlation(16, 3, 1.0, seed=77 + i) for i in range(3)]
    base = solve_effective_gains(mats, nu=0.01, tol=1e-12)
    for c in (2.0, 10.0):
        scaled = solve_effective_gains([np.sqrt(c) * f for f in mats], nu=c * 0.01, tol=1e-12 * c)
        assert np.allclose(scaled.gains, c * base.gains, rtol=1e-6)


def test_gain_fixed_point_raises_on_iteration_cap():
    mats = [random_clustered_correlation(16, 3, 1.0, seed=5)]
    with pytest.raises(ConvergenceError) as err:
        solve_effective_gains(mats, nu=0.01, max_iter=1)
    assert err.value.residual is not None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"init": [1.0]},
        {"init": [1.0, -0.5]},
        {"init": [1.0, np.nan]},
        {"init": [np.inf, 1.0]},
        {"counts": [1, 1, 1]},
        {"counts": [1, 0]},
        {"counts": [0.5, 2]},
    ],
    ids=["init-length", "init-negative", "init-nan", "init-inf",
         "counts-length", "counts-zero", "counts-fraction"],
)
def test_gain_fixed_point_rejects_malformed_init_and_counts(kwargs):
    mats = [random_clustered_correlation(8, 2, 1.0, seed=s) for s in (1, 2)]
    with pytest.raises(ValueError):
        solve_effective_gains(mats, 0.01, **kwargs)


def dense_gain_iteration(projected, nu, tol, max_iter):
    """Reference oracle: the fixed point iterated on M x M matrices, one dense
    resolvent inverse per step. Returns (gains, iterations)."""
    stack = np.stack(projected, axis=0)
    count, m, _ = stack.shape
    gains = np.ones(count)
    for it in range(1, max_iter + 1):
        weights = 1.0 / (m * (nu + gains))
        resolvent = np.linalg.inv(np.einsum("s,spq->pq", weights, stack) + np.eye(m))
        new_gains = np.real(np.einsum("spq,qp->s", stack, resolvent)) / m
        residual = float(np.max(np.abs(new_gains - gains)))
        gains = new_gains
        if residual <= tol:
            return gains, it
    raise ConvergenceError("dense reference did not converge")


@st.composite
def rank_limited_sets(draw):
    """Random factor sets: per-user ranks from 0 to M (so sum r may exceed M),
    zero factors, path gains over three decades, and a null basis of 0 to
    M - 1 columns projected out of every factor."""
    m = draw(st.integers(2, 10))
    count = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = []
    for _ in range(count):
        rank = draw(st.integers(0, m))
        gain = draw(st.sampled_from([0.0]) | st.floats(0.01, 10.0))
        raw = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        factors.append(raw * np.sqrt(gain / (2.0 * max(rank, 1))))
    nulls = draw(st.integers(0, m - 1))
    basis = np.linalg.qr(rng.standard_normal((m, nulls)) + 1j * rng.standard_normal((m, nulls)))[0]
    nu = draw(st.floats(1e-3, 1.0))
    return [projected_factor(f, basis) for f in factors], nu


@settings(max_examples=150, deadline=None)
@given(rank_limited_sets())
def test_factor_fixed_point_matches_dense_iteration(instance):
    factors, nu = instance
    # a tolerance far below the compared 1e-9 makes a stop one step apart harmless;
    # small nu with a strong user contracts slowly, hence the raised cap
    sol = solve_effective_gains(factors, nu, tol=1e-12, max_iter=5000)
    dense, iterations = dense_gain_iteration([f @ f.conj().T for f in factors], nu, 1e-12, 5000)
    assert np.all(np.abs(sol.gains - dense) <= 1e-9 * np.maximum(1.0, np.abs(dense)))
    assert sol.iterations <= iterations
    assert len(sol.residual_history) == sol.iterations
    assert sol.residual == sol.residual_history[-1] <= 1e-12


@st.composite
def duplicated_factor_sets(draw):
    """Hotspot users: one factor cloned 2 to 5 times, each clone scaled by
    the square root of its own path gain, plus 0 to 2 independent users,
    all projected off a null basis of 0 to M - 1 columns. The clones make the
    stacked Gram matrix singular, where plain iteration contracts slowly."""
    m = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor(rank):
        return (rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))) / np.sqrt(
            2.0 * rank
        )

    shared = factor(draw(st.integers(1, m)))
    gains = draw(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=5))
    factors = [np.sqrt(g) * shared for g in gains]
    for _ in range(draw(st.integers(0, 2))):
        factors.append(np.sqrt(draw(st.floats(0.01, 10.0))) * factor(draw(st.integers(1, m))))
    basis = np.linalg.qr(factor(draw(st.integers(0, m - 1))))[0]
    nu = 10.0 ** draw(st.floats(-3.0, 0.0))  # small nu slows plain iteration most
    return [projected_factor(f, basis) for f in factors], nu


@settings(max_examples=100, deadline=None)
@given(duplicated_factor_sets())
def test_fixed_point_on_duplicated_factors_converges_to_the_dense_limit(instance):
    factors, nu = instance
    sol = solve_effective_gains(factors, nu, tol=1e-12)  # default GAIN_MAX_ITER
    dense, _ = dense_gain_iteration([f @ f.conj().T for f in factors], nu, 1e-13, 100000)
    assert np.all(np.abs(sol.gains - dense) <= 1e-9 * np.maximum(1.0, np.abs(dense)))


@st.composite
def cloned_factor_sets(draw):
    """Hotspot users at one BS: 1 to 4 distinct factors, of rank 0 to M and
    some of zero gain, each shared by 1 to 4 users listed in a shuffled
    order, all projected off a null basis of 0 to M - 1 columns. Returns the
    distinct factors, their multiplicities, each user's factor index and nu."""
    m = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = []
    for _ in range(draw(st.integers(1, 4))):
        rank = draw(st.integers(0, m))
        gain = draw(st.sampled_from([0.0]) | st.floats(0.01, 10.0))
        raw = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        distinct.append(raw * np.sqrt(gain / (2.0 * max(rank, 1))))
    counts = np.array(draw(st.lists(st.integers(1, 4), min_size=len(distinct),
                                    max_size=len(distinct))))
    group = rng.permutation(np.repeat(np.arange(len(distinct)), counts))
    nulls = draw(st.integers(0, m - 1))
    basis = np.linalg.qr(rng.standard_normal((m, nulls)) + 1j * rng.standard_normal((m, nulls)))[0]
    nu = draw(st.floats(1e-3, 1.0))
    return [projected_factor(f, basis) for f in distinct], counts, group, nu


@settings(max_examples=100, deadline=None)
@given(cloned_factor_sets())
def test_collapsed_solve_matches_the_solve_over_every_clone(instance):
    distinct, counts, group, nu = instance
    # the residual tolerance is absolute, so it sits far below the compared
    # relative error to hold it for gains down to 1e-4 as well
    every = solve_effective_gains([distinct[j] for j in group], nu, tol=1e-14, max_iter=5000)
    collapsed = solve_effective_gains(distinct, nu, tol=1e-14, max_iter=5000, counts=counts)
    np.testing.assert_allclose(collapsed.gains[group], every.gains, rtol=1e-10, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(rank_limited_sets(), st.lists(st.floats(0.0, 100.0), min_size=5, max_size=5))
def test_warm_start_reaches_the_cold_fixed_point(instance, start):
    factors, nu = instance
    cold = solve_effective_gains(factors, nu, tol=1e-14, max_iter=5000)  # see above
    warm = solve_effective_gains(factors, nu, tol=1e-14, max_iter=5000,
                                 init=start[: len(factors)])
    np.testing.assert_allclose(warm.gains, cold.gains, rtol=1e-10, atol=0.0)


def test_fixed_point_converges_where_plain_iteration_hits_the_cap():
    # BS 1 of the 7 BS x 56 users x M=64 rank-3 network serving users 1, 15
    # and 29: three users of one hotspot share its correlation, and plain
    # iteration does not reach GAIN_TOL within GAIN_MAX_ITER steps
    cs = build_hotspot_network(7, 56, 64, 3, seed=7, inter_site_m=300.0)
    graph = build_topology(cs, theta_from_db(10.0))
    factors = GainCache(cs, graph, 0.01).projected(1, (1, 15, 29), ())
    dense = [f @ f.conj().T for f in factors]
    with pytest.raises(ConvergenceError):
        dense_gain_iteration(dense, 0.01, GAIN_TOL, GAIN_MAX_ITER)
    sol = solve_effective_gains(factors, 0.01)
    assert sol.iterations <= 30
    limit, _ = dense_gain_iteration(dense, 0.01, 1e-12, 5000)
    assert np.all(np.abs(sol.gains - limit) <= 1e-9 * np.abs(limit))


def test_gain_cache_solves_a_group_of_clones_once():
    # users 1, 15 and 29 share BS 1's hotspot factor: the cache solves one
    # factor of multiplicity 3, the clones get bitwise equal gains, and any
    # two of them share one solve
    cs = build_hotspot_network(7, 56, 64, 3, seed=7, inter_site_m=300.0)
    graph = build_topology(cs, theta_from_db(10.0))
    cache = GainCache(cs, graph, 0.01)
    assert cs.label[[1, 15, 29], 1].tolist() == [1, 1, 1]
    with mock.patch.object(det_equiv, "solve_effective_gains",
                           wraps=solve_effective_gains) as solve:
        xi, _, _ = cache.gains(1, (1, 15, 29), ())
        pair, _, _ = cache.gains(1, (1, 15), ())
        assert np.array_equal(cache.gains(1, (15, 29), ())[0], pair)
    assert xi[0] == xi[1] == xi[2] and pair[0] == pair[1]
    assert [list(call.kwargs["counts"]) for call in solve.call_args_list] == [[3], [2]]
    limit, _ = dense_gain_iteration([f @ f.conj().T for f in cache.projected(1, (1, 15, 29), ())],
                                    0.01, 1e-12, 5000)
    np.testing.assert_allclose(xi, limit, rtol=1e-9)


def test_de_rate_power_empty_selection(desk):
    cs, graph = desk
    res = de_rate_power({}, cs, graph, 0.01)
    assert np.all(res.rates == 0) and np.all(res.powers == 0)


def test_de_rate_depends_only_on_power(desk):
    cs, graph = desk
    sel = (0, 1, 2)
    wsr = weighted_sum_rate(sel, np.ones(6), cs, graph, 0.01, 10.0)
    res = de_rate_power(wsr.powers, cs, graph, 0.01)
    for k in sel:
        assert np.isclose(res.rates[k], np.log1p(wsr.powers[k]), rtol=1e-12)


def test_de_power_close_to_monte_carlo():
    m, users, nu, p_c = 32, 4, 0.01, 10.0
    cs = single_cell_set(m, users, 6, seed0=300)
    graph = build_topology(cs, 10.0)
    sel = tuple(range(users))
    wsr = weighted_sum_rate(sel, np.ones(users), cs, graph, nu, p_c)
    outer = build_outer_precoders(wsr.powers, cs, graph)
    de = de_rate_power(wsr.powers, cs, graph, nu)
    assert np.isclose(de.powers[0], p_c, rtol=1e-8)
    rng = np.random.default_rng(12)
    draws = 500
    acc = 0.0
    power = np.array([wsr.powers[k] for k in sorted(wsr.powers)])
    for _ in range(draws):
        channels = sample_channel(cs, rng)
        beams = outer[0] @ full_inner_precoders(wsr.powers, outer, channels, nu)[0]
        acc += transmit_power(beams[None], power)[0]
    assert abs(acc / draws - de.powers[0]) / de.powers[0] <= 0.10


def _annihilated_user_set(m=16, rank=4):
    """Two cells; user 1 is served by BS 1 but its correlation there lies
    inside user 0's range, and user 0 is a neighbor of BS 1."""
    strong = random_clustered_correlation(m, rank, 1.0, seed=21)
    inside = from_dense(0.5 * dense(strong))
    weak = random_clustered_correlation(m, rank, 1e-6, seed=23)
    other = random_clustered_correlation(m, rank, 1.0, seed=24)
    mats = {
        (0, 0): other,  # user 0 at its serving BS 0
        (0, 1): strong,  # user 0 is a strong neighbor of BS 1
        (1, 0): weak,  # user 1 barely visible at BS 0
        (1, 1): inside,  # user 1 at serving BS 1, range inside user 0's
    }
    cs = link_set(mats, {0: 0, 1: 1})
    return cs, build_topology(cs, 10.0)


def test_annihilated_user_with_power_is_rejected():
    cs, graph = _annihilated_user_set()
    assert 0 in graph.neighbor_users[1]
    with pytest.raises(ValidationError):
        de_rate_power({0: 1.0, 1: 0.5}, cs, graph, 0.01)


def test_annihilated_user_is_inert_in_weighted_sum_rate():
    cs, graph = _annihilated_user_set()
    lone = weighted_sum_rate((0,), np.ones(2), cs, graph, 0.01, 10.0)
    both = weighted_sum_rate((0, 1), np.ones(2), cs, graph, 0.01, 10.0)
    assert GainCache(cs, graph, 0.01).gains(1, (1,), (0,))[0][0] <= 1e-12  # user 1 at BS 1
    assert both.powers[1] == 0.0
    assert np.isclose(both.value, lone.value, rtol=1e-9)


def test_full_de_zero_power(desk):
    cs, graph = desk
    res = full_de({0: 0.0, 1: 0.0}, cs, graph, 0.01)
    assert np.all(res.rates_hat == 0) and np.all(res.powers_hat == 0)


def test_full_de_single_user_closed_form():
    m, nu = 16, 0.01
    cs = single_cell_set(m, 1, 4, seed0=400)
    graph = build_topology(cs, 10.0)
    res = full_de({0: 5.0}, cs, graph, nu)
    xi = res.gains[0]
    expect = np.log1p(5.0 * xi**2 / (nu + xi) ** 2)
    assert np.isclose(res.rates_hat[0], expect, rtol=1e-10)
    assert res.moments[0]["leakage"][0] == 0.0


def _three_user_instance():
    cs = single_cell_set(16, 3, 3, gains=[1.0, 0.7, 1.4], seed0=500)
    graph = build_topology(cs, 10.0)
    wsr = weighted_sum_rate((0, 1, 2), np.ones(3), cs, graph, 0.01, 10.0)
    return cs, graph, wsr.powers


def test_full_de_error_shrinks_linearly_in_nu():
    cs, graph, power = _three_user_instance()
    errors = []
    for nu in (1e-2, 1e-3, 1e-4):
        hat = full_de(power, cs, graph, nu)
        simple = de_rate_power(power, cs, graph, nu)
        errors.append(float(np.max(np.abs(hat.rates_hat - simple.rates))))
    assert errors[1] / errors[0] <= 0.15
    assert errors[2] / errors[1] <= 0.15


def test_full_de_gap_constant_is_stable_across_seeds():
    ratios = []
    for seed0 in (600, 700, 800, 900):
        cs = single_cell_set(16, 3, 3, seed0=seed0)
        graph = build_topology(cs, 10.0)
        wsr = weighted_sum_rate((0, 1, 2), np.ones(3), cs, graph, 1e-3, 10.0)
        hat = full_de(wsr.powers, cs, graph, 1e-3)
        simple = de_rate_power(wsr.powers, cs, graph, 1e-3)
        ratios.append(float(np.max(np.abs(hat.rates_hat - simple.rates))) / 1e-3)
    assert max(ratios) / min(ratios) <= 10.0


def test_full_de_nonnegative_leakage(desk):
    cs, graph = desk
    sel = tuple(range(6))
    wsr = weighted_sum_rate(sel, np.ones(6), cs, graph, 0.01, 10.0)
    res = full_de(wsr.powers, cs, graph, 0.01)
    for block in res.moments.values():
        assert np.all(block["leakage"] >= -1e-12)


def test_refined_de_error_shrinks_with_antenna_count():
    # fixed load |S_n|/M and rank fraction; the mean absolute gap between
    # empirical rates and the refined DE must shrink from M=16 to M=64
    # (paired per-seed comparison; 300 draws resolves the M=16 gap)
    from hiermimo.corrmat import build_hotspot_network
    from hiermimo.harness import monte_carlo_policy
    from hiermimo.scheduler import ControlPolicy
    from hiermimo.topology import theta_from_db

    shapes = {16: (4, 3), 64: (16, 12)}
    diffs = []
    for seed in range(10):
        errs = {}
        for m, (num_users, rank) in shapes.items():
            cs = build_hotspot_network(2, num_users, m, rank, seed=3000 + seed,
                                       inter_site_m=300.0)
            graph = build_topology(cs, theta_from_db(10.0))
            sel = tuple(range(num_users))
            wsr = weighted_sum_rate(sel, np.ones(num_users), cs, graph, 0.01, 10.0)
            outer = build_outer_precoders(wsr.powers, cs, graph)
            policy = ControlPolicy(controls=[wsr.powers], probs=np.array([1.0]))
            rep = monte_carlo_policy(policy, [outer], cs, graph, 0.01, 300, seed=seed)
            hat = full_de(wsr.powers, cs, graph, 0.01)
            errs[m] = float(np.mean(np.abs(rep.user_rate_mean - hat.rates_hat)[list(sel)]))
        diffs.append(errs[16] - errs[64])
    diffs = np.array(diffs)
    assert np.median(diffs) > 0
    assert int(np.sum(diffs > 0)) >= 8


def test_gain_cache_matches_fresh_solve(desk):
    cs, graph = desk
    cache = GainCache(cs, graph, 0.01)
    users = graph.assoc_users[0]
    cached, _, _ = cache.gains(0, users, ())
    again, _, _ = cache.gains(0, users, ())
    assert np.array_equal(cached, again)
    mats = [cs.link(k, 0) for k in users]
    fresh = solve_effective_gains(mats, 0.01)
    assert np.allclose(cached, fresh.gains, rtol=1e-12)


def test_gain_cache_warm_start_matches_fresh_solve(desk):
    cs, graph = desk
    cache = GainCache(cs, graph, 0.01)
    users = graph.assoc_users[0]
    with mock.patch.object(det_equiv, "solve_effective_gains",
                           wraps=solve_effective_gains) as solve:
        cache.gains(0, users[:-1], ())  # a sibling key: the last gains of its users
        warm, _, _ = cache.gains(0, users, ())
    assert solve.call_args_list[0].kwargs["init"] is None
    assert solve.call_args_list[1].kwargs["init"] is not None
    fresh = solve_effective_gains([cs.link(k, 0) for k in users], 0.01)
    np.testing.assert_allclose(warm, fresh.gains, rtol=1e-10)


def test_a_warm_start_that_fails_is_retried_from_one(desk):
    cs, graph = desk
    starts = []

    def cold_only(factors, nu, init=None, counts=None):
        starts.append(init is not None)
        if init is not None:
            raise ConvergenceError("forced failure from a warm start")
        return solve_effective_gains(factors, nu, counts=counts)

    cache = GainCache(cs, graph, 0.01)
    users = graph.assoc_users[0]
    with mock.patch.object(det_equiv, "solve_effective_gains", side_effect=cold_only):
        cache.gains(0, users[:-1], ())
        xi, _, _ = cache.gains(0, users, ())
        assert np.array_equal(cache.gains(0, users, ())[0], xi)  # remembered, not failed
        assert starts == [False, True, False]
        mu = np.random.default_rng(5).uniform(0.05, 1.0, size=6)
        greedy = best_control_greedy(mu, cs, graph, 0.01, 10.0, GainCache(cs, graph, 0.01))
        exhaustive = best_control_exhaustive(mu, cs, graph, 0.01, 10.0,
                                             GainCache(cs, graph, 0.01))
    assert greedy.skipped == exhaustive.skipped == 0
    assert np.array_equal(xi, solve_effective_gains(
        [cs.link(k, 0) for k in users], 0.01).gains)
    plain = GainCache(cs, graph, 0.01)
    assert greedy.selected == best_control_greedy(mu, cs, graph, 0.01, 10.0, plain).selected
    assert exhaustive.selected == best_control_exhaustive(mu, cs, graph, 0.01, 10.0,
                                                          plain).selected


# The oracles' bounds rest on two facts about the gains (the map is a
# standard interference function, Yates, IEEE JSAC 13(7), 1995): serving or
# blocking one more user lowers every gain, and xi_k <= (1/M) tr C_k. A
# solve stops within GAIN_TOL of its fixed point, so two computed gains may
# cross by a few GAIN_TOL.
MONOTONE_SLACK = 10 * GAIN_TOL


@st.composite
def grown_keys(draw):
    """A hotspot network (clones included), a random nu, a BS n with a key
    (S_n, B_n), and the same key with one more served or blocked user."""
    num_bs = draw(st.integers(1, 3))
    num_users = draw(st.integers(2, 9))
    m, rank = draw(st.sampled_from([(8, 2), (16, 3), (32, 4)]))
    cs = build_hotspot_network(num_bs, num_users, m, rank, seed=draw(st.integers(0, 2**16)),
                               inter_site_m=draw(st.sampled_from([150.0, 300.0, 500.0])),
                               hotspot_fraction=draw(st.sampled_from([0.5, 1.0])))
    graph = build_topology(cs, theta_from_db(10.0))
    n = draw(st.sampled_from([b for b in range(num_bs) if graph.assoc_users[b]]))
    own = list(graph.assoc_users[n])
    foreign = [k for k in range(num_users) if graph.serving[k] != n]
    users = draw(st.lists(st.sampled_from(own), min_size=1, unique=True))
    blocked = draw(st.lists(st.sampled_from(foreign), unique=True)) if foreign else []
    grow_served = [k for k in own if k not in users]
    grow_blocked = [k for k in foreign if k not in blocked]
    assume(grow_served or grow_blocked)
    new = draw(st.sampled_from(grow_served + grow_blocked))
    key = (n, tuple(sorted(users)), tuple(sorted(blocked)))
    if new in grow_served:
        grown = (n, tuple(sorted(users + [new])), key[2])
    else:
        grown = (n, key[1], tuple(sorted(blocked + [new])))
    nu = 10.0 ** draw(st.floats(-3.0, 0.0))
    return cs, graph, nu, key, grown


@settings(max_examples=150, deadline=None)
@given(grown_keys())
def test_serving_or_blocking_one_more_user_lowers_every_gain(case):
    cs, graph, nu, key, grown = case
    m = cs.dim
    n = key[0]
    before = dict(zip(key[1], GainCache(cs, graph, nu).gains(*key)[0]))
    after = dict(zip(grown[1], GainCache(cs, graph, nu).gains(*grown)[0]))
    for k, xi in before.items():
        assert after[k] <= xi + MONOTONE_SLACK, (k, xi, after[k])
    for gains in (before, after):
        for k, xi in gains.items():
            assert 0.0 <= xi <= cs.trace[k, n] / m * (1 + 1e-12), (k, xi)
