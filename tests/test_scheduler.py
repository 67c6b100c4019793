import itertools
import logging
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermimo import cli, det_equiv, scheduler
from hiermimo.corrmat import build_hotspot_network, from_dense
from hiermimo.det_equiv import GainCache, de_rate_power
from hiermimo.errors import ConvergenceError, ParameterError, ValidationError
from hiermimo.scheduler import (
    alpha_fair_utility,
    assemble_control,
    best_control_exhaustive,
    best_control_greedy,
    optimize_policy,
    optimize_time_sharing,
    pfs_utility,
    project_simplex,
    sum_rate_utility,
    waterfill,
    weighted_sum_rate,
)
from hiermimo.topology import build_topology, served_and_blocked, theta_from_db

from conftest import link_set, single_cell_set

NU, PC = 0.01, 10.0
# One selection's value from two gain caches agrees to about this, relative:
# each fixed point starts from its cache's last xi, so caches that solved in
# another order stop at another point within GAIN_TOL of the same xi.
SOLVE_ORDER_RTOL = 1e-10
DESK_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "desk.json"


def small_network(seed, num_users=6):
    cs = build_hotspot_network(2, num_users, 16, 3, seed=seed, inter_site_m=300.0)
    return cs, build_topology(cs, theta_from_db(10.0))


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def test_pfs_at_zero_rates():
    util = pfs_utility(4, eps=1e-4)
    value, grad = util.value_and_grad(np.zeros(4))
    assert np.isclose(value, np.log(1e-4), rtol=1e-12)
    assert np.allclose(grad, 0.25 * 1e4, rtol=1e-12)


def test_sum_rate_gradient_is_weights():
    util = sum_rate_utility(3, weights=[0.2, 0.3, 0.5])
    _, grad = util.value_and_grad(np.array([1.0, 5.0, 0.0]))
    assert np.allclose(grad, [0.2, 0.3, 0.5])


def test_alpha_two_at_unit_rate():
    util = alpha_fair_utility(2.0, 3, eps=0.0)
    value, grad = util.value_and_grad(np.ones(3))
    assert np.isclose(value, -1.0, rtol=1e-12)
    assert np.allclose(grad, 1.0 / 3.0, rtol=1e-12)


def test_alpha_one_matches_pfs():
    a = alpha_fair_utility(1.0, 5, eps=1e-3)
    p = pfs_utility(5, eps=1e-3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        r = rng.uniform(0, 4, size=5)
        va, ga = a.value_and_grad(r)
        vp, gp = p.value_and_grad(r)
        assert np.isclose(va, vp) and np.allclose(ga, gp)


@pytest.mark.parametrize("factory", [
    lambda: pfs_utility(4, eps=1e-4),
    lambda: alpha_fair_utility(2.0, 4, eps=1e-4),
    lambda: alpha_fair_utility(0.5, 4, eps=1e-2),
    lambda: sum_rate_utility(4),
])
def test_gradient_matches_finite_differences(factory):
    util = factory()
    rng = np.random.default_rng(1)
    r = rng.uniform(0.5, 4.0, size=4)
    _, grad = util.value_and_grad(r)
    curv = util.curvature(r)
    step = 1e-6
    for k in range(4):
        up, down = r.copy(), r.copy()
        up[k] += step
        down[k] -= step
        numeric = (util.value(up) - util.value(down)) / (2 * step)
        assert abs(numeric - grad[k]) <= 1e-6 * max(1.0, abs(grad[k]))
        # the utility is separable: its Hessian is the diagonal curvature
        numeric = (util.value_and_grad(up)[1] - util.value_and_grad(down)[1]) / (2 * step)
        assert np.all(np.abs(np.delete(numeric, k)) <= 1e-12)
        assert abs(numeric[k] - curv[k]) <= 1e-6 * max(1.0, abs(curv[k]))


def test_negative_rates_rejected():
    with pytest.raises(ParameterError):
        pfs_utility(2).value_and_grad(np.array([-0.1, 1.0]))


def test_default_weights_scale_inversely_with_users():
    for k in (2, 8, 32):
        for util in (pfs_utility(k), alpha_fair_utility(2.0, k), sum_rate_utility(k)):
            assert float(np.max(util.weights)) <= 1.0 / k + 1e-15
    with pytest.raises(ParameterError):
        pfs_utility(3, weights=[0.5, -0.1, 0.6])


# ---------------------------------------------------------------------------
# water filling
# ---------------------------------------------------------------------------

def oracle_bisect(weights, gains, m, p_c, tol=1e-12):
    """Independent bisection used as the test oracle."""
    def spent(level):
        return sum(max(w * m * x / level - 1.0, 0.0) / x for w, x in zip(weights, gains)) / m

    hi = max(w * m * x for w, x in zip(weights, gains))
    lo = hi
    while spent(lo) < p_c:
        lo /= 2
    for _ in range(300):
        mid = (lo + hi) / 2
        if spent(mid) > p_c:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    level = (lo + hi) / 2
    return [max(w * m * x / level - 1.0, 0.0) for w, x in zip(weights, gains)], level


def test_waterfill_single_user_binds():
    powers, _ = waterfill([1.0], [0.5], m=16, p_c=10.0)
    assert np.isclose(powers[0], 80.0, rtol=1e-8)


def test_waterfill_symmetric_users():
    powers, _ = waterfill([1.0, 1.0], [0.5, 0.5], m=16, p_c=1.0)
    assert np.isclose(powers[0], powers[1], rtol=1e-10)
    assert np.isclose(powers[0], 16 * 0.5 * 1.0 / 2, rtol=1e-8)


def test_waterfill_matches_oracle_and_kkt():
    weights, gains, m, p_c = [2.0, 1.0], [0.5, 0.5], 16, 1.0
    powers, level = waterfill(weights, gains, m=m, p_c=p_c)
    oracle_p, _ = oracle_bisect(weights, gains, m, p_c)
    for k in range(2):
        assert abs(powers[k] - oracle_p[k]) <= 1e-6
    for k in range(2):
        if powers[k] > 0:
            assert abs(weights[k] * m * gains[k] / (1 + powers[k]) - level) <= 1e-6
    spent = sum(powers[k] / gains[k] for k in range(2)) / m
    assert abs(spent - p_c) <= 1e-8 * p_c


def test_waterfill_excludes_zero_weight_and_zero_gain():
    powers, _ = waterfill([1.0, 0.0, 1.0], [0.5, 0.5, 0.0], m=16, p_c=10.0)
    assert powers[1] == 0.0 and powers[2] == 0.0
    assert np.isclose(powers[0], 80.0, rtol=1e-8)  # whole budget to user 0


def test_waterfill_no_active_users():
    powers, level = waterfill([0.0], [0.5], m=16, p_c=10.0)
    assert powers[0] == 0.0 and level is None


def test_waterfill_weight_scaling_leaves_powers():
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.2, 3.0, size=4).tolist()
    gains = rng.uniform(0.1, 2.0, size=4).tolist()
    base, _ = waterfill(weights, gains, m=16, p_c=5.0)
    scaled, _ = waterfill([3.0 * w for w in weights], gains, m=16, p_c=5.0)
    for k in range(4):
        assert abs(base[k] - scaled[k]) <= 1e-8 * max(1.0, base[k])


@st.composite
def waterfill_inputs(draw):
    """Users over two BSs with zero weights, zero gains, and values from a
    small grid so that w M xi ties between users are common."""
    count = draw(st.integers(1, 8))
    grid = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    weights = draw(st.lists(grid | st.floats(1e-3, 10.0), min_size=count, max_size=count))
    gains = draw(st.lists(grid | st.floats(1e-3, 10.0), min_size=count, max_size=count))
    serving = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    m = draw(st.sampled_from([1, 4, 16, 128]))
    p_c = draw(st.floats(1e-2, 1e2))
    return weights, gains, serving, m, p_c


@settings(max_examples=300, deadline=None)
@given(waterfill_inputs())
def test_waterfill_matches_bisection_and_kkt(inputs):
    weights, gains, serving, m, p_c = inputs
    for n in (0, 1):
        users = [k for k in range(len(weights)) if serving[k] == n]
        bs_powers, level = waterfill([weights[k] for k in users], [gains[k] for k in users],
                                     m=m, p_c=p_c)
        powers = dict(zip(users, bs_powers))
        active = [k for k in users if weights[k] > 0 and gains[k] > 0]
        for k in set(users) - set(active):
            assert powers[k] == 0.0
        if not active:
            assert level is None
            continue
        oracle_p, _ = oracle_bisect([weights[k] for k in active], [gains[k] for k in active], m, p_c)
        for k, p in zip(active, oracle_p):
            assert abs(powers[k] - p) <= 1e-8 * max(1.0, p)
            top = weights[k] * m * gains[k]
            if powers[k] > 0:
                assert abs(top / (1 + powers[k]) - level) <= 1e-9 * level
            else:
                assert top <= level * (1 + 1e-9)
        spent = sum(powers[k] / gains[k] for k in active) / m
        assert abs(spent - p_c) <= 1e-9 * p_c


def reference_waterfill(weights, gains, m, p_c):
    """The NumPy water filling: argsort and cumsum over the active users."""
    powers = [0.0] * len(weights)
    active = [i for i, (w, xi) in enumerate(zip(weights, gains))
              if w > 0.0 and xi > det_equiv.ZERO_GAIN]
    if not active:
        return powers, None
    weight = np.array([weights[i] for i in active])
    top = np.array([weights[i] * m * gains[i] for i in active])
    inv_gain = np.array([1.0 / gains[i] for i in active])
    order = np.argsort(-top, kind="stable")
    candidates = m * np.cumsum(weight[order]) / (m * p_c + np.cumsum(inv_gain[order]))
    fits = candidates < top[order]
    fits[0] = True
    level = float(candidates[np.flatnonzero(fits)[-1]])
    for i, t in zip(active, top):
        powers[i] = float(max(t / level - 1.0, 0.0))
    return powers, level


@st.composite
def tied_waterfill_inputs(draw):
    """One BS's users with zero weights and gains at, below and just above
    ZERO_GAIN. A user may copy an earlier one with its weight scaled by 2^j
    and its gain by 2^-j, which ties their w M xi exactly while their running
    sums round differently in either order."""
    zero = det_equiv.ZERO_GAIN
    weight = st.sampled_from([0.0]) | st.floats(1e-3, 10.0)
    gain = st.sampled_from([0.0, zero / 2, zero, 2 * zero]) | st.floats(1e-3, 10.0)
    weights, gains = [], []
    for k in range(draw(st.integers(1, 8))):
        if k and draw(st.booleans()):
            scale = 2.0 ** draw(st.integers(-2, 2))
            copy = draw(st.integers(0, k - 1))
            weights.append(weights[copy] * scale)
            gains.append(gains[copy] / scale)
        else:
            weights.append(draw(weight))
            gains.append(draw(gain))
    return weights, gains, draw(st.sampled_from([1, 4, 16, 128])), draw(st.floats(1e-2, 1e2))


@settings(max_examples=500, deadline=None)
@given(tied_waterfill_inputs())
def test_waterfill_is_bitwise_the_numpy_water_filling(inputs):
    weights, gains, m, p_c = inputs
    powers, level = waterfill(weights, gains, m, p_c)
    ref_powers, ref_level = reference_waterfill(weights, gains, m, p_c)
    # float.hex tells -0.0 from 0.0, which == does not
    assert [p.hex() for p in powers] == [p.hex() for p in ref_powers]
    assert (level is None and ref_level is None) or level.hex() == ref_level.hex()


# ---------------------------------------------------------------------------
# weighted sum rate and oracles
# ---------------------------------------------------------------------------

def test_wsr_empty_set_is_zero(desk):
    cs, graph = desk
    assert weighted_sum_rate((), np.ones(6), cs, graph, NU, PC).value == 0.0


def test_wsr_single_isotropic_user_closed_form():
    cs = link_set({(0, 0): from_dense(np.eye(16, dtype=complex))}, {0: 0})
    graph = build_topology(cs, 10.0)
    res = weighted_sum_rate((0,), np.ones(1), cs, graph, 0.01, 10.0)
    from test_det_equiv import isotropic_gain_root

    xi = isotropic_gain_root(16, 0.01)
    expect = np.log1p(16 * xi * 10.0)
    assert np.isclose(res.value, expect, atol=1e-6)
    assert abs(res.value - 5.0180) < 1e-3


def test_exhaustive_single_user_selection():
    cs = single_cell_set(16, 1, 4, seed0=10)
    graph = build_topology(cs, 10.0)
    picked = best_control_exhaustive(np.array([1.0]), cs, graph, NU, PC)
    assert picked.selected == (0,)
    skipped = best_control_exhaustive(np.array([0.0]), cs, graph, NU, PC)
    assert skipped.selected == ()


def test_exhaustive_guard():
    cs, graph = small_network(0, num_users=6)
    graph = graph.__class__(**{**graph.__dict__, "num_users": 21})
    with pytest.raises(ParameterError):
        best_control_exhaustive(np.ones(21), cs, graph, NU, PC)


@pytest.mark.parametrize("oracle", [best_control_exhaustive, best_control_greedy])
def test_oracles_reject_rate_weights_of_another_length(oracle):
    cs, graph = small_network(0, num_users=6)
    for size in (5, 7):
        with pytest.raises(ParameterError, match=f"got {size} rate weights for 6 users"):
            oracle(np.ones(size), cs, graph, NU, PC)


def test_exhaustive_matches_independent_enumeration():
    for seed in (3, 4):
        cs, graph = small_network(seed)
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.05, 1.0, size=6)
        cache = GainCache(cs, graph, NU)
        got = best_control_exhaustive(mu, cs, graph, NU, PC, cache)
        best_val, best_set = 0.0, ()
        for size in range(1, 7):
            for cand in itertools.combinations(range(6), size):
                val = weighted_sum_rate(cand, mu, cs, graph, NU, PC, cache).value
                if val > best_val:
                    best_val, best_set = val, cand
        assert got.selected == best_set
        assert abs(got.value - best_val) <= 1e-8


def test_greedy_trivial_cases():
    cs = single_cell_set(16, 1, 4, seed0=20)
    graph = build_topology(cs, 10.0)
    assert best_control_greedy(np.array([1.0]), cs, graph, NU, PC).selected == (0,)
    assert best_control_greedy(np.array([0.0]), cs, graph, NU, PC).selected == ()


def test_greedy_never_beats_exhaustive():
    equal = 0
    for seed in range(100):
        cs, graph = small_network(seed)
        mu = np.random.default_rng(seed).uniform(0.0, 1.0, size=6)
        cache = GainCache(cs, graph, NU)
        ex = best_control_exhaustive(mu, cs, graph, NU, PC, cache)
        gr = best_control_greedy(mu, cs, graph, NU, PC, cache)
        assert gr.value <= ex.value + 1e-12
        equal += int(abs(gr.value - ex.value) <= 1e-9)
    # report-style sanity: greedy should usually match at this scale
    assert equal >= 50


def test_greedy_picks_the_lowest_index_clone_of_a_tied_group():
    # three cells of six users, four of them in two hotspots: members of a
    # hotspot share every link's factor, so with equal weights the selections
    # that swap one clone for another tie exactly, and greedy adds the
    # lowest-index clone first
    partial = 0
    for seed in (36, 98, 112):
        cs = build_hotspot_network(3, 18, 16, 2, seed=seed, inter_site_m=300.0)
        graph = build_topology(cs, theta_from_db(10.0))
        picked = set(best_control_greedy(np.ones(18), cs, graph, NU, PC).selected)
        clones = {}
        for k in range(18):
            clones.setdefault(cs.cluster_ids[k], []).append(k)
        for members in clones.values():
            chosen = [k for k in members if k in picked]
            assert chosen == members[: len(chosen)], (seed, members, chosen)
            partial += 0 < len(chosen) < len(members)
    assert partial > 0  # some tied group was split


class FailingCache(GainCache):
    """Gain cache whose fixed point fails for one (bs, users, blocked) key."""

    def __init__(self, corr_set, graph, nu, bad_key):
        super().__init__(corr_set, graph, nu)
        self.bad_key = bad_key

    def gains(self, bs, users, blocked):
        if (bs, users, blocked) == self.bad_key:
            raise ConvergenceError("forced failure")
        return super().gains(bs, users, blocked)


def selection_keys(graph, cand):
    blocked = [b for _, b in served_and_blocked(graph, cand)]
    keys = set()
    for n in range(graph.num_bs):
        users = tuple(k for k in graph.assoc_users[n] if k in cand)
        if users:
            keys.add((n, users, blocked[n]))
    return keys


def test_both_oracles_skip_a_candidate_whose_fixed_point_fails(desk, caplog):
    cs, graph = desk
    mu = np.random.default_rng(5).uniform(0.05, 1.0, size=6)
    cache = GainCache(cs, graph, NU)
    plain = best_control_exhaustive(mu, cs, graph, NU, PC, cache)
    bad = min(selection_keys(graph, plain.selected))  # the optimum can no longer be had

    ex = best_control_exhaustive(mu, cs, graph, NU, PC, FailingCache(cs, graph, NU, bad))
    best_val, best_set = 0.0, ()
    for size in range(1, 7):
        for cand in itertools.combinations(range(6), size):
            if bad in selection_keys(graph, cand):
                continue
            val = weighted_sum_rate(cand, mu, cs, graph, NU, PC, cache).value
            if val > best_val:
                best_val, best_set = val, cand
    assert ex.selected == best_set != plain.selected
    # each oracle's cache solves its keys in its own order (pruning skips
    # the losers' solves), so values agree to SOLVE_ORDER_RTOL, not to 1e-12
    assert ex.value == pytest.approx(best_val, rel=SOLVE_ORDER_RTOL, abs=0)

    gr = best_control_greedy(mu, cs, graph, NU, PC, FailingCache(cs, graph, NU, bad))
    assert bad not in selection_keys(graph, gr.selected)
    assert gr.value <= ex.value * (1 + SOLVE_ORDER_RTOL)
    assert "skipping candidate" in caplog.text


def test_a_failed_fixed_point_is_solved_once_per_key(desk):
    cs, graph = desk
    mu = np.random.default_rng(6).uniform(0.05, 1.0, size=6)
    cache = GainCache(cs, graph, NU)
    # each candidate fails at the key of its first BS with a selected user
    first_keys = set()
    for size in range(1, 7):
        for cand in itertools.combinations(range(6), size):
            first_keys.add(min(selection_keys(graph, cand)))
    failure = ConvergenceError("forced failure")
    with mock.patch.object(det_equiv, "solve_effective_gains", side_effect=failure) as solve:
        for _ in range(2):
            gr = best_control_greedy(mu, cs, graph, NU, PC, cache)
            ex = best_control_exhaustive(mu, cs, graph, NU, PC, cache)
            assert gr.selected == ex.selected == ()
            assert (gr.skipped, ex.skipped) == (6, 63)
    assert solve.call_count == len(first_keys)


def test_skipped_candidates_are_counted_over_the_run(desk, tmp_path, caplog):
    cs, graph = desk
    bad = (graph.serving[0], (0,), ())  # every greedy call tries user 0 alone
    res = optimize_policy(cs, graph, pfs_utility(6), NU, PC, mode="greedy",
                          gain_cache=FailingCache(cs, graph, NU, bad))
    warnings = [r for r in caplog.records if "skipping candidate" in r.getMessage()]
    # the greedy calls and the exhaustive certificate all skip the candidate
    assert res.certificate_kind == "greedy_gap_bound"
    assert res.skipped_candidates == len(warnings) > len(res.trace) + 1

    def failing(corr_set, graph, nu):
        return FailingCache(corr_set, graph, nu, bad)

    with mock.patch.object(cli, "GainCache", failing):
        summary = cli.run_scenario(DESK_FILE, tmp_path, draws=10)
    assert summary["skipped_candidates"] == res.skipped_candidates
    assert summary["pruned_candidates"] == res.pruned_candidates
    clean = cli.run_scenario(DESK_FILE, tmp_path / "clean", draws=10)
    assert clean["skipped_candidates"] == 0 and clean["pruned_candidates"] > 0
    # a deterministic count: a second run prunes the same candidates
    assert cli.run_scenario(DESK_FILE, tmp_path / "again", draws=10)["pruned_candidates"] == (
        clean["pruned_candidates"])


@pytest.mark.parametrize("oracle", [best_control_exhaustive, best_control_greedy])
def test_oracle_rates_are_the_de_rates_of_the_assembled_control(oracle):
    scn = cli.load_scenario(DESK_FILE)
    cs, graph = cli.build_network(scn)
    cache = GainCache(cs, graph, scn.rzf_nu)
    rng = np.random.default_rng(8)
    for weights in [np.ones(6), np.array([1.0, 0.0, 2.0, 0.5, 0.0, 3.0])] + [
        rng.uniform(0.05, 1.0, size=6) for _ in range(3)
    ]:
        pick = oracle(weights, cs, graph, scn.rzf_nu, scn.power_limit, cache)
        control = assemble_control(pick.powers, cs, graph)
        de = de_rate_power(control, cs, graph, scn.rzf_nu, cache)
        assert pick.selected and control.users == pick.selected
        assert np.array_equal(pick.rates, de.rates)


def reference_weighted_sum_rate(selected, rate_weights, corr_set, graph, cache):
    """Weighted sum rate without a memo: one NumPy water filling per BS."""
    selected = tuple(sorted(selected))
    blocked = [b for _, b in served_and_blocked(graph, selected)]
    weights = {k: float(rate_weights[k]) for k in selected}
    powers = {}
    for n in range(graph.num_bs):
        users = tuple(k for k in graph.assoc_users[n] if k in selected)
        if users:
            bs_gains, _, _ = cache.gains(n, users, blocked[n])
            bs_powers, _ = reference_waterfill([weights[k] for k in users], list(bs_gains),
                                               corr_set.dim, PC)
            powers.update(zip(users, bs_powers))
    return math.fsum(weights[k] * np.log1p(powers[k]) for k in selected), powers


def reference_greedy(rate_weights, corr_set, graph, cache):
    """(selection, value, powers) of the greedy oracle, every candidate
    evaluated whole by the memo-free reference."""
    current, value, powers = (), 0.0, {}
    while len(current) < graph.num_users:
        cands = [tuple(sorted(current + (k,))) for k in range(graph.num_users) if k not in current]
        results = [reference_weighted_sum_rate(c, rate_weights, corr_set, graph, cache)
                   for c in cands]
        best = int(np.argmax([v for v, _ in results]))  # the first of equal values, as in the oracle
        if results[best][0] <= value + 1e-12:
            break
        current, (value, powers) = cands[best], results[best]
    return current, value, powers


def reference_exhaustive(rate_weights, corr_set, graph, cache):
    """(selection, value, value of every subset) of the exhaustive oracle
    without bounds: the first of the highest values in size, then
    lexicographic, order."""
    best_set, best_val, values = (), 0.0, {}
    for size in range(1, graph.num_users + 1):
        for cand in itertools.combinations(range(graph.num_users), size):
            val = values[cand] = reference_weighted_sum_rate(cand, rate_weights, corr_set,
                                                             graph, cache)[0]
            if val > best_val:
                best_set, best_val = cand, val
    return best_set, best_val, values


@st.composite
def memo_instances(draw):
    """A random network, random rate weights (some zero) and candidate user
    sets in random order, repeats included."""
    num_bs = draw(st.integers(1, 3))
    num_users = draw(st.integers(num_bs, 7))
    cs = build_hotspot_network(num_bs, num_users, 8, 2, seed=draw(st.integers(0, 2**16)),
                               inter_site_m=300.0)
    graph = build_topology(cs, theta_from_db(10.0))
    weights = draw(st.lists(st.sampled_from([0.0]) | st.floats(0.01, 1.0),
                            min_size=num_users, max_size=num_users))
    users = st.integers(0, num_users - 1)
    candidates = draw(st.lists(st.sets(users, min_size=1), min_size=1, max_size=30))
    return cs, graph, np.array(weights), candidates


@settings(max_examples=40, deadline=None)
@given(memo_instances())
def test_memoized_weighted_sum_rate_and_oracles_match_memo_free_references(instance):
    cs, graph, weights, candidates = instance
    cache = GainCache(cs, graph, NU)
    memo = {}
    for cand in candidates:
        shared = weighted_sum_rate(cand, weights, cs, graph, NU, PC, cache, memo)
        alone = weighted_sum_rate(cand, weights, cs, graph, NU, PC, cache)
        value, powers = reference_weighted_sum_rate(cand, weights, cs, graph, cache)
        assert shared.value == alone.value == value
        assert shared.powers == alone.powers == powers
    greedy = best_control_greedy(weights, cs, graph, NU, PC, cache)
    selected, value, powers = reference_greedy(weights, cs, graph, cache)
    assert (greedy.selected, greedy.value, greedy.skipped) == (selected, value, 0)
    assert greedy.powers == powers and list(greedy.powers) == list(selected)
    assert best_control_exhaustive(weights, cs, graph, NU, PC, cache).selected == (
        reference_exhaustive(weights, cs, graph, cache)[0]
    )


class RecordingCache(FailingCache):
    """Gain cache that records every key it is asked for, in order, and fails
    for ``bad_key`` if one is given."""

    def __init__(self, corr_set, graph, nu, bad_key=None):
        super().__init__(corr_set, graph, nu, bad_key)
        self.keys = []

    def gains(self, bs, users, blocked):
        self.keys.append((bs, users, blocked))
        return super().gains(bs, users, blocked)


def whole_candidate_greedy(rate_weights, corr_set, graph, cache, rounds=None):
    """The greedy oracle with every candidate evaluated whole by
    ``weighted_sum_rate`` through one memo, skipping a failed candidate.
    ``rounds``, when given, receives each round's (selection, value, value
    of every candidate user)."""
    memo = {}
    current, value = (), 0.0
    while len(current) < graph.num_users:
        best = None
        values = {}
        for k in range(graph.num_users):
            if k in current:
                continue
            cand = tuple(sorted(current + (k,)))
            try:
                res = weighted_sum_rate(cand, rate_weights, corr_set, graph, NU, PC, cache, memo)
            except ConvergenceError:
                continue
            values[k] = res.value
            if best is None or res.value > best[1]:
                best = (cand, res.value)
        if rounds is not None:
            rounds.append((current, value, values))
        if best is None or best[1] <= value + 1e-12:
            break
        current, value = best
    return current, value


@pytest.mark.parametrize("seed", [36, 98, 112])
def test_greedy_asks_the_gain_cache_for_the_keys_of_whole_candidate_evaluation(seed):
    # the pruned greedy picks what whole-candidate evaluation picks, and asks
    # the gain cache only for keys that evaluation asks for too: those of the
    # candidates it evaluates, and the current selection's for its bounds.
    # It skips the solves of pruned candidates, so the warm starts, and with
    # them the values, follow another solve order.
    cs = build_hotspot_network(3, 18, 16, 2, seed=seed, inter_site_m=300.0)
    graph = build_topology(cs, theta_from_db(10.0))
    assert any(graph.neighbor_bs[k] for k in range(18))
    rng = np.random.default_rng(seed)
    for weights in (np.ones(18), rng.uniform(0.0, 1.0, size=18)):
        pruned, whole = RecordingCache(cs, graph, NU), RecordingCache(cs, graph, NU)
        pick = best_control_greedy(weights, cs, graph, NU, PC, pruned)
        selected, value = whole_candidate_greedy(weights, cs, graph, whole)
        assert pick.selected == selected
        assert pick.value == pytest.approx(value, rel=SOLVE_ORDER_RTOL, abs=0)
        assert set(pruned.keys) < set(whole.keys) and pick.pruned > 0
        assert any(key[2] for key in pruned.keys)  # some candidate changes a blocked set
        # a key that fails is asked for again whenever an evaluated candidate
        # needs it; bounds ask only for current keys, which never failed
        bad = pruned.keys[len(pruned.keys) // 2]
        pruned = RecordingCache(cs, graph, NU, bad)
        whole = RecordingCache(cs, graph, NU, bad)
        pick = best_control_greedy(weights, cs, graph, NU, PC, pruned)
        selected, value = whole_candidate_greedy(weights, cs, graph, whole)
        assert pick.selected == selected
        assert pick.value == pytest.approx(value, rel=SOLVE_ORDER_RTOL, abs=0)
        assert pick.skipped == pruned.keys.count(bad) >= 1


class RecordingHandler(logging.Handler):
    """Keeps every record it receives, DEBUG ones included."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@st.composite
def pruning_instances(draw):
    """A hotspot network with clones, and rate weights from a small grid
    (zeros and exact ties included) or drawn freely."""
    num_bs = draw(st.integers(1, 3))
    num_users = draw(st.integers(num_bs, 8))
    cs = build_hotspot_network(num_bs, num_users, 8, 2, seed=draw(st.integers(0, 2**16)),
                               inter_site_m=300.0,
                               hotspot_fraction=draw(st.sampled_from([2.0 / 3.0, 1.0])))
    graph = build_topology(cs, theta_from_db(10.0))
    weight = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.01, 1.0)
    weights = draw(st.lists(weight, min_size=num_users, max_size=num_users))
    return cs, graph, np.array(weights)


@settings(max_examples=40, deadline=None)
@given(pruning_instances())
def test_pruned_oracles_pick_what_the_unpruned_references_pick(instance):
    cs, graph, weights = instance
    margin = scheduler.PRUNE_MARGIN
    handler = RecordingHandler()
    scheduler.log.addHandler(handler)
    level = scheduler.log.level
    scheduler.log.setLevel(logging.DEBUG)
    try:
        greedy = best_control_greedy(weights, cs, graph, NU, PC, GainCache(cs, graph, NU))
    finally:
        scheduler.log.setLevel(level)
        scheduler.log.removeHandler(handler)
    rounds = []
    selected, value = whole_candidate_greedy(weights, cs, graph, GainCache(cs, graph, NU), rounds)
    assert greedy.selected == selected
    assert greedy.value == pytest.approx(value, rel=margin, abs=0)
    # the trajectories agree, so each pruned candidate's exact value is known
    # from the round that pruned it, and it must lose to that round's winner
    # (or fail to improve on the selection when the round ends the search)
    logged = 0
    for record in handler.records:
        if record.getMessage().startswith("greedy round"):
            size, users = record.args
            current, current_value, values = rounds[size]
            winner = max(values.values(), default=0.0)
            target = winner if winner > current_value + 1e-12 else current_value + 1e-12
            for k in users:
                assert values[k] < target, (current, k, values[k], target)
            logged += len(users)
    assert logged == greedy.pruned

    recorded = []

    def recording(cand, *args):
        recorded.append(tuple(cand))
        return weighted_sum_rate(cand, *args)

    with mock.patch.object(scheduler, "weighted_sum_rate", side_effect=recording):
        exhaustive = best_control_exhaustive(weights, cs, graph, NU, PC, GainCache(cs, graph, NU))
    best_set, best_val, values = reference_exhaustive(weights, cs, graph,
                                                      GainCache(cs, graph, NU))
    assert exhaustive.selected == best_set
    assert exhaustive.value == pytest.approx(best_val, rel=margin, abs=0)
    pruned = set(values) - set(recorded)
    assert len(pruned) == exhaustive.pruned
    for cand in pruned:
        assert values[cand] < best_val, (cand, values[cand], best_val)


# ---------------------------------------------------------------------------
# time sharing
# ---------------------------------------------------------------------------

def test_project_simplex_basics():
    assert np.allclose(project_simplex(np.array([0.5, 0.5])), [0.5, 0.5])
    assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    q = project_simplex(np.random.default_rng(3).standard_normal(6))
    assert np.all(q >= 0) and np.isclose(q.sum(), 1.0)


def test_time_sharing_single_control():
    assert np.array_equal(optimize_time_sharing(np.array([[1.0, 2.0]]), pfs_utility(2)), [1.0])


def test_time_sharing_symmetric_pair():
    rates = np.array([[1.0, 0.0], [0.0, 1.0]])
    q = optimize_time_sharing(rates, pfs_utility(2))
    assert np.allclose(q, [0.5, 0.5], atol=1e-6)


def test_time_sharing_dominated_control():
    rates = np.array([[2.0, 2.0], [1.0, 1.5]])
    q = optimize_time_sharing(rates, sum_rate_utility(2))
    assert np.allclose(q, [1.0, 0.0], atol=1e-10)


def test_time_sharing_matches_grid_oracle():
    rates = np.array([[3.0, 0.2], [0.5, 2.0]])
    util = pfs_utility(2)
    q = optimize_time_sharing(rates, util)
    got = util.value(q @ rates)
    etas = np.linspace(0.0, 1.0, 2001)
    grid = max(util.value(np.array([e, 1 - e]) @ rates) for e in etas)
    assert got >= grid - 1e-6


def test_reduce_support_keeps_the_mixed_rates_of_dependent_controls():
    # the third control is the midpoint of the other two
    rates = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    q = np.array([0.2, 0.3, 0.5])
    reduced = scheduler._reduce_support(rates, q, 2)
    assert np.count_nonzero(reduced) == 2
    assert np.isclose(reduced.sum(), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(reduced @ rates, q @ rates, rtol=0, atol=1e-12)


def test_reduce_support_drops_the_weakest_of_independent_controls(caplog):
    rates = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    q = np.array([0.5, 0.3, 0.2])
    with caplog.at_level("WARNING", logger="hiermimo.scheduler"):
        reduced = scheduler._reduce_support(rates, q, 2)
    assert np.allclose(reduced, [0.625, 0.375, 0.0], rtol=0, atol=1e-15)
    assert "support reduction drops control 2" in caplog.text


# ---------------------------------------------------------------------------
# the policy optimizer
# ---------------------------------------------------------------------------

def test_policy_single_user_network():
    cs = single_cell_set(16, 1, 4, seed0=30)
    graph = build_topology(cs, 10.0)
    util = pfs_utility(1)
    res = optimize_policy(cs, graph, util, NU, PC, mode="exhaustive")
    assert res.converged and len(res.trace) <= 2
    assert np.array_equal(res.policy.probs, [1.0])
    control = res.policy.controls[0]
    xi = GainCache(cs, graph, NU).gains(0, (0,), ())[0][0]
    assert np.isclose(control.power[0], 16 * xi * PC, rtol=1e-6)
    assert res.certificate_kind == "optimality_slack"
    assert -1e-10 <= res.certificate <= 1e-10


def test_policy_sum_rate_converges_immediately(desk):
    cs, graph = desk
    res = optimize_policy(cs, graph, sum_rate_utility(6), NU, PC, mode="greedy")
    assert res.converged
    values = [t.utility for t in res.trace]
    assert all(abs(v - values[0]) <= 1e-6 for v in values)


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_policy_desk_run_properties(desk, mode):
    cs, graph = desk
    util = pfs_utility(6)
    res = optimize_policy(cs, graph, util, NU, PC, mode=mode, eps_stop=1e-6)
    assert res.converged and len(res.trace) <= 30
    values = [t.utility for t in res.trace]
    for later, earlier in zip(values[1:], values):
        assert later >= earlier - 1e-9
    assert len(res.policy.controls) <= 6
    res.policy.validate(cs, graph, NU, PC)
    # every iteration must reach at least the best segment mixture
    for prev, nxt in zip(res.trace, res.trace[1:]):
        best_mix = max(
            util.value((1 - eta) * prev.mixed_rates + eta * prev.oracle_rates)
            for eta in np.linspace(0.0, 1.0, 101)
        )
        assert nxt.utility >= best_mix - 1e-8


def test_policy_certificates_on_desk(desk):
    cs, graph = desk
    util = pfs_utility(6)
    ex = optimize_policy(cs, graph, util, NU, PC, mode="exhaustive", eps_stop=1e-10,
                         max_outer=300)
    assert ex.certificate <= 1e-6 and ex.certificate >= -1e-8
    gr = optimize_policy(cs, graph, util, NU, PC, mode="greedy", eps_stop=1e-10,
                         max_outer=300)
    assert gr.certificate is not None
    assert gr.utility >= ex.utility - gr.certificate - 1e-8
    # when greedy matched exhaustive at the final gradient the bound is ~0
    if abs(gr.utility - ex.utility) <= 1e-9:
        assert gr.certificate <= 1e-8


def test_policy_rejects_bad_mode(desk):
    cs, graph = desk
    with pytest.raises(ParameterError):
        optimize_policy(cs, graph, pfs_utility(6), NU, PC, mode="best")


def test_policy_rejects_max_outer_below_one(desk):
    cs, graph = desk
    with pytest.raises(ParameterError, match="max_outer must be at least 1, got 0"):
        optimize_policy(cs, graph, pfs_utility(6), NU, PC, max_outer=0)


@pytest.mark.parametrize("eps_stop", [-1e-6, np.nan])
def test_policy_rejects_an_eps_stop_below_zero(desk, eps_stop):
    cs, graph = desk
    with pytest.raises(ParameterError, match="eps_stop must be non-negative"):
        optimize_policy(cs, graph, pfs_utility(6), NU, PC, eps_stop=eps_stop)


def test_policy_consistent_when_iteration_cap_hits(desk):
    cs, graph = desk
    res = optimize_policy(cs, graph, pfs_utility(6), NU, PC, mode="greedy",
                          eps_stop=0.0, max_outer=2)
    assert not res.converged
    assert len(res.policy.controls) == res.policy.probs.size
    res.policy.validate(cs, graph, NU, PC)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_policy_validate_rejects_a_non_finite_probability(desk, bad):
    cs, graph = desk
    policy = optimize_policy(cs, graph, pfs_utility(6), NU, PC, mode="greedy").policy
    for position in range(policy.probs.size):
        probs = np.array(policy.probs, dtype=float)
        probs[position] = bad
        with pytest.raises(ValidationError, match="probabilities must lie in"):
            replace(policy, probs=probs).validate(cs, graph, NU, PC)


def test_policy_validate_rejects_a_control_over_its_power_budget(desk):
    # the budget check's slack is relative, 1e-6 of the budget: a control a
    # thousandth over its budget fails, at the desk's 10 dB as at 120 dB
    cs, graph = desk
    policy = optimize_policy(cs, graph, pfs_utility(6), NU, PC, mode="greedy").policy
    spent = max(float(np.max(de_rate_power(c, cs, graph, NU).powers)) for c in policy.controls)
    policy.validate(cs, graph, NU, spent)
    for scale in (1.0, 1e11):
        scaled = replace(policy, controls=[
            replace(c, power={k: scale * p for k, p in c.power.items()}) for c in policy.controls])
        # the message prints a plain float, not np.float64(...)
        with pytest.raises(ValidationError, match=r"budget: [0-9.e+]+ > "):
            scaled.validate(cs, graph, NU, scale * spent / (1.0 + 1e-3))


@pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
def test_precoders_are_built_for_the_final_policy_only(mode):
    scn = cli.load_scenario(DESK_FILE, mode=mode)
    cs, graph = cli.build_network(scn)
    oracle_name = "best_control_greedy" if mode == "greedy" else "best_control_exhaustive"
    oracle = getattr(scheduler, oracle_name)

    def solve(stub):
        rate_rows = []

        def time_sharing(rates, util, **kwargs):
            rate_rows.append(rates)
            return optimize_time_sharing(rates, util, **kwargs)

        with mock.patch.object(scheduler, "outer_precoder", wraps=scheduler.outer_precoder) as outer, \
                mock.patch.object(scheduler, oracle_name, side_effect=stub), \
                mock.patch.object(scheduler, "optimize_time_sharing", side_effect=time_sharing):
            res = optimize_policy(cs, graph, cli.build_utility(scn), scn.rzf_nu, scn.power_limit,
                                  mode=mode, eps_stop=scn.eps_stop, max_outer=scn.max_outer)
        assert outer.call_count == len(res.policy.controls) * graph.num_bs
        return res, rate_rows

    solve(oracle)
    picks = []

    def repeat_first(*args):
        """The oracle's first pick, then equal copies of it."""
        first = picks[0] if picks else oracle(*args)
        picks.append(replace(first, powers=dict(first.powers)))
        return picks[-1]

    res, rate_rows = solve(repeat_first)
    assert len(picks) == len(res.trace) + 1 >= 2
    # a repeated pick is not appended: the solver only ever sees one control
    assert [rates.shape[0] for rates in rate_rows] == [1] * len(res.trace)
    assert len(res.policy.controls) == 1


def test_certificate_unavailable_for_large_greedy():
    cs = build_hotspot_network(2, 21, 8, 2, seed=5, inter_site_m=300.0)
    graph = build_topology(cs, theta_from_db(10.0))
    res = optimize_policy(cs, graph, sum_rate_utility(21), NU, PC, mode="greedy")
    assert res.converged
    assert res.certificate_kind == "unavailable"
    assert res.certificate is None


def test_time_sharing_appears_when_users_conflict():
    # two users in different cells with fully overlapping ranges at both BSs:
    # serving one annihilates the other, so the fair policy must alternate
    m = 4
    eye = np.eye(m, dtype=complex)
    mats = {(k, n): from_dense(eye) for k in range(2) for n in range(2)}
    cs = link_set(mats, {0: 0, 1: 1})
    graph = build_topology(cs, 10.0)
    assert graph.neighbor_users == {0: (1,), 1: (0,)}
    util = pfs_utility(2)
    res = optimize_policy(cs, graph, util, NU, PC, mode="exhaustive",
                          eps_stop=1e-10, max_outer=200)
    assert len(res.policy.controls) == 2
    assert np.allclose(np.sort(res.policy.probs), [0.5, 0.5], atol=1e-6)
    served = {run.users for run in res.policy.controls}
    assert served == {(0,), (1,)}
    assert res.certificate <= 1e-6


def test_time_sharing_reoptimizes_the_face_after_a_drop():
    # the first face optimum drops control 1; stopping there left the
    # projected gradient at 0.154
    rates = np.array([
        [7.826, 8.514, 7.3299, 5.9035, 0.0, 8.8607],
        [0.0, 0.0, 0.0, 0.0, 7.5604, 0.0],
        [6.4676, 0.0, 6.0374, 0.0, 7.0857, 0.0],
    ])
    util = pfs_utility(6)
    q = optimize_time_sharing(rates, util, init=[0.8333, 0.1667, 0.0])
    _, mu = util.value_and_grad(q @ rates)
    assert np.linalg.norm(project_simplex(q + rates @ mu) - q) <= 1e-8
