from unittest import mock

import numpy as np
import pytest

from hiermimo import harness
from hiermimo.corrmat import (
    CorrelationSet,
    build_hotspot_network,
    random_clustered_correlation,
    sample_channel,
)
from hiermimo.errors import ParameterError, ValidationError
from hiermimo.harness import (
    comp_baseline,
    draw_channels,
    ffr_baseline,
    monte_carlo_policy,
)
from hiermimo.rng import COMP_MC, derive_seed_sequence
from hiermimo.scheduler import ControlPolicy, assemble_control, weighted_sum_rate
from hiermimo.topology import build_topology, theta_from_db

from conftest import single_cell_set

NU, PC = 0.01, 10.0


def full_selection_policy(cs, graph, p_c=PC):
    sel = tuple(range(cs.num_users))
    wsr = weighted_sum_rate(sel, np.ones(cs.num_users), cs, graph, NU, p_c)
    control = assemble_control(sel, cs, graph, wsr.powers)
    return ControlPolicy(controls=[control], probs=np.array([1.0]))


def test_zero_power_policy_gives_zeros(desk):
    cs, graph = desk
    control = assemble_control((0, 1), cs, graph, {0: 0.0, 1: 0.0})
    policy = ControlPolicy(controls=[control], probs=np.array([1.0]))
    rep = monte_carlo_policy(policy, cs, graph, NU, draws=5, seed=1)
    assert np.all(rep.user_rate_mean == 0.0)
    assert np.all(rep.bs_power_mean == 0.0)


def test_single_user_rate_close_to_de():
    cs = single_cell_set(32, 1, 6, seed0=40)
    graph = build_topology(cs, 10.0)
    policy = full_selection_policy(cs, graph)
    rep = monte_carlo_policy(policy, cs, graph, NU, draws=500, seed=3)
    assert rep.rate_rel_err[0] <= 0.10
    assert rep.power_rel_err[0] <= 0.10


def test_zero_ici_holds_on_every_draw(desk):
    cs, graph = desk
    assert any(graph.neighbor_users[n] for n in range(2))
    policy = full_selection_policy(cs, graph)
    rep = monte_carlo_policy(policy, cs, graph, NU, draws=100, seed=5)
    assert rep.max_interference_ratio <= 1e-16


def test_monte_carlo_reproducible(desk):
    cs, graph = desk
    policy = full_selection_policy(cs, graph)
    a = monte_carlo_policy(policy, cs, graph, NU, draws=40, seed=11)
    b = monte_carlo_policy(policy, cs, graph, NU, draws=40, seed=11)
    assert np.array_equal(a.user_rate_mean, b.user_rate_mean)
    assert np.array_equal(a.bs_power_mean, b.bs_power_mean)
    c = monte_carlo_policy(policy, cs, graph, NU, draws=40, seed=12)
    assert not np.array_equal(a.user_rate_mean, c.user_rate_mean)


def test_monte_carlo_is_draw_order_independent(desk):
    # each draw derives its own seed, so evaluating draws in any order must
    # reproduce the report exactly (the concurrency-safety contract)
    from hiermimo.harness import _evaluate_control
    from hiermimo.rng import POLICY_MC, derive_seed_sequence

    cs, graph = desk
    policy = full_selection_policy(cs, graph)
    draws, seed = 16, 33
    rep = monte_carlo_policy(policy, cs, graph, NU, draws=draws, seed=seed)
    children = derive_seed_sequence(seed, POLICY_MC).spawn(draws)
    rates = np.zeros((draws, graph.num_users))
    for i in reversed(range(draws)):
        chan_ss, _ = children[i].spawn(2)
        channels = draw_channels(cs, np.random.default_rng(chan_ss))
        r, _, _, _ = _evaluate_control(policy.controls[0], channels, graph, NU)
        rates[i] = r
    assert np.array_equal(rates.mean(axis=0), rep.user_rate_mean)


def test_draw_channels_matches_per_link_draws():
    # ranks 1..3 and a zero link, so the set's factors are zero-padded
    mats = {
        (k, n): random_clustered_correlation(6, 1 + (k + n) % 3, 0.0 if (k, n) == (1, 0) else 1.0,
                                             seed=10 * k + n)
        for k in range(3)
        for n in range(2)
    }
    cs = CorrelationSet(2, 3, mats, {0: 0, 1: 1, 2: 0}, {0: 0, 1: 1, 2: 2})
    together = draw_channels(cs, np.random.default_rng(41))
    assert together.shape == (3, 2, 6)
    rng, again = np.random.default_rng(41), np.random.default_rng(41)
    for k in range(3):
        for n in range(2):
            alone = sample_channel(cs.matrix(k, n), rng)
            np.testing.assert_allclose(together[k, n], alone, rtol=1e-12, atol=1e-15)
            # the definition: M real then M imaginary normals, h = sqrt(M) C^(1/2) z
            z = (again.standard_normal(6) + 1j * again.standard_normal(6)) / np.sqrt(12.0)
            w, v = np.linalg.eigh(cs.matrix(k, n).dense())
            root = (v * np.sqrt(np.where(w > 1e-9 * max(w[-1], 0.0), w, 0.0))) @ v.conj().T
            np.testing.assert_allclose(alone, np.sqrt(6.0) * root @ z, rtol=1e-12, atol=1e-15)
    assert np.all(together[1, 0] == 0)


def test_monte_carlo_rejects_zero_draws(desk):
    cs, graph = desk
    policy = full_selection_policy(cs, graph)
    with pytest.raises(ParameterError):
        monte_carlo_policy(policy, cs, graph, NU, draws=0, seed=1)


def test_ffr_single_cell_matches_direct_formula():
    cs = single_cell_set(8, 1, 3, seed0=60)
    graph = build_topology(cs, 10.0)
    rep = ffr_baseline(cs, graph, PC, reuse_partitions=1, draws=400, seed=21)
    # lone ZF user = matched filter with full power: rate log(1 + Pc ||h||^2)
    rng = np.random.default_rng(99)
    draws = 4000
    acc = 0.0
    for _ in range(draws):
        h = sample_channel(cs.matrix(0, 0), rng)
        acc += np.log1p(PC * np.linalg.norm(h) ** 2)
    oracle = acc / draws
    stderr = rep.user_rate_stderr[0]
    assert abs(rep.user_rate_mean[0] - oracle) <= 5 * max(stderr, 1e-3)


def test_ffr_full_reuse_split_has_no_interference(desk):
    cs, graph = desk
    rep = ffr_baseline(cs, graph, PC, reuse_partitions=2, draws=50, seed=13)
    assert rep.mean_cross_interference == 0.0  # two cells, two partitions


def test_ffr_rejects_overloaded_cell():
    cs = single_cell_set(4, 6, 2, seed0=80)
    graph = build_topology(cs, 10.0)
    with pytest.raises(ValidationError, match="ffr_baseline"):
        ffr_baseline(cs, graph, PC, reuse_partitions=1, draws=2, seed=1)
    with pytest.raises(ParameterError):
        ffr_baseline(cs, graph, PC, reuse_partitions=0, draws=2, seed=1)


def test_comp_perfect_csi_is_reproducible_and_rho_matters(desk):
    cs, graph = desk
    kwargs = dict(cluster_size=2, draws=300, seed=17)
    perfect = comp_baseline(cs, graph, PC, delay_rho=1.0, **kwargs)
    again = comp_baseline(cs, graph, PC, delay_rho=1.0, **kwargs)
    assert np.array_equal(perfect.user_rate_mean, again.user_rate_mean)
    stale = comp_baseline(cs, graph, PC, delay_rho=0.0, **kwargs)
    assert stale.sum_rate() < perfect.sum_rate()


def test_comp_global_cluster_is_interference_free(desk):
    cs, graph = desk
    rep = comp_baseline(cs, graph, PC, cluster_size=2, draws=20, seed=19,
                        delay_rho=1.0)
    assert rep.mean_cross_interference == 0.0  # single cluster spans all BSs
    # verify exact nulling inside the cluster on one draw
    rng = np.random.default_rng(23)
    channels = draw_channels(cs, rng)
    rows = [np.concatenate([channels[(k, n)] for n in range(2)]).conj()
            for k in range(6)]
    v = np.linalg.pinv(np.stack(rows))
    delivery = np.stack(rows) @ v  # entry (j, k): amplitude of beam k at user j
    off = delivery - np.diag(np.diag(delivery))
    assert np.max(np.abs(off)) <= 1e-12


def test_comp_power_respects_budget_and_binds(desk):
    cs, graph = desk
    rep = comp_baseline(cs, graph, PC, cluster_size=2, draws=50, seed=29,
                        delay_rho=1.0)
    assert np.all(rep.bs_power_mean <= PC + 1e-9)
    assert float(np.max(rep.bs_power_mean)) >= 0.5 * PC  # binding BS each draw
    assert np.all(rep.user_rate_mean > 0.0)  # equal powers serve every user


def test_comp_rejects_bad_clustering(desk):
    cs, graph = desk
    with pytest.raises(ValidationError, match="comp_baseline"):
        comp_baseline(cs, graph, PC, cluster_size=3, draws=2, seed=1)
    with pytest.raises(ParameterError):
        comp_baseline(cs, graph, PC, cluster_size=2, draws=2, seed=1, delay_rho=1.5)
    overloaded = single_cell_set(2, 3, 1, seed0=90)  # 3 users, 2 antennas
    with pytest.raises(ValidationError, match="comp_baseline"):
        comp_baseline(overloaded, build_topology(overloaded, 10.0), PC, cluster_size=1, draws=2,
                      seed=1)


def test_baselines_reject_zero_draws(desk):
    cs, graph = desk
    with pytest.raises(ParameterError):
        ffr_baseline(cs, graph, PC, reuse_partitions=2, draws=0, seed=1)
    with pytest.raises(ParameterError):
        comp_baseline(cs, graph, PC, cluster_size=2, draws=0, seed=1)


def test_comp_matches_pseudo_inverse_on_rank_deficient_network():
    # three hotspot users share each rank-1 correlation, so the cluster's
    # stacked channel rows are dependent: its exact Gram matrix is singular,
    # and the regularized solve must still give the pseudo-inverse beams.
    # Regularizing shrinks the component of singular value s by
    # reg / (s^2 + reg), so the beams sit within reg / s_min^2 of the
    # pseudo-inverse, s_min the smallest nonzero singular value
    cs = build_hotspot_network(2, 18, 16, 1, seed=7)
    graph = build_topology(cs, theta_from_db(10.0))
    users = [k for n in range(2) for k in graph.assoc_users[n]]
    evaluate = harness.cross_interference_power
    seen = []

    def record(channels, beams, power):
        seen.append(beams)
        return evaluate(channels, beams, power)

    draws, seed = 6, 5
    with mock.patch.object(harness, "cross_interference_power", side_effect=record):
        comp_baseline(cs, graph, PC, cluster_size=2, draws=draws, seed=seed, delay_rho=1.0)
    assert len(seen) == draws
    for child, beams in zip(derive_seed_sequence(seed, COMP_MC).spawn(draws), seen):
        channels = draw_channels(cs, np.random.default_rng(child))
        rows = channels[users].reshape(len(users), -1).conj()
        s = np.linalg.svd(rows, compute_uv=False)
        s_min = s[s > 1e-10 * s[0]][-1]
        assert np.count_nonzero(s > 1e-10 * s[0]) < len(users)
        oracle = np.linalg.pinv(rows)  # one column per user, over both BSs' antennas
        err = np.linalg.norm(beams.reshape(-1, len(users)) - oracle)
        reg = harness.ZF_NU * np.sum(np.abs(rows) ** 2) / len(users)  # ZF_NU tr(HH^H) / |S|
        bias = reg / s_min**2
        assert bias <= 1e-4
        assert err <= (1.01 * bias + 1e-12) * np.linalg.norm(oracle)


def test_baseline_zero_forcing_follows_the_channel_scale():
    # the baselines regularize by ZF_NU tr(HH^H) / |S|, so scaling every
    # channel by s scales the CoMP beams by 1/s and leaves the unit-norm FFR
    # beams as they are: weak channels keep their zero-forcing beams instead
    # of drifting toward a matched filter
    recorded = {}
    evaluate = harness.cross_interference_power
    for ref_gain_db in (90.0, 20.0):
        cs = build_hotspot_network(2, 6, 16, 3, seed=7, inter_site_m=300.0, ref_gain_db=ref_gain_db)
        graph = build_topology(cs, theta_from_db(10.0))
        seen = recorded[ref_gain_db] = []

        def record(channels, beams, power):
            seen.append(beams)
            return evaluate(channels, beams, power)

        with mock.patch.object(harness, "cross_interference_power", side_effect=record):
            ffr_baseline(cs, graph, PC, reuse_partitions=2, draws=3, seed=5)
            comp_baseline(cs, graph, PC, cluster_size=2, draws=3, seed=5, delay_rho=1.0)
    scale = np.sqrt(10.0 ** ((20.0 - 90.0) / 10.0))  # amplitude ratio of the channels
    for k, (strong, weak) in enumerate(zip(recorded[90.0], recorded[20.0])):
        expected = strong if k < 3 else strong / scale  # FFR beams first, then CoMP
        assert np.linalg.norm(weak - expected) <= 1e-9 * np.linalg.norm(expected)


def test_proposed_beats_ffr_directionally(desk):
    cs, graph = desk
    policy = full_selection_policy(cs, graph)
    rep = monte_carlo_policy(policy, cs, graph, NU, draws=200, seed=31)
    ffr = ffr_baseline(cs, graph, PC, reuse_partitions=2, draws=200, seed=31)
    assert float(np.sum(rep.de_rates)) >= ffr.sum_rate()
    assert rep.sum_rate() >= ffr.sum_rate()
