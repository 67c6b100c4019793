import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hiermimo import harness
from hiermimo.corrmat import (
    build_hotspot_network,
    link_channels,
    sample_channel,
    sample_coefficients,
)
from hiermimo.det_equiv import de_rate_power
from hiermimo.errors import ParameterError, ValidationError
from hiermimo.harness import (
    comp_baseline,
    draw_channels,
    ffr_baseline,
    monte_carlo_policy,
)
from hiermimo.precoder import (
    CompositeControl,
    cross_interference_power,
    instantaneous_rate,
    transmit_power,
    zero_forcing,
)
from hiermimo.rng import COMP_MC, FFR_MC, POLICY_MC, derive_rng
from hiermimo.scheduler import ControlPolicy, assemble_control, weighted_sum_rate
from hiermimo.topology import build_topology, served_and_blocked, theta_from_db

from conftest import (
    de_rel_err,
    full_inner_precoders,
    link_set,
    random_clustered_correlation,
    single_cell_set,
)

NU, PC = 0.01, 10.0


def full_selection_policy(cs, graph, p_c=PC):
    sel = tuple(range(cs.num_users))
    wsr = weighted_sum_rate(sel, np.ones(cs.num_users), cs, graph, NU, p_c)
    control = assemble_control(wsr.powers, cs, graph)
    return ControlPolicy(controls=[control], probs=np.array([1.0]))


def test_zero_power_policy_gives_zeros(desk):
    cs, graph = desk
    control = assemble_control({0: 0.0, 1: 0.0}, cs, graph)
    policy = ControlPolicy(controls=[control], probs=np.array([1.0]))
    rep = monte_carlo_policy(policy, cs, graph, NU, draws=5, seed=1)
    assert np.all(rep.user_rate_mean == 0.0)
    assert np.all(rep.bs_power_mean == 0.0)


def test_single_user_rate_close_to_de():
    cs = single_cell_set(32, 1, 6, seed0=40)
    graph = build_topology(cs, 10.0)
    policy = full_selection_policy(cs, graph)
    rep = monte_carlo_policy(policy, cs, graph, NU, draws=500, seed=3)
    de = de_rate_power(policy.controls[0], cs, graph, NU)
    assert de_rel_err(rep.user_rate_mean, de.rates)[0] <= 0.10
    assert de_rel_err(rep.bs_power_mean, de.powers)[0] <= 0.10


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


def test_monte_carlo_is_chunk_size_invariant(desk):
    # a chunk's normals continue the stream where the previous chunk stopped,
    # so one draw per chunk, the default chunks, three draws of the proposed
    # scheme per chunk, chunks of seven draws and one chunk of every draw
    # give bit-equal reports
    cs, graph = desk
    policy = full_selection_policy(cs, graph)
    draws, seed = 100, 33
    largest = max(largest_policy_array(policy, cs, graph),
                  largest_baseline_array(cs, ffr_groups(graph, 2)),
                  largest_baseline_array(cs, comp_groups(graph, 2)))
    # the default chunks split the draws of every scheme
    assert 1 < min(harness.CHUNK_DRAWS, harness.CHUNK_ENTRIES // largest) < draws
    reports = []
    three = 3 * largest_policy_array(policy, cs, graph)
    for chunk_entries, chunk_draws in ((1, harness.CHUNK_DRAWS),
                                       (harness.CHUNK_ENTRIES, harness.CHUNK_DRAWS),
                                       (three, harness.CHUNK_DRAWS),
                                       (harness.CHUNK_ENTRIES, 7),
                                       (draws * largest, draws)):
        with mock.patch.object(harness, "CHUNK_ENTRIES", chunk_entries), \
                mock.patch.object(harness, "CHUNK_DRAWS", chunk_draws):
            reports.append([
                monte_carlo_policy(policy, cs, graph, NU, draws, seed),
                ffr_baseline(cs, graph, PC, 2, draws, seed),
                comp_baseline(cs, graph, PC, 2, draws, seed, delay_rho=0.5),
            ])
    for other in reports[1:]:
        for a, b in zip(reports[0], other):
            for name, value in vars(a).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, getattr(b, name), equal_nan=True), name
                else:
                    assert value == getattr(b, name), name


def test_chunks_keep_their_largest_array_within_the_budget(desk):
    # a chunk holds as many draws as keep the largest array its scheme
    # builds within CHUNK_ENTRIES: the (D, K, N, 1, R) coefficients, or the
    # (D, U, |S| R) product of a group's row coefficients with its map, from
    # which ``_gram`` forms the (D, U, |S|) Gram matrices; no scheme builds a
    # (D, K, N, M) channel, a basis or a beam array (the maps that ``_gram``
    # takes are built once per run). Where CHUNK_DRAWS binds first, a chunk
    # holds exactly that many draws and its largest array stays under the
    # budget.
    cs, graph = desk
    policy = full_selection_policy(cs, graph)
    seen, counts = [], []

    def whole(a):  # the array that ``a`` is a view of
        while a.base is not None and isinstance(a.base, np.ndarray):
            a = a.base
        return a

    def recorder(name, arguments=True):
        original = getattr(harness, name)

        def record(*args, **kwargs):
            if name == "sample_coefficients":
                counts.append(args[2])
            if arguments:
                seen.extend(whole(a).size for a in args if isinstance(a, np.ndarray))
            else:  # _gram(left, right, maps): the left coefficients times the maps
                seen.append(args[0].shape[0] * args[0].shape[1] * args[2].shape[-1])
            result = original(*args, **kwargs)
            seen.append(whole(result).size)
            return result

        return mock.patch.object(harness, name, side_effect=record)

    draws, seed = 20, 3
    runs = [
        (lambda: monte_carlo_policy(policy, cs, graph, NU, draws, seed),
         largest_policy_array(policy, cs, graph)),
        (lambda: ffr_baseline(cs, graph, PC, 2, draws, seed),
         largest_baseline_array(cs, ffr_groups(graph, 2))),
        (lambda: comp_baseline(cs, graph, PC, 1, draws, seed, delay_rho=0.5),
         largest_baseline_array(cs, comp_groups(graph, 1))),
        (lambda: comp_baseline(cs, graph, PC, 2, draws, seed, delay_rho=0.5),
         largest_baseline_array(cs, comp_groups(graph, 2))),
    ]

    def recorded(budget, chunk_draws=harness.CHUNK_DRAWS):
        stack = contextlib.ExitStack()
        stack.enter_context(mock.patch.object(harness, "CHUNK_ENTRIES", budget))
        stack.enter_context(mock.patch.object(harness, "CHUNK_DRAWS", chunk_draws))
        for name in ("sample_coefficients", "_inverse", "_zero_forcing_limit", "_norms",
                     "instantaneous_rate"):
            stack.enter_context(recorder(name))
        stack.enter_context(recorder("_gram", arguments=False))
        seen.clear()
        counts.clear()
        return stack

    for run, largest in runs:
        assert largest < cs.num_users * cs.num_bs * cs.dim
        for budget in (largest, 3 * largest, 2 * cs.num_users * cs.num_bs * cs.dim):
            assert budget // largest < min(draws, harness.CHUNK_DRAWS)  # the cap does not bind
            with recorded(budget):
                run()
            assert max(seen) <= budget
            assert max(seen) > budget - largest  # no room for one more draw
        # room for three draws under the budget, but at most two per chunk
        with recorded(3 * largest, chunk_draws=2):
            run()
        assert set(counts) == {2}
        assert sum(counts) in (draws, 2 * draws)  # CoMP also samples its innovation
        assert largest < max(seen) <= 2 * largest


def rank_mixed_set():
    """Three users at two BSs with ranks 1..3 and a zero link (1, 0), so the
    set's factor is zero-padded to R = 3 past most links' ranks."""
    mats = {
        (k, n): random_clustered_correlation(6, 1 + (k + n) % 3, 0.0 if (k, n) == (1, 0) else 1.0,
                                             seed=10 * k + n)
        for k in range(3)
        for n in range(2)
    }
    return link_set(mats, {0: 0, 1: 1, 2: 0})


def test_draw_channels_matches_per_link_draws():
    cs = rank_mixed_set()
    together = draw_channels(cs, np.random.default_rng(41))
    assert together.shape == (3, 2, 6)
    # the definition: one (K, N, 2, R) block of normals, R real then R
    # imaginary ones per link, w = (x + i y) / sqrt(2) and h = F w
    normals = np.random.default_rng(41).standard_normal((3, 2, 2, 3))
    for k in range(3):
        for n in range(2):
            f = cs.link(k, n)
            x, y = normals[k, n, :, : f.shape[1]]
            np.testing.assert_allclose(together[k, n], f @ ((x + 1j * y) / np.sqrt(2.0)),
                                       rtol=1e-12, atol=1e-15)
            # a lone link reads standard_normal((2, r)) of its own stream
            alone = sample_channel(link_set({(0, 0): f}, {0: 0}), np.random.default_rng(7))[0, 0]
            x, y = np.random.default_rng(7).standard_normal((2, f.shape[1]))
            np.testing.assert_allclose(alone, f @ ((x + 1j * y) / np.sqrt(2.0)),
                                       rtol=1e-12, atol=1e-15)
    assert np.all(together[1, 0] == 0)


def test_draw_channels_reads_two_normals_per_factor_column():
    # the sampler's cost: a set draw advances its generator by exactly
    # K N 2 R normals, whatever the antenna count
    cs = rank_mixed_set()
    rng = np.random.default_rng(5)
    draw_channels(cs, rng)
    skipped = np.random.default_rng(5)
    skipped.standard_normal(3 * 2 * 2 * 3)
    assert rng.standard_normal() == skipped.standard_normal()


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
        h = sample_channel(cs, rng)[0, 0]
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


def test_comp_cluster_without_users_spends_no_power():
    # both users are served by BS 0, so the cluster of BS 1 has no beam
    mats = {(k, n): random_clustered_correlation(8, 2, 1.0 if n == 0 else 0.01, seed=10 * k + n)
            for k in range(2) for n in range(2)}
    cs = link_set(mats, {0: 0, 1: 0}, {0: 0, 1: 0})
    rep = comp_baseline(cs, build_topology(cs, 10.0), PC, cluster_size=1, draws=5, seed=3)
    assert rep.bs_power_mean[1] == 0.0
    assert abs(rep.bs_power_mean[0] - PC) <= 1e-9 * PC
    assert np.all(rep.user_rate_mean > 0.0)


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
    # stacked channel rows H are dependent: its exact Gram matrix G = H H^H
    # is singular, and the regularized inverse A must still give the
    # pseudo-inverse beams H^+ = H^H G^+. Their Gram quantities are the
    # amplitudes H H^+ = G G^+ at the served rows and the squared norms
    # diag(G^+). Regularizing shrinks the component of eigenvalue e by reg /
    # (e + reg), and a squared norm's by at most 2 reg / e + (reg / e)^2, so
    # both sit within reg / e_min (twice that for the norms) of the
    # pseudo-inverse, e_min the smallest nonzero eigenvalue. The Gram matrix
    # formed from rank-R maps knows its zero eigenvalues only to round-off,
    # so these draws take the rank-limited inverse of _zero_forcing_limit
    cs = build_hotspot_network(2, 18, 16, 1, seed=7)
    graph = build_topology(cs, theta_from_db(10.0))
    users = [k for n in range(2) for k in graph.assoc_users[n]]
    zero_force = harness._zero_forcing_limit
    seen = []

    def record(gram):
        inverse = zero_force(gram)
        seen.extend(zip(gram, inverse))  # one |S| x |S| Gram matrix and inverse per draw
        return inverse

    draws, seed = 6, 5
    with mock.patch.object(harness, "_zero_forcing_limit", side_effect=record):
        comp_baseline(cs, graph, PC, cluster_size=2, draws=draws, seed=seed, delay_rho=1.0)
    assert len(seen) == draws  # one cluster, one chunk
    channels = sample_channel(cs, derive_rng(seed, COMP_MC, 0), draws)
    for (gram, inverse), h in zip(seen, channels):
        stacked = h[users].reshape(len(users), -1).conj()  # the M-dimensional rows H
        np.testing.assert_allclose(gram, stacked @ stacked.conj().T,
                                   rtol=0, atol=1e-12 * np.sum(np.abs(stacked) ** 2))
        s = np.linalg.svd(stacked, compute_uv=False)
        s_min = s[s > 1e-10 * s[0]][-1]
        assert np.count_nonzero(s > 1e-10 * s[0]) < len(users)
        oracle = np.linalg.pinv(stacked)  # one column per user
        reg = harness.ZF_NU * np.trace(gram).real / len(users)  # ZF_NU tr(HH^H) / |S|
        bias = reg / s_min**2
        assert bias <= 1e-4
        amplitudes, projector = gram @ inverse, stacked @ oracle
        assert np.linalg.norm(amplitudes - projector) <= (1.01 * bias + 1e-12) * np.linalg.norm(
            projector)
        norms = np.einsum("ij,ji->i", inverse, gram @ inverse).real
        exact = np.sum(np.abs(oracle) ** 2, axis=0)
        assert np.all(np.abs(norms - exact) <= (2.02 * bias + 1e-12) * exact)


def test_baselines_on_dependent_rows_match_the_m_dimensional_ones():
    # hotspot clones beyond their rank make a cell's and a cluster's rows
    # dependent. The Gram form knows the zero eigenvalues of their Gram
    # matrices only to round-off, which the squared beam norms diag(A G A)
    # would weigh like true eigenvalues; with them FFR's unit-norm beams and
    # CoMP's loads stay at the M-dimensional zero forcing, whose dependent
    # rows sit within the regularization bias of the pseudo-inverse
    cs = build_hotspot_network(2, 18, 16, 1, seed=7)
    graph = build_topology(cs, theta_from_db(10.0))
    draws, seed = 10, 5
    runs = [(ffr_baseline(cs, graph, PC, 2, draws, seed),
             per_draw_ffr(cs, graph, PC, 2, draws, seed))]
    for cluster_size, rho in ((1, 1.0), (2, 1.0), (2, 0.0)):
        runs.append((comp_baseline(cs, graph, PC, cluster_size, draws, seed, delay_rho=rho),
                     per_draw_comp(cs, graph, PC, cluster_size, draws, seed, rho)))
    for report, reference in runs:
        for name in ("user_rate_mean", "bs_power_mean"):
            np.testing.assert_allclose(getattr(report, name), reference[name], rtol=1e-6, atol=0)


def test_proposed_scheme_on_dependent_rows_matches_the_m_dimensional_one():
    # a BS that serves every clone of a rank-1 hotspot inverts G + M nu I
    # with a singular G, whose zero eigenvalues the Gram form knows only to
    # round-off: diag(A G A) would weigh them with 1 / (M nu)^2, and the BS
    # powers would drift from the M-dimensional ones as nu falls
    cs = build_hotspot_network(2, 18, 16, 1, seed=7)
    graph = build_topology(cs, theta_from_db(10.0))
    factor = cs.factor
    # users 0, 4 and 8 share one correlation at BS 0, users 1 and 5 at BS 1
    assert all(np.array_equal(factor[k, 0], factor[0, 0]) for k in (4, 8))
    assert np.array_equal(factor[5, 1], factor[1, 1])
    draws, seed = 5, 3
    channels = sample_channel(cs, derive_rng(seed, POLICY_MC, 0), draws)
    for selected in ((0, 4, 8), (0, 4, 8, 12, 1, 5)):
        control = assemble_control({k: 1.0 for k in selected}, cs, graph)
        policy = ControlPolicy(controls=[control], probs=np.array([1.0]))
        for nu in (1e-2, 1e-4, 1e-6):
            report = monte_carlo_policy(policy, cs, graph, nu, draws, seed)
            references = [m_dimensional_evaluation(control, graph, nu, h) for h in channels]
            rtol = max(rzf_rtol(control, graph, nu, h) for h in channels)
            assert_agrees(report.bs_power_mean, np.mean([r[1] for r in references], axis=0))
            assert_agrees(report.user_rate_mean, np.mean([r[0] for r in references], axis=0),
                          rtol)


def test_comp_delays_share_their_true_channels(desk):
    # common random numbers: every delay_rho reads its true channels from the
    # same stream and its AR(1) innovation from a stream of its own, which
    # delay_rho = 1 leaves untouched
    cs, graph = desk
    grams = harness._grams
    derive = harness.derive_rng
    draws, seed = 11, 3
    seen, streams = {}, {}

    def record_streams(*path):
        streams[path] = derive(*path)
        return streams[path]

    for rho in (1.0, 0.0):
        calls = seen[rho] = []

        def record(group, true, served, users_only=False):
            calls.append((users_only, true, served))
            return grams(group, true, served, users_only)

        budget = 3 * largest_baseline_array(cs, comp_groups(graph, 2))
        with mock.patch.object(harness, "CHUNK_ENTRIES", budget), \
                mock.patch.object(harness, "_grams", side_effect=record), \
                mock.patch.object(harness, "derive_rng", side_effect=record_streams):
            comp_baseline(cs, graph, PC, 2, draws, seed, delay_rho=rho)
        innovation = streams[(seed, COMP_MC, 1)].bit_generator.state
        fresh = derive_rng(seed, COMP_MC, 1).bit_generator.state
        assert (innovation == fresh) == (rho == 1.0)
    # chunks of 3, 3, 3 and 2 draws and one cluster: the Gram matrices of
    # each chunk's true rows against its served users, then at delay_rho < 1
    # those of its users' outdated rows among themselves
    assert len(seen[1.0]) == 4 and len(seen[0.0]) == 8
    for same, true, outdated in zip(seen[1.0], seen[0.0][::2], seen[0.0][1::2]):
        assert same[1] is same[2] and np.array_equal(same[1], true[1])
        assert not true[0] and outdated[0]  # users_only
        assert true[2] is outdated[1] is outdated[2]
        assert not np.allclose(true[1], true[2])


def test_baseline_zero_forcing_follows_the_channel_scale():
    # the baselines regularize by ZF_NU tr(G) / |S|, so scaling every channel
    # by s scales the Gram matrices of FFR and CoMP by s^2 and their inverses
    # A by 1 / s^2 (and leaves the unit-norm FFR beams as they are): weak
    # channels keep their zero-forcing beams H^H A instead of drifting toward
    # a matched filter
    recorded = {}
    zero_force = harness._zero_forcing_limit
    for ref_gain_db in (90.0, 20.0):
        cs = build_hotspot_network(2, 6, 16, 3, seed=7, inter_site_m=300.0, ref_gain_db=ref_gain_db)
        graph = build_topology(cs, theta_from_db(10.0))
        seen = recorded[ref_gain_db] = []

        def record(gram):
            inverse = zero_force(gram)
            seen.extend(inverse)  # one |S| x |S| inverse per draw of the chunk
            return inverse

        with mock.patch.object(harness, "_zero_forcing_limit", side_effect=record):
            ffr_baseline(cs, graph, PC, reuse_partitions=2, draws=3, seed=5)
            comp_baseline(cs, graph, PC, cluster_size=2, draws=3, seed=5, delay_rho=1.0)
    # one chunk of 3 draws for each of the two FFR cells and the CoMP cluster
    assert len(recorded[90.0]) == len(recorded[20.0]) == 9
    scale = 10.0 ** ((20.0 - 90.0) / 10.0)  # power ratio of the channels
    for strong, weak in zip(recorded[90.0], recorded[20.0]):
        expected = strong / scale
        assert np.linalg.norm(weak - expected) <= 1e-9 * np.linalg.norm(expected)


def test_proposed_beats_ffr_directionally(desk):
    cs, graph = desk
    policy = full_selection_policy(cs, graph)
    rep = monte_carlo_policy(policy, cs, graph, NU, draws=200, seed=31)
    ffr = ffr_baseline(cs, graph, PC, reuse_partitions=2, draws=200, seed=31)
    assert float(np.sum(de_rate_power(policy.controls[0], cs, graph, NU).rates)) >= ffr.sum_rate()
    assert rep.sum_rate() >= ffr.sum_rate()


# ---------------------------------------------------------------------------
# the chunked Monte Carlo loop against per-draw references: the loop, the
# layout and the draw callbacks below evaluate one realization at a time,
# either in rank-R coordinates like the program or from M-dimensional
# channels and beams
# ---------------------------------------------------------------------------

@st.composite
def baseline_cases(draw):
    """A random small network for both baselines, a reuse factor and a CoMP
    cluster size that divides the BSs. Links have rank 0 to 3 (rank 0 has
    no gain, also on a serving link: a served user without channel, whose
    beam is zero), some users clone an earlier user's correlations and
    serving BS (hotspot clones), and a cell serves up to M users, so a
    cell's or cluster's |S| R often exceeds M and its basis Q is square.

    A user and its clones are at most as many as their serving rank (no
    clone of a user without channel), and no cell or cluster serves more
    rows with channel than the rank of their stacked factors, nor does any
    subset of them: more would make its rows dependent, where the beams of
    any two evaluations agree only to round-off over ZF_NU (see the
    pseudo-inverse test)."""
    num_bs = draw(st.integers(1, 4))
    num_users = draw(st.integers(1, 7))
    m = draw(st.sampled_from([4, 6]))
    seed = draw(st.integers(0, 2**16))
    links, serving, original, copies = {}, {}, {}, {}
    for k in range(num_users):
        clone = original.get(draw(st.integers(0, k)), k)  # k itself: not a clone
        if clone < k and copies[clone] < links[(clone, serving[clone])][0]:
            copies[clone] += 1
            serving[k], original[k] = serving[clone], clone
            for n in range(num_bs):
                links[(k, n)] = links[(clone, n)]
            continue
        serving[k], original[k], copies[k] = draw(st.integers(0, num_bs - 1)), k, 1
        for n in range(num_bs):
            rank = draw(st.integers(0, 3))
            gain = 10.0 ** draw(st.floats(-3.0, 0.0)) if rank else 0.0
            links[(k, n)] = (rank, gain, seed + num_bs * k + n)
    assume(all(list(serving.values()).count(n) <= m for n in range(num_bs)))
    mats = {link: random_clustered_correlation(m, max(rank, 1), gain, seed=s)
            for link, (rank, gain, s) in links.items()}
    cs = link_set(mats, serving)
    graph = build_topology(cs, draw(st.sampled_from([10.0, 1e4])))
    cluster_size = draw(st.sampled_from([c for c in range(1, num_bs + 1) if num_bs % c == 0]))
    cells = [((n,), graph.assoc_users[n]) for n in range(num_bs)]
    clusters = [(bss, [k for n in bss for k in graph.assoc_users[n]])
                for bss in (range(c, c + cluster_size) for c in range(0, num_bs, cluster_size))]
    assume(all(rows_are_independent(cs, bss, users) for bss, users in cells + clusters))
    return cs, graph, draw(st.integers(1, 3)), cluster_size, seed


def rows_are_independent(cs, bss, users):
    """Whether the channel rows of ``users`` over the BSs ``bss`` are
    independent for almost every draw: by Rado's theorem, whether every set
    of the users with channel has at most as many members as the rank of
    their stacked factors. A user's factor over ``bss`` is block diagonal,
    so that rank is the sum of the ranks at each BS."""
    def rank(subset):
        return sum(np.linalg.matrix_rank(np.concatenate(
            [cs.link(k, n) for k in subset], axis=1)) for n in bss)

    with_channel = [k for k in users if rank((k,)) > 0]
    return all(rank(subset) >= size for size in range(2, len(with_channel) + 1)
               for subset in itertools.combinations(with_channel, size))


def per_draw_monte_carlo(draw, cs, graph, draws, seed, tag):
    rate_samples = np.zeros((draws, graph.num_users))
    power_samples = np.zeros((draws, graph.num_bs))
    ratios = []
    cross_sum = 0.0
    rng = derive_rng(seed, tag, 0)
    for i in range(draws):
        rate_samples[i], power_samples[i], ratio, cross = draw(sample_coefficients(cs, rng))
        ratios.append(ratio)
        cross_sum += cross
    return {
        "user_rate_mean": rate_samples.mean(axis=0),
        "user_rate_stderr": harness._stderr(rate_samples),
        "bs_power_mean": power_samples.mean(axis=0),
        "bs_power_stderr": harness._stderr(power_samples),
        "max_interference_ratio": None if ratios[0] is None else max(ratios),
        "mean_cross_interference": cross_sum / draws,
    }


def per_draw_layout(blocks, num_users, num_bs, m):
    beam_user = np.array([k for _, users, _ in blocks for k in users], dtype=int)
    beam_bs = np.array([bss[0] for bss, users, _ in blocks for _ in users], dtype=int)
    beams = np.zeros((num_bs, m, beam_user.size), dtype=complex)
    start = 0
    for bss, users, v in blocks:
        beams[list(bss), :, start : start + len(users)] = v.reshape(len(bss), m, len(users))
        start += len(users)
    return beams, np.arange(num_users)[:, None] == beam_user, beam_bs


def per_draw_zero_forcing_limit(rows):
    """Zero-forcing beams of one draw's rows; where every row is zero, any
    positive regularizer gives their zero beams."""
    reg = harness.ZF_NU * np.vdot(rows, rows).real / rows.shape[0]
    return zero_forcing(rows, reg if reg > 0 else 1.0)


def unit_norm(beams):
    """Every beam (column) at unit norm, a zero beam as it is."""
    norms = np.linalg.norm(beams, axis=0, keepdims=True)
    return beams / np.where(norms > 0, norms, 1.0)


def masked_rates(received, own, interferers):
    """log(1 + SINR) of every row of the K x L ``received`` powers, the
    signal from the beams marked in ``own``, the interference from those
    marked in ``interferers``."""
    return instantaneous_rate(np.sum(received, axis=-1, where=own),
                              np.sum(received, axis=-1, where=interferers))


def ffr_groups(graph, reuse_partitions):
    """Every FFR cell with users as ((n,), its users, the users of the other
    cells of its partition)."""
    partition = harness._bs_partition(graph, reuse_partitions)
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])
    return [((n,), list(graph.assoc_users[n]),
             [k for k in range(graph.num_users)
              if partition[serving[k]] == partition[n] and serving[k] != n])
            for n in range(graph.num_bs) if graph.assoc_users[n]]


def comp_groups(graph, cluster_size):
    """Every CoMP cluster with users as (its BSs, its users, every other
    user)."""
    groups = []
    for c in range(graph.num_bs // cluster_size):
        bss = tuple(range(c * cluster_size, (c + 1) * cluster_size))
        users = [k for n in bss for k in graph.assoc_users[n]]
        if users:
            groups.append((bss, users, [k for k in range(graph.num_users) if k not in users]))
    return groups


def largest_baseline_array(cs, groups):
    """Entries of the largest per-draw array of a baseline with the cells or
    clusters ``groups`` (``ffr_groups``, ``comp_groups``): the (K, N, 1, R)
    coefficients, or a group's rows times its |S| R served coefficients,
    the product that ``harness._gram`` forms at each of its BSs (its Gram
    matrices and their inverses are smaller)."""
    width = cs.factor.shape[-1]
    largest = cs.num_users * cs.num_bs * width
    for bss, users, others in groups:
        largest = max(largest, (len(users) + len(others)) * len(users) * width)
    return largest


def one_draw_grams(w, served_w, bss, rows, users, maps):
    """One draw's Gram matrices of ``rows`` (true coefficients ``w``)
    against ``users`` (coefficients ``served_w``), one per BS of ``bss``:
    conj(w_j) T_n[j, l] w_l^T for the maps T_n of ``harness._gram_map``,
    from ``harness._gram`` on a stack of that one draw."""
    return [harness._gram(w[None, rows, n, 0], served_w[None, users, n, 0], t[: len(rows)])[0]
            for n, t in zip(bss, maps)]


def one_draw_maps(cs, bss, rows, served, outer=None):
    """The maps of ``rows`` (``served`` of them served) at each BS of ``bss``,
    through the outer precoders ``outer`` if given."""
    factor = cs.factor
    return [harness._gram_map(factor[rows, n], served, None if outer is None else outer[n])
            for n in bss]


def one_draw_norms(inverse, delivered):
    """Squared norms diag(A G A) of one draw's beams H^H A over the rows with
    the Gram matrix G, from their amplitudes ``delivered`` = G A."""
    return harness._norms(inverse[None], delivered[None])[0]


def add_rank_r_received(received, users, others, signal, interference):
    """Books one draw's U x |S| received powers of a cell or cluster: the
    diagonal of the served rows as signal, the rest as interference."""
    s = len(users)
    own = np.eye(s, dtype=bool)
    signal[users] = np.diagonal(received[:s])
    interference[users] += np.sum(received[:s], axis=-1, where=~own)
    leaked = np.sum(received[s:], axis=-1)
    interference[others] += leaked
    return float(np.sum(leaked))


def rank_r_ffr(cs, graph, p_c, reuse_partitions, draws, seed):
    """FFR one draw at a time in Gram form: each cell's Gram matrix G of its
    rows against its users, A from its users' zero-forcing limit, unit-norm
    beams H^H A / ||.||, received powers p |G A|^2 / ||.||^2 and BS powers
    sum_l p_l over the beams with channel."""
    groups = [(bss, users, others, one_draw_maps(cs, bss, users + others, len(users)))
              for bss, users, others in ffr_groups(graph, reuse_partitions)]

    def draw(w):
        signal, interference = np.zeros(graph.num_users), np.zeros(graph.num_users)
        powers, cross = np.zeros(graph.num_bs), 0.0
        for bss, users, others, maps in groups:
            (gram,) = one_draw_grams(w, w, bss, users + others, users, maps)
            s = len(users)
            inverse = harness._zero_forcing_limit(gram[None, :s])[0]
            delivered = gram @ inverse
            norms = one_draw_norms(inverse, delivered[:s])
            power = np.full(s, p_c / s)
            unit = power * np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
            cross += add_rank_r_received(unit * np.abs(delivered) ** 2, users, others,
                                         signal, interference)
            powers[bss[0]] = np.sum(power * (norms > 0))
        return instantaneous_rate(signal, interference) / reuse_partitions, powers, None, cross

    return per_draw_monte_carlo(draw, cs, graph, draws, seed, FFR_MC)


def rank_r_comp(cs, graph, p_c, cluster_size, draws, seed, delay_rho):
    """CoMP one draw at a time in Gram form: each cluster's A from the
    zero-forcing limit of its users' outdated Gram matrix, BS unit loads
    diag(A G_n A) from each BS's outdated Gram matrix, and received powers
    p |G A|^2 from the Gram matrix of the true rows against the outdated
    served ones."""
    groups = [(bss, users, others, one_draw_maps(cs, bss, users + others, len(users)))
              for bss, users, others in comp_groups(graph, cluster_size)]
    innovation = derive_rng(seed, COMP_MC, 1)

    def draw(w):
        outdated = w
        if delay_rho < 1.0:
            stale = sample_coefficients(cs, innovation)
            outdated = delay_rho * w + np.sqrt(1.0 - delay_rho**2) * stale
        unit_load, delivered = np.zeros(graph.num_bs), []
        for bss, users, others, maps in groups:
            s = len(users)
            grams = one_draw_grams(w, outdated, bss, users + others, users, maps)
            served = one_draw_grams(outdated, outdated, bss, users, users, maps)
            inverse = harness._zero_forcing_limit(sum(served)[None])[0]
            delivered.append(np.abs(sum(grams) @ inverse) ** 2)
            for n, g in zip(bss, served):
                unit_load[n] = np.sum(one_draw_norms(inverse, g @ inverse))
        most_loaded = np.max(unit_load.reshape(-1, cluster_size), axis=1)
        scale = np.divide(p_c, most_loaded, out=np.zeros_like(most_loaded), where=most_loaded > 0)
        signal, interference = np.zeros(graph.num_users), np.zeros(graph.num_users)
        cross = 0.0
        for (bss, users, others, _), power in zip(groups, delivered):
            cross += add_rank_r_received(scale[bss[0] // cluster_size] * power, users, others,
                                         signal, interference)
        bs_power = unit_load * np.repeat(scale, cluster_size)
        return instantaneous_rate(signal, interference), bs_power, None, cross

    return per_draw_monte_carlo(draw, cs, graph, draws, seed, COMP_MC)


def rank_r_evaluation(control, cs, graph, nu, w):
    """Rates, BS powers, worst protected ratio and cross interference of one
    draw's (K, N, 1, R) coefficients w, in Gram form: at BS n the Gram
    matrix G of its selected and blocked users' effective channels
    conj(w_kn) F_kn^H F_n against its selected ones, A = (G_SS + M nu I)^-1,
    received powers p |G A|^2, and a BS spends sum_l p_l diag(A G_SS A)."""
    rates, signal = np.zeros(graph.num_users), np.zeros(graph.num_users)
    powers = np.zeros(graph.num_bs)
    leaks = []  # (protected user, power leaked onto it) in BS order
    for n, (users, blocked) in enumerate(served_and_blocked(graph, control.users)):
        if not users:
            continue
        rows, s = list(users + blocked), len(users)
        maps = one_draw_maps(cs, (n,), rows, s, control.outer)
        (gram,) = one_draw_grams(w, w, (n,), rows, list(users), maps)
        inverse = harness._inverse(gram[None, :s], cs.dim * nu)[0]
        power = np.array([control.power[k] for k in users])
        delivered = gram @ inverse
        received = power * np.abs(delivered) ** 2
        own = np.eye(s, dtype=bool)
        signal[list(users)] = np.diagonal(received[:s])
        rates[list(users)] = instantaneous_rate(signal[list(users)],
                                                np.sum(received[:s], axis=-1, where=~own))
        powers[n] = np.sum(power * one_draw_norms(inverse, delivered[:s]))
        leaks.extend(zip(blocked, np.sum(received[s:], axis=-1)))
    leak = np.array([power for _, power in leaks])
    ratio = leak / (signal[[k for k, _ in leaks]] + 1.0)
    return rates, powers, float(np.max(ratio, initial=0.0)), float(np.sum(leak))


def per_draw_policy(policy, cs, graph, nu, draws, seed):
    def draw(w):
        rates, powers = np.zeros(graph.num_users), np.zeros(graph.num_bs)
        worst = cross = 0.0
        for q, control in zip(policy.probs, policy.controls):
            r, p, ratio, c = rank_r_evaluation(control, cs, graph, nu, w)
            rates += q * r
            powers += q * p
            worst = max(worst, ratio)
            cross += q * c
        return rates, powers, worst, cross

    return per_draw_monte_carlo(draw, cs, graph, draws, seed, POLICY_MC)


def per_draw_ffr(cs, graph, p_c, reuse_partitions, draws, seed):
    """FFR one draw at a time from M-dimensional channels and (N, M, L)
    beams."""
    m = cs.dim
    partition = harness._bs_partition(graph, reuse_partitions)
    load = np.array([len(graph.assoc_users[n]) for n in range(graph.num_bs)])
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])

    def draw(w):
        channels = link_channels(cs, w)
        blocks = []
        for n, users in graph.assoc_users.items():
            if users:
                g = per_draw_zero_forcing_limit(channels[list(users), n].conj())
                blocks.append(((n,), users, unit_norm(g)))
        beams, own, beam_bs = per_draw_layout(blocks, graph.num_users, graph.num_bs, m)
        power = p_c / load[beam_bs]
        received = cross_interference_power(channels, beams, power)
        band = partition[serving][:, None] == partition[beam_bs]
        rates = masked_rates(received, own, band & ~own) / reuse_partitions
        cross = float(np.sum(received, where=band & (serving[:, None] != beam_bs)))
        return rates, transmit_power(beams, power), None, cross

    return per_draw_monte_carlo(draw, cs, graph, draws, seed, FFR_MC)


def per_draw_comp(cs, graph, p_c, cluster_size, draws, seed, delay_rho):
    """CoMP one draw at a time from M-dimensional channels and (N, M, L)
    beams."""
    m = cs.dim
    clusters = [tuple(range(c * cluster_size, (c + 1) * cluster_size))
                for c in range(graph.num_bs // cluster_size)]
    members = [[k for n in bss for k in graph.assoc_users[n]] for bss in clusters]
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])
    innovation = derive_rng(seed, COMP_MC, 1)

    def draw(w):
        channels = outdated = link_channels(cs, w)
        if delay_rho < 1.0:
            stale = sample_coefficients(cs, innovation)
            outdated = link_channels(cs, delay_rho * w + np.sqrt(1.0 - delay_rho**2) * stale)
        blocks = []
        for bss, users in zip(clusters, members):
            if users:
                rows = outdated[np.ix_(users, bss)].reshape(len(users), -1).conj()
                blocks.append((bss, users, per_draw_zero_forcing_limit(rows)))
        beams, own, beam_bs = per_draw_layout(blocks, graph.num_users, graph.num_bs, m)
        unit_load = transmit_power(beams, np.ones(beams.shape[2]))
        most_loaded = np.max(unit_load.reshape(-1, cluster_size), axis=1)
        scale = np.divide(p_c, most_loaded, out=np.zeros_like(most_loaded), where=most_loaded > 0)
        power = scale[beam_bs // cluster_size]
        received = cross_interference_power(channels, beams, power)
        other_cluster = (serving // cluster_size)[:, None] != beam_bs // cluster_size
        cross = float(np.sum(received, where=other_cluster))
        bs_power = unit_load * np.repeat(scale, cluster_size)
        # every beam of a cluster carries its cluster's power, so the unit
        # loads scale to the BS powers of the definition
        np.testing.assert_allclose(bs_power, transmit_power(beams, power), rtol=1e-12, atol=0)
        return masked_rates(received, own, ~own), bs_power, None, cross

    return per_draw_monte_carlo(draw, cs, graph, draws, seed, COMP_MC)


def largest_policy_array(policy, cs, graph):
    """Entries of the largest per-draw array of the proposed scheme: the
    (K, N, 1, R) coefficients, or at a BS n with a selection S_n and blocked
    users B_n its |S_n + B_n| rows times |S_n| R served coefficients, the
    product that ``harness._gram`` forms (its Gram matrix, inverse and
    received powers are smaller)."""
    width = cs.factor.shape[-1]
    largest = cs.num_users * cs.num_bs * width
    for control in policy.controls:
        for users, blocked in served_and_blocked(graph, control.users):
            if users:
                largest = max(largest, (len(users) + len(blocked)) * len(users) * width)
    return largest


def m_dimensional_evaluation(control, graph, nu, channels):
    """The same quantities from one draw's (K, N, M) channels: RZF on
    h^H F_n, the full (N, M, L) beams F_n g, ``cross_interference_power``
    and ``transmit_power``."""
    split = served_and_blocked(graph, control.users)
    inner = full_inner_precoders(control, channels, nu, graph.serving)
    blocks = [((n,), users, control.outer[n] @ inner[n]) for n, (users, _) in enumerate(split)]
    beams, own, beam_bs = per_draw_layout(blocks, graph.num_users, graph.num_bs,
                                          channels.shape[-1])
    power = np.array([control.power[k] for _, users, _ in blocks for k in users])
    received = cross_interference_power(channels, beams, power)
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])
    rates = masked_rates(received, own, (serving[:, None] == beam_bs) & ~own)
    protected = np.zeros((graph.num_users, graph.num_bs), dtype=bool)
    for n, (_, blocked) in enumerate(split):
        protected[list(blocked), n] = True
    per_bs = received @ (beam_bs[:, None] == np.arange(graph.num_bs))
    signal = np.sum(received, axis=1, where=own)
    worst = float(np.max((per_bs / (signal[:, None] + 1.0))[protected], initial=0.0))
    return rates, transmit_power(beams, power), worst, float(np.sum(per_bs[protected]))


@st.composite
def rank_r_cases(draw):
    """A random small network with links of rank 0 to 3 (rank 0 has no gain)
    and gains up to 1e3, a regularizer nu, and a policy of one or two
    controls, each selecting a random user set that may leave a BS without a
    selection, with water-filled powers. Some users clone an earlier user's
    correlations and serving BS (hotspot clones), as many as drawn, so a
    selection's effective rows may be dependent: their Gram matrices then
    have zero eigenvalues, which the Gram form knows only to round-off."""
    num_bs = draw(st.integers(1, 3))
    num_users = draw(st.integers(1, 6))
    m = draw(st.sampled_from([4, 8]))
    seed = draw(st.integers(0, 2**16))
    mats, serving = {}, {}
    for k in range(num_users):
        clone = draw(st.integers(0, k))  # k itself: not a clone
        if clone < k:
            serving[k] = serving[clone]
            for n in range(num_bs):
                mats[(k, n)] = mats[(clone, n)]
            continue
        serving[k] = draw(st.integers(0, num_bs - 1))
        for n in range(num_bs):
            rank = draw(st.integers(0, 3))
            gain = 10.0 ** draw(st.floats(-3.0, 3.0)) if rank else 0.0
            mats[(k, n)] = random_clustered_correlation(m, max(rank, 1), gain,
                                                        seed=seed + num_bs * k + n)
    cs = link_set(mats, serving)
    graph = build_topology(cs, draw(st.sampled_from([10.0, 1e4])))
    controls = []
    for _ in range(draw(st.integers(1, 2))):
        selected = tuple(k for k in range(num_users) if draw(st.booleans()))
        weights = np.array([draw(st.floats(0.1, 1.0)) for _ in range(num_users)])
        powers = weighted_sum_rate(selected, weights, cs, graph, NU, PC).powers
        controls.append(assemble_control(powers, cs, graph))
    probs = np.full(len(controls), 1.0 / len(controls))
    nu = draw(st.sampled_from([NU, 1e-4, 1e-6]))
    return cs, graph, ControlPolicy(controls=controls, probs=probs), nu, seed


def assert_agrees(value, reference, rtol=1e-10):
    """Agreement to ``rtol`` relative; entries that are round-off (a user
    whose effective channel is annihilated) to 1e-12 of the largest one."""
    scale = float(np.max(np.abs(reference), initial=0.0))
    np.testing.assert_allclose(value, reference, rtol=rtol, atol=1e-12 * scale)


def rzf_rtol(control, graph, nu, channels):
    """The relative tolerance of an evaluation of ``control`` on one draw's
    (K, N, M) channels: 1e-10, or 1e-14 times the largest condition number
    of a BS's G + M nu I (G the Gram matrix of its effective rows h^H F_n)
    where that is more. Either evaluation inverts that matrix, so neither is
    more accurate than about 2e-16 times its condition number, which
    dependent rows (hotspot clones) and a small nu make large. Round-off
    eigenvalues that A G A weighs with 1 / reg^2 instead of zero would err
    by about 1e-16 times its square."""
    reg = channels.shape[-1] * nu
    condition = 1.0
    for n, (users, _) in enumerate(served_and_blocked(graph, control.users)):
        if users:
            rows = channels[list(users), n].conj() @ control.outer[n]
            values = np.linalg.eigvalsh(rows @ rows.conj().T)
            condition = max(condition, (values[-1] + reg) / (max(values[0], 0.0) + reg))
    return max(1e-10, 1e-14 * condition)


@settings(max_examples=100, deadline=None)
@given(rank_r_cases())
def test_rank_r_evaluation_matches_the_m_dimensional_one(case):
    cs, graph, policy, nu, seed = case
    draws = 3
    coefficients = sample_coefficients(cs, np.random.default_rng(seed), draws)
    channels = sample_channel(cs, np.random.default_rng(seed), draws)
    mixed_rates = np.zeros((draws, graph.num_users))
    mixed_powers = np.zeros((draws, graph.num_bs))
    rng = np.random.default_rng(seed)
    for q, control in zip(policy.probs, policy.controls):
        evaluate, _ = harness._control_evaluator(control, cs, graph, nu)
        rates, powers, worst, _ = evaluate(coefficients)
        for d in range(draws):
            ref_rates, ref_powers, ref_worst, _ = m_dimensional_evaluation(control, graph, nu,
                                                                           channels[d])
            rtol = rzf_rtol(control, graph, nu, channels[d])
            assert_agrees(rates[d], ref_rates, rtol)
            assert_agrees(powers[d], ref_powers, rtol)
            assert worst[d] <= 1e-16 and ref_worst <= 1e-16
            mixed_rates[d] += q * ref_rates
            mixed_powers[d] += q * ref_powers
        # random semi-unitary outer precoders null nobody, so the blocked
        # users' rows carry real power: the leaks must agree as well
        leaky = CompositeControl(outer={}, power=control.power)
        for n in range(graph.num_bs):
            width = int(rng.integers(0, cs.dim + 1))
            raw = rng.standard_normal((cs.dim, width)) + 1j * rng.standard_normal((cs.dim, width))
            leaky.outer[n] = np.linalg.qr(raw)[0]
        evaluate, _ = harness._control_evaluator(leaky, cs, graph, nu)
        for d, got in enumerate(zip(*evaluate(coefficients))):
            rtol = rzf_rtol(leaky, graph, nu, channels[d])
            for value, reference in zip(got, m_dimensional_evaluation(leaky, graph, nu,
                                                                      channels[d])):
                assert_agrees(value, reference, rtol)
    # the whole policy: the report reads the same channels from (seed, POLICY_MC, 0)
    report = monte_carlo_policy(policy, cs, graph, nu, draws, seed)
    stream = sample_channel(cs, derive_rng(seed, POLICY_MC, 0), draws)
    reference_rates = np.zeros(graph.num_users)
    reference_powers = np.zeros(graph.num_bs)
    rtol = 1e-10
    for q, control in zip(policy.probs, policy.controls):
        for d in range(draws):
            ref_rates, ref_powers, _, _ = m_dimensional_evaluation(control, graph, nu, stream[d])
            reference_rates += q * ref_rates / draws
            reference_powers += q * ref_powers / draws
            rtol = max(rtol, rzf_rtol(control, graph, nu, stream[d]))
    assert_agrees(report.user_rate_mean, reference_rates, rtol)
    assert_agrees(report.bs_power_mean, reference_powers, rtol)
    assert report.max_interference_ratio <= 1e-16


@settings(max_examples=100, deadline=None)
@given(baseline_cases())
def test_rank_r_baselines_match_the_m_dimensional_ones(case):
    # each cell or cluster zero-forces its rows h^H Q_n in the bases of its
    # users' factors; the references build every draw's (K, N, M) channels
    # and (N, M, L) beams, and read the same streams
    cs, graph, partitions, cluster_size, seed = case
    draws = 3
    runs = [(ffr_baseline(cs, graph, PC, partitions, draws, seed),
             per_draw_ffr(cs, graph, PC, partitions, draws, seed))]
    for rho in (1.0, 0.5, 0.0):
        runs.append((comp_baseline(cs, graph, PC, cluster_size, draws, seed, delay_rho=rho),
                     per_draw_comp(cs, graph, PC, cluster_size, draws, seed, rho)))
    for report, reference in runs:
        assert_agrees(report.user_rate_mean, reference["user_rate_mean"])
        assert_agrees(report.bs_power_mean, reference["bs_power_mean"])
        assert_agrees(report.mean_cross_interference, reference["mean_cross_interference"])


@st.composite
def chunked_cases(draw):
    """A random small network, the draws per chunk c of CoMP (set through
    CHUNK_ENTRIES, which c times its largest array plus less than that
    array gives) and a draw count around its chunk boundaries."""
    num_bs = draw(st.sampled_from([2, 4]))
    num_users = draw(st.integers(num_bs, 8))
    m = draw(st.sampled_from([8, 16]))
    rank = draw(st.integers(1, 4))
    cs = build_hotspot_network(num_bs, num_users, m, rank, seed=draw(st.integers(0, 2**16)),
                               inter_site_m=300.0)
    graph = build_topology(cs, theta_from_db(10.0))
    per_chunk = draw(st.integers(1, 8))
    largest = largest_baseline_array(cs, comp_groups(graph, 2))
    chunk_entries = per_chunk * largest + draw(st.integers(0, largest - 1))
    counts = sorted({d for d in (1, per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk + 3)
                     if d >= 1})
    return cs, graph, chunk_entries, draw(st.sampled_from(counts)), draw(st.integers(0, 2**16))


def assert_same_report(report, reference):
    assert np.array_equal(report.user_rate_mean, reference["user_rate_mean"])
    assert np.array_equal(report.bs_power_mean, reference["bs_power_mean"])
    for name in ("user_rate_stderr", "bs_power_stderr"):
        np.testing.assert_allclose(getattr(report, name), reference[name], rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.mean_cross_interference,
                               reference["mean_cross_interference"], rtol=1e-12, atol=0)
    assert report.max_interference_ratio == reference["max_interference_ratio"]


@settings(max_examples=100, deadline=None)
@given(chunked_cases())
def test_chunked_monte_carlo_matches_the_per_draw_loop(case):
    cs, graph, chunk_entries, draws, seed = case
    full = tuple(range(cs.num_users))
    half = full[::2]
    controls = [
        assemble_control(weighted_sum_rate(sel, np.ones(cs.num_users), cs, graph, NU, PC).powers,
                         cs, graph)
        for sel in (full, half)
    ]
    policy = ControlPolicy(controls=controls, probs=np.array([0.7, 0.3]))
    proposed_chunk, ffr_chunk, comp_chunk = (
        max(1, min(harness.CHUNK_DRAWS, chunk_entries // largest))
        for largest in (largest_policy_array(policy, cs, graph),
                        largest_baseline_array(cs, ffr_groups(graph, 2)),
                        largest_baseline_array(cs, comp_groups(graph, 2))))
    sample = harness.sample_coefficients
    sampled = []

    def record(corr_set, rng, count):
        sampled.append(sample(corr_set, rng, count))
        return sampled[-1]

    runs = [
        (lambda: monte_carlo_policy(policy, cs, graph, NU, draws, seed),
         per_draw_policy(policy, cs, graph, NU, draws, seed), POLICY_MC, 1, proposed_chunk),
        (lambda: ffr_baseline(cs, graph, PC, 2, draws, seed),
         rank_r_ffr(cs, graph, PC, 2, draws, seed), FFR_MC, 1, ffr_chunk),
    ]
    for rho in (1.0, 0.5, 0.0):
        runs.append((lambda rho=rho: comp_baseline(cs, graph, PC, 2, draws, seed, delay_rho=rho),
                     rank_r_comp(cs, graph, PC, 2, draws, seed, rho), COMP_MC,
                     1 if rho == 1.0 else 2, comp_chunk))
    for run, reference, tag, blocks, size in runs:
        sampled.clear()
        with mock.patch.object(harness, "CHUNK_ENTRIES", chunk_entries), \
                mock.patch.object(harness, "sample_coefficients", side_effect=record):
            assert_same_report(run(), reference)
        # one sampling call per chunk (two with CoMP's AR(1) innovation): the
        # coefficients read the stream (seed, tag, 0) in draw order, the
        # innovation (seed, COMP_MC, 1) as every chunk's second block
        assert len(sampled) == -(-draws // size) * blocks
        assert all(c.shape[0] == min(size, draws - i * size)
                   for i, c in enumerate(sampled[::blocks]))
        for block in range(blocks):
            rng = derive_rng(seed, tag, block)
            stacked = np.concatenate(sampled[block::blocks])
            assert stacked.shape[0] == draws
            for i in range(draws):
                assert np.array_equal(stacked[i], sample_coefficients(cs, rng))
