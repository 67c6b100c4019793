"""Acceptance suite: one test per exit criterion, one PASS line each."""

import json
import time

import numpy as np
import pytest

from hiermimo.corrmat import build_hotspot_network
from hiermimo.det_equiv import GainCache, de_rate_power, full_de, solve_effective_gains
from hiermimo.harness import comp_baseline, ffr_baseline, monte_carlo_policy
from hiermimo.scheduler import (
    ControlPolicy,
    assemble_control,
    best_control_exhaustive,
    best_control_greedy,
    optimize_policy,
    pfs_utility,
    waterfill,
    weighted_sum_rate,
)
from hiermimo.topology import build_topology, theta_from_db

from conftest import de_rel_err

NU, PC = 0.01, 10.0
THETA = theta_from_db(10.0)


def desk_network(seed, num_users=6, m=16, rank=3):
    cs = build_hotspot_network(2, num_users, m, rank, seed=seed, inter_site_m=300.0)
    return cs, build_topology(cs, THETA)


# ---------------------------------------------------------------------------
# shared expensive fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_batch():
    """Fifty random desk scenarios with loose and tight optimizer runs."""
    runs = []
    for seed in range(50):
        cs, graph = desk_network(seed)
        util = pfs_utility(6)
        cache = GainCache(cs, graph, NU)
        loose = optimize_policy(cs, graph, util, NU, PC, mode="greedy",
                                eps_stop=1e-6, max_outer=100, gain_cache=cache)
        tight_ex = optimize_policy(cs, graph, util, NU, PC, mode="exhaustive",
                                   eps_stop=1e-10, max_outer=300, gain_cache=cache)
        tight_gr = optimize_policy(cs, graph, util, NU, PC, mode="greedy",
                                   eps_stop=1e-10, max_outer=300, gain_cache=cache)
        runs.append({"seed": seed, "cs": cs, "graph": graph, "cache": cache,
                     "loose": loose, "tight_ex": tight_ex, "tight_gr": tight_gr})
    return runs


@pytest.fixture(scope="module")
def validation_study():
    """DE-vs-Monte-Carlo study at fixed load |S_n|/M = 1/8, rank/M = 3/16:
    per M, each scenario's Monte Carlo report and the relative errors of its
    mean rates and BS powers against ``de_rate_power``."""
    t0 = time.time()
    shapes = {16: (4, 3, 200), 32: (8, 6, 500), 64: (16, 12, 200)}
    reports = {m: [] for m in shapes}
    rate_err = {m: [] for m in shapes}
    power_err = {m: [] for m in shapes}
    neighbor_scenarios = 0
    for seed in range(20):
        for m, (num_users, rank, draws) in shapes.items():
            cs, graph = desk_network(2000 + seed, num_users=num_users, m=m, rank=rank)
            if m == 32 and any(graph.neighbor_users[n] for n in range(2)):
                neighbor_scenarios += 1
            selected = tuple(range(num_users))
            wsr = weighted_sum_rate(selected, np.ones(num_users), cs, graph, NU, PC)
            control = assemble_control(selected, cs, graph, wsr.powers)
            policy = ControlPolicy(controls=[control], probs=np.array([1.0]))
            report = monte_carlo_policy(policy, cs, graph, NU, draws, seed=seed)
            de = de_rate_power(control, cs, graph, NU)
            reports[m].append(report)
            rate_err[m].append(de_rel_err(report.user_rate_mean, de.rates))
            power_err[m].append(de_rel_err(report.bs_power_mean, de.powers))
    return {"reports": reports, "rate_err": rate_err, "power_err": power_err,
            "elapsed": time.time() - t0, "neighbor_scenarios": neighbor_scenarios}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_fixed_point_closed_form():
    t0 = time.time()
    sol = solve_effective_gains([np.eye(16, dtype=complex)], nu=0.01)
    elapsed = time.time() - t0
    b, c = 1 + 16 * 0.01 - 16, -16 * 0.01
    root = (-b + np.sqrt(b * b - 4 * 16 * c)) / 32
    assert abs(sol.gains[0] - root) <= 1e-6
    assert abs(sol.gains[0] - 0.938159) <= 1e-6
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: xi={sol.gains[0]:.6f} (target 0.938159) in {elapsed:.3f}s")


def test_criterion_2_de_accuracy(validation_study):
    rate_err, power_err = validation_study["rate_err"], validation_study["power_err"]
    worst_rate = max(float(np.nanmax(err)) for err in rate_err[32])
    worst_power = max(float(np.nanmax(err)) for err in power_err[32])
    assert worst_rate <= 0.10
    assert worst_power <= 0.10
    med_power = {m: float(np.median([np.nanmean(err) for err in power_err[m]]))
                 for m in (16, 32, 64)}
    assert med_power[16] > med_power[32] > med_power[64]
    med_rate = {m: float(np.median([np.nanmean(err) for err in rate_err[m]]))
                for m in (16, 32, 64)}
    assert validation_study["elapsed"] < 120.0
    print(
        "\nACCEPTANCE 2 PASS: M=32 worst rate err "
        f"{worst_rate:.4f}, worst power err {worst_power:.4f}; median power err "
        f"{med_power[16]:.4f} > {med_power[32]:.4f} > {med_power[64]:.4f} "
        f"(rate medians {med_rate[16]:.2e}/{med_rate[32]:.2e}/{med_rate[64]:.2e} "
        f"sit at the Monte-Carlo noise floor); {validation_study['elapsed']:.0f}s"
    )


def test_criterion_3_zero_inter_cell_interference(validation_study):
    worst = 0.0
    for reports in validation_study["reports"].values():
        for rep in reports:
            worst = max(worst, rep.max_interference_ratio)
    assert validation_study["neighbor_scenarios"] >= 1
    assert worst <= 1e-16
    print(f"\nACCEPTANCE 3 PASS: worst interference/signal ratio {worst:.3e} over "
          f"all draws ({validation_study['neighbor_scenarios']} scenarios with "
          "protected neighbors at M=32)")


def test_criterion_4_monotone_convergence(desk_batch):
    iterations = []
    for run in desk_batch:
        trace = run["loose"].trace
        values = [t.utility for t in trace]
        for later, earlier in zip(values[1:], values):
            assert later >= earlier - 1e-9
        assert run["loose"].converged and len(trace) <= 100
        iterations.append(len(trace))
    median_iters = float(np.median(iterations))
    assert median_iters <= 30
    print(f"\nACCEPTANCE 4 PASS: 50 runs monotone, all converged; median "
          f"{median_iters:.0f} iterations, max {max(iterations)}")


def test_criterion_5_global_optimality_certificate(desk_batch):
    slacks = [run["tight_ex"].certificate for run in desk_batch]
    assert all(s >= -1e-8 for s in slacks)
    assert max(slacks) <= 1e-6
    print(f"\nACCEPTANCE 5 PASS: exhaustive slack max {max(slacks):.3e} <= 1e-6")


def test_criterion_6_greedy_quality(desk_batch):
    gaps = []
    for run in desk_batch:
        ex, gr = run["tight_ex"], run["tight_gr"]
        assert gr.certificate is not None
        assert gr.utility >= ex.utility - gr.certificate - 1e-8
        gaps.append(ex.utility - gr.utility)
        # greedy never beats exhaustive in weighted sum rate at identical weights
        rng = np.random.default_rng(run["seed"])
        for mu in (gr.rate_weights, rng.uniform(0.0, 1.0, size=6)):
            picked_ex = best_control_exhaustive(mu, run["cs"], run["graph"], NU, PC,
                                                run["cache"])
            picked_gr = best_control_greedy(mu, run["cs"], run["graph"], NU, PC,
                                            run["cache"])
            assert picked_gr.value <= picked_ex.value + 1e-12
    print(f"\nACCEPTANCE 6 PASS: greedy-gap bound holds on 50 scenarios; "
          f"max utility gap {max(gaps):.3e}")


def test_criterion_7_waterfill_kkt():
    rng = np.random.default_rng(123)
    worst_eq, worst_st = 0.0, 0.0
    for _ in range(50):
        users = int(rng.integers(1, 7))
        weights = {k: float(rng.uniform(0.0, 2.0)) for k in range(users)}
        gains = {k: float(rng.uniform(0.05, 3.0)) for k in range(users)}
        serving = {k: int(rng.integers(0, 2)) for k in range(users)}
        for n in (0, 1):
            members = [k for k in range(users) if serving[k] == n]
            bs_powers, level = waterfill([weights[k] for k in members],
                                         [gains[k] for k in members], m=16, p_c=PC)
            powers = dict(zip(members, bs_powers))
            active = [k for k in members if weights[k] > 0 and gains[k] > 1e-12]
            if not active:
                continue
            spent = sum(powers[k] / gains[k] for k in members) / 16
            worst_eq = max(worst_eq, abs(spent - PC) / PC)
            for k in members:
                if powers[k] > 0:
                    resid = abs(weights[k] * 16 * gains[k] / (1 + powers[k]) - level)
                    worst_st = max(worst_st, resid)
    assert worst_eq <= 1e-8
    assert worst_st <= 1e-6
    print(f"\nACCEPTANCE 7 PASS: budget equality residual {worst_eq:.3e}, "
          f"stationarity residual {worst_st:.3e}")


def test_criterion_8_refined_de_linear_in_nu():
    from conftest import single_cell_set

    cs = single_cell_set(16, 3, 3, gains=[1.0, 0.7, 1.4], seed0=500)
    graph = build_topology(cs, THETA)
    wsr = weighted_sum_rate((0, 1, 2), np.ones(3), cs, graph, 0.01, PC)
    control = assemble_control((0, 1, 2), cs, graph, wsr.powers)
    errors = []
    for nu in (1e-2, 1e-3, 1e-4):
        hat = full_de(control, cs, graph, nu)
        simple = de_rate_power(control, cs, graph, nu)
        errors.append(float(np.max(np.abs(hat.rates_hat - simple.rates))))
    r1, r2 = errors[1] / errors[0], errors[2] / errors[1]
    assert r1 <= 0.15 and r2 <= 0.15
    print(f"\nACCEPTANCE 8 PASS: nu-sweep errors {errors[0]:.2e} -> {errors[1]:.2e} "
          f"-> {errors[2]:.2e} (ratios {r1:.3f}, {r2:.3f})")


def test_criterion_9_directional_baselines():
    cs, graph = desk_network(7)
    util = pfs_utility(6)
    result = optimize_policy(cs, graph, util, NU, PC, mode="greedy")
    proposed = monte_carlo_policy(result.policy, cs, graph, NU, draws=500, seed=7)
    ffr = ffr_baseline(cs, graph, PC, reuse_partitions=2, draws=500, seed=7)
    assert proposed.sum_rate() >= ffr.sum_rate()
    perfect = comp_baseline(cs, graph, PC, cluster_size=2, draws=500, seed=7,
                            delay_rho=1.0)
    stale = comp_baseline(cs, graph, PC, cluster_size=2, draws=500, seed=7,
                          delay_rho=0.0)
    assert stale.sum_rate() < perfect.sum_rate()
    print(f"\nACCEPTANCE 9 PASS: proposed {proposed.sum_rate():.2f} >= FFR "
          f"{ffr.sum_rate():.2f}; CoMP stale {stale.sum_rate():.2f} < perfect "
          f"{perfect.sum_rate():.2f}")


def test_criterion_10_determinism(tmp_path):
    from hiermimo.cli import run_scenario

    config = {
        "num_bs": 2, "num_users": 6, "num_antennas": 16, "rank": 3,
        "power_limit_db": 10.0, "rzf_nu": 0.01, "theta_db": 10.0,
        "utility": {"kind": "pfs", "eps": 1e-4}, "mode": "greedy",
        "seed": 7, "draws": 60, "geometry": {"inter_site_m": 300.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_scenario(path, out1)
    run_scenario(path, out2)
    for name in ("policy.json", "trace.csv", "validation.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    print("\nACCEPTANCE 10 PASS: repeated runs byte-identical across all four outputs")
