"""Scenario configuration, end-to-end runs, and result files.

A scenario is one JSON file with explicit keys (see ``REQUIRED_FIELDS`` and
the README schema). ``run`` executes generate -> topology -> optimize ->
validate and writes policy.json, trace.csv, validation.csv, summary.json;
``compare`` additionally runs the FFR and clustered-CoMP baselines on the
same correlation set and seed and writes comparison.csv. Outputs are
byte-stable for a fixed config and seed: JSON keys are sorted and floats use
shortest round-trip formatting.
"""

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corrmat import MIN_DIST_M, build_hotspot_network, load_correlation_set
from .det_equiv import GainCache
from .errors import ConfigError, ParameterError
from .harness import comp_baseline, ffr_baseline, monte_carlo_policy
from .precoder import CompositeControl
from .scheduler import (
    ENUMERATION_GUARD,
    ControlPolicy,
    alpha_fair_utility,
    pfs_utility,
    sum_rate_utility,
    optimize_policy,
)
from .topology import build_topology, theta_from_db

log = logging.getLogger(__name__)

REQUIRED_FIELDS = (
    "num_bs",
    "num_users",
    "num_antennas",
    "rank",
    "power_limit_db",
    "rzf_nu",
    "theta_db",
    "utility",
    "mode",
    "seed",
    "draws",
)

DEFAULT_GEOMETRY = {
    "inter_site_m": 500.0,
    "hotspots_per_cell": 2,
    "hotspot_radius_m": 50.0,
    "hotspot_fraction": 2.0 / 3.0,
    "pathloss_exponent": 3.76,
    "ref_gain_db": 90.0,
}

DEFAULT_BASELINES = {
    "ffr_partitions": 2,
    "comp_cluster_size": 2,
    "comp_delay_rhos": [1.0, 0.0],
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

ENUMERATION_LIMIT = ENUMERATION_GUARD


@dataclass
class Scenario:
    num_bs: int
    num_users: int
    num_antennas: int
    rank: int
    power_limit_db: float
    rzf_nu: float
    theta_db: float
    utility: dict
    mode: str
    seed: int
    draws: int
    eps_stop: float = 1e-6
    max_outer: int = 100
    geometry: dict = field(default_factory=dict)
    correlation_file: str = None
    baselines: dict = field(default_factory=dict)

    @property
    def power_limit(self):
        return 10.0 ** (self.power_limit_db / 10.0)

    @property
    def theta(self):
        return theta_from_db(self.theta_db)


def _require_positive(data, name, kind=float):
    value = data[name]
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field '{name}' must be a {kind.__name__}", field=name)
    if value <= 0:
        raise ConfigError(f"field '{name}' must be positive, got {value!r}", field=name)
    return value


def scenario_from_dict(data):
    for name in REQUIRED_FIELDS:
        if name not in data:
            raise ConfigError(f"missing required field '{name}'", field=name)
    num_bs = _require_positive(data, "num_bs", int)
    num_users = _require_positive(data, "num_users", int)
    num_antennas = _require_positive(data, "num_antennas", int)
    rank = _require_positive(data, "rank", int)
    if rank > num_antennas:
        raise ConfigError("field 'rank' cannot exceed 'num_antennas'", field="rank")
    nu = _require_positive(data, "rzf_nu", float)
    theta_db = _require_positive(data, "theta_db", float)
    draws = _require_positive(data, "draws", int)
    mode = data["mode"]
    if mode not in ("greedy", "exhaustive"):
        raise ConfigError(f"field 'mode' must be 'greedy' or 'exhaustive', got {mode!r}", field="mode")
    if mode == "exhaustive" and num_users > ENUMERATION_LIMIT:
        raise ConfigError(
            f"mode 'exhaustive' supports at most {ENUMERATION_LIMIT} users "
            f"(got {num_users}); use mode 'greedy'",
            field="mode",
        )
    util = data["utility"]
    if not isinstance(util, dict) or "kind" not in util:
        raise ConfigError("field 'utility' must be an object with a 'kind'", field="utility")
    if util["kind"] not in ("pfs", "alpha_fair", "sum_rate"):
        raise ConfigError(f"unknown utility kind {util['kind']!r}", field="utility")
    geometry = dict(DEFAULT_GEOMETRY)
    geometry.update(data.get("geometry") or {})
    try:
        inter_site = float(geometry["inter_site_m"])
    except (TypeError, ValueError):
        inter_site = float("nan")
    if not inter_site > 2.0 * MIN_DIST_M:
        # users keep MIN_DIST_M from their BS inside a disc of radius inter_site_m / 2
        raise ConfigError(
            f"field 'geometry.inter_site_m' must be a number above {2.0 * MIN_DIST_M!r}, "
            f"got {geometry['inter_site_m']!r}",
            field="geometry.inter_site_m",
        )
    max_outer = _require_positive(data, "max_outer", int) if "max_outer" in data else 100
    baselines = dict(DEFAULT_BASELINES)
    baselines.update(data.get("baselines") or {})
    return Scenario(
        num_bs=num_bs,
        num_users=num_users,
        num_antennas=num_antennas,
        rank=rank,
        power_limit_db=float(data["power_limit_db"]),
        rzf_nu=nu,
        theta_db=theta_db,
        utility=dict(util),
        mode=mode,
        seed=int(data["seed"]),
        draws=draws,
        eps_stop=float(data.get("eps_stop", 1e-6)),
        max_outer=max_outer,
        geometry=geometry,
        correlation_file=data.get("correlation_file"),
        baselines=baselines,
    )


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return scenario_from_dict(data)


def build_utility(scn):
    util = scn.utility
    weights = util.get("weights")
    if util["kind"] == "pfs":
        return pfs_utility(scn.num_users, eps=float(util.get("eps", 1e-4)), weights=weights)
    if util["kind"] == "alpha_fair":
        return alpha_fair_utility(
            float(util.get("alpha", 1.0)),
            scn.num_users,
            eps=float(util.get("eps", 1e-4)),
            weights=weights,
        )
    return sum_rate_utility(scn.num_users, weights=weights)


def build_network(scn):
    if scn.correlation_file:
        if not Path(scn.correlation_file).exists():
            raise ConfigError(
                f"correlation_file not found: {scn.correlation_file}",
                field="correlation_file",
            )
        corr_set = load_correlation_set(scn.correlation_file)
        if corr_set.num_users != scn.num_users or corr_set.num_bs != scn.num_bs:
            raise ConfigError(
                "correlation_file dimensions disagree with num_users/num_bs",
                field="correlation_file",
            )
    else:
        geo = scn.geometry
        corr_set = build_hotspot_network(
            scn.num_bs,
            scn.num_users,
            scn.num_antennas,
            scn.rank,
            scn.seed,
            inter_site_m=float(geo["inter_site_m"]),
            hotspots_per_cell=int(geo["hotspots_per_cell"]),
            hotspot_radius_m=float(geo["hotspot_radius_m"]),
            hotspot_fraction=float(geo["hotspot_fraction"]),
            pathloss_exponent=float(geo["pathloss_exponent"]),
            ref_gain_db=float(geo["ref_gain_db"]),
        )
    graph = build_topology(corr_set, scn.theta)
    return corr_set, graph


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def policy_to_dict(policy):
    controls = []
    for control in policy.controls:
        entry = {
            "selected": {str(n): list(users) for n, users in control.selected.items()},
            "power": {str(k): float(p) for k, p in control.power.items()},
            "outer_dims": {str(n): int(f.shape[1]) for n, f in control.outer.items()},
            "outer": {
                str(n): {
                    "re": np.real(f).tolist(),
                    "im": np.imag(f).tolist(),
                }
                for n, f in control.outer.items()
            },
        }
        controls.append(entry)
    return {"probs": [float(q) for q in policy.probs], "controls": controls}


def policy_from_dict(data):
    controls = []
    for entry in data["controls"]:
        outer = {
            int(n): np.asarray(block["re"], dtype=float) + 1j * np.asarray(block["im"], dtype=float)
            for n, block in entry["outer"].items()
        }
        selected = {int(n): tuple(users) for n, users in entry["selected"].items()}
        power = {int(k): float(p) for k, p in entry["power"].items()}
        controls.append(CompositeControl(outer=outer, selected=selected, power=power))
    return ControlPolicy(controls=controls, probs=np.asarray(data["probs"], dtype=float))


def load_policy(path):
    with open(path, "r", encoding="utf-8") as fh:
        return policy_from_dict(json.load(fh))


def _write_trace(path, trace):
    lines = ["iter,U_E,support,certificate"]
    for rec in trace:
        lines.append(f"{rec.iteration},{_fmt(rec.utility)},{rec.support},{_fmt(rec.slack)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_validation(path, report):
    lines = ["user,de_rate,mc_rate,mc_stderr,rel_err"]
    for k in range(report.user_rate_mean.size):
        lines.append(
            f"{k},{_fmt(report.de_rates[k])},{_fmt(report.user_rate_mean[k])},"
            f"{_fmt(report.user_rate_stderr[k])},{_fmt(report.rate_rel_err[k])}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_comparison(path, rows):
    lines = ["scheme,sum_rate,worst_decile_rate,cross_interference,seed"]
    for name, report in rows:
        lines.append(
            f"{name},{_fmt(report.sum_rate())},{_fmt(report.worst_decile_rate())},"
            f"{_fmt(report.mean_cross_interference)},{report.seed}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _apply_overrides(scn, mode=None, seed=None, draws=None):
    if mode is not None:
        if mode not in ("greedy", "exhaustive"):
            raise ConfigError(f"--mode must be 'greedy' or 'exhaustive', got {mode!r}", field="mode")
        if mode == "exhaustive" and scn.num_users > ENUMERATION_LIMIT:
            raise ConfigError(
                f"mode 'exhaustive' supports at most {ENUMERATION_LIMIT} users "
                f"(got {scn.num_users}); use mode 'greedy'",
                field="mode",
            )
        scn.mode = mode
    if seed is not None:
        scn.seed = int(seed)
    if draws is not None:
        if draws <= 0:
            raise ConfigError("--draws must be positive", field="draws")
        scn.draws = int(draws)
    return scn


def _de_diagnostics(result, corr_set, graph, nu, gain_cache):
    from .det_equiv import de_rate_power

    out = []
    for control in result.policy.controls:
        de = de_rate_power(control, corr_set, graph, nu, gain_cache)
        out.append(
            {
                "gains": {str(k): float(v) for k, v in sorted(de.gains.items())},
                "rates": de.rates,
                "powers": de.powers,
                "iterations": de.iterations,
                "residual": de.residual,
            }
        )
    return out


def _summary_payload(scn, result, report):
    return {
        "config": {
            "num_bs": scn.num_bs,
            "num_users": scn.num_users,
            "num_antennas": scn.num_antennas,
            "rank": scn.rank,
            "power_limit_db": scn.power_limit_db,
            "power_limit_linear": scn.power_limit,
            "rzf_nu": scn.rzf_nu,
            "theta_db": scn.theta_db,
            "theta_linear": scn.theta,
            "utility": scn.utility,
            "mode": scn.mode,
            "seed": scn.seed,
            "draws": scn.draws,
        },
        "utility_value": result.utility,
        "converged": result.converged,
        "iterations": len(result.trace),
        "certificate": result.certificate,
        "certificate_kind": result.certificate_kind,
        "support": len(result.policy.controls),
        "de_sum_rate": float(np.sum(report.de_rates)),
        "mc_sum_rate": report.sum_rate(),
        "worst_decile_rate": report.worst_decile_rate(),
        "de_bs_powers": report.de_powers,
        "mc_bs_powers": report.bs_power_mean,
        "max_interference_ratio": report.max_interference_ratio,
    }


def run_scenario(config_path, out_dir, mode=None, seed=None, draws=None):
    """Full pipeline; returns the summary dict and writes the four files."""
    scn = _apply_overrides(load_scenario(config_path), mode, seed, draws)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corr_set, graph = build_network(scn)
    util = build_utility(scn)
    cache = GainCache(corr_set, graph, scn.rzf_nu)
    result = optimize_policy(
        corr_set,
        graph,
        util,
        scn.rzf_nu,
        scn.power_limit,
        mode=scn.mode,
        eps_stop=scn.eps_stop,
        max_outer=scn.max_outer,
        gain_cache=cache,
    )
    result.policy.validate(corr_set, graph, scn.rzf_nu, scn.power_limit, cache)
    report = monte_carlo_policy(
        result.policy, corr_set, graph, scn.rzf_nu, scn.draws, scn.seed, gain_cache=cache
    )
    _write_json(out / "policy.json", policy_to_dict(result.policy))
    _write_trace(out / "trace.csv", result.trace)
    _write_validation(out / "validation.csv", report)
    summary = _summary_payload(scn, result, report)
    summary["de_diagnostics"] = _de_diagnostics(result, corr_set, graph, scn.rzf_nu, cache)
    _write_json(out / "summary.json", summary)
    return summary


def compare_baselines(config_path, out_dir, mode=None, seed=None, draws=None):
    """Proposed scheme plus FFR and clustered-CoMP baselines on one network."""
    scn = _apply_overrides(load_scenario(config_path), mode, seed, draws)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corr_set, graph = build_network(scn)
    util = build_utility(scn)
    cache = GainCache(corr_set, graph, scn.rzf_nu)
    result = optimize_policy(
        corr_set,
        graph,
        util,
        scn.rzf_nu,
        scn.power_limit,
        mode=scn.mode,
        eps_stop=scn.eps_stop,
        max_outer=scn.max_outer,
        gain_cache=cache,
    )
    result.policy.validate(corr_set, graph, scn.rzf_nu, scn.power_limit, cache)
    proposed = monte_carlo_policy(
        result.policy, corr_set, graph, scn.rzf_nu, scn.draws, scn.seed, gain_cache=cache
    )
    rows = [("proposed", proposed)]
    ffr = ffr_baseline(
        corr_set,
        graph,
        scn.rzf_nu,
        scn.power_limit,
        int(scn.baselines["ffr_partitions"]),
        scn.draws,
        scn.seed,
    )
    rows.append(("ffr", ffr))
    for rho in scn.baselines["comp_delay_rhos"]:
        comp = comp_baseline(
            corr_set,
            graph,
            scn.rzf_nu,
            scn.power_limit,
            int(scn.baselines["comp_cluster_size"]),
            scn.draws,
            scn.seed,
            delay_rho=float(rho),
        )
        rows.append((f"comp_rho{rho:g}", comp))
    _write_json(out / "policy.json", policy_to_dict(result.policy))
    _write_trace(out / "trace.csv", result.trace)
    _write_validation(out / "validation.csv", proposed)
    _write_comparison(out / "comparison.csv", rows)
    summary = _summary_payload(scn, result, proposed)
    summary["de_diagnostics"] = _de_diagnostics(result, corr_set, graph, scn.rzf_nu, cache)
    summary["comparison"] = {
        name: {
            "sum_rate": report.sum_rate(),
            "worst_decile_rate": report.worst_decile_rate(),
            "cross_interference": report.mean_cross_interference,
        }
        for name, report in rows
    }
    _write_json(out / "summary.json", summary)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hiermimo",
        description="Hierarchical precoding simulator for multi-cell massive MIMO downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "optimize one scenario and validate it against Monte Carlo"),
        ("compare", "run the scenario plus FFR and clustered-CoMP baselines"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to the scenario JSON file")
        p.add_argument("--mode", choices=("greedy", "exhaustive"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--draws", type=int, default=None)
        p.add_argument("--out", default="results", help="output directory")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    runner = run_scenario if args.command == "run" else compare_baselines
    try:
        runner(args.config, args.out, mode=args.mode, seed=args.seed, draws=args.draws)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numerical / validation failures
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
