"""Scenario configuration, end-to-end runs, and result files.

A scenario is one JSON file with explicit keys (see ``REQUIRED_FIELDS`` and
the README schema). ``run`` executes generate -> topology -> optimize ->
validate -> deterministic equivalents -> Monte Carlo and writes policy.json,
trace.csv, validation.csv, summary.json; ``compare`` additionally runs the
FFR and clustered-CoMP baselines on the same correlation set and seed and
writes comparison.csv. Outputs are byte-stable for a fixed config and seed:
JSON keys are sorted and floats use shortest round-trip formatting.
policy.json holds each control's powers only: its outer precoders follow
from them (``scheduler.build_outer_precoders``).
"""

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corrmat import MIN_DIST_M, build_hotspot_network, load_correlation_set
from .det_equiv import GainCache
from .errors import ConfigError, ValidationError
from .harness import comp_baseline, comp_clusters, ffr_baseline, ffr_cells, monte_carlo_policy
from .scheduler import (
    ENUMERATION_GUARD,
    ControlPolicy,
    alpha_fair_utility,
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

OPTIONAL_DEFAULTS = {"eps_stop": 1e-6, "max_outer": 100}

POSITIVE_INT = {"above": 0, "integer": True}

# size guards: a larger scenario would run for hours or exhaust memory
MAX_DRAWS = 10**6
# complex correlation-factor entries num_users * num_bs * num_antennas * rank
# (2^26 of them take 1 GiB)
MAX_FACTOR_ENTRIES = 2**26

# bounds of each number, as keyword arguments of ``_number``
NUMBER_BOUNDS = {
    "num_bs": POSITIVE_INT,
    "num_users": POSITIVE_INT,
    "num_antennas": POSITIVE_INT,
    "rank": POSITIVE_INT,
    "power_limit_db": {"db": True},
    "rzf_nu": {"above": 0.0},
    "theta_db": {"above": 0.0, "db": True},
    "seed": {"low": 0, "integer": True},
    "draws": {**POSITIVE_INT, "high": MAX_DRAWS},
    "eps_stop": {"low": 0.0},
    "max_outer": POSITIVE_INT,
}

# the alpha of each utility kind in the alpha-fair family; None where the
# scenario's utility.alpha sets it (1 when absent)
UTILITY_ALPHA = {"pfs": 1.0, "alpha_fair": None, "sum_rate": 0.0}

DEFAULT_GEOMETRY = {
    "inter_site_m": 500.0,
    "hotspots_per_cell": 2,
    "hotspot_fraction": 2.0 / 3.0,
    "pathloss_exponent": 3.76,
    "ref_gain_db": 90.0,
}

GEOMETRY_BOUNDS = {
    # users keep MIN_DIST_M from their BS inside a disc of radius inter_site_m / 2
    "inter_site_m": {"above": 2.0 * MIN_DIST_M},
    "hotspots_per_cell": {"low": 0, "integer": True},
    "hotspot_fraction": {"low": 0.0, "high": 1.0},
    "pathloss_exponent": {"above": 0.0},
    "ref_gain_db": {"db": True},
}

DEFAULT_BASELINES = {
    "ffr_partitions": 2,
    "comp_cluster_size": 2,
    "comp_delay_rhos": [1.0, 0.0],
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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
    eps_stop: float
    max_outer: int
    geometry: dict
    correlation_file: str | None
    baselines: dict

    @property
    def power_limit(self):
        return 10.0 ** (self.power_limit_db / 10.0)

    @property
    def theta(self):
        return theta_from_db(self.theta_db)


def _number(value, name, low=None, high=None, above=None, integer=False, db=False):
    """``value`` as a float (an int when ``integer``), or a ConfigError
    naming ``name``.

    Only finite JSON numbers pass: strings, booleans, null, lists and objects
    do not, nor do fractional values where an integer is due. ``low`` and
    ``high`` are inclusive bounds, ``above`` an exclusive one. A ``db``
    value must have a finite, positive linear value 10^(value/10).
    """
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = math.isfinite(value) and (value.is_integer() or not integer)
    if ok:
        value = int(value) if integer else float(value)
        ok = (
            (low is None or value >= low)
            and (high is None or value <= high)
            and (above is None or value > above)
        )
    if ok and db:
        try:
            ok = 10.0 ** (value / 10.0) > 0.0
        except OverflowError:
            ok = False
    if not ok:
        what = "an integer" if integer else "a number"
        bounds = [f"{word} {bound!r}" for word, bound in
                  (("above", above), ("at least", low), ("at most", high)) if bound is not None]
        if db:
            bounds.append("with a finite, positive linear value")
        if bounds:
            what += " " + " and ".join(bounds)
        raise ConfigError(f"field '{name}' must be {what}, got {value!r}", field=name)
    return value


def _object(data, name, defaults):
    """The JSON object at ``data[name]`` over ``defaults``."""
    raw = data.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"field '{name}' must be an object, got {raw!r}", field=name)
    return {**defaults, **raw}


def _list(value, name):
    if not isinstance(value, list):
        raise ConfigError(f"field '{name}' must be a list, got {value!r}", field=name)
    return value


def _alpha(util):
    """The alpha of a checked utility object."""
    alpha = UTILITY_ALPHA[util["kind"]]
    return float(util.get("alpha", 1.0)) if alpha is None else alpha


def _utility(util, num_users):
    """The utility object, checked key by key and returned as given."""
    if not isinstance(util, dict) or "kind" not in util:
        raise ConfigError("field 'utility' must be an object with a 'kind'", field="utility")
    kind = util["kind"]
    if not isinstance(kind, str) or kind not in UTILITY_ALPHA:
        raise ConfigError(
            f"field 'utility.kind' must be one of {', '.join(UTILITY_ALPHA)}, got {kind!r}",
            field="utility",
        )
    if "alpha" in util:
        _number(util["alpha"], "utility.alpha", low=0.0)
    if "eps" in util:
        # for alpha > 0 the gradient w (r + eps)^-alpha is infinite at a zero rate
        bound = {"above": 0.0} if _alpha(util) > 0 else {"low": 0.0}
        _number(util["eps"], "utility.eps", **bound)
    if util.get("weights") is not None:
        weights = _list(util["weights"], "utility.weights")
        if len(weights) != num_users:
            raise ConfigError(
                f"field 'utility.weights' must hold {num_users} values, one per user, "
                f"got {len(weights)}",
                field="utility.weights",
            )
        for w in weights:
            _number(w, "utility.weights", low=0.0)
    return dict(util)


def comp_scheme(rho):
    """Name of the CoMP row with CSI delay ``rho`` in the comparison files."""
    return f"comp_rho{rho:g}"


def scenario_from_dict(data):
    """Validated scenario; a ConfigError names the first bad field."""
    for name in REQUIRED_FIELDS:
        if name not in data:
            raise ConfigError(f"missing required field '{name}'", field=name)
    data = {**OPTIONAL_DEFAULTS, **data}
    numbers = {name: _number(data[name], name, **bounds) for name, bounds in NUMBER_BOUNDS.items()}
    if theta_from_db(numbers["theta_db"]) <= 1.0:
        raise ConfigError(
            f"field 'theta_db' must have a linear value 10^(theta_db/10) above 1, "
            f"got {numbers['theta_db']!r}",
            field="theta_db",
        )
    if numbers["rank"] > numbers["num_antennas"]:
        raise ConfigError("field 'rank' cannot exceed 'num_antennas'", field="rank")
    entries = 1
    for name in ("num_users", "num_bs", "num_antennas", "rank"):
        entries *= numbers[name]
        if entries > MAX_FACTOR_ENTRIES:
            raise ConfigError(
                f"field '{name}' takes num_users * num_bs * num_antennas * rank past "
                f"{MAX_FACTOR_ENTRIES} correlation-factor entries (1 GiB)",
                field=name,
            )
    mode = data["mode"]
    if mode not in ("greedy", "exhaustive"):
        raise ConfigError(f"field 'mode' must be 'greedy' or 'exhaustive', got {mode!r}", field="mode")
    if mode == "exhaustive" and numbers["num_users"] > ENUMERATION_GUARD:
        raise ConfigError(
            f"mode 'exhaustive' supports at most {ENUMERATION_GUARD} users "
            f"(got {numbers['num_users']}); use mode 'greedy'",
            field="mode",
        )
    geometry = _object(data, "geometry", DEFAULT_GEOMETRY)
    # keys that nothing reads, such as hotspot_radius_m, are dropped
    geometry = {
        name: _number(geometry[name], f"geometry.{name}", **bounds)
        for name, bounds in GEOMETRY_BOUNDS.items()
    }
    if geometry["hotspots_per_cell"] > numbers["num_users"]:
        # no cell holds more users than the network, and the generator draws
        # a centre for every hotspot
        raise ConfigError(
            f"field 'geometry.hotspots_per_cell' cannot exceed num_users = "
            f"{numbers['num_users']}, got {geometry['hotspots_per_cell']!r}",
            field="geometry.hotspots_per_cell",
        )
    baselines = _object(data, "baselines", DEFAULT_BASELINES)
    correlation_file = data.get("correlation_file")
    if correlation_file is not None and not isinstance(correlation_file, str):
        raise ConfigError(
            f"field 'correlation_file' must be a path, got {correlation_file!r}",
            field="correlation_file",
        )
    cluster = _number(
        baselines["comp_cluster_size"], "baselines.comp_cluster_size", **POSITIVE_INT
    )
    if numbers["num_bs"] % cluster:
        raise ConfigError(
            f"field 'baselines.comp_cluster_size' must divide num_bs = {numbers['num_bs']}, "
            f"got {cluster!r}",
            field="baselines.comp_cluster_size",
        )
    partitions = _number(baselines["ffr_partitions"], "baselines.ffr_partitions", **POSITIVE_INT)
    rhos = [
        _number(rho, "baselines.comp_delay_rhos", low=0.0, high=1.0)
        for rho in _list(baselines["comp_delay_rhos"], "baselines.comp_delay_rhos")
    ]
    names = [comp_scheme(rho) for rho in rhos]
    for i, name in enumerate(names):
        if name in names[:i]:
            # comparison.csv would hold two rows of that name, summary.json one
            raise ConfigError(
                f"field 'baselines.comp_delay_rhos' gives two delays the scheme name "
                f"{name!r}: {rhos[names.index(name)]!r} and {rhos[i]!r}",
                field="baselines.comp_delay_rhos",
            )
    return Scenario(
        **numbers,
        utility=_utility(data["utility"], numbers["num_users"]),
        mode=mode,
        geometry=geometry,
        correlation_file=correlation_file,
        baselines={
            "ffr_partitions": partitions,
            "comp_cluster_size": cluster,
            "comp_delay_rhos": rhos,
        },
    )


def _read_json(path, error, what):
    """The JSON value of the ``what`` file at ``path``. An ``error``
    (ConfigError or ValidationError) names the path of a file that is
    missing, cannot be read or is not UTF-8 text, or the line and column
    where its JSON breaks."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise error(f"{what} parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:  # a directory, no permission
        raise error(f"{what} file cannot be read: {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise error(f"{what} file is not UTF-8 text: {path}: {exc.reason} at byte {exc.start}")


def load_scenario(path, **overrides):
    """Scenario from a JSON file. ``overrides`` (the ``--mode``, ``--seed``
    and ``--draws`` flags; None when not given) replace the file's values
    before validation."""
    data = _read_json(path, ConfigError, "config")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data.update((name, value) for name, value in overrides.items() if value is not None)
    return scenario_from_dict(data)


def build_utility(scn):
    """The alpha-fair utility of the scenario's kind; sum_rate ignores eps."""
    util = scn.utility
    eps = 0.0 if util["kind"] == "sum_rate" else float(util.get("eps", 1e-4))
    return alpha_fair_utility(_alpha(util), scn.num_users, eps=eps, weights=util.get("weights"))


def build_network(scn):
    if scn.correlation_file:
        try:
            corr_set = load_correlation_set(scn.correlation_file)
        except OSError as exc:
            raise ConfigError(
                f"correlation_file cannot be read: {exc}", field="correlation_file"
            ) from exc
        except ValueError as exc:
            raise ConfigError(
                f"correlation_file {scn.correlation_file} is malformed: {exc}",
                field="correlation_file",
            ) from exc
        shape = (corr_set.num_users, corr_set.num_bs, corr_set.dim)
        rank = int(corr_set.rank.max())
        if shape != (scn.num_users, scn.num_bs, scn.num_antennas) or rank > scn.rank:
            raise ConfigError(
                f"correlation_file holds {shape[0]} users x {shape[1]} BSs x {shape[2]} "
                f"antennas with links up to rank {rank}; the scenario wants "
                f"num_users/num_bs/num_antennas/rank = {scn.num_users}/{scn.num_bs}/"
                f"{scn.num_antennas}/{scn.rank}",
                field="correlation_file",
            )
    else:
        corr_set = build_hotspot_network(
            scn.num_bs, scn.num_users, scn.num_antennas, scn.rank, scn.seed, **scn.geometry
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
        # tolist() already gives Python scalars (floats stay exact)
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path, obj):
    # one write: json.dump would stream thousands of small chunks to the file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n")


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def policy_to_dict(policy):
    controls = [{"power": {str(k): float(p) for k, p in power.items()}}
                for power in policy.controls]
    return {"probs": [float(q) for q in policy.probs], "controls": controls}


def _bad(field, what, value):
    return ValidationError(f"policy field '{field}' must be {what}, got {value!r}")


def _field(obj, key, field, kind=dict, what="an object"):
    """``obj[key]`` when it is a ``kind``; a ValidationError naming ``field``
    otherwise."""
    if key not in obj:
        raise ValidationError(f"policy field '{field}' is missing")
    if not isinstance(obj[key], kind):
        raise _bad(field, what, obj[key])
    return obj[key]


def _index(key, field):
    """A JSON object key that names a user: a non-negative integer in
    canonical decimal form, so no two keys name the same index."""
    if not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise _bad(field, "keyed by non-negative integers", key)
    return int(key)


def _finite(value, field):
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise _bad(field, "a finite number", value)
    return float(value)


def policy_from_dict(data):
    """The policy of a ``policy_to_dict`` dict; a malformed one raises a
    ValidationError that names the bad field, with its control index. Keys
    that nothing reads, such as the ``outer`` blocks of older files, are
    ignored."""
    if not isinstance(data, dict):
        raise ValidationError("policy root must be a JSON object")
    probs = [
        _finite(q, f"probs[{i}]")
        for i, q in enumerate(_field(data, "probs", "probs", list, "a list"))
    ]
    controls = []
    for i, entry in enumerate(_field(data, "controls", "controls", list, "a list")):
        at = f"controls[{i}]"
        if not isinstance(entry, dict):
            raise _bad(at, "an object", entry)
        power = {
            _index(k, f"{at}.power"): _finite(p, f"{at}.power.{k}")
            for k, p in _field(entry, "power", f"{at}.power").items()
        }
        controls.append(dict(sorted(power.items())))
    return ControlPolicy(controls=controls, probs=np.asarray(probs, dtype=float))


def load_policy(path):
    """The policy of a ``policy.json`` file. A missing or unreadable file,
    bad JSON and a malformed policy raise a ValidationError."""
    return policy_from_dict(_read_json(path, ValidationError, "policy"))


def _write_csv(path, header, rows):
    """One header line, then one comma-joined line per row of cells."""
    lines = [header] + [",".join(str(cell) for cell in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _de_pass(policy, corr_set, graph, nu, gain_cache):
    """The policy's deterministic equivalents, from one ``de_rate_power``
    call per control: the q-mixed DE rates and BS powers, and every
    control's diagnostics. Logs one WARNING when a served user's effective
    gain xi is below nu: there the O(nu / xi) correction outweighs the
    leading log(1 + p) term, so the simplified rates and powers cannot be
    trusted."""
    # imported on each call, so a patch of det_equiv.de_rate_power (the
    # benchmark's tracer, the tests) reaches this call too
    from .det_equiv import de_rate_power

    rates = np.zeros(graph.num_users)
    powers = np.zeros(graph.num_bs)
    diagnostics = []
    weak = {}  # served user -> its smallest xi / nu
    for q, power in zip(np.asarray(policy.probs, dtype=float), policy.controls):
        de = de_rate_power(power, corr_set, graph, nu, gain_cache)
        rates += q * de.rates
        powers += q * de.powers
        for k, xi in de.gains.items():
            if power[k] > 0 and xi < nu:
                weak[k] = min(weak.get(k, math.inf), xi / nu)
        diagnostics.append(
            {
                "gains": {str(k): float(v) for k, v in sorted(de.gains.items())},
                "rates": de.rates,
                "powers": de.powers,
                "iterations": de.iterations,
                "residual": de.residual,
            }
        )
    if weak:
        log.warning(
            "%d served user(s) have an effective gain below rzf_nu (smallest xi/nu %.3g): "
            "the deterministic equivalents assume nu << xi and are unreliable here",
            len(weak), min(weak.values()),
        )
    return rates, powers, diagnostics


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
        "skipped_candidates": result.skipped_candidates,
        "pruned_candidates": result.pruned_candidates,
        "iterations": len(result.trace),
        "certificate": result.certificate,
        "certificate_kind": result.certificate_kind,
        "support": len(result.policy.controls),
        "mc_sum_rate": report.sum_rate(),
        "worst_decile_rate": report.worst_decile_rate(),
        "mc_bs_powers": report.bs_power_mean,
        "max_interference_ratio": report.max_interference_ratio,
    }


def _pipeline(config_path, out_dir, overrides, baselines):
    """generate -> topology -> optimize -> validate -> deterministic
    equivalents -> Monte Carlo, plus the FFR and CoMP baselines when
    ``baselines``, then the result files. The final policy's DE is computed
    once (``_de_pass``) and feeds validation.csv and summary.json."""
    scn = load_scenario(config_path, **overrides)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corr_set, graph = build_network(scn)
    if baselines:
        # a cell or cluster with more users than antennas fails the baseline
        # it enters: fail before the optimizer and the proposed scheme run
        ffr_cells(graph, corr_set.dim)
        comp_clusters(graph, corr_set.dim, scn.baselines["comp_cluster_size"])
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
    de_rates, de_powers, diagnostics = _de_pass(result.policy, corr_set, graph, scn.rzf_nu, cache)
    report = monte_carlo_policy(result.policy, result.outers, corr_set, graph, scn.rzf_nu,
                                scn.draws, scn.seed)
    rows = [("proposed", report)]
    if baselines:
        network = (corr_set, graph, scn.power_limit)
        partitions, cluster = scn.baselines["ffr_partitions"], scn.baselines["comp_cluster_size"]
        rows.append(("ffr", ffr_baseline(*network, partitions, scn.draws, scn.seed)))
        for rho in scn.baselines["comp_delay_rhos"]:
            comp = comp_baseline(*network, cluster, scn.draws, scn.seed, delay_rho=rho)
            rows.append((comp_scheme(rho), comp))
    _write_json(out / "policy.json", policy_to_dict(result.policy))
    _write_csv(
        out / "trace.csv",
        "iter,U_E,support,certificate",
        ((rec.iteration, _fmt(rec.utility), rec.support, _fmt(rec.slack)) for rec in result.trace),
    )
    mc_rates = report.user_rate_mean
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_err = np.where(de_rates > 0, np.abs(mc_rates - de_rates) / de_rates, np.nan)
    _write_csv(
        out / "validation.csv",
        "user,de_rate,mc_rate,mc_stderr,rel_err",
        (
            (k, _fmt(de_rates[k]), _fmt(mc_rates[k]), _fmt(report.user_rate_stderr[k]),
             _fmt(rel_err[k]))
            for k in range(mc_rates.size)
        ),
    )
    summary = _summary_payload(scn, result, report)
    summary.update(de_sum_rate=float(np.sum(de_rates)), de_bs_powers=de_powers,
                   de_diagnostics=diagnostics)
    if baselines:
        _write_csv(
            out / "comparison.csv",
            "scheme,sum_rate,worst_decile_rate,cross_interference,seed",
            (
                (name, _fmt(rep.sum_rate()), _fmt(rep.worst_decile_rate()),
                 _fmt(rep.mean_cross_interference), rep.seed)
                for name, rep in rows
            ),
        )
        summary["comparison"] = {
            name: {
                "sum_rate": rep.sum_rate(),
                "worst_decile_rate": rep.worst_decile_rate(),
                "cross_interference": rep.mean_cross_interference,
            }
            for name, rep in rows
        }
    _write_json(out / "summary.json", summary)
    return summary


def run_scenario(config_path, out_dir, mode=None, seed=None, draws=None):
    """Optimize one scenario and validate it; writes policy.json, trace.csv,
    validation.csv and summary.json and returns the summary dict."""
    return _pipeline(config_path, out_dir, dict(mode=mode, seed=seed, draws=draws), False)


def compare_baselines(config_path, out_dir, mode=None, seed=None, draws=None):
    """``run_scenario`` plus the FFR and clustered-CoMP baselines on the same
    network and seed; also writes comparison.csv."""
    return _pipeline(config_path, out_dir, dict(mode=mode, seed=seed, draws=draws), True)


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
        p.add_argument("--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                       default="INFO", help="least severe log message to print")
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    # also where logging is already configured (a host process, a test runner)
    logging.getLogger("hiermimo").setLevel(args.log_level)
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
