"""Correctness checks on the files one CLI operation wrote.

``check_operation`` returns a list of problems; an empty list means the
operation passed. The bounds are the repository's acceptance criteria:
interference at most 1e-16 (criterion 3), the exhaustive optimality slack in
[-1e-8, 1e-6] (criterion 5), and the directional baseline order of
criterion 9.
"""

import json
import math
from pathlib import Path

MAX_INTERFERENCE_RATIO = 1e-16
SLACK_LOW, SLACK_HIGH = -1e-8, 1e-6

REFERENCES = Path(__file__).with_name("references.json")


def load_references(path=REFERENCES):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_utility(references, workload, bench_seed, index):
    """(value, relative tolerance) recorded for operation ``index`` of this
    benchmark seed, or None."""
    values = references["utility_value"].get(workload, [])
    if bench_seed != references["seed"] or index >= len(values):
        return None
    return values[index], references["rel_tol"]


def check_operation(out_dir, exit_code, command, solve_args=None, reference=None):
    """(problems, summary) of one operation's outputs; summary is None when
    summary.json could not be read.

    solve_args: the (corr_set, graph, nu, p_c) the CLI passed to the
    optimizer, used to re-validate the reloaded policy; reference: the
    (utility value, relative tolerance) recorded for this scenario.
    """
    from hiermimo.cli import load_policy

    out = Path(out_dir)
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    problems = []
    try:
        policy = load_policy(out / "policy.json")
        if solve_args is not None:
            policy.validate(*solve_args)
    except Exception as exc:  # any failure to reload or validate is a finding
        problems.append(f"policy.json: {type(exc).__name__}: {exc}")
    try:
        with open(out / "summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable: {exc}"], None
    problems += check_summary(summary, command, reference)
    return problems, summary


def check_summary(summary, command, reference=None):
    problems = []
    if summary.get("converged") is not True:
        problems.append("summary: converged is not true")
    ratio = summary.get("max_interference_ratio")
    if not isinstance(ratio, (int, float)) or not ratio <= MAX_INTERFERENCE_RATIO:
        problems.append(f"summary: max_interference_ratio {ratio!r} > {MAX_INTERFERENCE_RATIO}")
    cert, kind = summary.get("certificate"), summary.get("certificate_kind")
    if kind == "optimality_slack" and not (
        isinstance(cert, (int, float)) and SLACK_LOW <= cert <= SLACK_HIGH
    ):
        problems.append(f"summary: optimality slack {cert!r} outside [{SLACK_LOW}, {SLACK_HIGH}]")
    if kind == "greedy_gap_bound" and not (isinstance(cert, (int, float)) and cert >= SLACK_LOW):
        problems.append(f"summary: greedy gap bound {cert!r} below {SLACK_LOW}")
    utility = summary.get("utility_value")
    if not isinstance(utility, (int, float)) or not math.isfinite(utility):
        problems.append(f"summary: utility_value {utility!r} is not finite")
    elif reference is not None:
        value, rel_tol = reference
        if abs(utility - value) > rel_tol * abs(value):
            problems.append(
                f"summary: utility_value {utility!r} differs from reference {value!r} "
                f"by more than {rel_tol:g} relative"
            )
    if command == "compare":
        rows = summary.get("comparison", {})
        try:
            if not rows["proposed"]["sum_rate"] >= rows["ffr"]["sum_rate"]:
                problems.append("comparison: proposed sum rate below FFR")
            if not rows["comp_rho0"]["sum_rate"] < rows["comp_rho1"]["sum_rate"]:
                problems.append("comparison: CoMP with stale CSI not below perfect CSI")
        except (KeyError, TypeError) as exc:
            problems.append(f"comparison: missing entry {exc}")
    return problems
