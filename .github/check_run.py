"""Checks on the result files of one CLI run, for the CI workflow.

    python3 .github/check_run.py summary SUMMARY_JSON [conditions]
    python3 .github/check_run.py policy SCENARIO_JSON POLICY_JSON [--mode M] [--seed S] [--draws D]

``summary`` prints the fields it checks and exits 1 unless every condition
given holds:
  --converged              ``converged`` is true
  --rows N                 ``comparison`` holds exactly N rows
  --min-rows N             ``comparison`` holds at least N rows
  --finite F1,F2,...       every comparison row has these fields finite
  --max-interference X     ``max_interference_ratio`` is at most X
  --slack LOW,HIGH         the certificate is an ``optimality_slack`` in [LOW, HIGH]

``policy`` rebuilds the scenario's network (with the CLI's --mode, --seed
and --draws overrides) and exits 1 unless POLICY_JSON reloads and passes
``ControlPolicy.validate`` on it.
"""

import argparse
import json
import math
import sys


def summary_problems(summary, args):
    """The failed conditions of ``args`` on a parsed summary.json."""
    problems = []
    rows = summary.get("comparison", {})
    if args.converged and summary.get("converged") is not True:
        problems.append(f"converged is {summary.get('converged')!r}")
    if args.rows is not None and len(rows) != args.rows:
        problems.append(f"{len(rows)} comparison rows, not {args.rows}")
    if args.min_rows is not None and len(rows) < args.min_rows:
        problems.append(f"{len(rows)} comparison rows, fewer than {args.min_rows}")
    for name, row in rows.items():
        for key in args.finite:
            value = row.get(key)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                problems.append(f"comparison row {name}: {key} {value!r} is not finite")
    if args.max_interference is not None:
        ratio = summary.get("max_interference_ratio")
        if not (isinstance(ratio, (int, float)) and ratio <= args.max_interference):
            problems.append(f"max_interference_ratio {ratio!r} > {args.max_interference}")
    if args.slack is not None:
        low, high = args.slack
        kind, cert = summary.get("certificate_kind"), summary.get("certificate")
        if not (kind == "optimality_slack" and isinstance(cert, (int, float))
                and low <= cert <= high):
            problems.append(f"certificate {kind} {cert!r} is not an optimality slack "
                            f"in [{low}, {high}]")
    return problems


def check_summary(args):
    with open(args.summary, encoding="utf-8") as fh:
        summary = json.load(fh)
    fields = ("converged", "max_interference_ratio", "certificate_kind", "certificate",
              "pruned_candidates", "comparison")
    print({key: summary[key] for key in fields if key in summary})
    problems = summary_problems(summary, args)
    for problem in problems:
        print("FAILED:", problem)
    return 1 if problems else 0


def check_policy(args):
    from hiermimo.cli import build_network, load_policy, load_scenario

    scn = load_scenario(args.scenario, mode=args.mode, seed=args.seed, draws=args.draws)
    corr_set, graph = build_network(scn)
    policy = load_policy(args.policy).validate(corr_set, graph, scn.rzf_nu, scn.power_limit)
    print("policy.json reloads and validates:", len(policy.controls), "controls")
    return 0


def _floats(text):
    return [float(x) for x in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode_name", required=True)
    summary = sub.add_parser("summary")
    summary.add_argument("summary")
    summary.add_argument("--converged", action="store_true")
    summary.add_argument("--rows", type=int)
    summary.add_argument("--min-rows", type=int)
    summary.add_argument("--finite", type=lambda text: text.split(","), default=[])
    summary.add_argument("--max-interference", type=float)
    summary.add_argument("--slack", type=_floats)
    policy = sub.add_parser("policy")
    policy.add_argument("scenario")
    policy.add_argument("policy")
    policy.add_argument("--mode")
    policy.add_argument("--seed", type=int)
    policy.add_argument("--draws", type=int)
    args = parser.parse_args(argv)
    return check_summary(args) if args.mode_name == "summary" else check_policy(args)


if __name__ == "__main__":
    sys.exit(main())
