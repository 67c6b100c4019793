"""Run one benchmark workload through the hiermimo CLI and print its metrics.

    python3 perfbench/run.py --workload greedy-m128 --seed 1 --seconds 60 --trace 0

Each operation is one in-process ``hiermimo.cli.main`` call (``run`` or
``compare``) on a scenario file generated from the seed. Operations repeat
while a typical one still ends within ``--seconds`` (at least one runs);
every one is checked for correctness.

``--trace 0`` times the stages only (set-up, solve, validate, total) and
reports end-to-end metrics as means over operations. ``--trace 1``
alternates untraced and traced operations on the same scenario and reports
per-layer metrics of the traced ones. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Raw numbers and the machine's environment go to
``.perfbench-work/results/`` at the repository root.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import check_operation, load_references, reference_utility
from metrics import END_TO_END, View, layer_metrics, stage_times, tail_percentile
from spans import LAYER_POINTS, STAGE_POINTS, StageDone, Tracer, merged, patched
from workloads import WARMUP, WORKLOADS, weight_stream, write_scenario

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 60
# Stages that a stage-only call times; it ends before validation.
STAGE_ONLY_METRICS = ("setup_s", "solve_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    """Import ``hiermimo.cli`` from this checkout's ``src``, single-threaded."""
    package = ROOT / "src" / "hiermimo"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hiermimo sources at {package}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import hiermimo.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported hiermimo from {cli.__file__}, not {package}")
    return cli


def git_commit():
    """Commit of the checkout from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # layout differs across NumPy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_operation(cli, command, scenario, out_dir, points, stop_after=None):
    """One ``cli.main`` call under timing wrappers; returns (tracer, exit code).

    With ``stop_after`` "setup" the call ends as the solve stage is entered,
    with "solve" as it returns; the exit code is then None.
    """
    tracer = Tracer()
    tracer.stop_after = stop_after
    with patched(tracer, points):
        tracer.phase = "cli"
        tracer.marks["main_start"] = tracer.clock()
        tracer.enter("cli.main")
        tracer.phase = "setup"
        try:
            code = cli.main([command, str(scenario), "--out", str(out_dir)])
        except StageDone:
            code = None
        finally:
            tracer.exit()
    return tracer, code


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Session:
    """Operations of one benchmark run and their checks."""

    def __init__(self, cli, workload, seed, scratch):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.references = load_references()
        self.records = []
        self.failed = 0

    def operation(self, scenario_path, index, points, label):
        """Run, time and check operation ``index`` of the weight stream."""
        out_dir = self.scratch / f"out-{len(self.records)}"
        tracer, code = run_operation(
            self.cli, self.workload.command, scenario_path, out_dir, points
        )
        times = stage_times(tracer)
        reference = reference_utility(self.references, self.workload.name, self.seed, index)
        problems, summary = check_operation(
            out_dir, code, self.workload.command, tracer.context.get("solve_args"), reference
        )
        tracer.counters["cli.output_bytes"] += dir_bytes(out_dir) if out_dir.exists() else 0
        tracer.counters["cli.output_s"] += times.get("output_s", 0.0)
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {label} operation {index}: {problem}", file=sys.stderr)
        self.records.append({
            "label": label,
            "index": index,
            "exit_code": code,
            "times": times,
            "utility_value": (summary or {}).get("utility_value"),
            "problems": problems,
        })
        return tracer, times


def measure(cli, workload, seed, seconds, trace, scratch):
    write_scenario(scratch / "warmup.json", WARMUP)
    run_operation(cli, workload.command, scratch / "warmup.json", scratch / "warmup", STAGE_POINTS)

    session = Session(cli, workload, seed, scratch)
    stage_samples = {name: [] for name in STAGE_ONLY_METRICS}
    traced = []
    weights = weight_stream(workload, seed)
    start = time.perf_counter()
    rounds = []  # wall time of each loop round, checks included
    # start another round only if a typical one still ends within the budget
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        index = len(rounds)
        path = write_scenario(scratch / f"scenario-{index}.json", workload.scenario(next(weights)))
        if not trace:
            for _ in range(workload.repeats):
                tracer, _ = run_operation(cli, workload.command, path, scratch / "stage",
                                          STAGE_POINTS, stop_after=workload.repeat_through)
                times = stage_times(tracer)
                for name, samples in stage_samples.items():
                    if name in times:
                        samples.append(times[name])
        session.operation(path, index, STAGE_POINTS, "untraced")
        if trace:
            tracer, _ = session.operation(path, index, STAGE_POINTS + LAYER_POINTS, "traced")
            traced.append(tracer)
        rounds.append(time.perf_counter() - round_start)
    return session, stage_samples, traced


def end_to_end(session, stage_samples):
    """metric -> (value, unit, samples) over the untraced operations and the
    stage-only calls."""
    untraced = [r["times"] for r in session.records if r["label"] == "untraced"]
    samples = {name: [t[name] for t in untraced if name in t] for name, _, _ in END_TO_END}
    for name, extra in stage_samples.items():
        samples[name] += extra
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {
        name: (value(samples[name]), unit, samples[name])
        for name, unit, value in END_TO_END
        if samples[name]
    }


def per_layer(session, traced):
    pairs = {}
    for r in session.records:
        pairs.setdefault(r["label"], []).append(r["times"]["total_s"])
    overhead = statistics.median(pairs["traced"]) / statistics.median(pairs["untraced"]) - 1.0
    tracer = merged(traced)
    metrics, missing = layer_metrics(View(tracer, len(traced), overhead))
    return tracer, metrics, missing


def print_end_to_end(values):
    for name, (value, unit, samples) in values.items():
        tail = tail_percentile(samples)
        tail = f", p{tail[0]:g} {tail[1]:.6g}" if tail and tail[0] > 50 else ""
        print(f"  {name:<16} {value:>12.6g} {unit:<4} over {len(samples)} samples, "
              f"median {statistics.median(samples):.6g}{tail}")


def print_layer_split(tracer, operations):
    phases = ("setup", "solve", "validate", "output")
    total = sum(s.self_time for s in tracer.stats.values()) / operations
    print(f"  self time per operation by stage (traced total {total:.4g} s):")
    for phase in phases:
        rows = tracer.self_times(phase)
        phase_total = sum(rows.values()) / operations
        print(f"    {phase:<8} {phase_total:8.4g} s ({phase_total / total:6.1%} of total)")
        for name, seconds in list(rows.items())[:5]:
            print(f"      {name:<44} {seconds / operations:8.4g} s")


def main(argv=None):
    args = parse_args(argv)
    cli = load_cli()
    workload = WORKLOADS[args.workload]
    env = environment()
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    try:
        session, stage_samples, traced = measure(
            cli, workload, args.seed, args.seconds, args.trace, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(session.records)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, {session.failed} failed "
          f"(failed_ratio {session.failed / attempted:g})")
    print(f"  {workload.why}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    result = {"workload": workload.name, "command": workload.command, "shape": workload.shape,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "operations": session.records}
    if args.trace:
        tracer, metrics, missing = per_layer(session, traced)
        print_layer_split(tracer, len(traced))
        result["self_time_by_phase"] = {
            phase: tracer.self_times(phase) for phase in ("setup", "solve", "validate", "output")
        }
    else:
        values = end_to_end(session, stage_samples)
        print_end_to_end(values)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in values.items()}
        missing = [name for name, _, _ in END_TO_END if name not in values]
        result["stage_samples"] = stage_samples
    if missing:
        print(f"  missing metrics (patch point or stage not found): {', '.join(missing)}")
    result.update(metrics=metrics, missing=missing, failed=session.failed)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": session.failed == 0, "attempted": attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
