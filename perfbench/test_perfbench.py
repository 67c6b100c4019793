"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny_scenario(tmp_path):
    return workloads.write_scenario(tmp_path / "tiny.json", dict(workloads.WARMUP, draws=20))


def current(point):
    owner = importlib.import_module(point.module)
    *path, attr = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_self_time_on_a_nested_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.enter("root")  # 0
    tracer.enter("a")  # 1
    tracer.enter("b")  # 2
    tracer.exit()  # 4: b lasts 2
    tracer.exit()  # 5: a lasts 4, 2 of them in b
    tracer.enter("a")  # 6
    tracer.exit()  # 7: a lasts 1
    tracer.exit()  # 10: root lasts 10, 5 of them in its children

    root, a, b = (tracer.by_name(n) for n in ("root", "a", "b"))
    assert (root.calls, root.total, root.self_time) == (1, 10.0, 5.0)
    assert (a.calls, a.total, a.self_time) == (2, 5.0, 3.0)
    assert (b.calls, b.total, b.self_time) == (1, 2.0, 2.0)
    assert list(a.durations) == [4.0, 1.0]
    assert sum(tracer.self_times("setup").values()) == root.total


def test_traced_operation_restores_every_wrapped_function(tmp_path):
    cli = run.load_cli()
    points = spans.STAGE_POINTS + spans.LAYER_POINTS
    originals = {p: current(p) for p in points}
    tracer, code = run.run_operation(cli, "run", tiny_scenario(tmp_path), tmp_path / "out", points)
    assert code == 0
    assert not tracer.missing
    assert tracer.by_name("scheduler.waterfill").calls > 0
    assert tracer.by_name("det_equiv.solve_effective_gains").calls > 0
    assert {p: current(p) for p in points} == originals

    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer(), points):
            raise RuntimeError("body failed")
    assert {p: current(p) for p in points} == originals


def test_set_up_only_call_stops_at_the_solve_stage(tmp_path):
    cli = run.load_cli()
    tracer, code = run.run_operation(cli, "run", tiny_scenario(tmp_path), tmp_path / "out",
                                     spans.STAGE_POINTS, stop_after="setup")
    assert code is None
    times = metrics.stage_times(tracer)
    assert 0 < times["setup_s"] <= times["total_s"]
    assert "solve_s" not in times


def test_solve_only_call_stops_after_the_solve_stage(tmp_path):
    cli = run.load_cli()
    tracer, code = run.run_operation(cli, "run", tiny_scenario(tmp_path), tmp_path / "out",
                                     spans.STAGE_POINTS, stop_after="solve")
    assert code is None
    times = metrics.stage_times(tracer)
    assert 0 < times["setup_s"] + times["solve_s"] <= times["total_s"]
    assert "validate_s" not in times
    assert not (tmp_path / "out" / "summary.json").exists()


def test_missing_patch_point_is_reported_not_raised():
    gone = spans.Point("hiermimo.scheduler", "no_such_function", "scheduler.waterfill")
    tracer = spans.Tracer()
    with spans.patched(tracer, (gone,)):
        pass
    assert tracer.missing == [gone]
    values, missing = metrics.layer_metrics(metrics.View(tracer, 1, 0.0))
    assert "scheduler.waterfill.calls" in missing
    assert "scheduler.waterfill.calls" not in values
    assert "harness.draw_channels.calls" in values


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_byte_identical_scenarios(tmp_path, name):
    workload = workloads.WORKLOADS[name]

    def generate(seed, folder):
        folder.mkdir()
        weights = workloads.weight_stream(workload, seed)
        paths = [workloads.write_scenario(folder / f"{i}.json", workload.scenario(next(weights)))
                 for i in range(3)]
        return [p.read_bytes() for p in paths]

    first = generate(7, tmp_path / "a")
    assert generate(7, tmp_path / "b") == first
    assert generate(8, tmp_path / "c") != first
    assert len(set(first)) == 3


def test_check_rejects_a_tampered_summary(tmp_path):
    cli = run.load_cli()
    out = tmp_path / "out"
    tracer, code = run.run_operation(cli, "run", tiny_scenario(tmp_path), out, spans.STAGE_POINTS)
    solve_args = tracer.context["solve_args"]
    problems, summary = checks.check_operation(out, code, "run", solve_args)
    assert problems == []
    reference = (summary["utility_value"], 1e-6)
    assert checks.check_operation(out, code, "run", solve_args, reference)[0] == []
    assert checks.check_operation(out, code, "run", solve_args, (2.0 * reference[0], 1e-6))[0]
    assert checks.check_operation(out, 3, "run")[0] == ["exit code 3"]

    for change in ({"converged": False}, {"max_interference_ratio": 1e-3},
                   {"certificate_kind": "optimality_slack", "certificate": 1e-3},
                   {"utility_value": float("nan")}):
        (out / "summary.json").write_text(json.dumps(dict(summary, **change)))
        problems, _ = checks.check_operation(out, 0, "run", solve_args)
        assert problems, change


def test_check_rejects_baselines_out_of_order():
    good = {"converged": True, "max_interference_ratio": 0.0, "utility_value": 1.0,
            "certificate": 0.0, "certificate_kind": "greedy_gap_bound",
            "comparison": {"proposed": {"sum_rate": 5.0}, "ffr": {"sum_rate": 4.0},
                           "comp_rho0": {"sum_rate": 1.0}, "comp_rho1": {"sum_rate": 6.0}}}
    assert checks.check_summary(good, "compare") == []
    bad = json.loads(json.dumps(good))
    bad["comparison"]["ffr"]["sum_rate"] = 9.0
    bad["comparison"]["comp_rho0"]["sum_rate"] = 7.0
    assert len(checks.check_summary(bad, "compare")) == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        m[:2] for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.LAYER_METRICS]
    patched_spans = {p.span for p in spans.STAGE_POINTS + spans.LAYER_POINTS}
    assert {s for m in metrics.LAYER_METRICS for s in m[3]} <= patched_spans


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.tail_percentile(list(range(19))) is None
    assert metrics.tail_percentile(list(range(20)))[0] == 50.0
    assert metrics.tail_percentile(list(range(1000)))[0] == 99.0
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
