"""End-to-end metrics of untraced operations and per-layer metrics of traced ones.

Every per-layer value is per operation: a count or time summed over the
traced operations and divided by their number. Percentiles pool the call
durations of all traced operations.

An end-to-end value is the mean over a run's samples, not the median: the
CPU of a shared host switches between speed states about 1.6x apart, so a
run's operations fall into two clusters, and the median of a few of them
jumps from one cluster to the other between runs while the mean does not.
"""

from statistics import fmean, harmonic_mean

from spans import STAGE_POINTS

VALIDATE_SPANS = tuple(p.span for p in STAGE_POINTS if p.phase == "validate")
SOLVE_SPAN = "scheduler.optimize_policy"


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 <= q <= 100); 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(values):
    """(q, value) for the highest of a few percentiles that has at least ten
    samples beyond it, or None when there are fewer than twenty samples."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q, percentile(values, q)
    return None


def stage_times(tracer):
    """End-to-end stage times of one operation, in seconds."""
    total = tracer.by_name("cli.main").total
    solve_start = tracer.marks.get("solve_start")
    out = {"total_s": total}
    if solve_start is not None:
        out["setup_s"] = solve_start - tracer.marks["main_start"]
    if tracer.stats.get(("solve", SOLVE_SPAN)):
        out["solve_s"] = tracer.stats[("solve", SOLVE_SPAN)].total
    validate = [tracer.stats[("validate", s)].total for s in VALIDATE_SPANS
                if ("validate", s) in tracer.stats]
    if validate:
        out["validate_s"] = sum(validate)
        if tracer.counters["mc.draws"]:
            out["mc_draws_per_s"] = tracer.counters["mc.draws"] / out["validate_s"]
    if {"setup_s", "solve_s", "validate_s"} <= out.keys():
        out["output_s"] = total - out["setup_s"] - out["solve_s"] - out["validate_s"]
    return out


def _calls(span):
    return lambda v: v.calls(span)


def _seconds(span):
    return lambda v: v.seconds(span)


def _ms(span, q):
    return lambda v: v.ms(span, q)


def _count(key):
    return lambda v: v.count(key)


def _hit_ratio(v):
    lookups = v.calls("det_equiv.GainCache.gains")
    return 1.0 - v.count("det_equiv.gain_cache.misses") / lookups if lookups else 0.0


def _useful_ratio(v):
    evaluations = v.count("scheduler.oracle.evaluations")
    return v.count("scheduler.oracle.users_added") / evaluations if evaluations else 0.0


SOLVE = "det_equiv.solve_effective_gains"
WATERFILL = "scheduler.waterfill"
ORACLE = ("scheduler.oracle", "scheduler.best_control_exhaustive")

# (metric, unit, better, spans it needs, value from a View)
LAYER_METRICS = (
    ("corrmat.build_hotspot_network.s", "s", "lower", ("corrmat.build_hotspot_network",),
     _seconds("corrmat.build_hotspot_network")),
    ("corrmat.sample_channel.calls", "count", "lower", ("corrmat.sample_channel",),
     _calls("corrmat.sample_channel")),
    ("corrmat.sample_channel.s", "s", "lower", ("corrmat.sample_channel",),
     _seconds("corrmat.sample_channel")),
    ("topology.build_topology.s", "s", "lower", ("topology.build_topology",),
     _seconds("topology.build_topology")),
    ("topology.cross_edges", "count", "lower", ("topology.build_topology",),
     _count("topology.cross_edges")),
    (f"{SOLVE}.calls", "count", "lower", (SOLVE,), _calls(SOLVE)),
    (f"{SOLVE}.s", "s", "lower", (SOLVE,), _seconds(SOLVE)),
    (f"{SOLVE}.iterations", "count", "lower", (SOLVE,), _count(f"{SOLVE}.iterations")),
    (f"{SOLVE}.ms.p50", "ms", "lower", (SOLVE,), _ms(SOLVE, 50)),
    (f"{SOLVE}.ms.p99", "ms", "lower", (SOLVE,), _ms(SOLVE, 99)),
    ("det_equiv.gain_cache.lookups", "count", "lower", ("det_equiv.GainCache.gains",),
     _calls("det_equiv.GainCache.gains")),
    ("det_equiv.gain_cache.hit_ratio", "ratio", "higher", ("det_equiv.GainCache.gains", SOLVE),
     _hit_ratio),
    ("det_equiv.de_rate_power.s", "s", "lower", ("det_equiv.de_rate_power",),
     _seconds("det_equiv.de_rate_power")),
    ("det_equiv.convergence_errors", "count", "lower", (SOLVE,),
     _count("det_equiv.convergence_errors")),
    (f"{WATERFILL}.calls", "count", "lower", (WATERFILL,), _calls(WATERFILL)),
    (f"{WATERFILL}.s", "s", "lower", (WATERFILL,), _seconds(WATERFILL)),
    (f"{WATERFILL}.ms.p50", "ms", "lower", (WATERFILL,), _ms(WATERFILL, 50)),
    (f"{WATERFILL}.ms.p99", "ms", "lower", (WATERFILL,), _ms(WATERFILL, 99)),
    ("scheduler.weighted_sum_rate.calls", "count", "lower", ("scheduler.weighted_sum_rate",),
     _calls("scheduler.weighted_sum_rate")),
    ("scheduler.weighted_sum_rate.self_s", "s", "lower", ("scheduler.weighted_sum_rate",),
     lambda v: v.self_seconds("scheduler.weighted_sum_rate")),
    ("scheduler.oracle.calls", "count", "lower", ORACLE, _calls("scheduler.oracle")),
    ("scheduler.oracle.s", "s", "lower", ORACLE, _seconds("scheduler.oracle")),
    ("scheduler.oracle.useful_ratio", "ratio", "higher",
     ORACLE + ("scheduler.weighted_sum_rate",), _useful_ratio),
    ("scheduler.oracle.skipped", "count", "lower", ORACLE + ("scheduler.weighted_sum_rate",),
     _count("scheduler.oracle.skipped")),
    ("scheduler.certificate.s", "s", "lower", ("scheduler.best_control_exhaustive",),
     _seconds("scheduler.certificate")),
    ("scheduler.optimize_time_sharing.s", "s", "lower", ("scheduler.optimize_time_sharing",),
     _seconds("scheduler.optimize_time_sharing")),
    ("scheduler.outer_iterations", "count", "lower", (SOLVE_SPAN,),
     _count("scheduler.outer_iterations")),
    ("scheduler.converged", "ratio", "higher", (SOLVE_SPAN,), _count("scheduler.converged")),
    ("scheduler.final_slack", "utility", "lower", (SOLVE_SPAN,),
     _count("scheduler.final_slack")),
    ("precoder.outer_precoder.calls", "count", "lower", ("precoder.outer_precoder",),
     _calls("precoder.outer_precoder")),
    ("precoder.outer_precoder.s", "s", "lower", ("precoder.outer_precoder",),
     _seconds("precoder.outer_precoder")),
    ("precoder.interference_nullspace_basis.s", "s", "lower",
     ("precoder.interference_nullspace_basis",),
     _seconds("precoder.interference_nullspace_basis")),
    ("precoder.inner_precoders.calls", "count", "lower", ("precoder.inner_precoders",),
     _calls("precoder.inner_precoders")),
    ("precoder.inner_precoders.s", "s", "lower", ("precoder.inner_precoders",),
     _seconds("precoder.inner_precoders")),
    ("precoder.instantaneous_rate.calls", "count", "lower", ("precoder.instantaneous_rate",),
     _calls("precoder.instantaneous_rate")),
    ("precoder.instantaneous_rate.s", "s", "lower", ("precoder.instantaneous_rate",),
     _seconds("precoder.instantaneous_rate")),
    ("precoder.transmit_power.calls", "count", "lower", ("precoder.transmit_power",),
     _calls("precoder.transmit_power")),
    ("precoder.cross_interference_power.calls", "count", "lower",
     ("precoder.cross_interference_power",), _calls("precoder.cross_interference_power")),
    ("harness.draw_channels.calls", "count", "lower", ("harness.draw_channels",),
     _calls("harness.draw_channels")),
    ("harness.draw_channels.s", "s", "lower", ("harness.draw_channels",),
     _seconds("harness.draw_channels")),
    ("harness.monte_carlo_policy.s", "s", "lower", ("harness.monte_carlo_policy",),
     _seconds("harness.monte_carlo_policy")),
    ("harness.ffr_baseline.s", "s", "lower", ("harness.ffr_baseline",),
     _seconds("harness.ffr_baseline")),
    ("harness.comp_baseline.s", "s", "lower", ("harness.comp_baseline",),
     _seconds("harness.comp_baseline")),
    ("cli.load_scenario.s", "s", "lower", ("cli.load_scenario",), _seconds("cli.load_scenario")),
    ("cli.output.s", "s", "lower", (SOLVE_SPAN,) + VALIDATE_SPANS, _count("cli.output_s")),
    ("cli.output_bytes", "bytes", "lower", (), _count("cli.output_bytes")),
    ("trace.overhead_ratio", "ratio", "lower", (), lambda v: v.overhead_ratio),
)


class View:
    """Per-operation averages over the merged stats of the traced operations."""

    def __init__(self, tracer, operations, overhead_ratio):
        self.tracer = tracer
        self.n = operations
        self.overhead_ratio = overhead_ratio

    def calls(self, span):
        return self.tracer.by_name(span).calls / self.n

    def seconds(self, span):
        return self.tracer.by_name(span).total / self.n

    def self_seconds(self, span):
        return self.tracer.by_name(span).self_time / self.n

    def ms(self, span, q):
        return 1e3 * percentile(self.tracer.by_name(span).durations, q)

    def count(self, key):
        return self.tracer.counters[key] / self.n


def layer_metrics(view):
    """(metrics, missing): metric -> {value, unit}, and the metric names
    whose patch points no longer exist."""
    absent = {p.span for p in view.tracer.missing}
    metrics, missing = {}, []
    for name, unit, _, needs, value in LAYER_METRICS:
        if absent.intersection(needs):
            missing.append(name)
        else:
            metrics[name] = {"value": float(value(view)), "unit": unit}
    return metrics, missing


# (name, unit, value over the run's samples)
END_TO_END = (
    ("setup_s", "s", fmean),
    ("solve_s", "s", fmean),
    ("validate_s", "s", fmean),
    ("total_s", "s", fmean),
    # every operation makes the same draws: all draws over all validation time
    ("mc_draws_per_s", "1/s", harmonic_mean),
    ("peak_rss_mb", "MB", max),
)
