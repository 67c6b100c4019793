"""Spans recorded around the program's public functions, from outside.

A ``Tracer`` keeps a stack of open spans. When a span closes, its duration
is added to the enclosing span's child time and aggregated under
``(phase, name)``; self time is the duration minus the child time. Spans are
aggregated as they close rather than stored one by one, because one
``compare`` operation closes about 200k of them.

``patched`` swaps each listed function for a timing wrapper where its caller
looks it up (``hiermimo.scheduler.waterfill``, not the package re-export)
and restores the originals on exit. A patch point that no longer exists is
recorded in ``Tracer.missing`` instead of raising.
"""

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


class StageDone(BaseException):
    """Raised to end a stage-only call: at the entry of the solve stage when
    the call stops after set-up, at its exit when it stops after solving.

    A BaseException, so the CLI's ``except Exception`` boundary lets it pass.
    """


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))

    def merge(self, other):
        self.calls += other.calls
        self.total += other.total
        self.self_time += other.self_time
        self.durations.extend(other.durations)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        self.stats = {}  # (phase, name) -> SpanStats
        self.counters = Counter()
        self.marks = {}
        self.missing = []  # Points that could not be patched
        self.context = {}
        self.stop_after = None  # "setup" or "solve": end the call after that stage
        self._stack = []  # open spans: [name, start, child_time, phase]

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0, self.phase])

    def exit(self):
        name, start, child, phase = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.stats.get((phase, name))
        if stats is None:
            stats = self.stats[(phase, name)] = SpanStats()
        stats.calls += 1
        stats.total += duration
        stats.self_time += duration - child
        stats.durations.append(duration)
        return duration

    def parent(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][0] if self._stack else None

    def by_name(self, name):
        """Stats of one span name summed over phases."""
        out = SpanStats()
        for (_, span), stats in self.stats.items():
            if span == name:
                out.merge(stats)
        return out

    def self_times(self, phase):
        """Span name -> self time within one phase, largest first."""
        rows = [(s.self_time, n) for (p, n), s in self.stats.items() if p == phase]
        return {n: t for t, n in sorted(rows, reverse=True)}


def merged(tracers):
    """One tracer holding the summed stats and counters of several."""
    out = Tracer()
    for tr in tracers:
        for key, stats in tr.stats.items():
            out.stats.setdefault(key, SpanStats()).merge(stats)
        out.counters.update(tr.counters)
        out.missing = list(dict.fromkeys(out.missing + tr.missing))
    return out


# ---------------------------------------------------------------------------
# patch points
# ---------------------------------------------------------------------------

def _on_optimize_enter(tracer, fn, args, kwargs):
    tracer.marks.setdefault("solve_start", tracer.clock())
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    names = ("corr_set", "graph", "nu", "p_c")
    tracer.context["mode"] = bound.arguments.get("mode", "greedy")
    if all(k in bound.arguments for k in names):
        tracer.context["solve_args"] = tuple(bound.arguments[k] for k in names)
    if tracer.stop_after == "setup":
        raise StageDone()


def _on_optimize(tracer, span, result, error):
    if error is None:
        tracer.counters["scheduler.outer_iterations"] += len(result.trace)
        tracer.counters["scheduler.converged"] += int(bool(result.converged))
        tracer.counters["scheduler.final_slack"] += result.trace[-1].slack
        if tracer.stop_after == "solve":
            raise StageDone()


def _on_topology(tracer, span, result, error):
    if error is None:
        tracer.counters["topology.cross_edges"] += len(result.edges) - result.num_users


def _on_mc(tracer, span, result, error):
    if error is None:
        tracer.counters["mc.draws"] += int(result.draws)


def _on_solve(tracer, span, result, error):
    if error is None:
        tracer.counters["det_equiv.solve_effective_gains.iterations"] += result.iterations
    elif _is_convergence_error(error):
        tracer.counters["det_equiv.convergence_errors"] += 1
    if tracer.parent() == "det_equiv.GainCache.gains":
        tracer.counters["det_equiv.gain_cache.misses"] += 1


def _on_weighted_sum_rate(tracer, span, result, error):
    if tracer.parent() != "scheduler.oracle":
        return
    tracer.counters["scheduler.oracle.evaluations"] += 1
    if error is not None and _is_convergence_error(error):
        tracer.counters["scheduler.oracle.skipped"] += 1


def _on_oracle(tracer, span, result, error):
    if error is None and span == "scheduler.oracle":
        tracer.counters["scheduler.oracle.users_added"] += len(result.selected)


def _exhaustive_span(tracer):
    """The exhaustive oracle called from a greedy solve is the certificate."""
    greedy = tracer.context.get("mode", "greedy") == "greedy"
    return "scheduler.certificate" if greedy else "scheduler.oracle"


def _is_convergence_error(error):
    return any(cls.__name__ == "ConvergenceError" for cls in type(error).__mro__)


@dataclass(frozen=True)
class Point:
    module: str
    attr: str  # "func" or "Class.method"
    span: str  # "<module>.<function>" of the definition
    phase: str = None  # stage this span opens; restored to "output" on exit
    on_exit: Callable = None  # (tracer, span, result, error) after the call
    on_enter: Callable = None  # (tracer, fn, args, kwargs) before the call
    rename: Callable = None  # (tracer) -> span name, chosen per call


STAGE_POINTS = (
    Point("hiermimo.cli", "optimize_policy", "scheduler.optimize_policy", "solve",
          on_exit=_on_optimize, on_enter=_on_optimize_enter),
    Point("hiermimo.scheduler", "ControlPolicy.validate", "scheduler.ControlPolicy.validate", "validate"),
    Point("hiermimo.cli", "monte_carlo_policy", "harness.monte_carlo_policy", "validate", _on_mc),
    Point("hiermimo.cli", "ffr_baseline", "harness.ffr_baseline", "validate", _on_mc),
    Point("hiermimo.cli", "comp_baseline", "harness.comp_baseline", "validate", _on_mc),
)

LAYER_POINTS = (
    Point("hiermimo.cli", "load_scenario", "cli.load_scenario"),
    Point("hiermimo.cli", "build_hotspot_network", "corrmat.build_hotspot_network"),
    Point("hiermimo.harness", "sample_channel", "corrmat.sample_channel"),
    Point("hiermimo.cli", "build_topology", "topology.build_topology", on_exit=_on_topology),
    Point("hiermimo.det_equiv", "solve_effective_gains", "det_equiv.solve_effective_gains", on_exit=_on_solve),
    Point("hiermimo.det_equiv", "GainCache.gains", "det_equiv.GainCache.gains"),
    Point("hiermimo.det_equiv", "de_rate_power", "det_equiv.de_rate_power"),
    Point("hiermimo.scheduler", "de_rate_power", "det_equiv.de_rate_power"),
    Point("hiermimo.harness", "de_rate_power", "det_equiv.de_rate_power"),
    Point("hiermimo.scheduler", "waterfill", "scheduler.waterfill"),
    Point("hiermimo.scheduler", "weighted_sum_rate", "scheduler.weighted_sum_rate", on_exit=_on_weighted_sum_rate),
    Point("hiermimo.scheduler", "best_control_greedy", "scheduler.oracle", on_exit=_on_oracle),
    Point("hiermimo.scheduler", "best_control_exhaustive", "scheduler.best_control_exhaustive",
          on_exit=_on_oracle, rename=_exhaustive_span),
    Point("hiermimo.scheduler", "optimize_time_sharing", "scheduler.optimize_time_sharing"),
    Point("hiermimo.scheduler", "outer_precoder", "precoder.outer_precoder"),
    Point("hiermimo.det_equiv", "interference_nullspace_basis", "precoder.interference_nullspace_basis"),
    Point("hiermimo.precoder", "interference_nullspace_basis", "precoder.interference_nullspace_basis"),
    Point("hiermimo.harness", "inner_precoders", "precoder.inner_precoders"),
    Point("hiermimo.precoder", "inner_precoders", "precoder.inner_precoders"),
    Point("hiermimo.harness", "instantaneous_rate", "precoder.instantaneous_rate"),
    Point("hiermimo.harness", "transmit_power", "precoder.transmit_power"),
    Point("hiermimo.harness", "cross_interference_power", "precoder.cross_interference_power"),
    Point("hiermimo.harness", "draw_channels", "harness.draw_channels"),
)


def _wrap(tracer, fn, point):
    hook, on_enter, rename = point.on_exit, point.on_enter, point.rename

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer_phase = tracer.phase
        if on_enter is not None:
            on_enter(tracer, fn, args, kwargs)
        if point.phase is not None:
            tracer.phase = point.phase
        span = rename(tracer) if rename else point.span
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit()
            if hook is not None:
                hook(tracer, span, None, exc)
            raise
        finally:
            if point.phase is not None:
                # once a stage has run, top-level work is output writing
                tracer.phase = "output" if outer_phase == "setup" else outer_phase
        tracer.exit()
        if hook is not None:
            hook(tracer, span, result, None)
        return result

    return wrapper


def _resolve(point):
    """(owner object, attribute name) of a patch point, or None if absent."""
    try:
        owner = importlib.import_module(point.module)
    except ImportError:
        return None
    *path, attr = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


@contextlib.contextmanager
def patched(tracer, points):
    """Install timing wrappers for ``points``; always restore the originals."""
    saved = []
    try:
        for point in points:
            where = _resolve(point)
            if where is None:
                tracer.missing.append(point)
                continue
            owner, attr = where
            original = owner.__dict__[attr] if attr in owner.__dict__ else None
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, getattr(owner, attr), point))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
