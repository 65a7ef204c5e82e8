"""Spans around the calls into each overloadx layer, recorded from outside.

The tracer replaces public names in the modules that bind them with wrappers
that record a span: name, start, end, parent span and run id, plus a few
counts read from the call's result.  Nothing inside the package changes, so
a traced run computes bit-identical outputs.  Spans are kept in memory; the
caller writes them out when the run ends.

A layer's self time is its spans' time minus the time their child spans
cover.  Calls are serial, so child spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter


def _sim_counts(args, kwargs, stats):
    return {"events": stats.events,
            "one_way_violations": stats.one_way_violations,
            "conservation_failures": int(any(stats.conservation_residual()))}


def _fluid_steps(args, kwargs, path):
    return {"steps": len(path.t) - 1}


def _diffusion_points(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"points": len(path.t)}


# (module, public name as that module binds it, span name, result reader).
# Each layer is wrapped where its callers look it up, so e.g. pi12 calls made
# by the fluid integrator are seen at fluid.pi_12.
TRACED = (
    ("overloadx.cli", "validate_command", "cli.validate", None),
    ("overloadx.cli", "emit_report", "cli.emit_report", None),
    ("overloadx.cli", "replicate", "cli.replicate", None),
    ("overloadx.cli", "ftsp_rates", "ftsp.rates", None),
    ("overloadx.cli", "asymptotic_variance", "ftsp.sigma2", None),
    ("overloadx.sim", "run", "sim.run", _sim_counts),
    ("overloadx.fluid", "integrate_fluid", "fluid.integrate", _fluid_steps),
    ("overloadx.fluid", "pi_12", "ftsp.pi12", None),
    ("overloadx.fluid", "ftsp_rates", "ftsp.rates", None),
    ("overloadx.diffusion", "time_changes", "diffusion.time_changes",
     _diffusion_points),
    ("overloadx.diffusion", "transient_covariance",
     "diffusion.transient_covariance", _diffusion_points),
    ("overloadx.diffusion", "asymptotic_variance", "ftsp.sigma2", None),
)

# span fields
NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    """Records spans while installed; ``run_id`` tags the spans of one run."""

    def __init__(self, table=TRACED):
        self.table = table
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._restore = []

    def install(self):
        """Wrap every name of the table; a name that is gone is an error."""
        for module_name, attr, span_name, reader in self.table:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise LookupError(f"traced name {module_name}.{attr} no longer "
                                  "exists; update perfbench/tracing.py")
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, reader))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, span_name, fn, reader):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if reader is not None:
                span[INFO] = reader(args, kwargs, result)
            return result

        return traced


def _percentile(values, q: float) -> float:
    """q-quantile (0 < q < 1, in steps of 0.1) of values; 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, run_id: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced run of the pipeline.

    Ratios over an empty base (e.g. steps per second with no fluid call)
    are reported as 0.
    """
    mine = [i for i, s in enumerate(spans) if s[RUN] == run_id]
    child_time = defaultdict(float)
    by_name = defaultdict(list)
    for i in mine:
        s = spans[i]
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name[name]]

    def self_time(name):
        return sum(spans[i][END] - spans[i][START] - child_time[i]
                   for i in by_name[name])

    def info_sum(name, key):
        return sum(spans[i][INFO][key] for i in by_name[name])

    def calls_under(name, parent_name):
        return sum(1 for i in by_name[name]
                   if spans[i][PARENT] >= 0
                   and spans[spans[i][PARENT]][NAME] == parent_name)

    def outermost_busy(prefix):
        """Time in spans of a layer, not counting nested spans twice."""
        total = 0.0
        for i in mine:
            s = spans[i]
            if not s[NAME].startswith(prefix):
                continue
            parent = s[PARENT]
            while parent >= 0 and not spans[parent][NAME].startswith(prefix):
                parent = spans[parent][PARENT]
            if parent < 0:
                total += s[END] - s[START]
        return total

    m = {}
    pi = durations("ftsp.pi12")
    m["ftsp.pi12.calls"] = len(pi)
    m["ftsp.pi12.busy_s"] = sum(pi)
    m["ftsp.pi12.p50_us"] = _percentile(pi, 0.5) * 1e6
    m["ftsp.pi12.p90_us"] = _percentile(pi, 0.9) * 1e6
    sg = durations("ftsp.sigma2")
    m["ftsp.sigma2.calls"] = len(sg)
    m["ftsp.sigma2.busy_s"] = sum(sg)
    m["ftsp.sigma2.p50_ms"] = _percentile(sg, 0.5) * 1e3
    m["ftsp.sigma2.p90_ms"] = _percentile(sg, 0.9) * 1e3
    m["ftsp.rates.calls"] = len(by_name["ftsp.rates"])
    m["ftsp.share"] = _ratio(outermost_busy("ftsp."), wall_s)

    steps = info_sum("fluid.integrate", "steps")
    m["fluid.steps"] = steps
    m["fluid.self_s"] = self_time("fluid.integrate")
    m["fluid.steps_per_s"] = _ratio(steps, sum(durations("fluid.integrate")))
    m["fluid.pi12_per_step"] = _ratio(
        calls_under("ftsp.pi12", "fluid.integrate"), steps)

    diffusion = ("diffusion.time_changes", "diffusion.transient_covariance")
    points = sum(info_sum(name, "points") for name in diffusion)
    m["diffusion.points"] = points
    for name in diffusion:
        m[f"{name}.self_s"] = self_time(name)
    m["diffusion.sigma2_per_point"] = _ratio(
        sum(calls_under("ftsp.sigma2", name) for name in diffusion), points)

    runs = durations("sim.run")
    events = info_sum("sim.run", "events")
    m["sim.runs"] = len(runs)
    m["sim.events"] = events
    m["sim.busy_s"] = sum(runs)
    m["sim.events_per_s"] = _ratio(events, sum(runs))
    m["sim.run.p50_s"] = _percentile(runs, 0.5)
    m["sim.one_way_violations"] = info_sum("sim.run", "one_way_violations")
    m["sim.conservation_failures"] = info_sum("sim.run", "conservation_failures")
    m["sim.share"] = _ratio(outermost_busy("sim."), wall_s)

    m["cli.validate.self_s"] = self_time("cli.validate")
    m["cli.emit_report.busy_s"] = sum(durations("cli.emit_report"))
    return m
