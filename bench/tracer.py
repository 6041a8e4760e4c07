"""Spans and counters around the public functions of each vrpplan module.

The tracer is installed from the benchmark's own code: it replaces every
public module-level function of the listed modules with a wrapper, in the
module namespace (so calls inside the module are seen too) and in the package
namespace.  Each call records a span (name, parent, start, end); self time is
the span's duration minus the time its child spans cover.  Aggregates are
kept exactly for every call; the span list itself is capped so a long traced
run keeps bounded memory, and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

MODULES = (
    "cli",
    "scenario",
    "grid_model",
    "demand_pricing",
    "revenue_sharing",
    "equilibrium",
    "trajectory",
    "oracles",
    "dispatch",
)

# Calls made under these spans are also counted per scope, so ratios such as
# curve evaluations per simulated period count only the work of that call.
SCOPES = ("trajectory.simulate_myopic",)
SPAN_CAP = 100_000


def _count(name, value_of):
    def hook(tracer, args, kwargs, result, duration):
        tracer.counts[name] += value_of(args, result)

    return hook


def _keep(name_of):
    def hook(tracer, args, kwargs, result, duration):
        tracer.durations[name_of(args)].append(duration)

    return hook


# Values read from the arguments and results of traced calls.
HOOKS = {
    "cli.main": _keep(lambda a: "cli.main." + a[0][0]),
    "scenario.load_scenario": _keep(lambda a: "scenario.load_scenario"),
    "equilibrium.solve_long_run_limit": _count("equilibrium.bisection_iterations", lambda a, r: r.iterations),
    "trajectory.simulate_myopic": _count("trajectory.periods", lambda a, r: len(r.records)),
    "oracles.enumerate_and_compare": _count("oracles.policies", lambda a, r: r.n_policies_evaluated),
    "oracles.dense_scan_equilibrium": _count("oracles.scan_points", lambda a, r: r.n_points),
    "dispatch.calibrate_grid": _count(
        "dispatch.isotonic_corrections", lambda a, r: int(r.emissions_adjusted) + int(r.energy_value_adjusted)
    ),
    # computed from the shapes, not measured: units x hours x 8 bytes of unit generation
    "dispatch.merit_order_dispatch": _count("dispatch.computed_bytes", lambda a, r: len(a[0].units) * a[1].hours * 8),
}


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.scoped = Counter()  # "scope>name" -> calls
        self.counts = Counter()  # values read from arguments and results
        self.durations = defaultdict(list)  # per-call durations kept by hooks
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._scopes: list[str] = []
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        scope = name in SCOPES

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            for s in set(tracer._scopes):
                tracer.scoped[s + ">" + name] += 1
            if scope:
                tracer._scopes.append(name)
            frame = [span_id, name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if scope:
                    tracer._scopes.pop()
                duration = end - frame[2]
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[3]
                parent = -1
                if tracer._stack:
                    tracer._stack[-1][3] += duration
                    parent = tracer._stack[-1][0]
                if hook is not None and result is not None:
                    hook(tracer, args, kwargs, result, duration)
                if len(tracer._span_name) < tracer.span_cap:
                    tracer._span_id.append(span_id)
                    tracer._span_name.append(tracer._name_id(name))
                    tracer._span_parent.append(parent)
                    tracer._span_start.append(frame[2])
                    tracer._span_end.append(end)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every module in MODULES."""
        modules = [importlib.import_module(f"{package.__name__}.{short}") for short in MODULES]
        wrapped = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, HOOKS.get(name))
        # Replace every binding of a wrapped function, including names that
        # one module imported from another (``from .scenario import load_scenario``).
        for owner in modules + [package]:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._installed.append((owner, attr, obj))
                    setattr(owner, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------
    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "scoped": dict(self.scoped),
            "counts": dict(self.counts),
            "durations": {k: list(v) for k, v in self.durations.items()},
        }

    def spans(self) -> dict:
        return {
            "names": list(self._names),
            "columns": ["id", "name", "parent", "start_s", "end_s"],
            "spans_recorded": len(self._span_name),
            "spans_total": self._next_id,
            "rows": [
                list(row)
                for row in zip(
                    self._span_id, self._span_name, self._span_parent, self._span_start, self._span_end
                )
            ],
        }


def merge(aggregates: list[dict]) -> dict:
    """Sum the aggregates of several tracers (e.g. one per CLI subprocess)."""
    out = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(), "scoped": Counter(), "counts": Counter(), "durations": defaultdict(list)}
    for agg in aggregates:
        for key in ("calls", "total_s", "self_s", "scoped", "counts"):
            out[key].update(agg[key])
        for name, values in agg["durations"].items():
            out["durations"][name].extend(values)
    return {k: dict(v) for k, v in out.items()}


def write_trace(path, workload: str, seed: int, parts: list[dict], extra: dict) -> None:
    """Write the spans of every traced process plus run information as JSON."""
    path.write_text(json.dumps({"workload": workload, "seed": seed, **extra, "processes": parts}))
