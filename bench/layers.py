"""Per-layer metrics derived from tracer aggregates.

Each metric names the workload it is measured on when the run's own workload
does not exercise its layer (``HOME``): a traced run takes a metric from its
own workload's pass where that pass called the layer, and otherwise from the
short pass of the home workload that every run also makes.

Counts are per workload operation (one command, one scenario, one verified
model or one calibration) so they do not grow with the number of rounds a
run fits in; times are per call unless named per operation.
"""

from __future__ import annotations

import statistics

CLI_COMMANDS = ("price", "share", "limit", "simulate", "verify", "calibrate")
SIM = "trajectory.simulate_myopic"


class View:
    """Read access to one pass's aggregates; ``None`` where nothing ran."""

    def __init__(self, agg: dict, ops: int):
        self.agg = agg
        self.ops = ops

    def calls(self, name: str) -> int:
        return self.agg["calls"].get(name, 0)

    def per_op(self, value: float, *names: str):
        return value / self.ops if self.ops and any(self.calls(n) for n in names) else None

    def calls_per_op(self, name: str):
        return self.per_op(self.calls(name), name)

    def mean_s(self, name: str):
        n = self.calls(name)
        return self.agg["total_s"][name] / n if n else None

    def layer_self_per_op(self, layer: str):
        names = [n for n in self.agg["self_s"] if n.startswith(layer + ".")]
        return self.per_op(sum(self.agg["self_s"][n] for n in names), *names)

    def count(self, name: str) -> float:
        return self.agg["counts"].get(name, 0)

    def ratio(self, numerator: float, denominator: float):
        return numerator / denominator if denominator else None

    def median(self, name: str):
        values = self.agg["durations"].get(name)
        return statistics.median(values) if values else None

    def scoped(self, name: str) -> int:
        return self.agg["scoped"].get(f"{SIM}>{name}", 0)


def _metrics():
    m = []  # (name, unit, home workload, value function)

    def add(name, unit, home, fn):
        m.append((name, unit, home, fn))

    for command in CLI_COMMANDS:
        add(f"cli.main_s.{command}", "s", "cli-session", lambda v, c=command: v.median(f"cli.main.{c}"))
    add("scenario.load_s", "s", "cli-session", lambda v: v.median("scenario.load_scenario"))

    sweep = "scenario-sweep"
    add("grid_model.eval_curve.calls", "1/op", sweep, lambda v: v.calls_per_op("grid_model.eval_curve"))
    add("grid_model.evals_per_period", "1/period", sweep,
        lambda v: v.ratio(v.scoped("grid_model.eval_curve"), v.count("trajectory.periods")))
    add("grid_model.self_s", "s/op", sweep, lambda v: v.layer_self_per_op("grid_model"))
    add("grid_model.validate_grid_conditions_s", "s", "deep-verify", lambda v: v.mean_s("grid_model.validate_grid_conditions"))

    add("demand_pricing.optimal_price.calls", "1/op", sweep, lambda v: v.calls_per_op("demand_pricing.optimal_price"))
    add("demand_pricing.optimal_expansion.calls", "1/op", sweep, lambda v: v.calls_per_op("demand_pricing.optimal_expansion"))
    add("demand_pricing.calls_per_period", "1/period", sweep,
        lambda v: v.ratio(v.scoped("demand_pricing.optimal_price") + v.scoped("demand_pricing.optimal_expansion"),
                          v.count("trajectory.periods")))
    add("demand_pricing.self_s", "s/op", sweep, lambda v: v.layer_self_per_op("demand_pricing"))
    add("demand_pricing.kkt_residuals_s", "s", "deep-verify", lambda v: v.mean_s("demand_pricing.kkt_residuals"))

    add("revenue_sharing.solve_separated_period.calls", "1/op", sweep,
        lambda v: v.calls_per_op("revenue_sharing.solve_separated_period"))
    add("revenue_sharing.self_s", "s/op", sweep, lambda v: v.layer_self_per_op("revenue_sharing"))

    add("equilibrium.limit_solves_per_model", "1/op", sweep, lambda v: v.calls_per_op("equilibrium.solve_long_run_limit"))
    add("equilibrium.bisection_iterations", "1/solve", sweep,
        lambda v: v.ratio(v.count("equilibrium.bisection_iterations"), v.calls("equilibrium.solve_long_run_limit")))
    add("equilibrium.self_s", "s/op", sweep, lambda v: v.layer_self_per_op("equilibrium"))

    add("trajectory.periods", "1/op", sweep, lambda v: v.per_op(v.count("trajectory.periods"), SIM))
    add("trajectory.simulate_us_per_period", "us", sweep,
        lambda v: v.ratio(1e6 * v.agg["total_s"].get(SIM, 0.0), v.count("trajectory.periods")))
    add("trajectory.certificates_per_model", "1/op", "deep-verify",
        lambda v: v.calls_per_op("trajectory.certify_monotone_reachability"))
    add("trajectory.certify_s", "s", sweep, lambda v: v.mean_s("trajectory.certify_monotone_reachability"))
    add("trajectory.reach_map.calls", "1/op", sweep, lambda v: v.calls_per_op("trajectory.reach_map"))

    verify = "deep-verify"
    enum = "oracles.enumerate_and_compare"
    scan = "oracles.dense_scan_equilibrium"
    add("oracles.enumerate_s", "s", verify, lambda v: v.mean_s(enum))
    add("oracles.policies_evaluated", "1/call", verify, lambda v: v.ratio(v.count("oracles.policies"), v.calls(enum)))
    add("oracles.policies_per_s", "1/s", verify,
        lambda v: v.ratio(v.count("oracles.policies"), v.agg["total_s"].get(enum, 0.0)))
    add("oracles.dense_scan_equilibrium_s", "s", verify, lambda v: v.mean_s(scan))
    add("oracles.scan_points_per_s", "1/s", verify,
        lambda v: v.ratio(v.count("oracles.scan_points"), v.agg["total_s"].get(scan, 0.0)))
    add("oracles.dense_scan_price_s", "s", verify, lambda v: v.mean_s("oracles.dense_scan_price"))

    calib = "calibration-sweep"
    mod = "dispatch.merit_order_dispatch"
    add("dispatch.merit_order_dispatch.calls", "1/op", calib, lambda v: v.calls_per_op(mod))
    add("dispatch.merit_order_dispatch_s", "s", calib, lambda v: v.mean_s(mod))
    add("dispatch.calibrate_grid.self_s", "s", calib,
        lambda v: v.ratio(v.agg["self_s"].get("dispatch.calibrate_grid", 0.0), v.calls("dispatch.calibrate_grid")))
    add("dispatch.read_csv_s", "s/op", calib,
        lambda v: v.per_op(v.agg["total_s"].get("dispatch.read_fleet_csv", 0.0)
                           + v.agg["total_s"].get("dispatch.read_profiles_csv", 0.0),
                           "dispatch.read_fleet_csv", "dispatch.read_profiles_csv"))
    add("dispatch.isotonic_corrections", "1/call", calib,
        lambda v: v.ratio(v.count("dispatch.isotonic_corrections"), v.calls("dispatch.calibrate_grid")))
    add("dispatch.computed_bytes_per_call", "B", calib, lambda v: v.ratio(v.count("dispatch.computed_bytes"), v.calls(mod)))
    return m


METRICS = _metrics()
PROBE_METRICS = (  # measured in fresh interpreters by every traced run
    ("import.vrpplan_s", "s"),
    ("import.modules", "count"),
    ("import.scipy_modules", "count"),
    ("process.start_s", "s"),
)


def layer_metrics(workload: str, views: dict, probe: dict) -> tuple[dict, dict]:
    """Every per-layer metric, and the workload each was measured on."""
    out, source = {}, {}
    for name, unit in PROBE_METRICS:
        out[name] = {"value": probe[name], "unit": unit}
        source[name] = "probe"
    for name, unit, home, fn in METRICS:
        value = fn(views[workload])
        where = workload
        if value is None:
            value, where = fn(views[home]), home
        out[name] = {"value": value if value is not None else 0.0, "unit": unit}
        source[name] = where
    return out, source
