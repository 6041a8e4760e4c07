"""Planning toolkit for utility voluntary renewable programs.

Prices the renewable premium in closed form, sizes per-period capacity
expansion under strict revenue neutrality, allocates revenue between the
program operator and generators, solves the long-run capacity limit, and
simulates multi-period deployment with independent brute-force verification
of every closed-form result.

Decisions (``price_at``, ``decide_at``) take a ``PeriodState``, the grid at
one capacity or an array of them; solvers (``solve_period``,
``solve_separated_period``, ``kkt_residuals``, ``max_feasible_expansion``,
``reach_map``, ``solve_long_run_limit``) take a capacity.

The names below are imported on first use, from the module listed with them.
Pricing, sharing and the long-run limit are scalar closed forms, and the
checks of ``simulate`` and ``verify`` (grid conditions, reachability
certificate, full policy enumeration) take float loops while numpy is not
loaded, so only ``calibrate`` and subsampled enumeration load numpy among the
commands.  In process, numpy is loaded by the first array query: dispatch and
calibration, the dense scans and subsampled enumeration; once it is, the
checks take their array routes.
"""

from importlib import import_module

_EXPORTS = {
    "demand_pricing": (
        "DemandModel", "ExpansionStatus", "KktResiduals", "PeriodSolution", "Phase", "demand",
        "kkt_residuals", "revenue", "unconstrained_peak_revenue",
    ),
    "dispatch": (
        "CalibrationOutput", "FleetSpec", "FleetUnit", "HourlyProfiles", "build_grid_model",
        "calibrate_grid", "default_fleet", "default_profiles", "merit_order_dispatch",
    ),
    "equilibrium": (
        "EquilibriumResult", "find_deliverability_threshold", "solve_long_run_limit",
    ),
    "grid_model": (
        "ConditionReport", "CostSpec", "CurveKind", "GridCurve", "GridModel", "PeriodState",
        "eval_curve", "validate_grid_conditions",
    ),
    "oracles": (
        "DominanceReport", "EnumerationConfig", "dense_scan_equilibrium", "dense_scan_price",
        "enumerate_and_compare",
    ),
    "revenue_sharing": (
        "SharingSolution", "classify_phase", "solve_separated_period",
    ),
    "scenario": ("Scenario", "load_scenario"),
    "trajectory": (
        "ReachabilityCertificate", "SimulationConfig", "Termination", "Trajectory",
        "certify_monotone_reachability", "max_feasible_expansion", "reach_map",
        "reachability_lower_bound", "simulate_myopic", "solve_period",
    ),
    "units": ("convert_price_units", "invert_price_units"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "serialize", "tolerances"}

__all__ = [*_SOURCE, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name's module, or a submodule, on first use (PEP 562)."""
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
