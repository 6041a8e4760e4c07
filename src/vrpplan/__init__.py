"""Planning toolkit for utility voluntary renewable programs.

Prices the renewable premium in closed form, sizes per-period capacity
expansion under strict revenue neutrality, allocates revenue between the
program operator and generators, solves the long-run capacity limit, and
simulates multi-period deployment with independent brute-force verification
of every closed-form result.
"""

from .demand_pricing import (
    DemandModel,
    ExpansionStatus,
    KktResiduals,
    PeriodSolution,
    Phase,
    demand,
    kkt_residuals,
    optimal_expansion,
    optimal_price,
    revenue,
    unconstrained_peak_revenue,
)
from .dispatch import (
    CalibrationOutput,
    FleetSpec,
    FleetUnit,
    HourlyProfiles,
    build_grid_model,
    calibrate_grid,
    default_fleet,
    default_profiles,
    merit_order_dispatch,
)
from .equilibrium import (
    EquilibriumResult,
    check_k_independence,
    check_nonvanishing_emissions,
    find_deliverability_threshold,
    solve_long_run_limit,
)
from .grid_model import (
    ConditionReport,
    CostSpec,
    CurveKind,
    GridCurve,
    GridModel,
    PeriodState,
    cost_generator,
    cost_integrated,
    cost_operator,
    eval_curve,
    numeric_derivative,
    validate_grid_conditions,
)
from .oracles import (
    DominanceReport,
    EnumerationConfig,
    dense_scan_equilibrium,
    dense_scan_price,
    enumerate_and_compare,
)
from .revenue_sharing import (
    SharingSolution,
    classify_phase,
    expansion_given_share,
    optimal_share,
    solve_separated_period,
)
from .scenario import Scenario, baseline_demand_model, baseline_grid_model, baseline_scenario, load_scenario
from .trajectory import (
    ReachabilityCertificate,
    SimulationConfig,
    Termination,
    Trajectory,
    certify_monotone_reachability,
    max_feasible_expansion,
    reach_map,
    reachability_lower_bound,
    simulate_myopic,
    simulate_policy,
    solve_period,
)
from .units import convert_price_units, invert_price_units

__version__ = "0.1.0"
