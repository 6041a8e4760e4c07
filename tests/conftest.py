"""Shared fixtures: the baseline scenario and randomized model families."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from vrpplan import demand_pricing as dp
from vrpplan import equilibrium as eqm
from vrpplan import grid_model as gm
from vrpplan import revenue_sharing as rs
from vrpplan.demand_pricing import DemandModel, ExpansionStatus, decide_at
from vrpplan.dispatch import FLEET_CSV_COLUMNS, PROFILE_CSV_COLUMNS, FleetSpec, HourlyProfiles
from vrpplan.equilibrium import find_deliverability_threshold
from vrpplan.errors import (
    InfeasibleAtThresholdError, InfeasibleSharingError, NetZeroGridError,
    NoRevenueError, NoSellableCreditsError, ThresholdUnreachableError,
)
from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel, eval_curve
from vrpplan.demand_pricing import unconstrained_peak_revenue
from vrpplan.scenario import load_scenario
from vrpplan.tolerances import BALANCE_TOL, ROUNDING_TOL, ZERO_TOL, scaled
from vrpplan.trajectory import PeriodRecord, SimulationConfig, Termination, Trajectory, simulate_myopic

# the shipped baseline, the one definition of it, found from this file wherever the tests start
BASELINE_PATH = str(Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json")
BASELINE = load_scenario(BASELINE_PATH)  # loaded once per session; module-level for import-time params


def baseline_doc() -> dict:
    """A fresh copy of the shipped baseline document, for a test to edit."""
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def baseline_model() -> GridModel:
    return BASELINE.grid


@pytest.fixture(scope="session")
def baseline_demand() -> DemandModel:
    return BASELINE.demand


@pytest.fixture()
def baseline_cfg() -> SimulationConfig:
    return SimulationConfig(q_init=0.5, horizon=200)


def flat_curve(value: float, domain=(0.0, 10.0)) -> GridCurve:
    return GridCurve(
        CurveKind.TABULATED, table=((domain[0], value), (domain[1], value))
    )


def flat_model(
    e0: float,
    f0: float,
    pi0: float,
    alpha_r: float = 0.0,
    beta_r: float = 0.0,
    alpha_s: float = 0.0,
    beta_s: float = 0.0,
    invest_cost: float = 1000.0,
    domain=(0.0, 10.0),
) -> GridModel:
    """Constant e/f/pi curves: every quantity is hand-computable."""
    return GridModel(
        emissions=flat_curve(e0, domain),
        delivered=flat_curve(f0, domain),
        energy_value=flat_curve(pi0, domain),
        cost_renewable=CostSpec(alpha_r, beta_r),
        cost_system=CostSpec(alpha_s, beta_s),
        invest_cost=invest_cost,
        domain=domain,
    )


def saturating_table(limit: float, rate: float, domain, knots: int = 241):
    qs = np.linspace(domain[0], domain[1], knots)
    return tuple((float(q), float(limit * (1.0 - math.exp(-rate * q)))) for q in qs)


def drawn_model(kind: CurveKind, rng: np.random.Generator) -> tuple[DemandModel, GridModel]:
    """Every curve of one kind: decaying e and pi, rising f, random costs and k.

    The polynomial f turns negative past 4/rate, so some draws hold states
    that cannot be priced.
    """
    hi = float(rng.uniform(8.0, 16.0))  # builtin floats throughout, as a loaded scenario holds
    e0, e_rate, f_max, f_rate, pi0, pi_rate = rng.uniform(
        (0.2, 0.02, 3.0, 0.08, 60.0, 0.02), (0.6, 0.12, 12.0, 0.3, 150.0, 0.1)
    ).tolist()
    knots = np.linspace(0.0, hi, 97)

    def curve(shape, exponential, polynomial):
        if kind is CurveKind.TABULATED:
            return GridCurve(kind, table=tuple((float(q), shape(q)) for q in knots))
        return GridCurve(kind, exponential if kind is CurveKind.EXPONENTIAL_DECAY else polynomial)

    model = GridModel(
        emissions=curve(
            lambda q: e0 * math.exp(-e_rate * q), (e0, e_rate), (e0, -e0 / (2.0 * hi))
        ),
        delivered=curve(
            lambda q: f_max * (1.0 - math.exp(-f_rate * q)),
            (f_max, -f_rate / 10.0),
            (f_max * f_rate, -f_max * f_rate**2 / 4.0),
        ),
        energy_value=curve(
            lambda q: pi0 * math.exp(-pi_rate * q), (pi0, pi_rate), (pi0, -pi0 / (2.0 * hi))
        ),
        cost_renewable=CostSpec(*rng.uniform((5.0, 0.5), (30.0, 6.0)).tolist()),
        cost_system=CostSpec(*rng.uniform((3.0, 0.3), (15.0, 2.0)).tolist()),
        invest_cost=float(rng.uniform(30.0, 3000.0)),
        domain=(0.0, hi),
    )
    return DemandModel(*rng.uniform((6.0, 0.003), (16.0, 0.007)).tolist()), model


def bumped_emissions(model: GridModel) -> GridModel:
    """``model`` with e as a 49-knot table of its own curve, plus a bump of
    +0.01 t/MWh at Q = 6.013 that is gone 1 MW to either side."""
    knots = {float(q): eval_curve(model.emissions, float(q)) for q in np.linspace(*model.domain, 49)}
    knots.update({q: eval_curve(model.emissions, q) for q in (6.012, 6.014)})
    knots[6.013] = eval_curve(model.emissions, 6.013) + 0.01
    return model._replace(emissions=GridCurve(CurveKind.TABULATED, table=tuple(sorted(knots.items()))))


def cliff_emissions(dm: DemandModel, model: GridModel, q_init: float, t: int = 10, drop: float = 0.005) -> GridModel:
    """``model`` with e as a 49-knot table of its own curve, lowered by
    ``drop`` t/MWh from Q_t up, Q_t the capacity of period ``t`` of the
    model's own myopic run from ``q_init``.  Knots at Q_t -+ 1 MW, the right
    one lowered, put a 2 MW cliff of slope about -drop/0.002 between two
    knots, at a period of the path.  e stays nonincreasing, so the grid
    conditions pass, but the reach map falls on the cliff, and a policy that
    stops short of it beats the myopic one."""
    q_t = simulate_myopic(dm, model, SimulationConfig(q_init, t + 1)).records[t].capacity
    knots = {q: eval_curve(model.emissions, q) for q in (*gm.linspace(*model.domain, 49), q_t - 0.001, q_t + 0.001)}
    table = tuple((q, v - drop if q > q_t else v) for q, v in sorted(knots.items()))
    return model._replace(emissions=GridCurve(CurveKind.TABULATED, table=table))


def random_accepted_model(
    rng: np.random.Generator, require_root: bool = False, max_tries: int = 500
) -> tuple[DemandModel, GridModel]:
    """Draw a model satisfying the structural conditions by construction.

    With ``require_root`` the draw is rejected until the deliverability
    threshold is reachable and the revenue/cost gap changes sign inside the
    domain, so the long-run limit solver is guaranteed applicable.
    """
    for _ in range(max_tries):
        market = rng.uniform(6.0, 16.0)
        sensitivity = rng.uniform(0.003, 0.007)
        dm = DemandModel(market_size=market, sensitivity=sensitivity)

        domain = (0.0, rng.uniform(10.0, 18.0))
        model = GridModel(
            emissions=GridCurve(
                CurveKind.EXPONENTIAL_DECAY,
                (rng.uniform(0.25, 0.55), rng.uniform(0.03, 0.10)),
            ),
            delivered=GridCurve(
                CurveKind.TABULATED,
                table=saturating_table(
                    market * rng.uniform(0.45, 0.85), rng.uniform(0.08, 0.25), domain
                ),
            ),
            energy_value=GridCurve(
                CurveKind.EXPONENTIAL_DECAY,
                (rng.uniform(70.0, 140.0), rng.uniform(0.04, 0.10)),
            ),
            cost_renewable=CostSpec(rng.uniform(8.0, 30.0), rng.uniform(1.0, 6.0)),
            cost_system=CostSpec(rng.uniform(3.0, 15.0), rng.uniform(0.3, 2.0)),
            invest_cost=rng.uniform(300.0, 3000.0),
            domain=domain,
        )
        if not require_root:
            return dm, model
        try:
            threshold = find_deliverability_threshold(dm, model)
        except ThresholdUnreachableError:
            continue
        gaps = [
            unconstrained_peak_revenue(dm, s.e) - s.cost
            for s in map(model.state, np.linspace(threshold, domain[1], 64))
        ]
        # the long-run-limit theorem needs the gap to fall strictly past the
        # threshold (cost increasing there); reject draws outside that family
        if gaps[0] > 0.0 > gaps[-1] and all(a > b for a, b in zip(gaps, gaps[1:])):
            return dm, model
    raise RuntimeError("could not draw an admissible random model")


def adversarial_dip_model() -> tuple[DemandModel, GridModel]:
    """A feasible model whose one-step reach map dips below the limit.

    A sharp bump in the non-investment cost (built through the energy-value
    table) combined with a small unit investment cost makes maximal one-step
    jumps overshoot into a low-reach region, breaking monotone reachability
    while every period stays financially feasible.
    """
    dm = DemandModel(market_size=10.0, sensitivity=0.0045)
    domain = (0.5, 12.0)
    knots = np.linspace(domain[0], domain[1], 2401)

    def delivered(q):
        return 8.0 * (1.0 - math.exp(-0.12 * q))

    def energy_value(q):
        bump = 100.0 + 60.0 * math.exp(-(((q - 3.0) / 0.8) ** 2))
        return -bump / delivered(q)

    model = GridModel(
        emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.15)),
        delivered=GridCurve(
            CurveKind.TABULATED, table=tuple((float(q), delivered(q)) for q in knots)
        ),
        energy_value=GridCurve(
            CurveKind.TABULATED, table=tuple((float(q), energy_value(q)) for q in knots)
        ),
        cost_renewable=CostSpec(0.0, 0.0),
        cost_system=CostSpec(0.0, 0.0),
        invest_cost=30.0,
        domain=domain,
    )
    return dm, model


def pick_expanding_state(
    dm: DemandModel, model: GridModel, rng: np.random.Generator, max_tries: int = 200
) -> float:
    """A state in the domain interior where the optimal expansion is positive."""
    lo, hi = model.domain
    for _ in range(max_tries):
        q = rng.uniform(lo + 0.02 * (hi - lo), lo + 0.8 * (hi - lo))
        if decide_at(dm, model.state(q), model.invest_cost).status is ExpansionStatus.EXPANDING:
            return q
    raise RuntimeError("no expanding state found")


def write_fleet_csv(fleet: FleetSpec, path) -> None:
    """``fleet`` as the CSV that ``dispatch.read_fleet_csv`` reads, each number by ``repr``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(FLEET_CSV_COLUMNS)
        for u in fleet.units:
            writer.writerow([repr(u.capacity), repr(u.marginal_cost), repr(u.emission_rate)])


def write_profiles_csv(profiles: HourlyProfiles, path) -> None:
    """``profiles`` as the CSV that ``dispatch.read_profiles_csv`` reads, each number by ``repr``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PROFILE_CSV_COLUMNS)
        # tolist: repr of Python floats, not of numpy scalars
        for hour, (load, cf) in enumerate(zip(profiles.load.tolist(), profiles.wind_cf.tolist())):
            writer.writerow([hour, repr(load), repr(cf)])


def negated(curve: GridCurve) -> GridCurve:
    """``curve`` times -1, of the same kind."""
    if curve.kind is CurveKind.TABULATED:
        return GridCurve(curve.kind, table=tuple((q, -v) for q, v in curve.table))
    if curve.kind is CurveKind.EXPONENTIAL_DECAY:
        return GridCurve(curve.kind, (-curve.coefficients[0], curve.coefficients[1]))
    return GridCurve(curve.kind, tuple(-c for c in curve.coefficients))


def formed_state(q, e, f, pi, c_s, c_r) -> gm.PeriodState:
    """The state of these six numbers, C and C_2 formed from them by the
    formula, in :class:`~vrpplan.grid_model.PeriodState`'s operation order."""
    return gm.PeriodState(q, e, f, pi, c_s, c_r, c_s + c_r - f * pi, c_r - f * pi)


# ---------------------------------------------------------------------------
# The scalar period path as it was written before its per-period constants
# were bound: each body verbatim, but for its name and the references it
# calls.  The float path must give these bodies' bits, types and errors.
# ---------------------------------------------------------------------------


def reference_decide_at(dm: DemandModel, s: gm.PeriodState, k: float) -> dp.Decision:
    """``decide_at``'s float body: states and constants read on every call."""
    q, e, f, pi, c_s, c_r = s[:6]
    if e <= 0:
        raise NetZeroGridError(f"e(Q)={e} at Q={q}: no emissions left to differentiate")
    if f <= 0:
        raise NoSellableCreditsError(f"f(Q)={f} at Q={q}: no credits to sell")
    market, eps = dm.market_size, dm.sensitivity
    price = e / eps
    binding = not market * math.exp(-1.0) <= f  # peak sales M*exp(-1) exceed f(Q), or f(Q) is NaN
    if binding:
        ratio = market / f
        if ratio == math.inf:
            raise NoSellableCreditsError(f"f(Q)={f} at Q={q}: too few credits to price, M/f(Q) overflows")
        price *= math.log(ratio)
    # a price >= 0 and e > 0 pass demand()'s checks
    rev = price * (market * math.exp(-eps * price / e))
    cost = c_s + c_r - f * pi
    tol = BALANCE_TOL * max(abs(rev), abs(cost))  # no floor: near Q = 0 both are tiny
    if not rev >= cost - tol:  # also a NaN revenue
        expansion, status = 0.0, ExpansionStatus.INFEASIBLE
    elif abs(rev - cost) <= tol:
        expansion, status = 0.0, ExpansionStatus.EQUILIBRIUM
    else:
        expansion, status = (rev - cost) / k, ExpansionStatus.EXPANDING
    return dp.Decision(price, binding, rev, expansion, status)


def reference_required_share(s: gm.PeriodState, rev: float) -> float:
    share = max(0.0, s.cost_generator / rev) if rev > 0 else 0.0
    if share >= 1.0:
        raise InfeasibleSharingError(
            f"required share {share:.6f} at Q={s.q} leaves the operator nothing"
        )
    return share


def reference_classify_phase(share: float, expansion: float, feasible: bool) -> dp.Phase:
    if not feasible:
        return dp.Phase.INFEASIBLE
    if expansion > ZERO_TOL:
        return dp.Phase.SPONTANEOUS if share <= ZERO_TOL else dp.Phase.SUPPORTED
    return dp.Phase.EQUILIBRIUM


def reference_period_solution(s: gm.PeriodState, k: float, d: dp.Decision, expansion: float) -> dp.PeriodSolution:
    rev, cost = d.revenue, s.cost
    share = reference_required_share(s, rev)
    financial_binding = abs(cost + k * expansion - rev) <= scaled(BALANCE_TOL, rev, cost)
    return dp.PeriodSolution(
        d.price, expansion, share, rev, d.deliverability_binding, financial_binding,
        reference_classify_phase(share, expansion, True),
    )


def reference_separated_solution(s: gm.PeriodState, k: float, d: dp.Decision):
    rev = d.revenue
    if rev <= 0:
        raise NoRevenueError(f"maximal revenue {rev} at Q={s.q} is nonpositive")
    share = reference_required_share(s, rev)
    expansion = max(0.0, ((1.0 - share) * rev - s.C_S) / k)
    if expansion <= ZERO_TOL:  # equilibrium periods carry an exact zero
        expansion = 0.0

    c_gen = s.cost_generator
    operator_cost = s.C_S + k * expansion
    operator_residual = (1.0 - share) * rev - operator_cost
    generator_residual = share * rev - c_gen

    tol = scaled(BALANCE_TOL, rev, s.cost)
    feasible = operator_residual >= -tol and generator_residual >= -tol
    financial_binding = abs(operator_residual) <= tol

    equivalent = abs(expansion - d.expansion) <= scaled(ZERO_TOL, d.expansion)
    if 0.0 < share and expansion > ZERO_TOL:
        aggregation_gap = operator_cost + c_gen - rev
        equivalent = equivalent and abs(aggregation_gap) <= tol

    solution = dp.PeriodSolution(
        d.price, expansion, share, rev, d.deliverability_binding, financial_binding,
        reference_classify_phase(share, expansion, feasible),
    )
    return solution, rs.SharingSolution(share, operator_residual, generator_residual, equivalent)


def reference_solve_separated_period(dm: DemandModel, model: GridModel, q: float):
    s, k = model.state(q), model.invest_cost
    return reference_separated_solution(s, k, reference_decide_at(dm, s, k))


def reference_find_deliverability_threshold(dm: DemandModel, model: GridModel) -> float:
    target = dm.market_size * math.exp(-1.0)
    lo, hi = model.domain
    if model.delivered_at(lo) >= target:
        return lo
    if model.delivered_at(hi) < target:
        raise ThresholdUnreachableError(
            f"f(Q_max)={model.delivered_at(hi):.6g} GW never reaches peak sales "
            f"{target:.6g} GW"
        )
    width_tol = scaled(ROUNDING_TOL, hi)
    for _ in range(eqm.MAX_ITERATIONS):
        if hi - lo <= width_tol:
            break
        mid = 0.5 * (lo + hi)
        if model.delivered_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def reference_gap(dm: DemandModel, s: gm.PeriodState) -> float:
    return dp.unconstrained_peak_revenue(dm, s.e) - s.cost


def reference_solve_long_run_limit(dm: DemandModel, model: GridModel) -> eqm.EquilibriumResult:
    threshold = reference_find_deliverability_threshold(dm, model)
    domain_hi = model.domain[1]

    def finish(s: gm.PeriodState, bracket: tuple[float, float], iterations: int, capped: bool):
        return eqm.EquilibriumResult(
            capacity_limit=s.q,
            deliverability_threshold=threshold,
            emissions_at_limit=s.e,
            residual=abs(reference_gap(dm, s)),
            bracket=bracket,
            iterations=iterations,
            domain_capped=capped,
        )

    s = model.state(threshold)
    gap = reference_gap(dm, s)
    if gap < -scaled(BALANCE_TOL, s.cost):
        raise InfeasibleAtThresholdError(
            f"cost already exceeds maximal revenue by {-gap:.6g} M$/yr "
            f"at the deliverability threshold Q={threshold:.6g}"
        )
    if abs(gap) <= scaled(BALANCE_TOL, s.cost):
        return finish(s, (threshold, threshold), 0, False)

    hi = min(threshold * eqm.BRACKET_GROWTH + 1.0, domain_hi)
    s = model.state(hi)
    while reference_gap(dm, s) > 0.0 and hi < domain_hi:
        hi = min(hi * eqm.BRACKET_GROWTH, domain_hi)
        s = model.state(hi)
    if reference_gap(dm, s) > 0.0:
        # no sign change inside the domain
        return finish(s, (threshold, domain_hi), 0, True)

    lo = threshold
    bracket = (lo, hi)
    iterations = 0
    for iterations in range(1, eqm.MAX_ITERATIONS + 1):
        s = model.state(0.5 * (lo + hi))
        gap = reference_gap(dm, s)
        if abs(gap) <= scaled(BALANCE_TOL, s.cost) or hi - lo <= scaled(ROUNDING_TOL, hi):
            break
        if gap > 0.0:
            lo = s.q
        else:
            hi = s.q
    return finish(s, bracket, iterations, False)


def reference_simulate_myopic(dm: DemandModel, model: GridModel, cfg: SimulationConfig) -> Trajectory:
    equilibrium = reference_solve_long_run_limit(dm, model)
    limit = equilibrium.capacity_limit
    k = model.invest_cost
    # both the capacity gap and the revenue/cost gap carry their own tolerance,
    # and near the limit the financial one is the wider
    near_limit = limit - scaled(ZERO_TOL, limit)
    records: list[PeriodRecord] = []
    termination = Termination.HORIZON_END
    q_state = cfg.q_init

    for t in range(cfg.horizon):
        s = model.state(q_state)
        d = reference_decide_at(dm, s, k)
        if cfg.stop_at_limit and (s.q >= near_limit or d.status is dp.ExpansionStatus.EQUILIBRIUM):
            records.append(PeriodRecord(t, s, reference_period_solution(s, k, d, 0.0)))
            termination = Termination.REACHED_LIMIT
            break
        if d.status is dp.ExpansionStatus.INFEASIBLE:
            termination = Termination.INFEASIBLE
            break
        solution = reference_period_solution(s, k, d, min(d.expansion, max(0.0, limit - s.q)))
        records.append(PeriodRecord(t, s, solution))
        q_state = s.q + solution.expansion  # the exact recorded transition

    return Trajectory(
        records=tuple(records),
        termination=termination,
        cumulative_expansion=sum(r.solution.expansion for r in records),
        cumulative_emission_index=sum(r.state.e for r in records),
        equilibrium=equilibrium,
    )
