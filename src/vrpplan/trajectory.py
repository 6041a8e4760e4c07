"""Multi-period simulation: state transition, myopic policy, reachability.

The state is cumulative capacity Q_t, advanced by Q_{t+1} = Q_t + q_t with
integer-period bookkeeping (the recorded transition is exact, no drift).  The
myopic policy expands to the maximal feasible level each period, capped by the
long-run limit (no overbuild); per-period feasibility is enforced with no
banking of cash or credits across periods.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import demand_pricing as dp
from . import equilibrium as eqm
from . import grid_model as gm
from . import revenue_sharing as rs
from .errors import InfeasiblePeriodError
from .serialize import Serializable, json_number
from .tolerances import BALANCE_TOL, ZERO_TOL, scaled

TRAJECTORY_CSV_COLUMNS = ("t", "Q", "p", "q", "gamma", "R", "phase", "e")


@dataclass(frozen=True)
class SimulationConfig(Serializable):
    """Initial state and horizon for a run; periods are abstract (default years)."""

    q_init: float
    horizon: int
    stop_at_limit: bool = True
    period_label: str = "year"

    def __post_init__(self):
        if not 0.0 <= self.q_init < math.inf:
            raise ValueError("q_init must be nonnegative and finite")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimulationConfig":
        # JSON types, not coercions: int(3.7) would run 3 periods, bool("no") is true
        horizon = doc["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise ValueError(f"simulation.horizon must be an integer, got {horizon!r}")
        stop_at_limit = doc.get("stop_at_limit", True)
        if not isinstance(stop_at_limit, bool):
            raise ValueError(
                f"simulation.stop_at_limit must be true or false, got {stop_at_limit!r}"
            )
        return cls(
            q_init=json_number(doc["q_init"], "simulation.q_init"),
            horizon=horizon,
            stop_at_limit=stop_at_limit,
            period_label=str(doc.get("period_label", "year")),
        )


class Termination(Enum):
    HORIZON_END = "horizon_end"
    REACHED_LIMIT = "reached_limit"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class PeriodRecord:
    t: int
    state: gm.PeriodState  # the grid at this period's capacity
    solution: dp.PeriodSolution

    @property
    def capacity(self) -> float:
        return self.state.q


@dataclass(frozen=True)
class Trajectory:
    records: tuple[PeriodRecord, ...]
    termination: Termination
    cumulative_expansion: float
    cumulative_emission_index: float  # sum of e(Q_t) over recorded periods
    equilibrium: eqm.EquilibriumResult  # the long-run limit the run was capped at

    @property
    def capacity_limit(self) -> float:
        return self.equilibrium.capacity_limit

    def to_dict(self) -> dict:
        return {
            "termination": self.termination.value,
            "cumulative_expansion": self.cumulative_expansion,
            "cumulative_emission_index": self.cumulative_emission_index,
            "capacity_limit": self.capacity_limit,
            "records": [
                {"t": r.t, "capacity": r.capacity, **r.solution.to_dict()}
                for r in self.records
            ],
        }


def _max_feasible(dm: dp.DemandModel, s: gm.PeriodState, k: float) -> float:
    expansion, status = dp.expansion_at(dm, s, k)
    if status is dp.ExpansionStatus.INFEASIBLE:
        raise InfeasiblePeriodError(f"revenue cannot cover cost at Q={s.q}")
    return expansion


def max_feasible_expansion(dm: dp.DemandModel, model: gm.GridModel, q: float) -> float:
    """Maximal one-step expansion at state Q under optimal pricing.

    Equals the optimal-expansion value (R* - C)/k clamped at zero; raises when
    the period is infeasible outright (revenue below cost at q = 0).
    """
    return _max_feasible(dm, model.state(q), model.invest_cost)


def reach_map(dm: dp.DemandModel, model: gm.GridModel, q: float) -> float:
    """One-step reachability S(Q) = Q + max feasible expansion."""
    s = model.state(q)
    return s.q + _max_feasible(dm, s, model.invest_cost)


def reachability_lower_bound(
    market_size: float,
    sensitivity: float,
    invest_cost: float,
    max_abs_emissions_slope: float,
    max_abs_cost_slope: float,
) -> float:
    """Conservative lower bound on the reach-map slope from derivative caps.

    1 - (M/(exp(1)*eps) * max|e'| + max|C'|) / k; nonnegative values certify
    that one-step reachability is monotone, hence the myopic policy optimal.
    """
    revenue_scale = market_size / (math.e * sensitivity)
    return 1.0 - (revenue_scale * max_abs_emissions_slope + max_abs_cost_slope) / invest_cost


@dataclass(frozen=True)
class ReachabilityCertificate(Serializable):
    holds: bool
    min_margin: float  # worst sampled slope-like margin (primitive or discrete)
    worst_capacity: float
    bound_formula_value: float  # conservative bound from sampled derivative maxima
    max_abs_emissions_slope: float
    max_abs_cost_slope: float
    n_samples: int


@gm.array_arithmetic("reachability certificate")
def certify_monotone_reachability(
    dm: dp.DemandModel,
    model: gm.GridModel,
    n_samples: int = 200,
    q_init: float | None = None,
    equilibrium: eqm.EquilibriumResult | None = None,
) -> ReachabilityCertificate:
    """Check that the reach map is nondecreasing between the start and the limit.

    Two routes, both sampled: the derivative-based margin
    1 + (M/(exp(1)*eps) e'(Q) - C'(Q))/k with the analytic slopes
    :meth:`GridCurve.slope` and :meth:`GridModel.cost_slope`, evaluated on
    the whole sample array at once, and discrete slopes of S itself.
    The certificate holds iff both stay above -ZERO_TOL.  The derivative route
    uses the unconstrained revenue form throughout, so the direct S samples
    are the decisive check where the deliverability cap still binds.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    result = equilibrium or eqm.solve_long_run_limit(dm, model)
    lo = model.domain[0] if q_init is None else q_init
    hi = result.capacity_limit
    if hi <= lo:
        return ReachabilityCertificate(
            holds=True,
            min_margin=0.0,
            worst_capacity=lo,
            bound_formula_value=1.0,
            max_abs_emissions_slope=0.0,
            max_abs_cost_slope=0.0,
            n_samples=0,
        )

    qs = np.linspace(lo, hi, n_samples, endpoint=False)
    revenue_scale = dm.market_size / (math.e * dm.sensitivity)
    k = model.invest_cost
    c_slopes = model.cost_slope(qs)  # first: it checks qs against the domain
    e_slopes = model.emissions.slope(qs)
    margins = 1.0 + (revenue_scale * e_slopes - c_slopes) / k

    reach = np.array([reach_map(dm, model, q) for q in qs])
    discrete = np.diff(reach) / np.diff(qs)

    candidates = np.concatenate([margins, discrete])
    candidate_qs = np.concatenate([qs, qs[:-1]])
    worst = int(np.argmin(candidates))
    min_margin = float(candidates[worst])

    max_e = float(np.max(np.abs(e_slopes)))
    max_c = float(np.max(np.abs(c_slopes)))
    return ReachabilityCertificate(
        holds=min_margin >= -ZERO_TOL,
        min_margin=min_margin,
        worst_capacity=float(candidate_qs[worst]),
        bound_formula_value=reachability_lower_bound(
            dm.market_size, dm.sensitivity, k, max_e, max_c
        ),
        max_abs_emissions_slope=max_e,
        max_abs_cost_slope=max_c,
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------


def _period_solution(
    dm: dp.DemandModel, s: gm.PeriodState, k: float, price: float, expansion: float
) -> dp.PeriodSolution:
    """Full per-period telemetry for a (price, expansion) decision at a state."""
    sales = dp.demand(dm, price, s.e)
    rev = price * sales
    cost = s.cost
    share = rs.required_share(s, rev)
    return dp.PeriodSolution(
        price=price,
        expansion=expansion,
        share=share,
        revenue=rev,
        deliverability_binding=sales >= s.f - scaled(ZERO_TOL, s.f),
        financial_binding=abs(cost + k * expansion - rev) <= scaled(BALANCE_TOL, rev, cost),
        phase=rs.classify_phase(share, expansion, True),
    )


def period_at(dm: dp.DemandModel, s: gm.PeriodState, k: float) -> dp.PeriodSolution:
    """Integrated single-period optimum at a state with full telemetry."""
    expansion = _max_feasible(dm, s, k)
    price, _ = dp.price_at(dm, s)
    return _period_solution(dm, s, k, price, expansion)


def solve_period(dm: dp.DemandModel, model: gm.GridModel, q_state: float) -> dp.PeriodSolution:
    """:func:`period_at` the grid state at capacity ``q_state``."""
    return period_at(dm, model.state(q_state), model.invest_cost)


def _feasible(
    dm: dp.DemandModel, s: gm.PeriodState, k: float, price: float, expansion: float, limit: float
) -> bool:
    # deliverability, the financial constraint and the no-overbuild cap
    if price < 0 or expansion < 0:
        return False
    sales = dp.demand(dm, price, s.e)
    rev = price * sales
    cost = s.cost
    return (
        sales <= s.f + scaled(ZERO_TOL, s.f)
        and cost + k * expansion <= rev + scaled(BALANCE_TOL, rev, cost)
        and expansion <= limit - s.q + scaled(ZERO_TOL, limit)
    )


def _myopic(dm: dp.DemandModel, s: gm.PeriodState, k: float, limit: float) -> tuple[float, float]:
    price, _ = dp.price_at(dm, s)
    return price, min(_max_feasible(dm, s, k), max(0.0, limit - s.q))


def myopic_rule(
    dm: dp.DemandModel, model: gm.GridModel, limit: float
) -> Callable[[int, float], tuple[float, float]]:
    """Per-period rule: optimal price, maximal expansion capped at the limit."""

    def decide(t: int, q_state: float) -> tuple[float, float]:
        return _myopic(dm, model.state(q_state), model.invest_cost, limit)

    return decide


def _at_limit(dm: dp.DemandModel, s: gm.PeriodState, k: float, limit: float) -> bool:
    # State-based test: both the capacity gap and the revenue/cost gap carry
    # their own tolerance, and near the limit the financial one is the wider.
    if s.q >= limit - scaled(ZERO_TOL, limit):
        return True
    return dp.expansion_at(dm, s, k).status is dp.ExpansionStatus.EQUILIBRIUM


def _simulate(
    dm: dp.DemandModel,
    model: gm.GridModel,
    cfg: SimulationConfig,
    decide: Callable[[int, gm.PeriodState], tuple[float, float]],
    equilibrium: eqm.EquilibriumResult,
) -> Trajectory:
    # one grid state per period serves the limit test, the decision, the
    # feasibility check and the record
    limit = equilibrium.capacity_limit
    k = model.invest_cost
    records: list[PeriodRecord] = []
    termination = Termination.HORIZON_END
    q_state = cfg.q_init

    for t in range(cfg.horizon):
        s = model.state(q_state)
        if cfg.stop_at_limit and _at_limit(dm, s, k, limit):
            price, _ = dp.price_at(dm, s)
            records.append(PeriodRecord(t, s, _period_solution(dm, s, k, price, 0.0)))
            termination = Termination.REACHED_LIMIT
            break
        try:
            price, expansion = decide(t, s)
        except InfeasiblePeriodError:
            termination = Termination.INFEASIBLE
            break
        if not _feasible(dm, s, k, price, expansion, limit):
            termination = Termination.INFEASIBLE
            break
        solution = _period_solution(dm, s, k, price, expansion)
        records.append(PeriodRecord(t, s, solution))
        q_state = s.q + solution.expansion  # the exact recorded transition

    return Trajectory(
        records=tuple(records),
        termination=termination,
        cumulative_expansion=sum(r.solution.expansion for r in records),
        cumulative_emission_index=sum(r.state.e for r in records),
        equilibrium=equilibrium,
    )


def simulate_myopic(
    dm: dp.DemandModel, model: gm.GridModel, cfg: SimulationConfig
) -> Trajectory:
    """Run the maximal-feasible-expansion policy from the configured state."""
    result = eqm.solve_long_run_limit(dm, model)
    k, limit = model.invest_cost, result.capacity_limit
    return _simulate(dm, model, cfg, lambda t, s: _myopic(dm, s, k, limit), result)


def simulate_policy(
    dm: dp.DemandModel,
    model: gm.GridModel,
    cfg: SimulationConfig,
    policy: Callable[[int, float], tuple[float, float]],
) -> Trajectory:
    """Run an arbitrary per-period rule (t, Q_t) -> (price, expansion).

    Every decision is validated against deliverability, the financial
    constraint, and the no-overbuild cap; the first violation truncates the
    trajectory with an infeasible status.
    """
    result = eqm.solve_long_run_limit(dm, model)
    return _simulate(dm, model, cfg, lambda t, s: policy(t, s.q), result)


# ---------------------------------------------------------------------------
# Serialization: CSV (one row per period) and JSON
# ---------------------------------------------------------------------------


def trajectory_csv_rows(trajectory: Trajectory) -> list[dict]:
    rows = []
    for r in trajectory.records:
        rows.append(
            {
                "t": r.t,
                "Q": r.capacity,
                "p": r.solution.price,
                "q": r.solution.expansion,
                "gamma": r.solution.share,
                "R": r.solution.revenue,
                "phase": r.solution.phase.value,
                "e": r.state.e,
            }
        )
    return rows


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Fixed column order: t, Q, p, q, gamma, R, phase, e.

    Values are written with repr so a read back recovers identical floats.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRAJECTORY_CSV_COLUMNS)
        for row in trajectory_csv_rows(trajectory):
            writer.writerow([repr(v) for v in row.values()])


def read_trajectory_csv(path) -> list[dict]:
    rows = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != TRAJECTORY_CSV_COLUMNS:
            raise ValueError(f"unexpected trajectory CSV header in {path}")
        for raw in reader:
            rows.append(
                {c: (int if c in ("t", "phase") else float)(raw[c]) for c in TRAJECTORY_CSV_COLUMNS}
            )
    return rows
