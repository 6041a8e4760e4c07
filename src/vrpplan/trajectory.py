"""Multi-period simulation: state transition, myopic policy, reachability.

The state is cumulative capacity Q_t, advanced by Q_{t+1} = Q_t + q_t with
integer-period bookkeeping (the recorded transition is exact, no drift).  One
loop, :func:`simulate_myopic`, runs the myopic policy, optimal wherever the
reach map is nondecreasing (:func:`certify_monotone_reachability` checks it):
each period charges the closed-form price and expands to the maximal feasible
level, capped by the long-run limit (no overbuild).  Sales never exceed
delivered output and expansion never exceeds what revenue leaves after cost,
with no banking of cash or credits across periods.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import demand_pricing as dp
from . import equilibrium as eqm
from . import grid_model as gm
from . import revenue_sharing as rs
from .errors import InfeasiblePeriodError
from .serialize import Serializable, json_integer, json_number, json_typed
from .tolerances import BALANCE_TOL, ZERO_TOL, scaled

TRAJECTORY_CSV_COLUMNS = ("t", "Q", "p", "q", "gamma", "R", "phase", "e")


@dataclass(frozen=True)
class SimulationConfig(Serializable):
    """Initial state and horizon for a run; periods are abstract (default years)."""

    q_init: float
    horizon: int
    stop_at_limit: bool = True

    def __post_init__(self):
        if not 0.0 <= self.q_init < math.inf:
            raise ValueError("q_init must be nonnegative and finite")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimulationConfig":
        # JSON types, not coercions: int(3.7) would run 3 periods, bool("no") is true
        json_typed(doc, dict, "simulation")
        return cls(
            q_init=json_number(doc.get("q_init"), "simulation.q_init"),
            horizon=json_integer(doc.get("horizon"), "simulation.horizon"),
            stop_at_limit=json_typed(doc.get("stop_at_limit", True), bool, "simulation.stop_at_limit"),
        )


class Termination(Enum):
    HORIZON_END = "horizon_end"
    REACHED_LIMIT = "reached_limit"
    INFEASIBLE = "infeasible"


class PeriodRecord(NamedTuple):
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


def _checked(d: dp.Decision, q: float) -> dp.Decision:
    """``d`` itself, unless revenue cannot cover cost at ``q`` even without expansion."""
    if d.status is dp.ExpansionStatus.INFEASIBLE:
        raise InfeasiblePeriodError(f"revenue cannot cover cost at Q={q}")
    return d


def _max_feasible(dm: dp.DemandModel, s: gm.PeriodState, k: float) -> float:
    d = dp.decide_at(dm, s, k)
    if not gm.is_array(s.q):
        return _checked(d, s.q).expansion
    infeasible = d.status == dp.ExpansionStatus.INFEASIBLE
    if infeasible.any():
        raise InfeasiblePeriodError(f"revenue cannot cover cost at Q={s.q[infeasible][0]}")
    return d.expansion


def max_feasible_expansion(dm: dp.DemandModel, model: gm.GridModel, q: float) -> float:
    """Maximal one-step expansion at state Q under optimal pricing.

    Equals the optimal-expansion value (R* - C)/k clamped at zero; raises when
    the period is infeasible outright (revenue below cost at q = 0).  ``q``
    may be an array: every entry at once, raising if any entry is infeasible.
    """
    return _max_feasible(dm, model.state(q), model.invest_cost)


def reach_map(dm: dp.DemandModel, model: gm.GridModel, q: float) -> float:
    """One-step reachability S(Q) = Q + max feasible expansion, at a float or an ndarray."""
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


def certify_monotone_reachability(
    dm: dp.DemandModel,
    model: gm.GridModel,
    n_samples: int = 200,
    *,
    q_init: float,
    equilibrium: eqm.EquilibriumResult | None = None,
) -> ReachabilityCertificate:
    """Check that the reach map is nondecreasing between the start ``q_init``
    and the limit.

    Two checks, both sampled at ``n_samples`` points spaced evenly from the
    start up to the limit: the derivative-based margin
    1 + (M/(exp(1)*eps) e'(Q) - C'(Q))/k with the analytic slopes
    :meth:`GridCurve.slope` and :meth:`GridModel.cost_slope`, and discrete
    slopes of S itself.  The certificate holds iff both stay above -ZERO_TOL.
    Where the points do not increase strictly, as when the start is at or
    past the limit or a few ulps below it, it holds trivially, with no samples.
    The derivative check uses the unconstrained revenue form throughout, so
    the direct S samples are the decisive check where the deliverability cap
    still binds.

    One formula, on one of two routes chosen by whether numpy is loaded.
    Loaded, the samples are an array and each term is one array call, as in
    ``verify`` and every in-process batch.  Not loaded, as in ``simulate``, a
    float loop over the same points gives the same results, but for ulps of
    ``math.exp`` and ``math.log`` against numpy's (which a discrete slope
    divides by the step), and loads no numpy.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    result = equilibrium or eqm.solve_long_run_limit(dm, model)
    lo, hi = q_init, result.capacity_limit
    if "numpy" in sys.modules:
        import numpy as np
        qs = np.linspace(lo, hi, n_samples, endpoint=False)
        increasing = bool(np.all(qs[:-1] < qs[1:]))
    else:
        step = (hi - lo) / n_samples
        qs = [lo + i * step for i in range(n_samples)]  # np.linspace's points, bit for bit
        increasing = all(map(float.__lt__, qs, qs[1:]))
    if not increasing:  # the start is at or past the limit, or so close below that points coincide
        return ReachabilityCertificate(
            holds=True,
            min_margin=0.0,
            worst_capacity=lo,
            bound_formula_value=1.0,
            max_abs_emissions_slope=0.0,
            max_abs_cost_slope=0.0,
            n_samples=0,
        )
    min_margin, worst_capacity, max_e, max_c = _sampled_margins(dm, model, qs)
    return ReachabilityCertificate(
        holds=min_margin >= -ZERO_TOL,
        min_margin=min_margin,
        worst_capacity=worst_capacity,
        bound_formula_value=reachability_lower_bound(
            dm.market_size, dm.sensitivity, model.invest_cost, max_e, max_c
        ),
        max_abs_emissions_slope=max_e,
        max_abs_cost_slope=max_c,
        n_samples=n_samples,
    )


_CERTIFICATE = "reachability certificate"


def _sampled_margins(
    dm: dp.DemandModel, model: gm.GridModel, qs
) -> tuple[float, float, float, float]:
    """The least margin at the samples ``qs`` and the capacity where it lies,
    then the largest |e'| and |C'| there.

    The margins are the derivative margin at each sample and the discrete
    slope of S from each sample to the next, which lies at the left one.  An
    ndarray ``qs`` takes one array call per term, whose overflow or NaN
    :func:`~vrpplan.grid_model.array_arithmetic` turns into a CurveDomainError.
    A list of floats takes a float loop through the same functions, stage by
    stage in the array calls' order, so the first failure is the array
    route's: where float arithmetic leaves a stage non-finite, that stage
    raises the same CurveDomainError.
    """
    revenue_scale = dm.market_size / (math.e * dm.sensitivity)
    k = model.invest_cost

    def margin(q):  # at a float or an ndarray
        c = model.cost_slope(q)  # first: it checks q against the domain
        e = model.emissions.slope(q)
        return 1.0 + (revenue_scale * e - c) / k, e, c

    if gm.is_array(qs):
        import numpy as np
        with gm.array_arithmetic(_CERTIFICATE):
            margins, e_slopes, c_slopes = margin(qs)
            discrete = np.diff(reach_map(dm, model, qs)) / np.diff(qs)
        candidates = np.concatenate([margins, discrete])
        worst = int(np.argmin(candidates))
        return (
            float(candidates[worst]),
            float(qs[worst % len(qs)]),
            float(np.max(np.abs(e_slopes))),
            float(np.max(np.abs(c_slopes))),
        )

    terms = gm.finite_samples(_CERTIFICATE, "slopes", [margin(q) for q in qs], qs)
    states, expansions = staged_expansions(dm, model, qs, _CERTIFICATE)
    reach = [s.q + x for s, x in zip(states, expansions)]
    discrete = gm.finite_samples(
        _CERTIFICATE,
        "discrete slope",
        [
            (b - a) / (y - x) if y != x else math.nan  # 0/0 where two samples coincide
            for a, b, x, y in zip(reach, reach[1:], qs, qs[1:])
        ],
        qs,
    )
    margins, e_slopes, c_slopes = zip(*terms)
    candidates = margins + tuple(discrete)
    worst = min(range(len(candidates)), key=candidates.__getitem__)  # the first least, as np.argmin
    return candidates[worst], qs[worst % len(qs)], max(map(abs, e_slopes)), max(map(abs, c_slopes))


def staged_expansions(
    dm: dp.DemandModel, model: gm.GridModel, qs: list, what: str
) -> tuple[list[gm.PeriodState], list[float]]:
    """The states at the floats ``qs`` and the maximal feasible expansion at
    each, in the stages of an array call of :func:`max_feasible_expansion`:
    every state, every decision (prices first), then each feasibility.  A
    stage left non-finite raises a CurveDomainError naming ``what``, where the
    array call's arithmetic raises one; an infeasible state raises as there.
    """
    k = model.invest_cost
    states = gm.finite_samples(what, "state", [model.state(q) for q in qs], qs)
    decisions = [dp.decide_at(dm, s, k) for s in states]
    gm.finite_samples(
        what, "decision", [(d.price, d.revenue, s.cost, d.expansion) for s, d in zip(states, decisions)], qs
    )
    return states, [_checked(d, s.q).expansion for s, d in zip(states, decisions)]


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------


def _period_solution(s: gm.PeriodState, k: float, d: dp.Decision, expansion: float) -> dp.PeriodSolution:
    """Full per-period telemetry for the decision ``d`` at a state, expanding by ``expansion``."""
    rev, cost = d.revenue, s.cost
    share = rs.required_share(s, rev)
    financial_binding = abs(cost + k * expansion - rev) <= scaled(BALANCE_TOL, rev, cost)
    return dp.PeriodSolution(
        d.price, expansion, share, rev, d.deliverability_binding, financial_binding,
        rs.classify_phase(share, expansion, True),
    )


def solve_period(dm: dp.DemandModel, model: gm.GridModel, q_state: float) -> dp.PeriodSolution:
    """Integrated single-period optimum at capacity ``q_state`` with full telemetry."""
    s, k = model.state(q_state), model.invest_cost
    d = _checked(dp.decide_at(dm, s, k), s.q)
    return _period_solution(s, k, d, d.expansion)


def simulate_myopic(
    dm: dp.DemandModel, model: gm.GridModel, cfg: SimulationConfig
) -> Trajectory:
    """Run the myopic policy from the configured state.

    Each period builds one grid state and makes one decision on it
    (:func:`~vrpplan.demand_pricing.decide_at`).  With ``stop_at_limit`` a
    state at the long-run limit (by capacity, or by its equilibrium status)
    is recorded without expansion and ends the run.  An infeasible state ends
    it unrecorded.  Otherwise the period charges the closed-form price and
    expands by (R* - C)/k, capped at Q* - Q.
    """
    equilibrium = eqm.solve_long_run_limit(dm, model)
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
        d = dp.decide_at(dm, s, k)
        if cfg.stop_at_limit and (s.q >= near_limit or d.status is dp.ExpansionStatus.EQUILIBRIUM):
            records.append(PeriodRecord(t, s, _period_solution(s, k, d, 0.0)))
            termination = Termination.REACHED_LIMIT
            break
        if d.status is dp.ExpansionStatus.INFEASIBLE:
            termination = Termination.INFEASIBLE
            break
        solution = _period_solution(s, k, d, min(d.expansion, max(0.0, limit - s.q)))
        records.append(PeriodRecord(t, s, solution))
        q_state = s.q + solution.expansion  # the exact recorded transition

    return Trajectory(
        records=tuple(records),
        termination=termination,
        cumulative_expansion=sum(r.solution.expansion for r in records),
        cumulative_emission_index=sum(r.state.e for r in records),
        equilibrium=equilibrium,
    )


# ---------------------------------------------------------------------------
# Serialization: CSV (one row per period) and JSON
# ---------------------------------------------------------------------------


def trajectory_csv_rows(trajectory: Trajectory) -> list[tuple]:
    """One row per period, in the order of ``TRAJECTORY_CSV_COLUMNS``."""
    return [
        (r.t, r.capacity, r.solution.price, r.solution.expansion, r.solution.share,
         r.solution.revenue, r.solution.phase.value, r.state.e)
        for r in trajectory.records
    ]


def csv_text(columns, rows, newline: str = "\n") -> str:
    """A header of ``columns``, then each row's values by ``repr``, whose read back is exact."""
    return newline.join([",".join(columns), *(",".join(map(repr, row)) for row in rows)]) + newline


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Fixed column order: t, Q, p, q, gamma, R, phase, e; lines end in CRLF."""
    with open(path, "w", newline="") as handle:
        handle.write(csv_text(TRAJECTORY_CSV_COLUMNS, trajectory_csv_rows(trajectory), "\r\n"))
