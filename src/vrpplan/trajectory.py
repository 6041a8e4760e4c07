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
from enum import Enum
from typing import NamedTuple

from . import demand_pricing as dp
from . import equilibrium as eqm
from . import grid_model as gm
from . import revenue_sharing as rs
from .errors import InfeasiblePeriodError
from .serialize import json_integer, json_typed, read_record, record
from .tolerances import BALANCE_TOL, ZERO_TOL, scaled

TRAJECTORY_CSV_COLUMNS = ("t", "Q", "p", "q", "gamma", "R", "phase", "e")


@record
class SimulationConfig:
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
    def from_dict(cls, doc: dict, path: str = "simulation") -> "SimulationConfig":
        # JSON types, not coercions: int(3.7) would run 3 periods, bool("no") is true
        return read_record(cls, doc, path, horizon=json_integer, stop_at_limit=lambda value, at: json_typed(value, bool, at))


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


@record
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


def _max_feasible(dm: dp.DemandModel, s: gm.PeriodState, k: float):
    """The maximal feasible expansion at every entry of an array state:
    :func:`~vrpplan.demand_pricing.decide_at`'s rules on boolean masks, but
    for ulps of ``np.exp`` and ``np.log``.  An entry the scalar rules refuse
    raises their error, the first one's; an infeasible entry raises, the
    first one named; an entry at the long-run equilibrium takes 0."""
    import numpy as np
    q, e, f, _, _, _, cost, _ = s
    market, eps = dm.market_size, dm.sensitivity
    with np.errstate(divide="ignore", over="ignore"):  # M/f(Q) is inf only where the scalar rules raise
        bad = (e <= 0) | (f <= 0) | np.isinf(ratio := market / f)
    if bad.any():
        dp.decide_at(dm, gm.PeriodState(*(float(v[bad][0]) for v in s)), k)
    base = e / eps
    price = np.where(market * dp.PEAK_SHARE > f, base * np.log(ratio), base)
    rev = price * (market * np.exp(-eps * price / e))
    tol = BALANCE_TOL * np.maximum(np.abs(rev), np.abs(cost))
    infeasible = ~(rev >= cost - tol)  # also a NaN revenue
    if infeasible.any():
        raise InfeasiblePeriodError(f"revenue cannot cover cost at Q={q[infeasible][0]}")
    return np.where(np.abs(rev - cost) <= tol, 0.0, (rev - cost) / k)


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


@record
class ReachabilityCertificate:
    holds: bool
    min_margin: float  # worst sampled slope-like margin (primitive or discrete)
    worst_capacity: float
    bound_formula_value: float  # conservative bound from sampled derivative maxima
    max_abs_emissions_slope: float
    max_abs_cost_slope: float
    n_samples: int  # the even samples
    n_knots: int  # the table knots in [q_init, Q*), which join the samples


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

    Two checks, both at the points: ``n_samples`` spaced evenly from the
    start up to the limit, merged in order with every table knot of e, f and
    pi in [q_init, Q*), a point met twice taken once.  The derivative-based
    margin 1 + (M/(exp(1)*eps) e'(Q) - C'(Q))/k with the analytic slopes
    :meth:`GridCurve.slope` and :meth:`GridModel.cost_slope`, and discrete
    slopes of the reach map S(Q) = Q + the maximal feasible expansion, all
    read from one state per point.  It holds iff both stay above -ZERO_TOL.
    A table's slope is constant between knots and read at a knot from its
    right-hand segment, so the margin meets every segment's slope.  Where the
    even samples do not increase strictly, as when the start is at or past
    the limit or a few ulps below it, it holds trivially, with no points:
    margin and slopes 0 at the start, and a bound of 1.  The derivative
    check uses the unconstrained revenue form throughout, so the direct S
    checks are the decisive ones where the deliverability cap still binds.
    :func:`~vrpplan.grid_model.certificate_points` builds the points on
    :func:`~vrpplan.grid_model.numpy_route`'s route, the same floats as a list
    or as one ndarray; a float route's ulps of ``math.log`` are divided by the
    step in a discrete slope.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    limit = (equilibrium or eqm.solve_long_run_limit(dm, model)).capacity_limit
    if (points := gm.certificate_points(model, q_init, limit, n_samples)) is not None:
        qs, n_knots = points
        min_margin, worst_capacity, max_e, max_c = _sampled_margins(dm, model, qs)
        bound = reachability_lower_bound(dm.market_size, dm.sensitivity, model.invest_cost, max_e, max_c)
    else:  # the start is at or past the limit, or so close below that points coincide
        # the bound is 1.0 itself: the formula at zero slopes is NaN where M/(exp(1)*eps) overflows
        min_margin, worst_capacity, max_e, max_c, bound, n_samples, n_knots = 0.0, q_init, 0.0, 0.0, 1.0, 0, 0
    return ReachabilityCertificate(
        holds=min_margin >= -ZERO_TOL,
        min_margin=min_margin,
        worst_capacity=worst_capacity,
        bound_formula_value=bound,
        max_abs_emissions_slope=max_e,
        max_abs_cost_slope=max_c,
        n_samples=n_samples,
        n_knots=n_knots,
    )


_CERTIFICATE = "reachability certificate"


def _sampled_margins(
    dm: dp.DemandModel, model: gm.GridModel, qs
) -> tuple[float, float, float, float]:
    """The least margin at the points ``qs`` and the capacity where it lies,
    then the largest |e'| and |C'| there.

    The margins are the derivative margin at each point and the discrete
    slope of S from each point to the next, at the left one, both from the
    points' states.  ``qs`` is a list of floats, which a float loop takes, or
    an ndarray, which one array call per curve takes, a table's slopes one
    gather from its cached segment slopes.  The float loop takes the stages
    in the array calls' order, so overflow or NaN raises the same
    CurveDomainError on either route.
    A revenue scale M/(exp(1)*eps) past the float range raises a ValueError
    naming ``demand.sensitivity`` first, on either route.
    """
    revenue_scale = dm.market_size / (math.e * dm.sensitivity)
    if revenue_scale == math.inf:
        raise ValueError(f"demand.sensitivity {dm.sensitivity!r}: the certificate's revenue scale M/(exp(1)*eps) overflows")
    k = model.invest_cost

    def margin(s):  # at a float or an array state
        c = model.cost_slope(s)
        e = model.emissions.slope(s.q, s.e)
        return 1.0 + (revenue_scale * e - c) / k, e, c

    if gm.is_array(qs):
        import numpy as np
        with gm.array_arithmetic(_CERTIFICATE):
            s = model.state(qs)
            reach = s.q + _max_feasible(dm, s, k)
            margins, e_slopes, c_slopes = margin(s)
            discrete = np.diff(reach) / np.diff(qs)
        candidates = np.concatenate([margins, discrete])
        worst = int(np.argmin(candidates))
        return (
            float(candidates[worst]),
            float(qs[worst % len(qs)]),
            float(np.max(np.abs(e_slopes))),
            float(np.max(np.abs(c_slopes))),
        )

    states, expansions = staged_expansions(dm, model, qs, _CERTIFICATE)
    reach = [s.q + x for s, x in zip(states, expansions)]
    terms = gm.finite_samples(_CERTIFICATE, "slopes", [margin(s) for s in states], qs)
    discrete = [(b - a) / (y - x) if y != x else math.nan  # 0/0 where two samples coincide
                for a, b, x, y in zip(reach, reach[1:], qs, qs[1:])]
    gm.finite_samples(_CERTIFICATE, "discrete slope", discrete, qs)
    margins, e_slopes, c_slopes = zip(*terms)
    candidates = margins + tuple(discrete)
    worst = min(range(len(candidates)), key=candidates.__getitem__)  # the first least, as np.argmin
    return candidates[worst], qs[worst % len(qs)], max(map(abs, e_slopes)), max(map(abs, c_slopes))


def staged_expansions(
    dm: dp.DemandModel, model: gm.GridModel, qs: list, what: str
) -> tuple[list[gm.PeriodState], list[float]]:
    """The states at the floats ``qs`` and the maximal feasible expansion at
    each, in the stages of the array route's state and :func:`_max_feasible`:
    every state, every decision (prices first), then each feasibility.  A
    stage left non-finite raises a CurveDomainError naming ``what``, where the
    array call's arithmetic raises one; an infeasible state raises as there.
    """
    k = model.invest_cost
    states = gm.finite_samples(what, "state", [model.state(q) for q in qs], qs)
    decisions = [dp.decide_at(dm, s, k) for s in states]
    gm.finite_samples(what, "decision", [(d.price, d.revenue, d.expansion) for d in decisions], qs)
    return states, [_checked(d, s.q).expansion for s, d in zip(states, decisions)]


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------


def _period_solution(s: gm.PeriodState, k: float, d: dp.Decision, expansion: float) -> dp.PeriodSolution:
    """Full per-period telemetry for the decision ``d`` at a state, expanding by ``expansion``."""
    rev, cost = d.revenue, s.cost
    share = rs.required_share(s, rev)
    financial_binding = abs(cost + k * expansion - rev) <= scaled(BALANCE_TOL, rev, cost)
    return tuple.__new__(dp.PeriodSolution, (  # as decide_at builds its Decision
        d.price, expansion, share, rev, d.deliverability_binding, financial_binding,
        rs.classify_phase(share, expansion, True),
    ))


def solve_period(dm: dp.DemandModel, model: gm.GridModel, q_state: float) -> dp.PeriodSolution:
    """Integrated single-period optimum at capacity ``q_state``, any real
    number, with full telemetry: :func:`_solve_at` at its float state."""
    return _solve_at(dm, model._state_at(q_state), model.invest_cost)


def _solve_at(dm: dp.DemandModel, s: gm.PeriodState, k: float) -> dp.PeriodSolution:
    """The integrated single-period optimum at the state ``s``; an infeasible state raises."""
    d = _checked(dp.decide_at(dm, s, k), s.q)
    return _period_solution(s, k, d, d.expansion)


def simulate_myopic(
    dm: dp.DemandModel, model: gm.GridModel, cfg: SimulationConfig
) -> Trajectory:
    """Run the myopic policy from the configured state.

    Each period builds one grid state, by the model's float kernel bound
    once per run, and makes one decision on it
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
    # bound once per run; decide_at is looked up on its module, so a replaced dp.decide_at is the one called
    state, decide, stop = model._state_at, dp.decide_at, cfg.stop_at_limit
    equilibrium_status, infeasible_status = dp.ExpansionStatus.EQUILIBRIUM, dp.ExpansionStatus.INFEASIBLE

    for t in range(cfg.horizon):
        s = state(q_state)
        d = decide(dm, s, k)
        q = s.q
        if stop and (q >= near_limit or d.status is equilibrium_status):
            records.append(PeriodRecord(t, s, _period_solution(s, k, d, 0.0)))
            termination = Termination.REACHED_LIMIT
            break
        if d.status is infeasible_status:
            termination = Termination.INFEASIBLE
            break
        expansion = min(d.expansion, max(0.0, limit - q))  # max writes 0.0 where limit - q is -0.0 or NaN
        records.append(tuple.__new__(PeriodRecord, (t, s, _period_solution(s, k, d, expansion))))
        q_state = q + expansion  # the exact recorded transition

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


def csv_text(columns, rows) -> str:
    """A header of ``columns``, then each row's values by ``repr``, whose read
    back is exact; lines end in LF, which a file's ``newline`` may translate."""
    return "\n".join([",".join(columns), *(",".join(map(repr, row)) for row in rows)]) + "\n"
