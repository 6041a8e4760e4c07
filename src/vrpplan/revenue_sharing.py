"""Revenue allocation between the program operator and renewable generators.

A policy-controlled fraction ``gamma`` of program revenue is transferred to
generators; the operator keeps the rest and funds system cost plus expansion.
The accounts are strictly separated: a generator surplus (negative generator
net cost) never subsidizes the operator's budget.  The decision
:func:`required_share` takes a state; the solver takes a capacity.
"""

from __future__ import annotations

from typing import NamedTuple

from . import demand_pricing as dp
from . import grid_model as gm
from .errors import InfeasibleSharingError, NoRevenueError
from .serialize import record_dict
from .tolerances import BALANCE_TOL, ZERO_TOL, scaled


class SharingSolution(NamedTuple):
    """Optimal share and budget slacks for one period under separated accounts."""

    share: float
    operator_budget_residual: float  # (1-gamma)R - (C_S + k q), M$/yr
    generator_budget_residual: float  # gamma R - C_2, M$/yr
    equivalent_to_integrated: bool

    to_dict = record_dict


_SPONTANEOUS, _SUPPORTED, _EQUILIBRIUM, _INFEASIBLE = dp.Phase  # bound once, in definition order


def required_share(s: gm.PeriodState, rev: float) -> float:
    """Share of revenue ``rev`` that keeps generators viable: max{0, C_2/rev}.

    Zero when there is no revenue to share.  A share of 1 or more would leave
    the operator nothing for its own strictly positive cost, so that case is
    an error rather than a clamp.  C_2 is the state's, and the clamp gives
    ``max``'s 0.0 at NaN and -0.0.
    """
    share = s.cost_generator / rev if rev > 0 else 0.0
    if not share > 0.0:
        share = 0.0
    if share >= 1.0:
        raise InfeasibleSharingError(
            f"required share {share:.6f} at Q={s.q} leaves the operator nothing"
        )
    return share


def classify_phase(share: float, expansion: float, feasible: bool) -> dp.Phase:
    """Exactly one transition label per (share, expansion, feasibility) input.

    Zero comparisons use the absolute tolerance ZERO_TOL.
    """
    if not feasible:
        return _INFEASIBLE
    if expansion > ZERO_TOL:
        return _SPONTANEOUS if share <= ZERO_TOL else _SUPPORTED
    return _EQUILIBRIUM


def solve_separated_period(
    dm: dp.DemandModel, model: gm.GridModel, q: float
) -> tuple[dp.PeriodSolution, SharingSolution]:
    """Solve the period at capacity ``q``, any real number, under separated accounts and
    compare with the integrated problem: :func:`_separated_solution` at its float state."""
    s, k = model._state_at(q), model.invest_cost
    return _separated_solution(s, k, dp.decide_at(dm, s, k))


def _separated_solution(
    s: gm.PeriodState, k: float, d: dp.Decision
) -> tuple[dp.PeriodSolution, SharingSolution]:
    """The separated-account solution at the state ``s``, from the integrated
    decision ``d`` there, whose expansion is the integrated benchmark.

    Pricing is unchanged (it is a pure revenue problem).  With an interior
    share both budgets bind and their sum recovers the integrated financial
    constraint, so the expansion coincides with the integrated one.  With a
    strict generator surplus (C_2 < 0) the operator cannot tap that surplus,
    and the separated expansion falls short of the integrated benchmark by
    exactly |C_2|/k.
    """
    rev = d.revenue
    if rev <= 0:
        raise NoRevenueError(f"maximal revenue {rev} at Q={s.q} is nonpositive")
    share = required_share(s, rev)
    c_s, c_gen = s.C_S, s.cost_generator
    expansion = ((1.0 - share) * rev - c_s) / k
    if not expansion > ZERO_TOL:  # max(0, .) and then the exact zero of equilibrium periods
        expansion = 0.0

    operator_cost = c_s + k * expansion
    operator_residual = (1.0 - share) * rev - operator_cost
    generator_residual = share * rev - c_gen

    tol = scaled(BALANCE_TOL, rev, s.cost)
    feasible = operator_residual >= -tol and generator_residual >= -tol
    financial_binding = abs(operator_residual) <= tol

    equivalent = abs(expansion - d.expansion) <= scaled(ZERO_TOL, d.expansion)
    if 0.0 < share and expansion > ZERO_TOL:
        aggregation_gap = operator_cost + c_gen - rev
        equivalent = equivalent and abs(aggregation_gap) <= tol

    solution = tuple.__new__(dp.PeriodSolution, (  # as decide_at builds its Decision
        d.price, expansion, share, rev, d.deliverability_binding, financial_binding,
        classify_phase(share, expansion, feasible),
    ))
    return solution, tuple.__new__(SharingSolution, (share, operator_residual, generator_residual, equivalent))
