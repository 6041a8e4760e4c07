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


def required_share(s: gm.PeriodState, rev: float) -> float:
    """Share of revenue ``rev`` that keeps generators viable: max{0, C_2/rev}.

    Zero when there is no revenue to share.  A share of 1 or more would leave
    the operator nothing for its own strictly positive cost, so that case is
    an error rather than a clamp.
    """
    share = max(0.0, s.cost_generator / rev) if rev > 0 else 0.0
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
        return dp.Phase.INFEASIBLE
    if expansion > ZERO_TOL:
        return dp.Phase.SPONTANEOUS if share <= ZERO_TOL else dp.Phase.SUPPORTED
    return dp.Phase.EQUILIBRIUM


def solve_separated_period(
    dm: dp.DemandModel, model: gm.GridModel, q: float
) -> tuple[dp.PeriodSolution, SharingSolution]:
    """Solve the period at capacity ``q`` under separated accounts and compare
    with the integrated problem.

    Pricing is unchanged (it is a pure revenue problem).  With an interior
    share both budgets bind and their sum recovers the integrated financial
    constraint, so the expansion coincides with the integrated one.  With a
    strict generator surplus (C_2 < 0) the operator cannot tap that surplus,
    and the separated expansion falls short of the integrated benchmark by
    exactly |C_2|/k.
    """
    s, k = model.state(q), model.invest_cost
    d = dp.decide_at(dm, s, k)  # also the integrated benchmark's expansion
    rev = d.revenue
    if rev <= 0:
        raise NoRevenueError(f"maximal revenue {rev} at Q={s.q} is nonpositive")
    share = required_share(s, rev)
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
        classify_phase(share, expansion, feasible),
    )
    return solution, SharingSolution(share, operator_residual, generator_residual, equivalent)
