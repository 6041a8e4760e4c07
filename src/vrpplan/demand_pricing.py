"""Program demand, revenue, and the two-regime closed-form optimal price.

Demand for the renewable premium is exponential in the effective abatement
price p/e(Q): D = M * exp(-eps * p / e(Q)).  The sensitivity eps is treated as
unit-bearing (it absorbs the $/ton conversion), so any consistent price and
intensity units work as long as the scenario declares them consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import grid_model as gm
from .errors import NetZeroGridError, NoSellableCreditsError
from .serialize import Serializable, read_numbers, record_dict
from .tolerances import BALANCE_TOL, CERTIFY_TOL, ZERO_TOL


@dataclass(frozen=True)
class DemandModel(Serializable):
    """Voluntary-program demand.

    ``market_size`` is the demand at zero premium (GW); ``sensitivity`` is the
    exponential decay rate in the effective price.  Both are positive and
    finite, and so is 1/sensitivity, which scales every price and revenue.
    """

    market_size: float
    sensitivity: float

    def __post_init__(self):
        # builtin floats, as GridCurve holds: a numpy scalar would make the float routes numpy arithmetic
        object.__setattr__(self, "market_size", float(self.market_size))
        object.__setattr__(self, "sensitivity", float(self.sensitivity))
        if not 0.0 < self.market_size < math.inf:
            raise ValueError("demand.market_size must be positive and finite")
        if not (0.0 < self.sensitivity < math.inf and 1.0 / self.sensitivity < math.inf):
            raise ValueError("demand.sensitivity and its reciprocal must be positive and finite")

    @classmethod
    def from_dict(cls, doc: dict) -> "DemandModel":
        return read_numbers(cls, doc, "demand")


class Phase(Enum):
    """Transition regime of a period: see :func:`vrpplan.revenue_sharing.classify_phase`."""

    SPONTANEOUS = 1  # gamma = 0, q > 0: all revenue funds expansion
    SUPPORTED = 2  # gamma > 0, q > 0: generators need a revenue share
    EQUILIBRIUM = 3  # q = 0: the long-run capacity limit
    INFEASIBLE = 0


class ExpansionStatus(Enum):
    EXPANDING = "expanding"
    EQUILIBRIUM = "equilibrium"
    INFEASIBLE = "infeasible"


class PeriodSolution(NamedTuple):
    """Optimal decisions and diagnostics for a single period at state Q."""

    price: float  # M$/GW-yr
    expansion: float  # GW
    share: float  # fraction of revenue transferred to generators
    revenue: float  # M$/yr at the recorded price
    deliverability_binding: bool
    financial_binding: bool
    phase: Phase

    to_dict = record_dict


def demand(dm: DemandModel, price: float, e_q: float) -> float:
    """Program demand (GW) at premium ``price`` and grid intensity ``e_q``."""
    if price < 0:
        raise ValueError("price must be nonnegative")
    if e_q <= 0:
        raise NetZeroGridError("demand is undefined on a net-zero grid (e <= 0)")
    return dm.market_size * math.exp(-dm.sensitivity * price / e_q)


def revenue(dm: DemandModel, price: float, e_q: float) -> float:
    """Per-period program revenue price * D(price/e), M$/yr.

    Unimodal in price with its unique peak at price = e_q / sensitivity.
    """
    return price * demand(dm, price, e_q)


def unconstrained_peak_revenue(dm: DemandModel, e_q: float) -> float:
    """Maximal revenue when the deliverability cap is slack.

    At the unconstrained optimum the premium is e/eps and demand sits at
    M*exp(-1), so revenue collapses to e_q * M / (exp(1) * eps).
    """
    if e_q <= 0:
        raise NetZeroGridError("peak revenue undefined on a net-zero grid")
    return e_q * dm.market_size / (math.e * dm.sensitivity)


class PriceSolution(NamedTuple):
    price: float
    deliverability_binding: bool


def price_at(dm: DemandModel, s: gm.PeriodState) -> PriceSolution:
    """Revenue-maximizing premium subject to sales <= delivered output.

    Two regimes: when unconstrained peak demand M/e fits under f(Q) the price
    is e(Q)/eps; otherwise the deliverability cap binds and the price rises to
    e(Q)/eps * ln(M/f(Q)).  The branches agree where M/e = f(Q).  Where f(Q)
    is so small that M/f(Q) overflows, no finite price sells it, and the
    capped branch raises as at f(Q) = 0.  An array state gives arrays, and
    raises the scalar error of its first failing entry.
    """
    if gm.is_array(s.q):
        import numpy as np
        with np.errstate(divide="ignore", over="ignore"):  # M/f(Q) is inf only where the scalar path raises
            bad = (s.e <= 0) | (s.f <= 0) | np.isinf(dm.market_size / s.f)
        if bad.any():  # the scalar path raises for the first failing entry
            price_at(dm, gm.PeriodState(*(float(v[bad][0]) for v in s)))
        base = s.e / dm.sensitivity
        binding = dm.market_size * math.exp(-1.0) > s.f
        return PriceSolution(np.where(binding, base * np.log(dm.market_size / s.f), base), binding)
    if s.e <= 0:
        raise NetZeroGridError(f"e(Q)={s.e} at Q={s.q}: no emissions left to differentiate")
    if s.f <= 0:
        raise NoSellableCreditsError(f"f(Q)={s.f} at Q={s.q}: no credits to sell")
    peak_sales = dm.market_size * math.exp(-1.0)
    base = s.e / dm.sensitivity
    if peak_sales <= s.f:
        return PriceSolution(base, False)
    ratio = dm.market_size / s.f
    if ratio == math.inf:
        raise NoSellableCreditsError(f"f(Q)={s.f} at Q={s.q}: too few credits to price, M/f(Q) overflows")
    return PriceSolution(base * math.log(ratio), True)


class Decision(NamedTuple):
    """A period's integrated decision at a :class:`~vrpplan.grid_model.PeriodState`:
    scalars at a scalar state, arrays (``status`` of objects) at an array state."""

    price: float  # revenue-maximizing premium, M$/GW-yr
    deliverability_binding: bool  # the price regime: sales capped at f(Q)
    revenue: float  # price * sales, M$/yr
    expansion: float  # (R* - C)/k, or 0 unless EXPANDING, GW
    status: ExpansionStatus


def decide_at(dm: DemandModel, s: gm.PeriodState, k: float) -> Decision:
    """The integrated decision at a state: one :func:`price_at`, one demand
    evaluation and one revenue/cost tolerance.

    The expansion is the binding financial constraint's (R* - C)/k, clamped
    at zero.  Status distinguishes an expanding period, the long-run
    equilibrium (|R* - C| within BALANCE_TOL times the larger of |R*| and |C|,
    with no absolute floor), and an infeasible period where revenue cannot
    cover cost even without expansion.  An array state decides every entry
    at once, with the scalar rules, but for ulps of ``np.exp`` and ``np.log``.
    Decisions take a state; the solvers built on them take a capacity.
    """
    price, binding = price_at(dm, s)
    cost = s.cost
    if gm.is_array(s.q):
        import numpy as np
        rev = price * (dm.market_size * np.exp(-dm.sensitivity * price / s.e))
        tol = BALANCE_TOL * np.maximum(np.abs(rev), np.abs(cost))
        infeasible, equilibrium = ~(rev >= cost - tol), np.abs(rev - cost) <= tol
        status = np.where(equilibrium, ExpansionStatus.EQUILIBRIUM, ExpansionStatus.EXPANDING)
        status = np.where(infeasible, ExpansionStatus.INFEASIBLE, status)
        return Decision(price, binding, rev, np.where(infeasible | equilibrium, 0.0, (rev - cost) / k), status)
    rev = price * demand(dm, price, s.e)
    tol = BALANCE_TOL * max(abs(rev), abs(cost))  # no floor: near Q = 0 both are tiny
    if not rev >= cost - tol:  # also a NaN revenue
        expansion, status = 0.0, ExpansionStatus.INFEASIBLE
    elif abs(rev - cost) <= tol:
        expansion, status = 0.0, ExpansionStatus.EQUILIBRIUM
    else:
        expansion, status = (rev - cost) / k, ExpansionStatus.EXPANDING
    return Decision(price, binding, rev, expansion, status)


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KktResiduals:
    """Reconstructed multipliers and residuals of the first-order system.

    Multipliers follow the constraint order: deliverability cap, financial
    (operator budget under sharing), generator budget, q >= 0, p >= 0, and the
    two bounds on the share.  Each has one closed form, the same in every
    phase: see :func:`kkt_residuals`.  ``comp_slackness`` lists
    multiplier*slack in the same order.  ``max_abs_residual`` also folds in
    dual-feasibility (negative multiplier) and primal-feasibility violations;
    at or below CERTIFY_TOL it certifies the solution.  From a solver's
    solution every number is a builtin float, so ``certified`` is a bool.
    """

    mult_deliverability: float
    mult_financial: float
    mult_generator_budget: float
    mult_expansion_nonneg: float
    mult_price_nonneg: float
    mult_share_lower: float
    mult_share_upper: float
    stationarity_price: float
    stationarity_expansion: float
    stationarity_share: float
    comp_slackness: tuple[float, ...]
    max_abs_residual: float

    @property
    def certified(self) -> bool:
        return self.max_abs_residual <= CERTIFY_TOL


def kkt_residuals(
    dm: DemandModel,
    model: gm.GridModel,
    q: float,
    solution: PeriodSolution,
    problem: str = "integrated",
) -> KktResiduals:
    """Check a period solution at capacity ``q`` against the stationarity/slackness system.

    One system serves both problems: the integrated problem is the sharing
    problem whose operator carries the whole cost C_S + C_2, whose generators
    carry none, and whose share is 0.  Its multipliers have one closed
    reconstruction, whether or not the period expands: the financial
    multiplier is 1/k and the sign multipliers of q and p vanish (at q = 0,
    1/k still solves stationarity in q); the deliverability multiplier is
    (p - e/eps)/k when that cap binds, zero otherwise.  An interior share
    sets the generator-budget multiplier to the financial one; a zero share
    sets it to 0 and the share's lower-bound multiplier to R/k.  A hand-built
    solution is judged like a solved one; :func:`demand` rejects a negative
    price.
    """
    if problem not in ("integrated", "revenue-sharing"):
        raise ValueError("problem must be 'integrated' or 'revenue-sharing'")
    s, k = model.state(q), model.invest_cost
    if problem == "revenue-sharing":
        c_op, c_gen, gamma = s.C_S, s.cost_generator, solution.share
    else:
        c_op, c_gen, gamma = s.C_S + s.cost_generator, 0.0, 0.0
    p, x = solution.price, solution.expansion

    d = demand(dm, p, s.e)
    rev = p * d
    rev_p = d * (1.0 - dm.sensitivity * p / s.e)
    d_p_coeff = (dm.sensitivity / s.e) * d  # -d(D)/dp

    slack_deliver = d - s.f
    slack_financial = (c_op + k * x) - (1.0 - gamma) * rev
    slack_generator = c_gen - gamma * rev

    mu, nu, eta = 1.0 / k, 0.0, 0.0
    lam = (p - s.e / dm.sensitivity) / k if solution.deliverability_binding else 0.0
    theta, alpha, beta = (mu, 0.0, 0.0) if gamma > ZERO_TOL else (0.0, mu * rev, 0.0)

    stat_q = 1.0 - mu * k + nu
    stat_p = lam * d_p_coeff + (mu * (1.0 - gamma) + theta * gamma) * rev_p + eta
    stat_g = -mu * rev + theta * rev + alpha - beta

    comp = (lam * slack_deliver, mu * slack_financial, theta * slack_generator, nu * x, eta * p,
            alpha * gamma, beta * (gamma - 1.0))
    primal = tuple(
        max(0.0, v) for v in (slack_deliver, slack_financial, slack_generator, -x, -p, -gamma, gamma - 1.0)
    )
    dual = tuple(max(0.0, -m) for m in (lam, mu, theta, nu, eta, alpha, beta))
    residuals = (abs(stat_p), abs(stat_q), abs(stat_g)) + tuple(abs(c) for c in comp)
    max_abs = max(residuals + primal + dual)

    return KktResiduals(
        mult_deliverability=lam,
        mult_financial=mu,
        mult_generator_budget=theta,
        mult_expansion_nonneg=nu,
        mult_price_nonneg=eta,
        mult_share_lower=alpha,
        mult_share_upper=beta,
        stationarity_price=stat_p,
        stationarity_expansion=stat_q,
        stationarity_share=stat_g,
        comp_slackness=comp,
        max_abs_residual=max_abs,
    )
