"""Program demand, revenue, and the two-regime closed-form optimal price.

Demand for the renewable premium is exponential in the effective abatement
price p/e(Q): D = M * exp(-eps * p / e(Q)).  The sensitivity eps is treated as
unit-bearing (it absorbs the $/ton conversion), so any consistent price and
intensity units work as long as the scenario declares them consistently.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import grid_model as gm
from .errors import NetZeroGridError, NoSellableCreditsError
from .serialize import read_record, record, record_dict
from .tolerances import BALANCE_TOL, CERTIFY_TOL, ZERO_TOL


@record
class DemandModel:
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
            raise ValueError("market_size must be positive and finite")
        if not (0.0 < self.sensitivity < math.inf and 1.0 / self.sensitivity < math.inf):
            raise ValueError("sensitivity and its reciprocal must be positive and finite")

    @classmethod
    def from_dict(cls, doc: dict, path: str = "demand") -> "DemandModel":
        return read_record(cls, doc, path)


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


def unconstrained_peak_revenue(dm: DemandModel, e_q: float) -> float:
    """Maximal revenue when the deliverability cap is slack.

    At the unconstrained optimum the premium is e/eps and demand sits at
    M*exp(-1), so revenue collapses to e_q * M / (exp(1) * eps).
    """
    if e_q <= 0:
        raise NetZeroGridError("peak revenue undefined on a net-zero grid")
    return e_q * dm.market_size / (math.e * dm.sensitivity)


class Decision(NamedTuple):
    """A period's integrated decision at a float :class:`~vrpplan.grid_model.PeriodState`."""

    price: float  # revenue-maximizing premium, M$/GW-yr
    deliverability_binding: bool  # the price regime: sales capped at f(Q)
    revenue: float  # price * sales, M$/yr
    expansion: float  # (R* - C)/k, or 0 unless EXPANDING, GW
    status: ExpansionStatus


PEAK_SHARE = math.exp(-1.0)  # peak sales M*exp(-1) as a share of M: the deliverability boundary
_EXPANDING, _EQUILIBRIUM, _INFEASIBLE = ExpansionStatus  # bound once, in definition order


def decide_at(dm: DemandModel, s: gm.PeriodState, k: float) -> Decision:
    """The integrated decision at a state, in one float body.

    The price maximizes revenue subject to sales <= f(Q): e(Q)/eps where
    peak demand M/e fits under f(Q), else the capped e(Q)/eps * ln(M/f(Q));
    the branches agree where M/e = f(Q).  An f(Q) so small that M/f(Q)
    overflows sells nothing, and raises as f(Q) = 0 does.  The expansion is
    the binding financial constraint's (R* - C)/k, clamped at zero.  Status
    tells an expanding period, the long-run equilibrium (|R* - C| within
    BALANCE_TOL times the larger of |R*| and |C|, no absolute floor) and an
    infeasible one, where revenue cannot cover cost even without expansion.
    The state's float fields are unpacked once; exp(-1) and the statuses are
    module constants, and ``tuple.__new__`` builds the Decision, which skips
    the NamedTuple's Python-level ``__new__``.  An array state's entries are
    decided by :func:`~vrpplan.trajectory._max_feasible`, on these rules.
    """
    q, e, f, _, _, _, cost, _ = s
    if e <= 0:
        raise NetZeroGridError(f"e(Q)={e} at Q={q}: no emissions left to differentiate")
    if f <= 0:
        raise NoSellableCreditsError(f"f(Q)={f} at Q={q}: no credits to sell")
    market, eps = dm.market_size, dm.sensitivity
    price = e / eps
    binding = not market * PEAK_SHARE <= f  # peak sales M*exp(-1) exceed f(Q), or f(Q) is NaN
    if binding:
        ratio = market / f
        if ratio == math.inf:
            raise NoSellableCreditsError(f"f(Q)={f} at Q={q}: too few credits to price, M/f(Q) overflows")
        price *= math.log(ratio)
    # a price >= 0 and e > 0 pass demand()'s checks
    rev = price * (market * math.exp(-eps * price / e))
    tol = BALANCE_TOL * max(abs(rev), abs(cost))  # no floor: near Q = 0 both are tiny
    if not rev >= cost - tol:  # also a NaN revenue
        return tuple.__new__(Decision, (price, binding, rev, 0.0, _INFEASIBLE))
    if abs(rev - cost) <= tol:
        return tuple.__new__(Decision, (price, binding, rev, 0.0, _EQUILIBRIUM))
    return tuple.__new__(Decision, (price, binding, rev, (rev - cost) / k, _EXPANDING))


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------


@record
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
    dm: DemandModel, s: gm.PeriodState, k: float, solution: PeriodSolution, problem: str = "integrated"
) -> KktResiduals:
    """Check a period solution at the state ``s``, with unit investment cost
    ``k``, against the stationarity/slackness system.

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
