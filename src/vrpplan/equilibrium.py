"""Long-run capacity limit: where maximal revenue exactly covers cost.

Beyond the deliverability threshold the maximal revenue is proportional to
the emissions intensity, so the limit solves C(Q) = M/(exp(1)*eps) * e(Q).
The gap F(Q) = revenue - cost is strictly decreasing there for accepted
models (e nonincreasing, C increasing), which makes plain bisection both
sufficient and robust.  A solver: it takes the model and builds each state.
The limit is the same for every investment cost k, and e stays positive there.
"""

from __future__ import annotations

import math

from . import demand_pricing as dp
from . import grid_model as gm
from .errors import CurveDomainError, InfeasibleAtThresholdError, NetZeroGridError, ThresholdUnreachableError
from .serialize import record
from .tolerances import BALANCE_TOL, ROUNDING_TOL, scaled

MAX_ITERATIONS = 200
BRACKET_GROWTH = 2.0


@record
class EquilibriumResult:
    """Solved long-run limit with the bracket and convergence diagnostics."""

    capacity_limit: float  # Q where expansion stops, GW
    deliverability_threshold: float  # smallest Q with f(Q) >= M/exp(1), GW
    emissions_at_limit: float  # ton-CO2/MWh, strictly positive
    residual: float  # |C - peak revenue| at the limit, M$/yr
    bracket: tuple[float, float]
    iterations: int
    domain_capped: bool = False


def find_deliverability_threshold(dm: dp.DemandModel, model: gm.GridModel) -> float:
    """Smallest Q in the domain where delivered output covers peak sales M/e.

    Bisection on the nondecreasing delivered curve down to a bracket width of
    ROUNDING_TOL scaled by Q_max; returns the domain minimum when it is already
    satisfied there.
    """
    target = dm.market_size * dp.PEAK_SHARE
    lo, hi = model.domain
    if model.delivered_at(lo) >= target:
        return lo
    if model.delivered_at(hi) < target:
        raise ThresholdUnreachableError(
            f"f(Q_max)={model.delivered_at(hi):.6g} GW never reaches peak sales "
            f"{target:.6g} GW"
        )
    width_tol = scaled(ROUNDING_TOL, hi)
    # the curve's kernel: a midpoint, halves summed so that none overflows, lies in the domain, so no clamp acts
    delivered = model.delivered._at
    for _ in range(MAX_ITERATIONS):
        if hi - lo <= width_tol:
            break
        mid = 0.5 * lo + 0.5 * hi
        if delivered(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _gap(s: gm.PeriodState, market: float, divisor: float) -> tuple[float, float]:
    """The gap e*M/``divisor`` - C at the state ``s``, with ``divisor`` = exp(1)*eps, and C; each field read once."""
    e, cost = s.e, s.cost
    if e <= 0:
        raise NetZeroGridError("peak revenue undefined on a net-zero grid")
    return e * market / divisor - cost, cost  # unconstrained_peak_revenue's operation order


def solve_long_run_limit(dm: dp.DemandModel, model: gm.GridModel) -> EquilibriumResult:
    """Bisect the revenue/cost gap above the deliverability threshold.

    Converges when the residual drops below BALANCE_TOL scaled by the cost C,
    or the bracket width below ROUNDING_TOL scaled by its upper end; the width
    exit is a safety net that sits far below the residual criterion.  If the
    gap never turns negative inside the domain, the result is capped at the
    domain edge and flagged instead of raising, since the limit then lies
    beyond the calibrated data.  Each state comes from the model's float
    kernel, and exp(1)*eps is computed once per solve.  A gap left non-finite
    at the result, as where the costs overflow, raises a CurveDomainError
    naming them.
    """
    threshold = find_deliverability_threshold(dm, model)
    domain_hi = model.domain[1]
    state, market, divisor = model._state_at, dm.market_size, math.e * dm.sensitivity

    def finish(s: gm.PeriodState, bracket: tuple[float, float], iterations: int, capped: bool):
        gap = _gap(s, market, divisor)[0]
        if not math.isfinite(gap):  # an infinite cost passes every balance test: it scales the tolerance too
            raise CurveDomainError(
                f"long-run limit: revenue - cost not finite at Q={s.q}: "
                f"C_S={s.C_S}, C_R={s.C_R}, f*pi={s.f * s.pi}"
            )
        return EquilibriumResult(
            capacity_limit=s.q,
            deliverability_threshold=threshold,
            emissions_at_limit=s.e,
            residual=abs(gap),
            bracket=bracket,
            iterations=iterations,
            domain_capped=capped,
        )

    s = state(threshold)
    gap, cost = _gap(s, market, divisor)
    if gap < -scaled(BALANCE_TOL, cost):
        raise InfeasibleAtThresholdError(
            f"cost already exceeds maximal revenue by {-gap:.6g} M$/yr "
            f"at the deliverability threshold Q={threshold:.6g}"
        )
    if abs(gap) <= scaled(BALANCE_TOL, cost):
        return finish(s, (threshold, threshold), 0, False)

    hi = min(threshold * BRACKET_GROWTH + 1.0, domain_hi)
    s = state(hi)
    while _gap(s, market, divisor)[0] > 0.0 and hi < domain_hi:
        hi = min(hi * BRACKET_GROWTH, domain_hi)
        s = state(hi)
    if _gap(s, market, divisor)[0] > 0.0:
        # no sign change inside the domain
        return finish(s, (threshold, domain_hi), 0, True)

    lo = threshold
    bracket = (lo, hi)
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        s = state(0.5 * lo + 0.5 * hi)
        gap, cost = _gap(s, market, divisor)
        if abs(gap) <= scaled(BALANCE_TOL, cost) or hi - lo <= scaled(ROUNDING_TOL, hi):
            break
        if gap > 0.0:
            lo = s.q
        else:
            hi = s.q
    return finish(s, bracket, iterations, False)
