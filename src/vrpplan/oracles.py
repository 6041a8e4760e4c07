"""Independent brute-force verifiers for the closed-form results.

Nothing here is used by the solvers themselves: these are falsifiers for
tests and the ``verify`` command.  Policy enumeration checks that the myopic
trajectory statewise-dominates every discretized feasible policy, expanding
each policy prefix once, level by level; the dense scans re-derive the
optimal price and the equilibrium root on a uniform grid, to the bits of an
exhaustive scan: both walk ``np.linspace``'s points as ranges, skip one that a
bound settles and halve any other down to leaves of SCAN_LEAF points, each
filled in a few cache-sized buffers allocated once per call.

Only the dense scans import numpy.
"""

from __future__ import annotations

import math

from . import demand_pricing as dp
from . import equilibrium as eqm
from . import grid_model as gm
from . import trajectory as traj
from .errors import CurveDomainError, NetZeroGridError, NoSellableCreditsError
from .serialize import record, record_dict
from .tolerances import ROUNDING_TOL, ZERO_TOL, scaled


SCAN_LEAF = 2**11  # the most grid points a dense scan fills at once
MAX_POLICIES = 20000  # the most policies ``verify`` enumerates


@record
class DominanceReport:
    n_policies_evaluated: int
    statewise_violations: int
    hitting_time_violations: int
    emissions_violations: int
    worst_hitting_gap: int  # myopic hitting time minus best policy hitting time
    worst_emissions_gap: float  # myopic cumulative e minus best policy value

    @property
    def passed(self) -> bool:
        return (
            self.statewise_violations == 0
            and self.hitting_time_violations == 0
            and self.emissions_violations == 0
        )

    def to_dict(self) -> dict:
        return {**record_dict(self), "passed": self.passed}


_ENUMERATION = "policy enumeration"


def enumerate_and_compare(
    dm: dp.DemandModel,
    model: gm.GridModel,
    action_grid_size: int,
    horizon: int,
    *,
    q_init: float,
    equilibrium: eqm.EquilibriumResult | None = None,
) -> DominanceReport:
    """Exhaustively test myopic dominance from ``q_init`` against feasible
    policies: in each of ``horizon`` periods, one of g = ``action_grid_size``
    fractions {0, 1/(g-1), ..., 1} of the maximal feasible expansion there.

    Reports how many of all g**horizon policies beat the myopic path
    statewise, reach the limit earlier, or accumulate less emissions intensity
    up to the myopic hitting time; on certified monotone-reachability models
    all three counts are expected to be zero.  A caller that has already
    solved the long-run limit passes it in.  A g below 2 or a horizon below 1
    raises ValueError before any work.

    Both routes walk the prefix tree level by level, in one order: level t
    lists the t-step prefixes, each one's actions after its parent's, so
    prefix i's parent is i // g and the myopic prefix, all ones, is the last.
    A child inherits from its parent whether its path has exceeded the myopic
    one, when it first reached the limit, and its running emissions sum from
    t = 0, so no path is walked twice; a capacity met twice in a level, as
    after every zero action, is evaluated once.  The action fractions are
    :func:`~vrpplan.grid_model.linspace`'s floats, on
    :func:`~vrpplan.grid_model.numpy_route`'s route: :func:`_walk_prefix_array`
    on ``np.linspace``'s array, :func:`_walk_prefix_tree`, its mirror on
    lists, without numpy.
    """
    if action_grid_size < 2:
        raise ValueError("action_grid_size must be at least 2")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    limit = (equilibrium or eqm.solve_long_run_limit(dm, model)).capacity_limit
    if (np := gm.numpy_route()) is None:
        fractions, walk = gm.linspace(0.0, 1.0, action_grid_size), _walk_prefix_tree
    else:
        fractions, walk = np.linspace(0.0, 1.0, action_grid_size), _walk_prefix_array
    return DominanceReport(action_grid_size**horizon, **walk(dm, model, q_init, limit, fractions, horizon))


def _walk_prefix_array(
    dm: dp.DemandModel, model: gm.GridModel, q_init: float, limit: float, fractions, horizon: int
) -> dict:
    """The myopic path against all g**horizon policies, g the number of
    action ``fractions``, as :class:`DominanceReport` fields: each level of
    the prefix tree is one array, ``np.repeat`` hands a parent's entries to
    its g children, and one array state of the level's distinct capacities,
    from ``np.unique``, gives their e and steps them; the last level, which
    takes no step, evaluates only e.  Overflow or NaN raises a
    CurveDomainError through :func:`~vrpplan.grid_model.array_arithmetic`.
    """
    import numpy as np
    g, k, state_tol = len(fractions), model.invest_cost, scaled(ZERO_TOL, limit)
    reached = limit - state_tol

    qs, beaten, hits = np.array([q_init]), np.zeros(1, dtype=bool), np.array([0 if q_init >= reached else horizon + 1])
    sums = []  # each level's running emissions sums
    with gm.array_arithmetic(_ENUMERATION):
        for t in range(horizon + 1):
            distinct, at = np.unique(qs, return_inverse=True)
            s = model.state(distinct) if t < horizon else None  # the last level takes no step: e alone
            emissions = (model.emissions_at(distinct) if s is None else s.e)[at]
            sums.append(np.repeat(sums[-1], g) + emissions if sums else emissions)
            if s is None:
                break
            step = np.minimum(traj._max_feasible(dm, s, k), np.maximum(0.0, limit - distinct))
            qs = np.repeat(qs, g) + np.tile(fractions, len(qs)) * np.repeat(step[at], g)
            beaten = np.repeat(beaten, g) | (qs > qs[-1] + state_tol)
            hits = np.minimum(np.repeat(hits, g), np.where(qs >= reached, t + 1, horizon + 1))

        myo_hit = int(hits[-1])
        last = min(myo_hit, horizon)  # sum over t <= the myopic hitting time
        totals = sums[last]
        gaps = totals[-1] - totals

    return dict(
        statewise_violations=int(beaten.sum()),
        hitting_time_violations=int((hits < myo_hit).sum()),
        emissions_violations=g ** (horizon - last) * int((gaps > scaled(ZERO_TOL, float(totals[-1]))).sum()),
        worst_hitting_gap=max(0, myo_hit - int(hits.min())),
        worst_emissions_gap=float(gaps.max()),
    )


def _walk_prefix_tree(
    dm: dp.DemandModel, model: gm.GridModel, q_init: float, limit: float, fractions: list, horizon: int
) -> dict:
    """:func:`_walk_prefix_array` on lists, line for line: entry i's parent
    is entry i // g, and a level's capacities not met before, in it or an
    earlier level, are evaluated in the stages of the array call
    (:func:`~vrpplan.trajectory.staged_expansions`), each checked finite."""
    g, state_tol = len(fractions), scaled(ZERO_TOL, limit)
    reached = limit - state_tol

    qs, beaten, hits = [q_init], [False], [0 if q_init >= reached else horizon + 1]
    levels, sums = [], []  # each level's capacities and running emissions sums
    e_at, step_at = {}, {}  # e and the capped step at each capacity met
    for t in range(horizon + 1):
        distinct = [q for q in dict.fromkeys(qs) if q not in e_at]
        if t < horizon:
            states, expansions = traj.staged_expansions(dm, model, distinct, _ENUMERATION)
            e_at.update(zip(distinct, (s.e for s in states)))
            step_at.update((q, min(x, max(0.0, limit - q))) for q, x in zip(distinct, expansions))
        else:  # the last level takes no step: e alone
            emissions = gm.finite_samples(_ENUMERATION, "emissions", [model.emissions_at(q) for q in distinct], distinct)
            e_at.update(zip(distinct, emissions))
        levels.append(qs)
        sums.append([sums[-1][i // g] + e_at[q] for i, q in enumerate(qs)] if sums else [e_at[q] for q in qs])
        if t == horizon:
            break
        qs = [q + fraction * step for q in qs for step in (step_at[q],) for fraction in fractions]
        myopic = qs[-1] + state_tol
        beaten = [beaten[i // g] or q > myopic for i, q in enumerate(qs)]
        hits = [min(hits[i // g], t + 1 if q >= reached else horizon + 1) for i, q in enumerate(qs)]

    myo_hit = hits[-1]
    last = min(myo_hit, horizon)  # sum over t <= the myopic hitting time
    totals = sums[last]
    gaps = gm.finite_samples(_ENUMERATION, "emissions sum", [totals[-1] - s for s in totals], levels[last])
    emissions_tol = scaled(ZERO_TOL, totals[-1])
    return dict(
        statewise_violations=sum(beaten),
        hitting_time_violations=sum(h < myo_hit for h in hits),
        emissions_violations=g ** (horizon - last) * sum(gap > emissions_tol for gap in gaps),
        worst_hitting_gap=max(0, myo_hit - min(hits)),
        worst_emissions_gap=max(gaps),
    )


def _walk(n_points: int, settled, fill) -> None:
    """Visit the grid points [0, n_points) in order as ranges [i0, i1): skip
    one that ``settled(i0, i1)`` shows needs no filling, ``fill`` one that fits
    a leaf, and halve any other at a multiple of SCAN_LEAF, left half first.
    By a stack: a closure that calls itself is a reference cycle, which would
    hold the scan's buffers until the cyclic collector next runs."""
    ranges = [(0, n_points)]
    while ranges:
        i0, i1 = ranges.pop()
        if settled(i0, i1):
            continue
        leaves = -(-(i1 - i0) // SCAN_LEAF)
        if leaves == 1:
            fill(i0, i1)
            continue
        mid = i0 + leaves // 2 * SCAN_LEAF
        ranges += ((mid, i1), (i0, mid))  # the left half on top


def dense_scan_price(
    dm: dp.DemandModel, model: gm.GridModel, q: float, n_points: int = 10**6
) -> float:
    """Best feasible price on a uniform grid; the oracle for the closed form.

    The grid spans [0, p_cap] with p_cap = max(10 e/eps, 2 (e/eps) ln(M/f)),
    wide enough to cover both pricing regimes with margin.  Its points are
    ``np.linspace``'s; a point whose sales exceed f(Q) is infeasible, and the
    first maximum wins, as in one argmax over the whole grid.  :func:`_walk`
    skips a range where two scalar exps bound it: its prices are nonnegative
    and rising and its sales falling, so if its last price's sales exceed
    f(Q), or its last price times its first price's sales cannot beat the
    best so far (each by ROUNDING_TOL), it holds no better feasible point.
    Where e(Q) <= 0, or f(Q) <= 0 or so small that M/f(Q) overflows, there is
    no price to find, and the scan raises the closed form's error.
    """
    import numpy as np
    if n_points < 10:
        raise ValueError("n_points too small to be meaningful")
    e_q = model.emissions_at(q)
    f_q = model.delivered_at(q)
    if e_q <= 0:
        raise NetZeroGridError(f"e(Q)={e_q} at Q={q}: no price scan on a net-zero grid")
    if f_q <= 0:
        raise NoSellableCreditsError(f"f(Q)={f_q} at Q={q}: no credits to sell")
    base = e_q / dm.sensitivity
    p_cap = 10.0 * base
    if f_q < dm.market_size:
        ratio = dm.market_size / f_q
        if ratio == math.inf:
            raise NoSellableCreditsError(f"f(Q)={f_q} at Q={q}: too few credits to price, M/f(Q) overflows")
        p_cap = max(p_cap, 2.0 * base * math.log(ratio))
    # point i is i*step, with the last at p_cap: np.linspace's bits, as a step >= 0
    # makes its + 0.0 change none; offsets below 2**53 are exact as floats
    step = p_cap / (n_points - 1)
    sales_cap = f_q + scaled(ROUNDING_TOL, f_q)
    size = min(SCAN_LEAF, n_points)
    offsets = np.arange(size, dtype=float)
    price_buf, sales_buf, rev_buf = np.empty(size), np.empty(size), np.empty(size)
    infeasible_buf = np.empty(size, dtype=bool)
    best, best_rev = 0.0, -np.inf

    def settled(i0: int, i1: int) -> bool:
        # the range's least and most sales, in the array's operation order; a last
        # range of one point is p_cap, which i0 * step may pass by an ulp
        last = p_cap if i1 == n_points else (i1 - 1) * step
        least, most = (dm.market_size * math.exp((-dm.sensitivity * p) / e_q) for p in (last, min(i0 * step, last)))
        return least - scaled(ROUNDING_TOL, least) > sales_cap or last * most + scaled(ROUNDING_TOL, last * most) <= best_rev

    def fill(i0: int, i1: int) -> None:
        nonlocal best, best_rev
        m = i1 - i0
        prices, sales, rev, infeasible = price_buf[:m], sales_buf[:m], rev_buf[:m], infeasible_buf[:m]
        np.multiply(np.add(offsets[:m], i0, out=prices), step, out=prices)
        if i1 == n_points:
            prices[-1] = p_cap
        # M * exp((-eps * p) / e), in that order
        np.divide(np.multiply(-dm.sensitivity, prices, out=sales), e_q, out=sales)
        np.multiply(dm.market_size, np.exp(sales, out=sales), out=sales)
        # not (sales <= cap), so NaN sales are infeasible too
        np.logical_not(np.less_equal(sales, sales_cap, out=infeasible), out=infeasible)
        np.multiply(prices, sales, out=rev)
        np.copyto(rev, -np.inf, where=infeasible)
        i = int(np.argmax(rev))
        if rev[i] > best_rev:
            best, best_rev = float(prices[i]), rev[i]

    _walk(n_points, settled, fill)
    return best


@record
class EquilibriumScan:
    found: bool
    bracket: tuple[float, float] | None  # first sign-change interval
    sign_changes: tuple[tuple[float, float], ...]
    n_points: int


@gm.array_arithmetic("equilibrium scan")
def dense_scan_equilibrium(
    dm: dp.DemandModel, model: gm.GridModel, n_points: int = 10**5
) -> EquilibriumScan:
    """Scan the revenue/cost gap above the deliverability threshold.

    Returns every sign-change bracket on the sampled grid (a well-posed model
    has exactly one), in grid order; the oracle for the bisection solver.  A
    sample with a gap of exactly zero is a bracket of width zero.  The grid is
    ``np.linspace``'s, and the result an exhaustive scan's, but :func:`_walk`
    skips a range where an interval enclosure shows one strict sign of the gap
    and e > 0.  The last sign of a range is carried to the next, so a change
    between two is found.
    """
    import numpy as np
    if n_points < 10:
        raise ValueError("n_points too small to be meaningful")
    # np.linspace's point i is i*step + lo, the last hi, and i/div*delta + lo where the step underflows to zero
    lo, hi = eqm.find_deliverability_threshold(dm, model), model.domain[1]
    div, delta = n_points - 1, hi - lo
    step = delta / div

    def point(i: int) -> float:
        return hi if i == div else (i * step if step else i / div * delta) + lo

    peak_scale = math.e * dm.sensitivity
    peak = dm.market_size / peak_scale  # peak revenue per unit e
    size = min(SCAN_LEAF, n_points)
    offsets = np.arange(size, dtype=float)
    q_buf, gap_buf, sign_buf = np.empty(size), np.empty(size), np.empty(size)
    zero_buf, start_buf = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    pairs = []  # the index pairs of the brackets
    carry = 0.0  # the sign of the last point before the next range

    def enter(i0: int, first: float, last: float) -> None:
        nonlocal carry
        if carry * first < 0.0:  # the change between this range and the last
            pairs.append((i0 - 1, i0))
        carry = last

    def settled(i0: int, i1: int) -> bool:
        # the gap's enclosure from e's and C's (least, greatest, magnitude) shows one sign, and e > 0, where
        # each clears 0 by ROUNDING_TOL scaled by the largest magnitude met; nothing if it raises or is not finite
        try:
            r = model.state_range(point(i0), point(i1 - 1))
        except (CurveDomainError, OverflowError):
            return False
        e, cost = r.e, r.cost
        gap_lo, gap_hi = e[0] * peak - cost[1], e[1] * peak - cost[0]
        slack = scaled(ROUNDING_TOL, e[2] * peak, cost[2], gap_lo, gap_hi)
        if not (all(map(math.isfinite, (gap_lo, gap_hi, slack))) and e[0] > slack and max(gap_lo, -gap_hi) > slack):
            return False
        sign = 1.0 if gap_lo > slack else -1.0
        enter(i0, sign, sign)
        return True

    def fill(i0: int, i1: int) -> None:
        m = i1 - i0
        q, gap, sign, zero, start = q_buf[:m], gap_buf[:m], sign_buf[:m], zero_buf[:m], start_buf[:m]
        np.add(offsets[:m], i0, out=q)
        np.add(np.multiply(q if step else np.divide(q, div, out=q), step or delta, out=q), lo, out=q)
        if i1 == n_points:
            q[-1] = hi
        s = model.state(q)
        if not np.all(s.e > 0):
            raise NetZeroGridError("peak revenue undefined on a net-zero grid")
        # unconstrained_peak_revenue's operation order, so each gap is the scalar one: e*M/(e*eps) - C
        np.subtract(np.divide(np.multiply(s.e, dm.market_size, out=gap), peak_scale, out=gap), s.cost, out=gap)

        np.sign(gap, out=sign)
        enter(i0, sign[0], sign[-1])
        np.equal(sign, 0.0, out=zero)
        np.less(np.multiply(sign[:-1], sign[1:], out=gap[:-1]), 0.0, out=start[:-1])  # gap is spent: it takes the products
        start[-1] = False
        at = np.flatnonzero(np.logical_or(start, zero, out=start))
        pairs.extend(zip((at + i0).tolist(), (at + i0 + ~zero[at]).tolist()))  # a zero ends where it starts

    _walk(n_points, settled, fill)
    brackets = tuple((point(i), point(j)) for i, j in pairs)
    return EquilibriumScan(bool(brackets), brackets[0] if brackets else None, brackets, n_points)
