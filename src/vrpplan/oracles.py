"""Independent brute-force verifiers for the closed-form results.

Nothing here is used by the solvers themselves: these are falsifiers for
tests and the ``verify`` command.  Policy enumeration checks that the myopic
trajectory statewise-dominates every discretized feasible policy, expanding
each policy prefix once, level by level; the dense scans re-derive the
optimal price and the equilibrium root by exhaustive search.  A dense scan
takes ``np.linspace``'s grid points SCAN_BLOCK at a time, from the points
through the reduction, in a few buffers allocated once per call and filled
in place by every block, so its temporaries stay cache-sized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import demand_pricing as dp
from . import equilibrium as eqm
from . import grid_model as gm
from . import trajectory as traj
from .errors import EnumerationConfigError, NetZeroGridError, NoSellableCreditsError
from .serialize import Serializable
from .tolerances import ROUNDING_TOL, ZERO_TOL, scaled


SCAN_BLOCK = 2**14  # grid points per block of the dense scans


@dataclass(frozen=True)
class EnumerationConfig:
    """Discretization of per-period actions for exhaustive policy search.

    Each period offers ``action_grid_size`` choices: the fractions
    {0, 1/(g-1), ..., 1} of the maximal feasible expansion at the current
    state, so every enumerated policy is feasible by construction.  When
    g**horizon exceeds ``max_policies`` a seeded random subsample is drawn;
    without a seed that situation is a configuration error.
    """

    action_grid_size: int
    horizon: int
    max_policies: int = 20000
    seed: int | None = None

    def __post_init__(self):
        if self.action_grid_size < 2:
            raise ValueError("action_grid_size must be at least 2")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.max_policies < 1:
            raise ValueError("max_policies must be positive")


@dataclass(frozen=True)
class DominanceReport(Serializable):
    n_policies_total: int
    n_policies_evaluated: int
    sampled: bool
    seed: int | None
    statewise_violations: int
    hitting_time_violations: int
    emissions_violations: int
    worst_hitting_gap: int  # myopic hitting time minus best policy hitting time
    worst_emissions_gap: float  # myopic cumulative e minus best policy value
    certificate_holds: bool

    @property
    def passed(self) -> bool:
        return (
            self.statewise_violations == 0
            and self.hitting_time_violations == 0
            and self.emissions_violations == 0
        )

    def to_dict(self) -> dict:
        return {**super().to_dict(), "passed": self.passed}


@gm.array_arithmetic("policy enumeration")
def enumerate_and_compare(
    dm: dp.DemandModel,
    model: gm.GridModel,
    cfg: traj.SimulationConfig,
    ecfg: EnumerationConfig,
    equilibrium: eqm.EquilibriumResult | None = None,
    certificate: traj.ReachabilityCertificate | None = None,
) -> DominanceReport:
    """Exhaustively test myopic dominance against discretized feasible policies.

    Reports how many policies beat the myopic path statewise, reach the limit
    earlier, or accumulate less emissions intensity up to the myopic hitting
    time; on certified monotone-reachability models all three counts are
    expected to be zero.  A caller that has already solved the long-run limit
    or built the reachability certificate passes them in.

    The policies are expanded level by level: the distinct prefixes of length
    t are one array of capacities, and one array call of the reach map steps
    them all, so each prefix is expanded once.  The myopic policy is the
    all-ones prefix of the same arrays.
    """
    result = equilibrium or eqm.solve_long_run_limit(dm, model)
    limit = result.capacity_limit
    if certificate is None:
        certificate = traj.certify_monotone_reachability(
            dm, model, q_init=cfg.q_init, equilibrium=result
        )

    g, horizon = ecfg.action_grid_size, ecfg.horizon
    total = g**horizon
    sampled = total > ecfg.max_policies
    if sampled:
        if ecfg.seed is None:
            raise EnumerationConfigError(
                f"{total} policies exceed the cap {ecfg.max_policies}; set a seed to subsample"
            )
        index_rows = np.random.default_rng(ecfg.seed).integers(0, g, (ecfg.max_policies, horizon))
    else:
        index_rows = np.indices((g,) * horizon).reshape(horizon, total).T
    # the myopic policy rides along as the last row
    rows = np.vstack([index_rows, np.full(horizon, g - 1)])
    fractions_of = np.linspace(0.0, 1.0, g)

    # level t: the capacities of the distinct t-step prefixes, and each row's prefix
    levels, nodes = [np.array([cfg.q_init])], [np.zeros(len(rows), dtype=np.intp)]
    for t in range(horizon):
        q = levels[-1]
        step = np.minimum(traj.max_feasible_expansion(dm, model, q), np.maximum(0.0, limit - q))
        keys, node = np.unique(nodes[-1] * g + rows[:, t], return_inverse=True)
        parent = keys // g
        levels.append(q[parent] + fractions_of[keys % g] * step[parent])
        nodes.append(node)
    paths = np.stack([q[node] for q, node in zip(levels, nodes)], axis=1)
    emissions_of = np.stack([model.emissions_at(q)[node] for q, node in zip(levels, nodes)], axis=1)

    state_tol = scaled(ZERO_TOL, limit)
    reached = paths >= limit - state_tol
    hits = np.where(reached.any(axis=1), reached.argmax(axis=1), horizon + 1)
    myo_hit = int(hits[-1])
    # sum over t <= the myopic hitting time, in the order of a running sum
    sums = np.add.accumulate(emissions_of[:, : min(myo_hit, horizon) + 1], axis=1)[:, -1]
    gaps = sums[-1] - sums[:-1]

    return DominanceReport(
        n_policies_total=total,
        n_policies_evaluated=len(index_rows),
        sampled=sampled,
        seed=ecfg.seed,
        statewise_violations=int((paths[:-1] > paths[-1] + state_tol).any(axis=1).sum()),
        hitting_time_violations=int((hits[:-1] < myo_hit).sum()),
        emissions_violations=int((gaps > scaled(ZERO_TOL, float(sums[-1]))).sum()),
        worst_hitting_gap=max(0, myo_hit - int(hits[:-1].min())),
        worst_emissions_gap=float(gaps.max()),
        certificate_holds=certificate.holds,
    )


def dense_scan_price(
    dm: dp.DemandModel, model: gm.GridModel, q: float, n_points: int = 10**6
) -> float:
    """Best feasible price on a uniform grid; the oracle for the closed form.

    The grid spans [0, p_cap] with p_cap = max(10 e/eps, 2 (e/eps) ln(M/f)),
    wide enough to cover both pricing regimes with margin.  Its points are
    ``np.linspace``'s, evaluated SCAN_BLOCK at a time in buffers reused across
    blocks; a point whose sales exceed f(Q) is infeasible, and the first
    maximum wins, as in one argmax over the whole grid.  Where e(Q) <= 0, or
    f(Q) <= 0 or so small that M/f(Q) overflows, there is no price to find,
    and the scan raises the closed form's error.
    """
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
    size = min(SCAN_BLOCK, n_points)
    offsets = np.arange(size, dtype=float)
    price_buf, sales_buf, rev_buf = np.empty(size), np.empty(size), np.empty(size)
    infeasible_buf = np.empty(size, dtype=bool)
    best, best_rev = 0.0, -np.inf
    for i0 in range(0, n_points, size):
        m = min(size, n_points - i0)
        prices, sales, rev, infeasible = price_buf[:m], sales_buf[:m], rev_buf[:m], infeasible_buf[:m]
        np.multiply(np.add(offsets[:m], i0, out=prices), step, out=prices)
        if i0 + m == n_points:
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
    return best


@dataclass(frozen=True)
class EquilibriumScan(Serializable):
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
    ``np.linspace``'s, and the states and gaps are evaluated SCAN_BLOCK points
    at a time, in buffers reused across blocks; the last sign of a block is
    carried to the next, so a sign change across a block boundary is found.
    """
    if n_points < 10:
        raise ValueError("n_points too small to be meaningful")
    threshold = eqm.find_deliverability_threshold(dm, model)
    qs = np.linspace(threshold, model.domain[1], n_points)
    peak_scale = math.e * dm.sensitivity
    size = min(SCAN_BLOCK, n_points)
    gap_buf, cost_buf, sign_buf = np.empty(size), np.empty(size), np.empty(size)
    zero_buf, start_buf = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    starts, ends = [], []
    carry = 0.0  # the sign of the last point of the previous block
    for i0 in range(0, n_points, size):
        m = min(size, n_points - i0)
        gap, cost, sign, zero, start = gap_buf[:m], cost_buf[:m], sign_buf[:m], zero_buf[:m], start_buf[:m]
        s = model.state(qs[i0 : i0 + m])
        if not np.all(s.e > 0):
            raise NetZeroGridError("peak revenue undefined on a net-zero grid")
        # the operation order of unconstrained_peak_revenue and PeriodState.cost,
        # so each gap is the scalar one: e*M/(e*eps) - ((C_S + C_R) - f*pi)
        np.subtract(np.add(s.C_S, s.C_R, out=cost), np.multiply(s.f, s.pi, out=gap), out=cost)
        np.subtract(np.divide(np.multiply(s.e, dm.market_size, out=gap), peak_scale, out=gap), cost, out=gap)

        np.sign(gap, out=sign)
        if carry * sign[0] < 0.0:  # the change between this block and the last
            starts.append(i0 - 1)
            ends.append(i0)
        np.equal(sign, 0.0, out=zero)
        np.less(np.multiply(sign[:-1], sign[1:], out=cost[:-1]), 0.0, out=start[:-1])
        start[-1] = False
        at = np.flatnonzero(np.logical_or(start, zero, out=start))
        starts.extend((at + i0).tolist())
        ends.extend((at + i0 + ~zero[at]).tolist())  # a zero ends where it starts
        carry = sign[-1]
    brackets = tuple(zip(qs[starts].tolist(), qs[ends].tolist()))

    return EquilibriumScan(
        found=bool(brackets),
        bracket=brackets[0] if brackets else None,
        sign_changes=brackets,
        n_points=n_points,
    )
