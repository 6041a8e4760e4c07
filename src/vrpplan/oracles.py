"""Independent brute-force verifiers for the closed-form results.

Nothing here is used by the solvers themselves: these are falsifiers for
tests and the ``verify`` command.  Policy enumeration checks that the myopic
trajectory statewise-dominates every discretized feasible policy; the dense
scans re-derive the optimal price and the equilibrium root by exhaustive
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import demand_pricing as dp
from . import equilibrium as eqm
from . import grid_model as gm
from . import trajectory as traj
from .errors import EnumerationConfigError, NetZeroGridError
from .serialize import Serializable
from .tolerances import ROUNDING_TOL, ZERO_TOL, scaled


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


def _rollout(
    dm: dp.DemandModel,
    model: gm.GridModel,
    q_init: float,
    fractions: np.ndarray,
    limit: float,
) -> list[float]:
    # capacity path Q_0..Q_h under per-period fractions of the maximal step
    path = [q_init]
    q_state = q_init
    for frac in fractions:
        step = min(
            traj.max_feasible_expansion(dm, model, q_state), max(0.0, limit - q_state)
        )
        q_state = q_state + frac * step
        path.append(q_state)
    return path


def _hitting_time(path: list[float], limit: float, horizon: int) -> int:
    tol = scaled(ZERO_TOL, limit)
    for t, q in enumerate(path):
        if q >= limit - tol:
            return t
    return horizon + 1  # never reached within the horizon


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
    """
    result = equilibrium or eqm.solve_long_run_limit(dm, model)
    limit = result.capacity_limit
    if certificate is None:
        certificate = traj.certify_monotone_reachability(
            dm, model, q_init=cfg.q_init, equilibrium=result
        )

    g = ecfg.action_grid_size
    horizon = ecfg.horizon
    total = g**horizon
    if total > ecfg.max_policies:
        if ecfg.seed is None:
            raise EnumerationConfigError(
                f"{total} policies exceed the cap {ecfg.max_policies}; "
                "set a seed to subsample"
            )
        rng = np.random.default_rng(ecfg.seed)
        index_rows = rng.integers(0, g, size=(ecfg.max_policies, horizon))
        sampled = True
    else:
        index_rows = np.array(
            [np.unravel_index(i, (g,) * horizon) for i in range(total)]
        ).reshape(total, horizon)
        sampled = False
    fractions_of = np.linspace(0.0, 1.0, g)

    myo_path = _rollout(dm, model, cfg.q_init, np.ones(horizon), limit)
    myo_hit = _hitting_time(myo_path, limit, horizon)
    emissions_horizon = min(myo_hit, horizon)
    myo_emissions = sum(
        model.emissions_at(q) for q in myo_path[: emissions_horizon + 1]
    )

    statewise = 0
    hitting = 0
    emissions = 0
    worst_hit_gap = 0
    worst_emis_gap = -math.inf
    state_tol = scaled(ZERO_TOL, limit)

    for row in index_rows:
        path = _rollout(dm, model, cfg.q_init, fractions_of[row], limit)
        if any(p > m + state_tol for m, p in zip(myo_path, path)):
            statewise += 1
        pol_hit = _hitting_time(path, limit, horizon)
        worst_hit_gap = max(worst_hit_gap, myo_hit - pol_hit)
        if pol_hit < myo_hit:
            hitting += 1
        pol_emissions = sum(
            model.emissions_at(q) for q in path[: emissions_horizon + 1]
        )
        gap = myo_emissions - pol_emissions
        worst_emis_gap = max(worst_emis_gap, gap)
        if gap > scaled(ZERO_TOL, myo_emissions):
            emissions += 1

    return DominanceReport(
        n_policies_total=total,
        n_policies_evaluated=len(index_rows),
        sampled=sampled,
        seed=ecfg.seed,
        statewise_violations=statewise,
        hitting_time_violations=hitting,
        emissions_violations=emissions,
        worst_hitting_gap=worst_hit_gap,
        worst_emissions_gap=worst_emis_gap,
        certificate_holds=certificate.holds,
    )


def dense_scan_price(
    dm: dp.DemandModel, model: gm.GridModel, q: float, n_points: int = 10**6
) -> float:
    """Best feasible price on a uniform grid; the oracle for the closed form.

    The grid spans [0, p_cap] with p_cap = max(10 e/eps, 2 (e/eps) ln(M/f)),
    wide enough to cover both pricing regimes with margin.
    """
    if n_points < 10:
        raise ValueError("n_points too small to be meaningful")
    e_q = model.emissions_at(q)
    f_q = model.delivered_at(q)
    base = e_q / dm.sensitivity
    p_cap = 10.0 * base
    if 0 < f_q < dm.market_size:
        p_cap = max(p_cap, 2.0 * base * math.log(dm.market_size / f_q))
    prices = np.linspace(0.0, p_cap, n_points)
    sales = dm.market_size * np.exp(-dm.sensitivity * prices / e_q)
    rev = np.where(sales <= f_q + scaled(ROUNDING_TOL, f_q), prices * sales, -np.inf)
    return float(prices[int(np.argmax(rev))])


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
    sample with a gap of exactly zero is a bracket of width zero.
    """
    if n_points < 10:
        raise ValueError("n_points too small to be meaningful")
    threshold = eqm.find_deliverability_threshold(dm, model)
    qs = np.linspace(threshold, model.domain[1], n_points)
    s = model.state(qs)
    if not np.all(s.e > 0):
        raise NetZeroGridError("peak revenue undefined on a net-zero grid")
    # the operation order of unconstrained_peak_revenue, so each gap is the scalar one
    gaps = s.e * dm.market_size / (math.e * dm.sensitivity) - s.cost

    sign = np.sign(gaps)
    zero = sign == 0.0
    start = np.flatnonzero(zero | np.append(sign[:-1] * sign[1:] < 0.0, False))
    end = np.where(zero[start], start, start + 1)
    brackets = tuple(zip(qs[start].tolist(), qs[end].tolist()))

    return EquilibriumScan(
        found=bool(brackets),
        bracket=brackets[0] if brackets else None,
        sign_changes=brackets,
        n_points=n_points,
    )
