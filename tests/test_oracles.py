"""Brute-force verifiers: policy enumeration and dense scans."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE, adversarial_dip_model, drawn_model, flat_model
from vrpplan.demand_pricing import DemandModel, price_at, unconstrained_peak_revenue
from vrpplan.equilibrium import _gap, find_deliverability_threshold, solve_long_run_limit
from vrpplan.errors import (
    CurveDomainError,
    EnumerationConfigError,
    NetZeroGridError,
    NoSellableCreditsError,
    VrpError,
)
from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel
from vrpplan.oracles import (
    SCAN_BLOCK,
    DominanceReport,
    EnumerationConfig,
    _expand_rows,
    _walk_prefix_tree,
    dense_scan_equilibrium,
    dense_scan_price,
    enumerate_and_compare,
)
from vrpplan.tolerances import ROUNDING_TOL, ZERO_TOL, scaled
from vrpplan.trajectory import (
    SimulationConfig,
    certify_monotone_reachability,
    max_feasible_expansion,
)

DM = DemandModel(market_size=10.0, sensitivity=0.0045)


def reference_report(dm, model, cfg, ecfg, result, certificate) -> DominanceReport:
    """Every policy rolled out from Q0 on its own, one scalar decision at a time."""
    limit = result.capacity_limit
    tol = scaled(ZERO_TOL, limit)
    g, horizon = ecfg.action_grid_size, ecfg.horizon
    total = g**horizon
    if total > ecfg.max_policies:
        rows = np.random.default_rng(ecfg.seed).integers(0, g, size=(ecfg.max_policies, horizon))
    else:
        rows = np.array([np.unravel_index(i, (g,) * horizon) for i in range(total)])
    fractions = np.linspace(0.0, 1.0, g)

    def rollout(row):
        path = [cfg.q_init]
        for frac in row:
            q = path[-1]
            step = min(max_feasible_expansion(dm, model, q), max(0.0, limit - q))
            path.append(q + frac * step)
        return path

    def hitting_time(path):
        return next((t for t, q in enumerate(path) if q >= limit - tol), horizon + 1)

    myo_path = rollout(np.ones(horizon))
    myo_hit = hitting_time(myo_path)
    span = min(myo_hit, horizon) + 1
    myo_emissions = sum(model.emissions_at(q) for q in myo_path[:span])
    statewise = hitting = emissions = worst_hit_gap = 0
    worst_emissions_gap = -math.inf
    for row in rows:
        path = rollout(fractions[row])
        statewise += any(p > m + tol for m, p in zip(myo_path, path))
        hit = hitting_time(path)
        hitting += hit < myo_hit
        worst_hit_gap = max(worst_hit_gap, myo_hit - hit)
        gap = myo_emissions - sum(model.emissions_at(q) for q in path[:span])
        emissions += gap > scaled(ZERO_TOL, myo_emissions)
        worst_emissions_gap = max(worst_emissions_gap, gap)
    return DominanceReport(
        n_policies_total=total,
        n_policies_evaluated=len(rows),
        sampled=total > ecfg.max_policies,
        seed=ecfg.seed,
        statewise_violations=statewise,
        hitting_time_violations=hitting,
        emissions_violations=emissions,
        worst_hitting_gap=worst_hit_gap,
        worst_emissions_gap=worst_emissions_gap,
        certificate_holds=certificate.holds,
    )


ENUMERATION_CASES = [
    pytest.param(BASELINE.demand, BASELINE.grid, 0.5, id="baseline"),
    pytest.param(*adversarial_dip_model(), 1.0, id="dip"),
    pytest.param(DM, flat_model(0.3, 5.0, 0.0, alpha_s=20.0, beta_s=4.0), 0.5, id="flat"),
]


class TestEnumerationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnumerationConfig(action_grid_size=1, horizon=3)
        with pytest.raises(ValueError):
            EnumerationConfig(action_grid_size=4, horizon=0)
        with pytest.raises(ValueError):
            EnumerationConfig(action_grid_size=4, horizon=3, max_policies=0)

    def test_explosion_without_seed_rejected(self, baseline_demand, baseline_model):
        cfg = SimulationConfig(q_init=0.5, horizon=10)
        ecfg = EnumerationConfig(action_grid_size=6, horizon=10, max_policies=1000)
        with pytest.raises(EnumerationConfigError):
            enumerate_and_compare(baseline_demand, baseline_model, cfg, ecfg)

    def test_explosion_with_seed_samples(self, baseline_demand, baseline_model):
        cfg = SimulationConfig(q_init=0.5, horizon=10)
        ecfg = EnumerationConfig(action_grid_size=6, horizon=6, max_policies=500, seed=5)
        report = enumerate_and_compare(baseline_demand, baseline_model, cfg, ecfg)
        assert report.sampled
        assert report.n_policies_evaluated == 500
        assert report.n_policies_total == 6**6


class TestEnumerateAndCompare:
    def test_baseline_exhaustive(self, baseline_demand, baseline_model):
        cfg = SimulationConfig(q_init=0.5, horizon=3)
        ecfg = EnumerationConfig(action_grid_size=5, horizon=3)
        report = enumerate_and_compare(baseline_demand, baseline_model, cfg, ecfg)
        assert report.n_policies_evaluated == 125
        assert not report.sampled
        assert report.passed
        assert report.statewise_violations == 0
        assert report.hitting_time_violations == 0
        assert report.emissions_violations == 0
        assert report.worst_hitting_gap <= 0
        assert report.worst_emissions_gap <= 1e-9
        assert report.certificate_holds

    def test_single_period_is_argmax(self, baseline_demand, baseline_model):
        cfg = SimulationConfig(q_init=0.5, horizon=1)
        report = enumerate_and_compare(
            baseline_demand, baseline_model, cfg, EnumerationConfig(4, 1)
        )
        assert report.n_policies_evaluated == 4
        assert report.passed

    def test_determinism_with_seed(self, baseline_demand, baseline_model):
        cfg = SimulationConfig(q_init=0.5, horizon=6)
        ecfg = EnumerationConfig(action_grid_size=5, horizon=6, max_policies=300, seed=11)
        first = enumerate_and_compare(baseline_demand, baseline_model, cfg, ecfg)
        second = enumerate_and_compare(baseline_demand, baseline_model, cfg, ecfg)
        assert first == second

    @pytest.mark.parametrize("dm, model, q_init", ENUMERATION_CASES)
    def test_counts_match_scalar_rollouts(self, dm, model, q_init):
        # the level-wise expansion against every policy rolled out on its own
        result = solve_long_run_limit(dm, model)
        certificate = certify_monotone_reachability(dm, model, q_init=q_init, equilibrium=result)
        cfg = SimulationConfig(q_init=q_init, horizon=10)
        configs = [EnumerationConfig(g, h) for g in (2, 3, 4, 5) for h in range(1, 6)]
        configs.append(EnumerationConfig(5, 6, max_policies=300, seed=11))
        for ecfg in configs:
            report = enumerate_and_compare(dm, model, cfg, ecfg, result, certificate)
            expected = reference_report(dm, model, cfg, ecfg, result, certificate)
            # the one float: np.exp against math.exp moves it by ulps at most
            assert report.worst_emissions_gap == pytest.approx(
                expected.worst_emissions_gap, rel=1e-12, abs=1e-15
            )
            assert replace(report, worst_emissions_gap=0.0) == replace(expected, worst_emissions_gap=0.0)
            if not report.sampled:  # the float walk that verify takes without numpy
                walk = _walk_prefix_tree(dm, model, q_init, result.capacity_limit, ecfg.action_grid_size, ecfg.horizon)
                assert walk.pop("worst_emissions_gap") == pytest.approx(
                    expected.worst_emissions_gap, rel=1e-12, abs=1e-15
                )
                assert replace(report, worst_emissions_gap=0.0) == replace(report, **walk, worst_emissions_gap=0.0)

    def test_adversarial_model_shows_violations(self):
        # non-monotone reach map: some under-building policies overtake the
        # myopic path, and the report flags the failed certificate first
        dm, model = adversarial_dip_model()
        cfg = SimulationConfig(q_init=1.0, horizon=3)
        report = enumerate_and_compare(dm, model, cfg, EnumerationConfig(4, 3))
        assert not report.certificate_holds
        assert report.statewise_violations > 0
        assert not report.passed


class TestEnumerationRoutes:
    """The float walk of the prefix tree, which ``verify`` takes without numpy,
    against the array route over the same policies."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(CurveKind),
        g=st.integers(2, 7),
        horizon=st.integers(1, 5),
        start=st.floats(0.0, 1.0),  # q_init as a fraction of the limit: near 1, the myopic path hits early
    )
    @settings(max_examples=60, deadline=None)
    def test_float_walk_matches_array_route(self, seed, kind, g, horizon, start):
        dm, model = drawn_model(kind, np.random.default_rng(seed))
        try:
            limit = solve_long_run_limit(dm, model).capacity_limit
        except VrpError:
            return  # no limit to enumerate towards
        q_init = start * limit
        rows = np.indices((g,) * horizon).reshape(horizon, g**horizon).T
        try:
            array = _expand_rows(dm, model, q_init, limit, g, rows)
        except VrpError as exc:
            with pytest.raises(type(exc)):
                _walk_prefix_tree(dm, model, q_init, limit, g, horizon)
            return
        walk = _walk_prefix_tree(dm, model, q_init, limit, g, horizon)
        walk_gap, array_gap = walk.pop("worst_emissions_gap"), array.pop("worst_emissions_gap")
        assert walk == array  # every count and the hitting gap
        # each sum adds horizon + 1 values of e, each within ulps of np.exp's, at capacities
        # stepped by decisions that carry the same ulps
        e_scale = float(np.max(np.abs(model.emissions_at(np.linspace(q_init, limit, 64)))))
        assert abs(walk_gap - array_gap) <= 16 * (horizon + 1) * sys.float_info.epsilon * e_scale

    def test_an_overflowing_state_raises_on_both_routes(self, baseline_demand, baseline_model):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        model = replace(baseline_model, cost_system=CostSpec(0.0, 1e308))  # C_S overflows past Q = 1.35
        rows = np.indices((4,) * 3).reshape(3, 64).T
        with pytest.raises(CurveDomainError, match="^policy enumeration: "):
            _expand_rows(baseline_demand, model, 2.0, limit, 4, rows)
        with pytest.raises(CurveDomainError, match="^policy enumeration: "):
            _walk_prefix_tree(baseline_demand, model, 2.0, limit, 4, 3)


def reference_price_scan(dm, model, q, n_points):
    """The price scan with fresh arrays in every block, as it was before its buffers."""
    e_q = model.emissions_at(q)
    f_q = model.delivered_at(q)
    base = e_q / dm.sensitivity
    p_cap = 10.0 * base
    if 0 < f_q < dm.market_size:
        p_cap = max(p_cap, 2.0 * base * math.log(dm.market_size / f_q))
    step = p_cap / (n_points - 1)
    best, best_rev = 0.0, -np.inf
    for i0 in range(0, n_points, SCAN_BLOCK):
        prices = np.arange(i0, min(i0 + SCAN_BLOCK, n_points)) * step + 0.0
        if i0 + SCAN_BLOCK >= n_points:
            prices[-1] = p_cap
        sales = dm.market_size * np.exp(-dm.sensitivity * prices / e_q)
        rev = np.where(sales <= f_q + scaled(ROUNDING_TOL, f_q), prices * sales, -np.inf)
        i = int(np.argmax(rev))
        if rev[i] > best_rev:
            best, best_rev = float(prices[i]), rev[i]
    return best


# both pricing regimes on each model: binding below its threshold, interior above
PRICE_SCAN_CASES = [
    pytest.param(BASELINE.demand, BASELINE.grid, 3.0, True, id="baseline-binding"),
    pytest.param(BASELINE.demand, BASELINE.grid, 6.5, False, id="baseline-interior"),
    pytest.param(*adversarial_dip_model(), 2.0, True, id="dip-binding"),
    pytest.param(*adversarial_dip_model(), 9.0, False, id="dip-interior"),
    pytest.param(DM, flat_model(0.3, 2.0, 0.0), 1.0, True, id="flat-binding"),
    pytest.param(DM, flat_model(0.3, 5.0, 0.0), 1.0, False, id="flat-interior"),
]


class TestDenseScanPrice:
    @pytest.mark.parametrize("dm, model, q, binding", PRICE_SCAN_CASES)
    def test_blocks_match_the_reference(self, dm, model, q, binding):
        # every block boundary case: below, at and past one block, two blocks and a tail
        assert price_at(dm, model.state(q)).deliverability_binding is binding
        sizes = (10, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 1, 100_003, 10**6)
        for n in sizes:
            assert dense_scan_price(dm, model, q, n) == reference_price_scan(dm, model, q, n), n

    def test_no_credits_raises_like_the_closed_form(self, baseline_demand, baseline_model):
        # f(0) = 0 on the baseline: no price, not a best price of 0.0
        with pytest.raises(NoSellableCreditsError):
            price_at(baseline_demand, baseline_model.state(0.0))
        with pytest.raises(NoSellableCreditsError):
            dense_scan_price(baseline_demand, baseline_model, 0.0)

    def test_overflowing_m_over_f_raises_like_the_closed_form(self, baseline_demand, baseline_model):
        # f(2.2e-309) = 2.1e-309 on the baseline: M/f(Q) overflows, so the price and p_cap would be inf
        q = 2.2e-309
        with pytest.raises(NoSellableCreditsError, match="M/f"):
            price_at(baseline_demand, baseline_model.state(q))
        states = baseline_model.state(np.array([3.0, 1e-300, q]))
        with np.errstate(all="raise"):  # no overflow on the way to the error
            with pytest.raises(NoSellableCreditsError, match="M/f"):
                price_at(baseline_demand, states)
            with pytest.raises(NoSellableCreditsError, match="M/f"):
                dense_scan_price(baseline_demand, baseline_model, q)
        # 1e-300 is the smallest of these capacities whose price is finite
        assert math.isfinite(price_at(baseline_demand, baseline_model.state(1e-300)).price)

    def test_net_zero_grid_raises_like_the_closed_form(self):
        model = replace(
            flat_model(0.3, 5.0, 0.0),
            emissions=GridCurve(CurveKind.TABULATED, table=((0.0, 0.3), (10.0, 0.0))),
        )
        with pytest.raises(NetZeroGridError):
            price_at(DM, model.state(10.0))
        with np.errstate(all="raise"):  # no 0/0 on the way to the error
            with pytest.raises(NetZeroGridError):
                dense_scan_price(DM, model, 10.0)

    def test_interior_model(self):
        model = flat_model(0.3, 5.0, 0.0)
        closed = price_at(DM, model.state(1.0)).price
        n = 10**5
        scan = dense_scan_price(DM, model, 1.0, n)
        step = 10.0 * (0.3 / DM.sensitivity) / (n - 1)
        assert abs(scan - closed) <= step

    def test_binding_model(self):
        model = flat_model(0.3, 2.0, 0.0)
        closed = price_at(DM, model.state(1.0)).price
        n = 10**5
        scan = dense_scan_price(DM, model, 1.0, n)
        base = 0.3 / DM.sensitivity
        p_cap = max(10.0 * base, 2.0 * base * math.log(10.0 / 2.0))
        assert abs(scan - closed) <= p_cap / (n - 1)

    def test_coarse_grid_resolution_bound(self):
        model = flat_model(0.3, 5.0, 0.0)
        closed = price_at(DM, model.state(1.0)).price
        scan = dense_scan_price(DM, model, 1.0, 10)
        p_cap = 10.0 * (0.3 / DM.sensitivity)
        assert abs(scan - closed) <= p_cap / 9 + 1e-9

    def test_too_few_points_rejected(self):
        model = flat_model(0.3, 5.0, 0.0)
        with pytest.raises(ValueError):
            dense_scan_price(DM, model, 1.0, 5)


def oscillating_model() -> GridModel:
    # increasing emissions table (structurally rejected) with an
    # oscillating cost built to flip the gap sign at every knot
    knots = [0.0, 2.5, 5.0, 7.5, 10.0]
    e_values = [0.10, 0.20, 0.21, 0.35, 0.36]
    signs = [+1.0, -1.0, +1.0, -1.0, +1.0]
    scale = DM.market_size / (math.e * DM.sensitivity)
    pi_values = [-(scale * e - s * 50.0) / 4.0 for e, s in zip(e_values, signs)]
    return GridModel(
        emissions=GridCurve(CurveKind.TABULATED, table=tuple(zip(knots, e_values))),
        delivered=GridCurve(CurveKind.TABULATED, table=((0.0, 4.0), (10.0, 4.0))),
        energy_value=GridCurve(CurveKind.TABULATED, table=tuple(zip(knots, pi_values))),
        cost_renewable=CostSpec(0.0, 0.0),
        cost_system=CostSpec(0.0, 0.0),
        invest_cost=1000.0,
        domain=(0.0, 10.0),
    )


def zero_gap_model() -> GridModel:
    return flat_model(0.45, 4.0, -unconstrained_peak_revenue(DM, 0.45) / 4.0)


def scalar_sign_changes(dm, model, n_points):
    # one model.state per grid point, in a plain loop
    qs = np.linspace(find_deliverability_threshold(dm, model), model.domain[1], n_points)
    gaps = [_gap(dm, model.state(float(q))) for q in qs]
    brackets = []
    for i in range(n_points - 1):
        if gaps[i] == 0.0:
            brackets.append((float(qs[i]), float(qs[i])))
        elif gaps[i] * gaps[i + 1] < 0.0:
            brackets.append((float(qs[i]), float(qs[i + 1])))
    if gaps[-1] == 0.0:
        brackets.append((float(qs[-1]), float(qs[-1])))
    return tuple(brackets)


class TestDenseScanEquilibrium:
    def test_baseline_bracket(self, baseline_demand, baseline_model):
        result = solve_long_run_limit(baseline_demand, baseline_model)
        scan = dense_scan_equilibrium(baseline_demand, baseline_model, 10**4)
        assert scan.found
        lo, hi = scan.bracket
        assert lo <= result.capacity_limit <= hi

    def test_identically_zero_gap_degenerates(self):
        model = zero_gap_model()
        scan = dense_scan_equilibrium(DM, model, 1000)
        assert scan.found
        assert scan.bracket == (model.domain[0], model.domain[0])

    def test_no_sign_change_reported(self):
        model = flat_model(0.45, 4.0, 0.0)  # zero cost: gap stays positive
        scan = dense_scan_equilibrium(DM, model, 1000)
        assert not scan.found
        assert scan.bracket is None
        assert scan.sign_changes == ()

    def test_multiple_sign_changes_on_rejected_model(self):
        scan = dense_scan_equilibrium(DM, oscillating_model(), 2000)
        assert scan.found
        assert len(scan.sign_changes) >= 3

    def test_matches_a_scalar_loop(self, baseline_demand, baseline_model):
        # the last crossing, at Q = 8.75, lies between the last point of the first
        # block and the first of the second, halfway
        straddling = round((SCAN_BLOCK - 0.5) * 10.0 / 8.75) + 1
        cases = [
            (baseline_demand, baseline_model, 10**4),
            (DM, zero_gap_model(), 1000),
            (DM, flat_model(0.45, 4.0, 0.0), 1000),
            (DM, oscillating_model(), 2000),
            (DM, oscillating_model(), straddling),
            (DM, zero_gap_model(), SCAN_BLOCK + 1),  # every point a zero-width bracket
        ]
        for dm, model, n in cases:
            scan = dense_scan_equilibrium(dm, model, n)
            assert scan.sign_changes == scalar_sign_changes(dm, model, n)
        qs = np.linspace(0.0, 10.0, straddling)  # the oscillating model's threshold is Q = 0
        across = (float(qs[SCAN_BLOCK - 1]), float(qs[SCAN_BLOCK]))
        assert across in dense_scan_equilibrium(DM, oscillating_model(), straddling).sign_changes
        zeros = dense_scan_equilibrium(DM, zero_gap_model(), SCAN_BLOCK + 1).sign_changes
        assert len(zeros) == SCAN_BLOCK + 1
