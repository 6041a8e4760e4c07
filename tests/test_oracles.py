"""Brute-force verifiers: policy enumeration and dense scans."""

import gc
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE, adversarial_dip_model, drawn_model, flat_model
from vrpplan.demand_pricing import DemandModel, decide_at, unconstrained_peak_revenue
from vrpplan.equilibrium import _gap, find_deliverability_threshold, solve_long_run_limit
from vrpplan.errors import (
    CurveDomainError,
    NetZeroGridError,
    NoSellableCreditsError,
    VrpError,
)
from vrpplan import oracles, trajectory
from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel, array_arithmetic, linspace
from vrpplan.oracles import (
    SCAN_LEAF,
    DominanceReport,
    EquilibriumScan,
    _walk_prefix_array,
    _walk_prefix_tree,
    dense_scan_equilibrium,
    dense_scan_price,
    enumerate_and_compare,
)
from vrpplan.tolerances import ROUNDING_TOL, ZERO_TOL, scaled
from vrpplan.trajectory import certify_monotone_reachability, solve_period

DM = DemandModel(market_size=10.0, sensitivity=0.0045)
SCAN_BLOCK = 2**14  # grid points per block of the exhaustive reference scans


def reference_report(dm, model, g, horizon, q_init, result) -> DominanceReport:
    """Every policy rolled out from ``q_init`` on its own, one scalar decision at a time."""
    limit = result.capacity_limit
    tol = scaled(ZERO_TOL, limit)
    rows = np.array([np.unravel_index(i, (g,) * horizon) for i in range(g**horizon)])
    fractions = np.linspace(0.0, 1.0, g)

    def rollout(row):
        path = [q_init]
        for frac in row:
            q = path[-1]
            step = min(solve_period(dm, model, q).expansion, max(0.0, limit - q))
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
        n_policies_evaluated=len(rows),
        statewise_violations=statewise,
        hitting_time_violations=hitting,
        emissions_violations=emissions,
        worst_hitting_gap=worst_hit_gap,
        worst_emissions_gap=worst_emissions_gap,
    )


ENUMERATION_CASES = [
    pytest.param(BASELINE.demand, BASELINE.grid, 0.5, id="baseline"),
    pytest.param(*adversarial_dip_model(), 1.0, id="dip"),
    pytest.param(DM, flat_model(0.3, 5.0, 0.0, alpha_s=20.0, beta_s=4.0), 0.5, id="flat"),
]


class TestEnumerateAndCompare:
    @pytest.mark.parametrize("g, horizon, message", [
        (1, 3, "action_grid_size must be at least 2"), (4, 0, "horizon must be at least 1"),
    ])
    def test_validation_before_any_work(self, baseline_demand, baseline_model, monkeypatch, g, horizon, message):
        def unsolved(*args):
            raise AssertionError("the limit was solved")

        monkeypatch.setattr(oracles.eqm, "solve_long_run_limit", unsolved)
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_and_compare(baseline_demand, baseline_model, g, horizon, q_init=0.5)

    def test_baseline_exhaustive(self, baseline_demand, baseline_model):
        report = enumerate_and_compare(baseline_demand, baseline_model, 5, 3, q_init=0.5)
        assert report.n_policies_evaluated == 125
        assert report.passed
        assert report.statewise_violations == 0
        assert report.hitting_time_violations == 0
        assert report.emissions_violations == 0
        assert report.worst_hitting_gap <= 0
        assert report.worst_emissions_gap <= 1e-9

    def test_single_period_is_argmax(self, baseline_demand, baseline_model):
        report = enumerate_and_compare(baseline_demand, baseline_model, 4, 1, q_init=0.5)
        assert report.n_policies_evaluated == 4
        assert report.passed

    @pytest.mark.parametrize("dm, model, q_init", ENUMERATION_CASES)
    def test_counts_match_scalar_rollouts(self, dm, model, q_init):
        # both walks of the prefix tree against every policy rolled out on its own
        result = solve_long_run_limit(dm, model)
        limit = result.capacity_limit
        for g, horizon in [(g, h) for g in (2, 3, 4, 5) for h in range(1, 6)]:
            expected = reference_report(dm, model, g, horizon, q_init, result)
            array = _walk_prefix_array(dm, model, q_init, limit, np.linspace(0.0, 1.0, g), horizon)
            walk = _walk_prefix_tree(dm, model, q_init, limit, linspace(0.0, 1.0, g), horizon)
            array, walk = DominanceReport(g**horizon, **array), DominanceReport(g**horizon, **walk)
            # the route with numpy loaded
            assert enumerate_and_compare(dm, model, g, horizon, q_init=q_init, equilibrium=result) == array
            for report in (array, walk):
                # the one float: np.exp against math.exp moves it by ulps at most
                assert report.worst_emissions_gap == pytest.approx(
                    expected.worst_emissions_gap, rel=1e-12, abs=1e-15
                )
                assert report._replace(worst_emissions_gap=0.0) == expected._replace(worst_emissions_gap=0.0)

    def test_each_level_steps_its_distinct_capacities_once(self, baseline_demand, baseline_model, monkeypatch):
        # a zero action leaves the capacity as it was, so 4**t prefixes hold (3**(t+1) - 1) / 2 capacities
        sizes = []
        stepped = trajectory._max_feasible

        def counted(dm, s, k):
            sizes.append(np.size(s.q))
            return stepped(dm, s, k)

        monkeypatch.setattr(trajectory, "_max_feasible", counted)
        report = enumerate_and_compare(baseline_demand, baseline_model, 4, 6, q_init=BASELINE.simulation.q_init)
        assert report.n_policies_evaluated == 4096 and report.passed
        assert sizes == [1, 4, 13, 40, 121, 364] and sum(sizes) == 543

    def test_adversarial_model_shows_violations(self):
        # non-monotone reach map: the certificate fails, and some under-building
        # policies overtake the myopic path
        dm, model = adversarial_dip_model()
        assert not certify_monotone_reachability(dm, model, q_init=1.0).holds
        report = enumerate_and_compare(dm, model, 4, 3, q_init=1.0)
        assert report.statewise_violations > 0
        assert not report.passed


class TestEnumerationRoutes:
    """The float walk of the prefix tree, which ``verify`` takes without numpy,
    against the array walk over the same policies."""

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
        fractions = linspace(0.0, 1.0, g)
        try:
            array = _walk_prefix_array(dm, model, q_init, limit, np.linspace(0.0, 1.0, g), horizon)
        except VrpError as exc:
            with pytest.raises(type(exc)):
                _walk_prefix_tree(dm, model, q_init, limit, fractions, horizon)
            return
        walk = _walk_prefix_tree(dm, model, q_init, limit, fractions, horizon)
        walk_gap, array_gap = walk.pop("worst_emissions_gap"), array.pop("worst_emissions_gap")
        assert walk == array  # every count and the hitting gap
        # each sum adds horizon + 1 values of e, each within ulps of np.exp's, at capacities
        # stepped by decisions that carry the same ulps
        e_scale = float(np.max(np.abs(model.emissions_at(np.linspace(q_init, limit, 64)))))
        assert abs(walk_gap - array_gap) <= 16 * (horizon + 1) * sys.float_info.epsilon * e_scale

    def test_an_overflowing_state_raises_on_both_routes(self, baseline_demand, baseline_model):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        model = baseline_model._replace(cost_system=CostSpec(0.0, 1e308))  # C_S overflows past Q = 1.35
        with pytest.raises(CurveDomainError, match="^policy enumeration: "):
            _walk_prefix_array(baseline_demand, model, 2.0, limit, np.linspace(0.0, 1.0, 4), 3)
        with pytest.raises(CurveDomainError, match="^policy enumeration: "):
            _walk_prefix_tree(baseline_demand, model, 2.0, limit, linspace(0.0, 1.0, 4), 3)


# every leaf and block boundary case of the scans and their references
SCAN_SIZES = [10, SCAN_LEAF - 1, SCAN_LEAF, SCAN_LEAF + 1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 1]


def reference_price_scan(dm, model, q, n_points):
    """The exhaustive scan the bound is checked against: every block filled,
    with fresh arrays, as it was before its buffers."""
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
        # every leaf and block boundary case: below, at and past one, two blocks and a tail
        assert decide_at(dm, model.state(q), model.invest_cost).deliverability_binding is binding
        for n in (*SCAN_SIZES, 100_003, 10**6):
            assert dense_scan_price(dm, model, q, n) == reference_price_scan(dm, model, q, n), n

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([CurveKind.EXPONENTIAL_DECAY, CurveKind.TABULATED]),
        binding=st.booleans(),
        at=st.floats(0.0, 1.0),  # the state, as a fraction of its regime's span of the domain
        n=st.sampled_from(SCAN_SIZES) | st.integers(10, 300_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_matches_the_reference(self, seed, kind, binding, at, n):
        dm, model = drawn_model(kind, np.random.default_rng(seed))
        lo, hi = model.domain
        try:
            threshold = find_deliverability_threshold(dm, model)
        except VrpError:
            threshold = hi  # the cap binds on the whole domain
        q = lo + at * (threshold - lo) if binding else threshold + at * (hi - threshold)
        try:
            scan = dense_scan_price(dm, model, q, n)
        except VrpError as exc:  # no price to find: the closed form raises alike
            with pytest.raises(type(exc)):
                decide_at(dm, model.state(q), model.invest_cost)
            return
        assert scan == reference_price_scan(dm, model, q, n)

    def test_fills_only_the_blocks_that_can_win(self, baseline_demand, baseline_model, monkeypatch):
        # CI parity's states: each 1e6-point scan fills at most 20 of its 489 leaves, one np.exp
        # each, and so fewer points than the 6 of 62 blocks the exhaustive reference's blocks allowed
        exp, filled = np.exp, []
        monkeypatch.setattr(np, "exp", lambda x, *args, **kwargs: filled.append(np.size(x)) or exp(x, *args, **kwargs))
        for q in (0.5, 3.0, 5.132567136843136, 6.5):
            filled.clear()
            scan = dense_scan_price(baseline_demand, baseline_model, q)
            assert 1 <= len(filled) <= 20 and sum(filled) <= 20 * SCAN_LEAF < 6 * SCAN_BLOCK, q
            assert scan == reference_price_scan(baseline_demand, baseline_model, q, 10**6)

    def test_no_credits_raises_like_the_closed_form(self, baseline_demand, baseline_model):
        # f(0) = 0 on the baseline: no price, not a best price of 0.0
        with pytest.raises(NoSellableCreditsError):
            decide_at(baseline_demand, baseline_model.state(0.0), baseline_model.invest_cost)
        with pytest.raises(NoSellableCreditsError):
            dense_scan_price(baseline_demand, baseline_model, 0.0)

    def test_overflowing_m_over_f_raises_like_the_closed_form(self, baseline_demand, baseline_model):
        # f(2.2e-309) = 2.1e-309 on the baseline: M/f(Q) overflows, so the price and p_cap would be inf
        q = 2.2e-309
        with pytest.raises(NoSellableCreditsError, match="M/f"):
            decide_at(baseline_demand, baseline_model.state(q), baseline_model.invest_cost)
        states = baseline_model.state(np.array([3.0, 1e-300, q]))
        with np.errstate(all="raise"):  # no overflow on the way to the error
            with pytest.raises(NoSellableCreditsError, match="M/f"):
                trajectory._max_feasible(baseline_demand, states, baseline_model.invest_cost)
            with pytest.raises(NoSellableCreditsError, match="M/f"):
                dense_scan_price(baseline_demand, baseline_model, q)
        # 1e-300 is the smallest of these capacities whose price is finite
        assert math.isfinite(decide_at(baseline_demand, baseline_model.state(1e-300), baseline_model.invest_cost).price)

    def test_net_zero_grid_raises_like_the_closed_form(self):
        model = flat_model(0.3, 5.0, 0.0)._replace(
            emissions=GridCurve(CurveKind.TABULATED, table=((0.0, 0.3), (10.0, 0.0))),
        )
        with pytest.raises(NetZeroGridError):
            decide_at(DM, model.state(10.0), model.invest_cost)
        with np.errstate(all="raise"):  # no 0/0 on the way to the error
            with pytest.raises(NetZeroGridError):
                dense_scan_price(DM, model, 10.0)

    def test_interior_model(self):
        model = flat_model(0.3, 5.0, 0.0)
        closed = decide_at(DM, model.state(1.0), model.invest_cost).price
        n = 10**5
        scan = dense_scan_price(DM, model, 1.0, n)
        step = 10.0 * (0.3 / DM.sensitivity) / (n - 1)
        assert abs(scan - closed) <= step

    def test_binding_model(self):
        model = flat_model(0.3, 2.0, 0.0)
        closed = decide_at(DM, model.state(1.0), model.invest_cost).price
        n = 10**5
        scan = dense_scan_price(DM, model, 1.0, n)
        base = 0.3 / DM.sensitivity
        p_cap = max(10.0 * base, 2.0 * base * math.log(10.0 / 2.0))
        assert abs(scan - closed) <= p_cap / (n - 1)

    def test_coarse_grid_resolution_bound(self):
        model = flat_model(0.3, 5.0, 0.0)
        closed = decide_at(DM, model.state(1.0), model.invest_cost).price
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
    gaps = [_gap(model.state(float(q)), dm.market_size, math.e * dm.sensitivity)[0] for q in qs]
    brackets = []
    for i in range(n_points - 1):
        if gaps[i] == 0.0:
            brackets.append((float(qs[i]), float(qs[i])))
        elif gaps[i] * gaps[i + 1] < 0.0:
            brackets.append((float(qs[i]), float(qs[i + 1])))
    if gaps[-1] == 0.0:
        brackets.append((float(qs[-1]), float(qs[-1])))
    return tuple(brackets)


def reference_equilibrium_scan(dm, model, n_points):
    """The exhaustive scan the enclosures are checked against: every block of
    SCAN_BLOCK points filled, the last sign of a block carried to the next."""
    lo, hi = find_deliverability_threshold(dm, model), model.domain[1]
    div, delta = n_points - 1, hi - lo
    step = delta / div

    def point(i):
        return hi if i == div else (i * step if step else i / div * delta) + lo

    starts, ends = [], []
    carry = 0.0  # the sign of the last point of the previous block
    with array_arithmetic("equilibrium scan"):
        for i0 in range(0, n_points, SCAN_BLOCK):
            m = min(SCAN_BLOCK, n_points - i0)
            q = np.arange(i0, i0 + m, dtype=float)
            q = (q * step if step else q / div * delta) + lo
            if i0 + m == n_points:
                q[-1] = hi
            s = model.state(q)
            if not np.all(s.e > 0):
                raise NetZeroGridError("peak revenue undefined on a net-zero grid")
            sign = np.sign(s.e * dm.market_size / (math.e * dm.sensitivity) - ((s.C_S + s.C_R) - s.f * s.pi))
            if carry * sign[0] < 0.0:
                starts.append(i0 - 1)
                ends.append(i0)
            zero = sign == 0.0
            at = np.flatnonzero(np.append(sign[:-1] * sign[1:] < 0.0, False) | zero)
            starts.extend((at + i0).tolist())
            ends.extend((at + i0 + ~zero[at]).tolist())
            carry = sign[-1]
    brackets = tuple((point(i), point(j)) for i, j in zip(starts, ends))
    return EquilibriumScan(bool(brackets), brackets[0] if brackets else None, brackets, n_points)


class TestDenseScanEquilibrium:
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(CurveKind),
        n=st.sampled_from(SCAN_SIZES) | st.integers(10, 300_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_matches_the_reference(self, seed, kind, n):
        dm, model = drawn_model(kind, np.random.default_rng(seed))
        try:
            expected = reference_equilibrium_scan(dm, model, n)
        except VrpError as exc:  # no threshold, or a state the scan cannot take: the scan raises alike
            with pytest.raises(type(exc)):
                dense_scan_equilibrium(dm, model, n)
            return
        assert dense_scan_equilibrium(dm, model, n) == expected

    def test_fills_only_the_leaves_that_hold_a_sign_change(self, baseline_demand, baseline_model, monkeypatch):
        # the baseline's one root: its 1e5-point scan evaluates at most 2 of its 49 leaves
        state, sizes = GridModel.state, []
        monkeypatch.setattr(GridModel, "state", lambda self, q: sizes.append(np.size(q)) or state(self, q))
        scan = dense_scan_equilibrium(baseline_demand, baseline_model)
        assert 1 <= len(sizes) <= 2 and sum(sizes) <= 2 * SCAN_LEAF
        monkeypatch.undo()
        assert scan == reference_equilibrium_scan(baseline_demand, baseline_model, 10**5)

    def test_a_raising_enclosure_skips_nothing(self, baseline_demand, baseline_model, monkeypatch):
        # pi = 1e-300 Q**500 is finite on [0, 12], but the enclosure's magnitude Q**500 overflows past
        # Q = 4.2, so on all of the scan's span above the threshold, 5.13
        model = baseline_model._replace(energy_value=GridCurve(CurveKind.POLYNOMIAL, (0.0,) * 499 + (1e-300,)))
        with pytest.raises(OverflowError):
            model.state_range(4.2, 4.2)
        state, sizes = GridModel.state, []
        monkeypatch.setattr(GridModel, "state", lambda self, q: sizes.append(np.size(q)) or state(self, q))
        scan = dense_scan_equilibrium(baseline_demand, model)
        assert sum(sizes) == 10**5  # every point filled
        monkeypatch.undo()
        assert scan == reference_equilibrium_scan(baseline_demand, model, 10**5)

    def test_scans_leave_no_cyclic_garbage(self, baseline_demand, baseline_model):
        # each scan's buffers and closures go when it returns, not when the cyclic collector next runs
        gc.collect()
        gc.disable()
        try:
            dense_scan_equilibrium(baseline_demand, baseline_model)
            dense_scan_price(baseline_demand, baseline_model, 3.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    def test_too_few_points_rejected(self, baseline_demand, baseline_model):
        with pytest.raises(ValueError, match="n_points too small"):
            dense_scan_equilibrium(baseline_demand, baseline_model, 9)
        with pytest.raises(ValueError, match="n_points too small"):
            dense_scan_price(baseline_demand, baseline_model, 3.0, 9)

    def test_multiple_sign_changes_on_rejected_model(self):
        scan = dense_scan_equilibrium(DM, oscillating_model(), 2000)
        assert scan.found
        assert len(scan.sign_changes) >= 3

    def test_matches_a_scalar_loop(self, baseline_demand, baseline_model):
        # the last crossing, at Q = 8.75, lies between the last point of the first
        # block and the first of the second, halfway
        straddling = round((SCAN_BLOCK - 0.5) * 10.0 / 8.75) + 1
        straddling_leaf = round((SCAN_LEAF - 0.5) * 10.0 / 8.75) + 1  # the same between two leaves
        cases = [
            (baseline_demand, baseline_model, 10**4),
            (DM, zero_gap_model(), 1000),
            (DM, flat_model(0.45, 4.0, 0.0), 1000),
            (DM, oscillating_model(), 2000),
            (DM, oscillating_model(), straddling),
            (DM, oscillating_model(), straddling_leaf),
            (DM, zero_gap_model(), SCAN_BLOCK + 1),  # every point a zero-width bracket
        ]
        for dm, model, n in cases:
            scan = dense_scan_equilibrium(dm, model, n)
            assert scan.sign_changes == scalar_sign_changes(dm, model, n)
        qs = np.linspace(0.0, 10.0, straddling)  # the oscillating model's threshold is Q = 0
        across = (float(qs[SCAN_BLOCK - 1]), float(qs[SCAN_BLOCK]))
        assert across in dense_scan_equilibrium(DM, oscillating_model(), straddling).sign_changes
        qs = np.linspace(0.0, 10.0, straddling_leaf)
        across = (float(qs[SCAN_LEAF - 1]), float(qs[SCAN_LEAF]))
        assert across in dense_scan_equilibrium(DM, oscillating_model(), straddling_leaf).sign_changes
        zeros = dense_scan_equilibrium(DM, zero_gap_model(), SCAN_BLOCK + 1).sign_changes
        assert len(zeros) == SCAN_BLOCK + 1
