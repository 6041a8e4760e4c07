"""Demand, revenue, closed-form pricing, KKT residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_model, pick_expanding_state, random_accepted_model
from vrpplan.demand_pricing import (
    DemandModel,
    ExpansionStatus,
    _kkt_lstsq,
    decide_at,
    demand,
    kkt_residuals,
    price_at,
    revenue,
    unconstrained_peak_revenue,
)
from vrpplan.errors import NetZeroGridError, NoSellableCreditsError
from vrpplan.revenue_sharing import solve_separated_period
from vrpplan.trajectory import solve_period

DM = DemandModel(market_size=10.0, sensitivity=0.0045)


class TestDemand:
    def test_zero_premium_gives_market_size(self):
        assert demand(DM, 0.0, 0.3) == pytest.approx(10.0)

    def test_price_threshold_row(self):
        # effective price chosen so exp(-eps p / e) = 0.33
        e_q = 0.0045 * 69.37 / math.log(1.0 / 0.33)
        assert demand(DM, 69.37, e_q) == pytest.approx(3.3, rel=1e-12)

    def test_vanishing_at_large_price(self):
        e_q = 0.3
        assert demand(DM, 40.0 * e_q / DM.sensitivity, e_q) < 1e-12 * DM.market_size

    def test_strictly_decreasing_in_price(self):
        values = [demand(DM, p, 0.3) for p in np.linspace(0.0, 500.0, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_net_zero_grid_rejected(self):
        with pytest.raises(NetZeroGridError):
            demand(DM, 10.0, 0.0)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            demand(DM, -1.0, 0.3)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DemandModel(market_size=0.0, sensitivity=0.0045)
        with pytest.raises(ValueError):
            DemandModel(market_size=10.0, sensitivity=-1.0)


class TestRevenue:
    def test_zero_price(self):
        assert revenue(DM, 0.0, 0.3) == 0.0

    def test_value_at_stationary_point(self):
        e_q = 0.3
        peak = e_q / DM.sensitivity
        assert revenue(DM, peak, e_q) == pytest.approx(peak * 10.0 * math.exp(-1.0))
        assert unconstrained_peak_revenue(DM, e_q) == pytest.approx(
            revenue(DM, peak, e_q), rel=1e-12
        )

    def test_grid_argmax_matches_stationary_point(self):
        # oracle: exhaustive grid with step 1e-3 around a unit-scale peak
        e_q = 0.0045  # peak at e/eps = 1.0
        prices = np.arange(0.0, 10.0 + 1e-9, 1e-3)
        values = prices * DM.market_size * np.exp(-DM.sensitivity * prices / e_q)
        best = prices[np.argmax(values)]
        assert abs(best - e_q / DM.sensitivity) <= 2e-3


class TestOptimalPrice:
    def test_interior_regime(self):
        model = flat_model(0.3, 5.0, 0.0)
        price, binding = price_at(DM, model.state(1.0))
        assert price == pytest.approx(0.3 / 0.0045)
        assert not binding

    def test_binding_regime(self):
        model = flat_model(0.3, 2.0, 0.0)
        price, binding = price_at(DM, model.state(1.0))
        assert price == pytest.approx((0.3 / 0.0045) * math.log(5.0))
        assert binding

    def test_regime_continuity_at_boundary(self):
        f_boundary = DM.market_size * math.exp(-1.0)
        model = flat_model(0.3, f_boundary, 0.0)
        price, _ = price_at(DM, model.state(1.0))
        base = 0.3 / 0.0045
        assert price == pytest.approx(base, rel=1e-9)
        assert base * math.log(DM.market_size / f_boundary) == pytest.approx(
            base, rel=1e-9
        )

    def test_no_credits_error(self):
        model = flat_model(0.3, 0.0, 0.0)
        with pytest.raises(NoSellableCreditsError):
            price_at(DM, model.state(1.0))

    def test_proportional_to_emissions_interior_regime(self, baseline_demand, baseline_model):
        q1, q2 = 5.5, 6.8  # both beyond the deliverability threshold
        p1, b1 = price_at(baseline_demand, baseline_model.state(q1))
        p2, b2 = price_at(baseline_demand, baseline_model.state(q2))
        assert not b1 and not b2
        ratio = baseline_model.emissions_at(q1) / baseline_model.emissions_at(q2)
        assert p1 / p2 == pytest.approx(ratio, rel=1e-9)

    def test_proportional_to_emissions_binding_regime_flat_delivery(self):
        dm = DemandModel(market_size=10.0, sensitivity=0.0045)
        from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel

        model = GridModel(
            emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.1)),
            delivered=GridCurve(CurveKind.TABULATED, table=((0.0, 2.0), (10.0, 2.0))),
            energy_value=GridCurve(CurveKind.TABULATED, table=((0.0, 0.0), (10.0, 0.0))),
            cost_renewable=CostSpec(0.0, 0.0),
            cost_system=CostSpec(0.0, 0.0),
            invest_cost=1000.0,
            domain=(0.0, 10.0),
        )
        p1, b1 = price_at(dm, model.state(1.0))
        p2, b2 = price_at(dm, model.state(4.0))
        assert b1 and b2
        ratio = model.emissions_at(1.0) / model.emissions_at(4.0)
        assert p1 / p2 == pytest.approx(ratio, rel=1e-9)

    def test_monotone_along_capacity(self, baseline_demand, baseline_model):
        qs = np.linspace(0.5, 7.0, 50)
        prices = [price_at(baseline_demand, baseline_model.state(q)).price for q in qs]
        assert all(a >= b for a, b in zip(prices, prices[1:]))


def _exact_revenue_model(cost_level: float):
    # market size 2e makes the unconstrained peak revenue exactly 200 when
    # e/eps = 100; a flat negative energy value dials in the cost level
    dm = DemandModel(market_size=2.0 * math.e, sensitivity=0.0045)
    model = flat_model(0.45, 3.0, -cost_level / 3.0)
    return dm, model


class TestOptimalExpansion:
    def test_direct_substitution(self):
        dm, model = _exact_revenue_model(100.0)
        d = decide_at(dm, model.state(1.0), model.invest_cost)
        assert d.status is ExpansionStatus.EXPANDING
        assert d.expansion == pytest.approx(0.1, rel=1e-12)

    def test_equilibrium_when_revenue_equals_cost(self):
        dm, model = _exact_revenue_model(200.0)
        d = decide_at(dm, model.state(1.0), model.invest_cost)
        assert d.status is ExpansionStatus.EQUILIBRIUM
        assert d.expansion == 0.0

    def test_infeasible_shortfall(self):
        dm, model = _exact_revenue_model(400.0)
        d = decide_at(dm, model.state(1.0), model.invest_cost)
        assert d.status is ExpansionStatus.INFEASIBLE
        assert d.expansion == 0.0

    def test_financial_constraint_binds(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dm, model = random_accepted_model(rng)
            try:
                q = pick_expanding_state(dm, model, rng)
            except RuntimeError:
                continue
            s = model.state(q)
            d = decide_at(dm, s, model.invest_cost)
            assert d.status is ExpansionStatus.EXPANDING
            rev = revenue(dm, price_at(dm, s).price, s.e)
            assert s.cost + model.invest_cost * d.expansion == pytest.approx(rev, rel=1e-9)


class TestClosedFormAgainstScan:
    def test_revenue_never_below_scan_best(self):
        # 1000 random models; the scan maximum can never exceed the true
        # optimum, so the closed form must match it up to rounding slack
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dm, model = random_accepted_model(rng)
            lo, hi = model.domain
            q = rng.uniform(lo + 0.05 * (hi - lo), hi)
            e_q = model.emissions_at(q)
            f_q = model.delivered_at(q)
            price, _ = price_at(dm, model.state(q))
            best_closed = revenue(dm, price, e_q)

            base = e_q / dm.sensitivity
            p_cap = 10.0 * base
            if f_q < dm.market_size:
                p_cap = max(p_cap, 2.0 * base * math.log(dm.market_size / f_q))
            prices = np.linspace(0.0, p_cap, 10**5)
            sales = dm.market_size * np.exp(-dm.sensitivity * prices / e_q)
            rev = np.where(sales <= f_q * (1.0 + 1e-12), prices * sales, -np.inf)
            assert best_closed >= float(np.max(rev)) - 1e-6 * abs(best_closed)


class TestKktResiduals:
    def test_interior_solution_certified(self):
        dm, model = _exact_revenue_model(100.0)
        solution = solve_period(dm, model, 1.0)
        res = kkt_residuals(dm, model, 1.0, solution, problem="integrated")
        assert res.certified
        assert res.max_abs_residual <= 1e-9
        assert res.mult_deliverability == 0.0
        assert res.mult_financial == pytest.approx(1.0 / model.invest_cost)

    def test_binding_solution_multiplier(self):
        dm = DemandModel(market_size=10.0, sensitivity=0.0045)
        model = flat_model(0.45, 2.0, -25.0)
        solution = solve_period(dm, model, 1.0)
        assert solution.deliverability_binding
        res = kkt_residuals(dm, model, 1.0, solution, problem="integrated")
        base = 0.45 / 0.0045
        expected = (solution.price - base) / model.invest_cost
        assert res.mult_deliverability == pytest.approx(expected, rel=1e-12)
        assert res.mult_deliverability > 0.0
        assert res.certified

    def test_perturbed_price_fails_certification(self):
        dm = DemandModel(market_size=10.0, sensitivity=0.0045)
        model = flat_model(0.45, 5.0, -2.0, invest_cost=10.0)
        solution = solve_period(dm, model, 1.0)
        wrong = solution._replace(price=solution.price * 1.01)
        res = kkt_residuals(dm, model, 1.0, wrong, problem="integrated")
        assert abs(res.stationarity_price) > 1e-3
        assert not res.certified

    @staticmethod
    def _solved(dm, model, q, problem):
        if problem == "integrated":
            return solve_period(dm, model, q)
        return solve_separated_period(dm, model, q)[0]

    @pytest.mark.parametrize("q", [3.0, 6.5])
    @pytest.mark.parametrize("problem", ["integrated", "revenue-sharing"])
    def test_hand_built_invalid_solution_judged(self, baseline_demand, baseline_model, q, problem):
        # a PeriodSolution is a plain tuple: nothing checks it on construction,
        # so the residuals must reject what the solvers never return
        solution = self._solved(baseline_demand, baseline_model, q, problem)
        assert kkt_residuals(baseline_demand, baseline_model, q, solution, problem).certified
        with pytest.raises(ValueError):
            kkt_residuals(baseline_demand, baseline_model, q, solution._replace(price=-1.0), problem)
        wrong = solution._replace(expansion=-0.1)
        assert not kkt_residuals(baseline_demand, baseline_model, q, wrong, problem).certified
        if problem == "revenue-sharing":
            for share in (-0.1, 1.0, 1.5):
                wrong = solution._replace(share=share)
                assert not kkt_residuals(baseline_demand, baseline_model, q, wrong, problem).certified

    def test_equilibrium_solution_least_squares_route(self):
        dm, model = _exact_revenue_model(200.0)
        solution = solve_period(dm, model, 1.0)
        assert solution.expansion == 0.0
        res = kkt_residuals(dm, model, 1.0, solution, problem="integrated")
        assert res.certified

    def test_sharing_interior_certified(self, baseline_demand, baseline_model):
        q = 6.5  # supported-expansion region: generators need a share
        solution, _ = solve_separated_period(baseline_demand, baseline_model, q)
        assert 0.0 < solution.share < 1.0
        res = kkt_residuals(
            baseline_demand, baseline_model, q, solution, problem="revenue-sharing"
        )
        assert res.max_abs_residual <= 1e-9
        assert res.mult_generator_budget == pytest.approx(
            res.mult_financial, rel=1e-12
        )

    def test_sharing_zero_share_certified(self, baseline_demand, baseline_model):
        q = 2.0  # spontaneous region: generator surplus, share = 0
        solution, _ = solve_separated_period(baseline_demand, baseline_model, q)
        assert solution.share == 0.0
        res = kkt_residuals(
            baseline_demand, baseline_model, q, solution, problem="revenue-sharing"
        )
        assert res.certified
        assert res.mult_share_lower == pytest.approx(
            solution.revenue / baseline_model.invest_cost, rel=1e-12
        )

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), extra=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_least_squares_matches_scipy_nnls(self, seed, n, extra):
        from scipy.optimize import nnls

        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n + extra, n)) * 10.0 ** rng.uniform(-2, 2, size=n)
        b = rng.normal(size=n + extra)
        expected, _ = nnls(a, b)
        x = _kkt_lstsq(a.tolist(), b.tolist())
        assert (x >= 0.0).all()
        np.testing.assert_allclose(x, expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max())

    def test_unknown_problem_rejected(self, baseline_demand, baseline_model):
        solution = solve_period(baseline_demand, baseline_model, 2.0)
        with pytest.raises(ValueError):
            kkt_residuals(baseline_demand, baseline_model, 2.0, solution, problem="dual")


@given(
    price=st.floats(min_value=0.0, max_value=1e4),
    e_q=st.floats(min_value=1e-3, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_demand_bounded_by_market_size(price, e_q):
    value = demand(DM, price, e_q)
    assert 0.0 <= value <= DM.market_size
