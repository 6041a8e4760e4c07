"""Long-run capacity limit: threshold location, bisection, structural checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import flat_model, random_accepted_model
from vrpplan.demand_pricing import (
    DemandModel,
    ExpansionStatus,
    decide_at,
    unconstrained_peak_revenue,
)
from vrpplan.equilibrium import find_deliverability_threshold, solve_long_run_limit
from vrpplan.errors import InfeasibleAtThresholdError, ThresholdUnreachableError
from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel
from vrpplan.oracles import dense_scan_equilibrium
from vrpplan.tolerances import ROUNDING_TOL

DM = DemandModel(market_size=10.0, sensitivity=0.0045)


def identity_delivery_model(**kwargs) -> GridModel:
    # f(Q) = Q: the threshold inverts analytically to M/exp(1)
    defaults = dict(
        emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.1)),
        delivered=GridCurve(CurveKind.TABULATED, table=((0.0, 0.0), (10.0, 10.0))),
        energy_value=GridCurve(CurveKind.TABULATED, table=((0.0, 0.0), (10.0, 0.0))),
        cost_renewable=CostSpec(0.0, 0.0),
        cost_system=CostSpec(1.0, 0.0),
        invest_cost=1000.0,
        domain=(0.0, 10.0),
    )
    defaults.update(kwargs)
    return GridModel(**defaults)


class TestDeliverabilityThreshold:
    def test_analytic_inversion(self):
        model = identity_delivery_model()
        threshold = find_deliverability_threshold(DM, model)
        assert threshold == pytest.approx(10.0 * math.exp(-1.0), abs=1e-9)

    def test_already_satisfied_at_domain_minimum(self):
        model = flat_model(0.4, 5.0, 0.0)
        assert find_deliverability_threshold(DM, model) == model.domain[0]

    def test_unreachable(self):
        model = flat_model(0.4, 2.0, 0.0)
        with pytest.raises(ThresholdUnreachableError):
            find_deliverability_threshold(DM, model)

    def test_baseline_against_dense_scan(self, baseline_demand, baseline_model):
        threshold = find_deliverability_threshold(baseline_demand, baseline_model)
        target = baseline_demand.market_size * math.exp(-1.0)
        qs = np.linspace(*baseline_model.domain, 10**5)
        fs = np.array([baseline_model.delivered_at(q) for q in qs])
        scan = qs[np.argmax(fs >= target)]
        step = qs[1] - qs[0]
        assert abs(threshold - scan) <= step
        assert baseline_model.delivered_at(threshold) >= target - 1e-9


def synthetic_exponential_model():
    """e = 0.4 exp(-0.2 Q) and C(Q) = 1 + 2Q via a crafted energy-value table."""
    domain = (0.5, 40.0)
    qs = np.linspace(*domain, 8001)
    pi_table = tuple((float(q), float(-1.0 / q)) for q in qs)
    model = GridModel(
        emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.2)),
        delivered=GridCurve(CurveKind.TABULATED, table=((0.5, 0.5), (40.0, 40.0))),
        energy_value=GridCurve(CurveKind.TABULATED, table=pi_table),
        cost_renewable=CostSpec(0.0, 0.0),
        cost_system=CostSpec(2.0, 0.0),
        invest_cost=1000.0,
        domain=domain,
    )
    return model


class TestSolveLongRunLimit:
    def test_synthetic_against_root_oracle(self):
        model = synthetic_exponential_model()
        scale = DM.market_size / (math.e * DM.sensitivity)

        def analytic_gap(q):
            return scale * 0.4 * math.exp(-0.2 * q) - (1.0 + 2.0 * q)

        oracle_root = brentq(analytic_gap, 4.0, 39.0, xtol=1e-12)
        result = solve_long_run_limit(DM, model)
        assert result.capacity_limit == pytest.approx(oracle_root, abs=1e-6)
        assert result.residual <= 1e-8 * max(
            1.0, abs(model.state(result.capacity_limit).cost)
        )
        assert result.deliverability_threshold == pytest.approx(
            10.0 * math.exp(-1.0), abs=1e-6
        )

    def test_scan_bracket_contains_limit(self):
        model = synthetic_exponential_model()
        result = solve_long_run_limit(DM, model)
        scan = dense_scan_equilibrium(DM, model, 10**4)
        assert scan.found
        lo, hi = scan.bracket
        assert lo <= result.capacity_limit <= hi
        assert len(scan.sign_changes) == 1

    def test_boundary_root(self):
        # zero costs and an energy-value table that pays out exactly the
        # unconstrained peak revenue: the gap is identically zero
        peak = unconstrained_peak_revenue(DM, 0.45)
        model = flat_model(0.45, 4.0, -peak / 4.0)
        result = solve_long_run_limit(DM, model)
        assert result.capacity_limit == result.deliverability_threshold == 0.0
        assert result.residual == 0.0
        assert result.iterations == 0

    def test_infeasible_at_threshold(self):
        model = identity_delivery_model(
            emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.45, 0.0)),
            cost_system=CostSpec(500.0, 0.0),
        )
        with pytest.raises(InfeasibleAtThresholdError):
            solve_long_run_limit(DM, model)

    def test_domain_cap_on_costless_model(self):
        model = identity_delivery_model(cost_system=CostSpec(0.0, 0.0))
        result = solve_long_run_limit(DM, model)
        assert result.domain_capped
        assert result.capacity_limit == model.domain[1]
        assert result.emissions_at_limit > 0.0

    def test_baseline_limit(self, baseline_demand, baseline_model):
        result = solve_long_run_limit(baseline_demand, baseline_model)
        assert not result.domain_capped
        assert result.deliverability_threshold <= result.capacity_limit
        assert result.emissions_at_limit > ROUNDING_TOL  # no net zero
        again = solve_long_run_limit(baseline_demand, baseline_model)
        assert again == result  # determinism

    def test_expansion_vanishes_at_limit(self, baseline_demand, baseline_model):
        result = solve_long_run_limit(baseline_demand, baseline_model)
        d = decide_at(
            baseline_demand, baseline_model.state(result.capacity_limit), baseline_model.invest_cost
        )
        assert d.status is ExpansionStatus.EQUILIBRIUM
        assert d.expansion == 0.0

    def test_gap_strictly_decreasing_beyond_threshold(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            dm, model = random_accepted_model(rng, require_root=True)
            threshold = find_deliverability_threshold(dm, model)
            qs = np.linspace(threshold, model.domain[1], 200)
            gaps = [unconstrained_peak_revenue(dm, s.e) - s.cost for s in map(model.state, qs)]
            assert all(a > b for a, b in zip(gaps, gaps[1:]))


def limits_across_costs(dm, model, k_values) -> list[float]:
    return [solve_long_run_limit(dm, replace(model, invest_cost=k)).capacity_limit for k in k_values]


class TestKIndependence:
    """The revenue/cost gap does not involve k, so neither does the limit."""

    def test_spread_across_costs(self, baseline_demand, baseline_model):
        limits = limits_across_costs(baseline_demand, baseline_model, [500.0, 1000.0, 2000.0])
        assert (max(limits) - min(limits)) / max(limits) <= 1e-8

    def test_single_and_repeated_values(self, baseline_demand, baseline_model):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        assert limits_across_costs(baseline_demand, baseline_model, [1000.0] * 10) == [limit] * 10
