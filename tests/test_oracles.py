"""Brute-force verifiers: policy enumeration and dense scans."""

import math

import numpy as np
import pytest

from conftest import adversarial_dip_model, flat_model
from vrpplan.demand_pricing import DemandModel, optimal_price, unconstrained_peak_revenue
from vrpplan.equilibrium import _gap, find_deliverability_threshold, solve_long_run_limit
from vrpplan.errors import EnumerationConfigError
from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel
from vrpplan.oracles import (
    EnumerationConfig,
    dense_scan_equilibrium,
    dense_scan_price,
    enumerate_and_compare,
)
from vrpplan.trajectory import SimulationConfig

DM = DemandModel(market_size=10.0, sensitivity=0.0045)


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

    def test_adversarial_model_shows_violations(self):
        # non-monotone reach map: some under-building policies overtake the
        # myopic path, and the report flags the failed certificate first
        dm, model = adversarial_dip_model()
        cfg = SimulationConfig(q_init=1.0, horizon=3)
        report = enumerate_and_compare(dm, model, cfg, EnumerationConfig(4, 3))
        assert not report.certificate_holds
        assert report.statewise_violations > 0
        assert not report.passed


class TestDenseScanPrice:
    def test_interior_model(self):
        model = flat_model(0.3, 5.0, 0.0)
        closed = optimal_price(DM, model, 1.0).price
        n = 10**5
        scan = dense_scan_price(DM, model, 1.0, n)
        step = 10.0 * (0.3 / DM.sensitivity) / (n - 1)
        assert abs(scan - closed) <= step

    def test_binding_model(self):
        model = flat_model(0.3, 2.0, 0.0)
        closed = optimal_price(DM, model, 1.0).price
        n = 10**5
        scan = dense_scan_price(DM, model, 1.0, n)
        base = 0.3 / DM.sensitivity
        p_cap = max(10.0 * base, 2.0 * base * math.log(10.0 / 2.0))
        assert abs(scan - closed) <= p_cap / (n - 1)

    def test_coarse_grid_resolution_bound(self):
        model = flat_model(0.3, 5.0, 0.0)
        closed = optimal_price(DM, model, 1.0).price
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
        cases = [
            (baseline_demand, baseline_model, 10**4),
            (DM, zero_gap_model(), 1000),
            (DM, flat_model(0.45, 4.0, 0.0), 1000),
            (DM, oscillating_model(), 2000),
        ]
        for dm, model, n in cases:
            scan = dense_scan_equilibrium(dm, model, n)
            assert scan.sign_changes == scalar_sign_changes(dm, model, n)
