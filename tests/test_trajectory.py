"""Simulation engine, myopic policy, reachability certificate, serialization."""

import csv
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE, adversarial_dip_model, baseline_doc, drawn_model, flat_model, random_accepted_model
from vrpplan.demand_pricing import (
    DemandModel,
    ExpansionStatus,
    Phase,
    decide_at,
    demand,
    price_at,
    unconstrained_peak_revenue,
)
from vrpplan import cli, grid_model
from vrpplan import demand_pricing as dp
from vrpplan.equilibrium import find_deliverability_threshold, solve_long_run_limit
from vrpplan.errors import CurveDomainError, InfeasiblePeriodError, NoSellableCreditsError, VrpError
from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel
from vrpplan.oracles import EnumerationConfig, enumerate_and_compare
from vrpplan.revenue_sharing import solve_separated_period
from vrpplan.tolerances import BALANCE_TOL, ZERO_TOL, scaled
from vrpplan.trajectory import (
    TRAJECTORY_CSV_COLUMNS,
    ReachabilityCertificate,
    SimulationConfig,
    Termination,
    _sampled_margins,
    certify_monotone_reachability,
    max_feasible_expansion,
    reach_map,
    reachability_lower_bound,
    simulate_myopic,
    solve_period,
    trajectory_csv_rows,
    write_trajectory_csv,
)

DM = DemandModel(market_size=10.0, sensitivity=0.0045)


def bumped_cost_model(bump: float, invest_cost: float, q_lo: float = 0.5):
    """Saturating delivery; C(Q) = 100 + bump * exp(-((Q-3)/0.8)^2)."""
    domain = (q_lo, 12.0)
    knots = np.linspace(domain[0], domain[1], 1201)

    def delivered(q):
        return 8.0 * (1.0 - math.exp(-0.12 * q))

    def energy_value(q):
        return -(100.0 + bump * math.exp(-(((q - 3.0) / 0.8) ** 2))) / delivered(q)

    return GridModel(
        emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.15)),
        delivered=GridCurve(
            CurveKind.TABULATED, table=tuple((float(q), delivered(q)) for q in knots)
        ),
        energy_value=GridCurve(
            CurveKind.TABULATED, table=tuple((float(q), energy_value(q)) for q in knots)
        ),
        cost_renewable=CostSpec(0.0, 0.0),
        cost_system=CostSpec(0.0, 0.0),
        invest_cost=invest_cost,
        domain=domain,
    )


class TestArrayDecisions:
    """An array state gives the scalar decisions, but for ulps of np.exp and
    np.log against math.exp and math.log, and fails as the scalar path does."""

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(CurveKind))
    @settings(max_examples=60, deadline=None)
    def test_array_matches_scalar(self, seed, kind):
        dm, model = drawn_model(kind, np.random.default_rng(seed))
        k = model.invest_cost
        qs = np.linspace(0.05, 1.0, 64) * model.domain[1]
        s = model.state(qs)
        states = [model.state(float(q)) for q in qs]
        try:
            scalar = [decide_at(dm, t, k) for t in states]
        except VrpError as exc:
            for decide in (lambda: price_at(dm, s), lambda: decide_at(dm, s, k)):
                with pytest.raises(type(exc)):
                    decide()
            return
        d = decide_at(dm, s, k)
        assert d.deliverability_binding.tolist() == [x.deliverability_binding for x in scalar]
        assert d.status.tolist() == [x.status for x in scalar]
        np.testing.assert_allclose(d.price, [x.price for x in scalar], rtol=2e-15, atol=0.0)
        # R* and (R* - C)/k, to a few ulps of the largest term in R* - C
        scale = np.array([
            max(1.0, x.revenue, t.C_S + t.C_R, abs(t.f * t.pi)) for x, t in zip(scalar, states)
        ])
        assert np.all(np.abs(d.revenue - [x.revenue for x in scalar]) <= 4e-15 * scale)
        assert np.all(np.abs(d.expansion - [x.expansion for x in scalar]) <= 4e-15 * (scale / k))
        if ExpansionStatus.INFEASIBLE in d.status:
            with pytest.raises(InfeasiblePeriodError):
                reach_map(dm, model, qs)
        else:
            reach = [reach_map(dm, model, float(q)) for q in qs]
            np.testing.assert_allclose(reach_map(dm, model, qs), reach, rtol=2e-15, atol=0.0)
            assert max_feasible_expansion(dm, model, qs).tolist() == d.expansion.tolist()


class TestCertificateRoutes:
    """The certificate's sampling step on a list of floats, the float loop that
    ``simulate`` takes without numpy, against the same samples as an array."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(CurveKind),
        n_samples=st.sampled_from((2, 200, 1000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_loop_matches_array_route(self, seed, kind, n_samples):
        dm, model = drawn_model(kind, np.random.default_rng(seed))
        lo = 0.05 * model.domain[1]
        try:
            hi = solve_long_run_limit(dm, model).capacity_limit  # the certificate's range
        except VrpError:
            hi = model.domain[1]  # no limit: the rest of the domain, where S may not exist
        qs = np.linspace(lo, hi if hi > lo else model.domain[1], n_samples, endpoint=False)
        try:
            array = _sampled_margins(dm, model, qs)
        except VrpError as exc:
            with pytest.raises(type(exc)):
                _sampled_margins(dm, model, qs.tolist())
            return
        min_margin, worst_capacity, max_e, max_c = _sampled_margins(dm, model, qs.tolist())
        assert worst_capacity == array[1]
        assert (min_margin >= -ZERO_TOL) == (array[0] >= -ZERO_TOL)  # holds
        # TestArrayDecisions' rtol on S, carried through a discrete slope: two S errors over a step
        reach = float(np.max(np.abs(reach_map(dm, model, qs))))
        tol = 2e-15 * (abs(array[0]) + 2.0 * reach / (qs[1] - qs[0]))
        assert abs(min_margin - array[0]) <= tol
        np.testing.assert_allclose([max_e, max_c], array[2:], rtol=2e-15, atol=0.0)

    def test_an_overflowing_margin_raises_on_both_routes(self, baseline_demand, baseline_model):
        # 2 beta overflows, so every margin is -inf: the float loop raises there, the
        # array route where beta Q^2 overflows in S
        model = replace(baseline_model, cost_system=CostSpec(0.0, 1e308))
        qs = np.linspace(0.5, 6.0, 200, endpoint=False)
        for samples in (qs, qs.tolist()):
            with pytest.raises(CurveDomainError, match="^reachability certificate: "):
                _sampled_margins(baseline_demand, model, samples)
        with pytest.raises(CurveDomainError, match="^reachability certificate: "):
            certify_monotone_reachability(baseline_demand, model, q_init=0.5)

    def test_numpy_scalar_fields_fail_alike_on_both_routes(self, baseline_model):
        # each field holds a builtin float, so the float loop's M/f(Q) at a denormal
        # start raises as the array route does, not as numpy scalar arithmetic
        dm = DemandModel(np.float64(10.0), np.float64(0.0045))
        model = replace(baseline_model, cost_system=CostSpec(np.float64(9.6), np.float64(1.0)),
                        invest_cost=np.float64(1000.0))
        fields = (dm.market_size, dm.sensitivity, model.cost_system.alpha, model.cost_system.beta, model.invest_cost)
        assert [type(v) for v in fields] == [float] * 5
        qs = np.linspace(5e-324, solve_long_run_limit(dm, model).capacity_limit, 200, endpoint=False)
        for samples in (qs, qs.tolist()):
            with pytest.raises(NoSellableCreditsError, match=r"M/f\(Q\) overflows"):
                _sampled_margins(dm, model, samples)


class TestInfeasibleWindow:
    """Revenue falls short of cost on a window inside [q_init, Q*)."""

    @pytest.fixture()
    def window(self):
        model = bumped_cost_model(100.0, 30.0)
        result = solve_long_run_limit(DM, model)
        qs = np.linspace(0.5, result.capacity_limit, 400, endpoint=False)
        status = decide_at(DM, model.state(qs), model.invest_cost).status
        assert ExpansionStatus.INFEASIBLE in status
        return model, result

    def test_certificate_and_enumeration_raise(self, window):
        model, result = window
        with pytest.raises(InfeasiblePeriodError):
            certify_monotone_reachability(DM, model, q_init=0.5, equilibrium=result)
        # a certificate passed in, so the error comes from the enumerated states
        holding = ReachabilityCertificate(True, 0.0, 0.5, 1.0, 0.0, 0.0, 0)
        with pytest.raises(InfeasiblePeriodError):
            enumerate_and_compare(
                DM, model, SimulationConfig(0.5, 10), EnumerationConfig(4, 3), result, holding
            )

    def test_verify_exits_3(self, window, tmp_path, capsys):
        doc = baseline_doc()
        doc.update(grid=window[0].to_dict(), demand=DM.to_dict())
        doc["simulation"]["q_init"] = 0.5
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--scenario", str(path)]) == 3
        assert "revenue cannot cover cost" in capsys.readouterr().err


class TestMaxFeasibleExpansion:
    def test_matches_optimal_expansion(self, baseline_demand, baseline_model):
        for q in (0.5, 2.0, 4.0, 6.0):
            expected = decide_at(baseline_demand, baseline_model.state(q), baseline_model.invest_cost).expansion
            assert max_feasible_expansion(baseline_demand, baseline_model, q) == expected

    def test_zero_at_equilibrium(self, baseline_demand, baseline_model):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        assert max_feasible_expansion(baseline_demand, baseline_model, limit) == 0.0

    def test_infeasible_state_raises(self):
        model = bumped_cost_model(0.0, 1000.0, q_lo=0.3)
        # revenue at the domain edge falls short of the flat 100 M$/yr cost
        with pytest.raises(InfeasiblePeriodError):
            max_feasible_expansion(DM, model, 0.3)

    def test_against_two_dimensional_grid_oracle(self, baseline_demand, baseline_model):
        q_state = 2.0
        e_q = baseline_model.emissions_at(q_state)
        f_q = baseline_model.delivered_at(q_state)
        cost = baseline_model.state(q_state).cost
        k = baseline_model.invest_cost
        best = max_feasible_expansion(baseline_demand, baseline_model, q_state)

        base = e_q / baseline_demand.sensitivity
        p_cap = max(
            10.0 * base, 2.0 * base * math.log(baseline_demand.market_size / f_q)
        )
        prices = np.linspace(0.0, p_cap, 2000)
        steps = np.linspace(0.0, 2.0 * best + 0.01, 2000)
        sales = baseline_demand.market_size * np.exp(
            -baseline_demand.sensitivity * prices / e_q
        )
        rev = prices * sales
        deliverable = sales <= f_q * (1.0 + 1e-12)
        affordable = steps[None, :] <= ((rev - cost) / k)[:, None]
        feasible = deliverable[:, None] & affordable
        oracle = float(np.max(np.where(feasible, steps[None, :], -np.inf)))

        q_step = steps[1] - steps[0]
        assert oracle <= best + 1e-12
        assert abs(best - oracle) <= 2.0 * q_step


class TestReachMap:
    def test_fixed_point_at_limit(self, baseline_demand, baseline_model):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        assert reach_map(baseline_demand, baseline_model, limit) == limit

    def test_substitution(self, baseline_demand, baseline_model):
        step = max_feasible_expansion(baseline_demand, baseline_model, 1.0)
        assert reach_map(baseline_demand, baseline_model, 1.0) == 1.0 + step

    def test_nondecreasing_on_baseline(self, baseline_demand, baseline_model):
        result = solve_long_run_limit(baseline_demand, baseline_model)
        qs = np.linspace(0.5, result.capacity_limit * 0.9999, 500)
        values = [reach_map(baseline_demand, baseline_model, q) for q in qs]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        cert = certify_monotone_reachability(
            baseline_demand, baseline_model, 500, q_init=0.5, equilibrium=result
        )
        assert cert.holds


class TestReachabilityCertificate:
    def test_conservative_bound_value(self):
        bound = reachability_lower_bound(10.0, 0.0045, 1000.0, 0.1, 150.0)
        assert bound == pytest.approx(0.768, abs=1e-3)

    def test_flat_primitives_bound_is_one(self):
        assert reachability_lower_bound(10.0, 0.0045, 1000.0, 0.0, 0.0) == 1.0

    def test_baseline_certified(self, baseline_demand, baseline_model):
        cert = certify_monotone_reachability(
            baseline_demand, baseline_model, 300, q_init=0.5
        )
        assert cert.holds
        assert cert.min_margin > 0.0
        assert cert.bound_formula_value > 0.0
        assert cert.max_abs_emissions_slope < 0.1
        assert cert.max_abs_cost_slope < 150.0

    def test_adversarial_model_fails(self):
        dm, model = adversarial_dip_model()
        cert = certify_monotone_reachability(dm, model, 300, q_init=1.0)
        assert not cert.holds
        assert cert.min_margin < -1e-9
        assert cert.bound_formula_value < 0.0

    def test_start_is_a_required_keyword(self, baseline_demand, baseline_model):
        # the domain's lower end, the old default start, sells no credits on the baseline
        with pytest.raises(TypeError, match="q_init"):
            certify_monotone_reachability(baseline_demand, baseline_model)
        with pytest.raises(TypeError):
            certify_monotone_reachability(baseline_demand, baseline_model, 200, 0.5)


class TestSolvePeriod:
    def test_baseline_phase_one_state(self, baseline_demand, baseline_model):
        solution = solve_period(baseline_demand, baseline_model, 2.0)
        assert solution.phase is Phase.SPONTANEOUS
        assert solution.share == 0.0
        assert solution.financial_binding

    def test_infeasible_state_raises(self):
        model = bumped_cost_model(0.0, 1000.0, q_lo=0.3)
        with pytest.raises(InfeasiblePeriodError):
            solve_period(DM, model, 0.3)

    @pytest.mark.parametrize("offset", [-1e-8, -1e-9, 0.0, 1e-9, 5e-9, 1e-8])
    def test_binding_is_the_price_regime_at_the_threshold(self, baseline_demand, baseline_model, offset):
        # within a few 1e-9 above the threshold the optimal sales sit within
        # ZERO_TOL of f(Q) although the cap is slack: every solver reports the regime
        q = find_deliverability_threshold(baseline_demand, baseline_model) + offset
        expected = price_at(baseline_demand, baseline_model.state(q)).deliverability_binding
        assert expected is (offset < 0.0)
        assert solve_period(baseline_demand, baseline_model, q).deliverability_binding is expected
        separated, _ = solve_separated_period(baseline_demand, baseline_model, q)
        assert separated.deliverability_binding is expected
        run = simulate_myopic(baseline_demand, baseline_model, SimulationConfig(q_init=q, horizon=1))
        assert run.records[0].solution.deliverability_binding is expected

class TestSimulateMyopic:
    def test_start_at_limit_single_record(self, baseline_demand, baseline_model):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        trajectory = simulate_myopic(
            baseline_demand, baseline_model, SimulationConfig(q_init=limit, horizon=50)
        )
        assert trajectory.termination is Termination.REACHED_LIMIT
        assert len(trajectory.records) == 1
        record = trajectory.records[0]
        assert record.solution.expansion == 0.0
        assert record.solution.phase is Phase.EQUILIBRIUM

    def test_two_period_hand_computation(self):
        # constant primitives: revenue is flat, cost is linear in Q
        model = flat_model(0.45, 4.0, -25.0, alpha_r=10.0)
        rev = unconstrained_peak_revenue(DM, 0.45)
        q0 = 1.0
        step0 = (rev - (10.0 * q0 + 100.0)) / 1000.0
        q1 = q0 + step0
        step1 = (rev - (10.0 * q1 + 100.0)) / 1000.0
        trajectory = simulate_myopic(DM, model, SimulationConfig(q_init=q0, horizon=2))
        assert trajectory.termination is Termination.HORIZON_END
        assert [r.capacity for r in trajectory.records] == pytest.approx([q0, q1])
        assert [r.solution.expansion for r in trajectory.records] == pytest.approx(
            [step0, step1], rel=1e-12
        )
        assert trajectory.cumulative_expansion == pytest.approx(step0 + step1)

    def test_infeasible_first_period_empty(self):
        model = bumped_cost_model(0.0, 1000.0, q_lo=0.3)
        trajectory = simulate_myopic(DM, model, SimulationConfig(q_init=0.3, horizon=10))
        assert trajectory.termination is Termination.INFEASIBLE
        assert trajectory.records == ()
        assert trajectory.cumulative_expansion == 0.0

    def test_midpath_infeasibility_truncates(self):
        # a large maximal jump lands inside the cost bump where revenue
        # no longer covers cost; the run truncates there and flags it
        model = bumped_cost_model(130.0, 30.0)
        trajectory = simulate_myopic(DM, model, SimulationConfig(q_init=1.0, horizon=50))
        assert trajectory.termination is Termination.INFEASIBLE
        assert len(trajectory.records) == 1
        assert trajectory.records[0].capacity == 1.0

    def test_transition_exactness(self, baseline_demand, baseline_model, baseline_cfg):
        trajectory = simulate_myopic(baseline_demand, baseline_model, baseline_cfg)
        for a, b in zip(trajectory.records, trajectory.records[1:]):
            assert b.capacity == a.capacity + a.solution.expansion

    def test_price_path_nonincreasing(self, baseline_demand, baseline_model, baseline_cfg):
        trajectory = simulate_myopic(baseline_demand, baseline_model, baseline_cfg)
        prices = [r.solution.price for r in trajectory.records]
        assert all(b <= a for a, b in zip(prices, prices[1:]))

    def test_capacity_capped_at_limit(self, baseline_demand, baseline_model, baseline_cfg):
        trajectory = simulate_myopic(baseline_demand, baseline_model, baseline_cfg)
        limit = trajectory.capacity_limit
        assert all(r.capacity <= limit + 1e-9 for r in trajectory.records)
        assert trajectory.termination is Termination.REACHED_LIMIT

    def test_no_early_stop_keeps_flat_tail(self, baseline_demand, baseline_model):
        cfg = SimulationConfig(q_init=0.5, horizon=170, stop_at_limit=False)
        trajectory = simulate_myopic(baseline_demand, baseline_model, cfg)
        assert trajectory.termination is Termination.HORIZON_END
        assert len(trajectory.records) == 170
        tail = trajectory.records[-3:]
        assert all(r.solution.expansion == 0.0 for r in tail)

    def test_emission_index_accumulates(self, baseline_demand, baseline_model):
        cfg = SimulationConfig(q_init=0.5, horizon=5, stop_at_limit=False)
        trajectory = simulate_myopic(baseline_demand, baseline_model, cfg)
        expected = sum(
            baseline_model.emissions_at(r.capacity) for r in trajectory.records
        )
        assert trajectory.cumulative_emission_index == pytest.approx(expected, rel=1e-12)


    def test_half_myopic_dominated_statewise(self, baseline_demand, baseline_model):
        # a policy that takes half the myopic step, rolled out one scalar step at a time
        cfg = SimulationConfig(q_init=0.5, horizon=30, stop_at_limit=False)
        full_run = simulate_myopic(baseline_demand, baseline_model, cfg)
        limit = full_run.capacity_limit
        half_path = [cfg.q_init]
        for _ in range(cfg.horizon - 1):
            q = half_path[-1]
            step = min(max_feasible_expansion(baseline_demand, baseline_model, q), max(0.0, limit - q))
            half_path.append(q + 0.5 * step)
        assert len(full_run.records) == len(half_path)
        for a, b in zip(full_run.records, half_path):
            assert a.capacity >= b
        assert full_run.records[5].capacity > half_path[5]


class TestMyopicFeasibility:
    """Every recorded period meets deliverability, the financial constraint
    and the no-overbuild cap, by construction of the myopic step.  On the dip
    model's small k the cap at Q* - Q binds."""

    @given(
        source=st.sampled_from(["baseline", "dip"]) | st.integers(0, 2**32 - 1),
        start=st.floats(0.0, 1.0, exclude_min=True),
        stop_at_limit=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_record_is_feasible(self, baseline_demand, baseline_model, source, start, stop_at_limit):
        if source == "baseline":
            dm, model = baseline_demand, baseline_model
        elif source == "dip":
            dm, model = adversarial_dip_model()
        else:
            dm, model = random_accepted_model(np.random.default_rng(source), require_root=True)
        limit = solve_long_run_limit(dm, model).capacity_limit
        lo = model.domain[0]
        cfg = SimulationConfig(q_init=lo + start * (limit - lo), horizon=250, stop_at_limit=stop_at_limit)
        if math.isinf(dm.market_size / model.delivered_at(cfg.q_init)):
            # f(Q) so small that M/f(Q) overflows has no credits to sell, as f = 0 at lo has none
            with pytest.raises(NoSellableCreditsError):
                simulate_myopic(dm, model, cfg)
            return
        k = model.invest_cost
        for r in simulate_myopic(dm, model, cfg).records:
            s, price, expansion = r.state, r.solution.price, r.solution.expansion
            sales = demand(dm, price, s.e)
            rev = price * sales
            assert sales <= s.f + scaled(ZERO_TOL, s.f)
            assert s.cost + k * expansion <= rev + scaled(BALANCE_TOL, rev, s.cost)
            assert s.q + expansion <= limit + scaled(ZERO_TOL, limit)


class TestNearZeroCapacity:
    """Near Q = 0 revenue and cost both fall far below 1 M$/yr: the balance
    test is relative to them, so a state that expands is not the limit."""

    def test_a_state_at_1e_12_expands(self, baseline_demand, baseline_model):
        k = baseline_model.invest_cost
        d = decide_at(baseline_demand, baseline_model.state(1e-12), k)
        assert d.status is ExpansionStatus.EXPANDING and d.expansion > 0.0
        assert solve_period(baseline_demand, baseline_model, 1e-12).expansion == d.expansion
        qs = np.array([1e-12, 1e-10, 1e-8])
        array = decide_at(baseline_demand, baseline_model.state(qs), k)
        assert array.status.tolist() == [ExpansionStatus.EXPANDING] * 3
        scalar = [decide_at(baseline_demand, baseline_model.state(float(q)), k).expansion for q in qs]
        np.testing.assert_allclose(array.expansion, scalar, rtol=1e-14, atol=0.0)

    def test_a_run_from_1e_12_reaches_the_limit(self, baseline_demand, baseline_model):
        run = simulate_myopic(baseline_demand, baseline_model, SimulationConfig(q_init=1e-12, horizon=400))
        assert run.termination is Termination.REACHED_LIMIT
        assert len(run.records) > 100
        assert run.records[-1].capacity == pytest.approx(run.capacity_limit, abs=1e-6)


class TestSerialization:
    def test_csv_round_trip(self, baseline_demand, baseline_model, tmp_path):
        cfg = SimulationConfig(q_init=0.5, horizon=25, stop_at_limit=False)
        trajectory = simulate_myopic(baseline_demand, baseline_model, cfg)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(trajectory, path)
        with open(path, newline="") as handle:
            header, *body = csv.reader(handle)
        assert tuple(header) == TRAJECTORY_CSV_COLUMNS
        assert path.read_bytes().count(b"\r\n") == 1 + len(body) == 26
        # exact equality: repr writes every float so that it reads back to the same bits
        rows = [tuple((int if c in ("t", "phase") else float)(v) for c, v in zip(header, row)) for row in body]
        assert rows == trajectory_csv_rows(trajectory)

    def test_json_document_shape(self, baseline_demand, baseline_model):
        cfg = SimulationConfig(q_init=0.5, horizon=3, stop_at_limit=False)
        trajectory = simulate_myopic(baseline_demand, baseline_model, cfg)
        doc = trajectory.to_dict()
        assert doc["termination"] == "horizon_end"
        assert len(doc["records"]) == 3
        assert {"t", "capacity", "price", "expansion", "share", "revenue"} <= set(
            doc["records"][0]
        )

    SOLUTION_FORM = [
        ("price", float),
        ("expansion", float),
        ("share", float),
        ("revenue", float),
        ("deliverability_binding", bool),
        ("financial_binding", bool),
        ("phase", int),
    ]

    @staticmethod
    def _json_form(doc: dict) -> list:
        return [(key, type(value)) for key, value in json.loads(json.dumps(doc)).items()]

    @pytest.mark.parametrize("q", [3.0, 6.5])
    def test_period_solution_json_form(self, baseline_demand, baseline_model, q):
        assert self._json_form(solve_period(baseline_demand, baseline_model, q).to_dict()) == self.SOLUTION_FORM
        solution, sharing = solve_separated_period(baseline_demand, baseline_model, q)
        assert self._json_form(solution.to_dict()) == self.SOLUTION_FORM
        assert self._json_form(sharing.to_dict()) == [
            ("share", float),
            ("operator_budget_residual", float),
            ("generator_budget_residual", float),
            ("equivalent_to_integrated", bool),
        ]

    def test_trajectory_record_json_form(self, baseline_demand, baseline_model, baseline_cfg):
        record = simulate_myopic(baseline_demand, baseline_model, baseline_cfg).to_dict()["records"][0]
        assert self._json_form(record) == [("t", int), ("capacity", float)] + self.SOLUTION_FORM

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(q_init=-1.0, horizon=10)
        with pytest.raises(ValueError):
            SimulationConfig(q_init=1.0, horizon=0)


class TestEvaluationCounts:
    """One grid state per period: e, f and pi are each evaluated once."""

    @pytest.fixture()
    def evaluations(self, monkeypatch):
        calls = []
        evaluate = grid_model.eval_curve

        def counted(curve, q):
            calls.append(q)
            return evaluate(curve, q)

        monkeypatch.setattr(grid_model, "eval_curve", counted)
        return calls

    def test_myopic_run_three_per_period(self, baseline_demand, baseline_model, baseline_cfg, evaluations):
        solve_long_run_limit(baseline_demand, baseline_model)
        limit_evaluations = len(evaluations)
        evaluations.clear()
        trajectory = simulate_myopic(baseline_demand, baseline_model, baseline_cfg)
        assert len(trajectory.records) == 157
        assert len(evaluations) - limit_evaluations <= 3 * len(trajectory.records)

    def test_separated_period_three_per_call(self, baseline_demand, baseline_model, evaluations):
        for q in (1.0, 3.0, 6.5):
            evaluations.clear()
            solve_separated_period(baseline_demand, baseline_model, q)
            assert len(evaluations) <= 3

    @pytest.fixture()
    def decisions(self, monkeypatch):
        calls = Counter()

        def counting(name):
            original = getattr(dp, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        for name in ("price_at", "demand"):
            monkeypatch.setattr(dp, name, counting(name))
        return calls

    def test_myopic_run_one_decision_per_period(self, baseline_demand, baseline_model, baseline_cfg, decisions):
        solve_long_run_limit(baseline_demand, baseline_model)
        limit_calls = Counter(decisions)
        decisions.clear()
        trajectory = simulate_myopic(baseline_demand, baseline_model, baseline_cfg)
        assert len(trajectory.records) == 157
        decisions.subtract(limit_calls)
        assert decisions == {"price_at": 157, "demand": 157}

    def test_separated_period_one_decision_per_call(self, baseline_demand, baseline_model, decisions):
        for q in (1.0, 3.0, 6.5):
            decisions.clear()
            solve_separated_period(baseline_demand, baseline_model, q)
            assert decisions == {"price_at": 1, "demand": 1}

    def test_output_writers_evaluate_nothing(self, baseline_demand, baseline_model, baseline_cfg, evaluations, tmp_path):
        # e and f of each period travel on its record
        trajectory = simulate_myopic(baseline_demand, baseline_model, baseline_cfg)
        evaluations.clear()
        write_trajectory_csv(trajectory, tmp_path / "trajectory.csv")
        cli._write_plot_files(tmp_path, trajectory, BASELINE)
        assert evaluations == []
        assert trajectory.cumulative_emission_index == sum(r.state.e for r in trajectory.records)
