"""Simulation engine, myopic policy, reachability certificate, serialization."""

import csv
import json
import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASELINE,
    adversarial_dip_model,
    baseline_doc,
    cliff_emissions,
    drawn_model,
    flat_model,
    formed_state,
    negated,
    random_accepted_model,
    reference_decide_at,
    reference_find_deliverability_threshold,
    reference_period_solution,
    reference_separated_solution,
    reference_simulate_myopic,
    reference_solve_long_run_limit,
    reference_solve_separated_period,
)
from vrpplan.demand_pricing import (
    DemandModel,
    ExpansionStatus,
    Phase,
    decide_at,
    demand,
    unconstrained_peak_revenue,
)
from vrpplan import cli, trajectory
from vrpplan import demand_pricing as dp
from vrpplan.equilibrium import _gap, find_deliverability_threshold, solve_long_run_limit
from vrpplan.errors import CurveDomainError, InfeasiblePeriodError, NoSellableCreditsError, VrpError
from vrpplan import grid_model as gm
from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel, eval_curve, linspace
from vrpplan.oracles import _walk_prefix_array, enumerate_and_compare
from vrpplan.revenue_sharing import _separated_solution, required_share, solve_separated_period
from vrpplan.tolerances import BALANCE_TOL, ROUNDING_TOL, ZERO_TOL, scaled
from vrpplan.trajectory import (
    TRAJECTORY_CSV_COLUMNS,
    ReachabilityCertificate,
    SimulationConfig,
    Termination,
    _max_feasible,
    _period_solution,
    _sampled_margins,
    certify_monotone_reachability,
    reachability_lower_bound,
    simulate_myopic,
    solve_period,
    trajectory_csv_rows,
)

DM = DemandModel(market_size=10.0, sensitivity=0.0045)


def write_simulate_out(trajectory, market_size: float, out_dir) -> None:
    """The files of ``simulate --out`` for ``trajectory``, by the command's own writer."""
    tables = cli._simulate_tables(trajectory, market_size)
    cli._emit(trajectory.to_dict(), SimpleNamespace(command="simulate", out=str(out_dir)), "trajectory.json", tables)


def received_points(monkeypatch) -> list:
    """The points each call of ``_sampled_margins`` receives, in call order."""
    seen, margins = [], trajectory._sampled_margins
    monkeypatch.setattr(trajectory, "_sampled_margins", lambda dm, model, qs: seen.append(qs) or margins(dm, model, qs))
    return seen


def reference_points(model: GridModel, q_init: float, limit: float, n: int) -> tuple[list[float], int]:
    """The certificate's points as one set of floats built them, the samples
    first, then e's, f's and pi's knots in [q_init, limit), and how many
    distinct knots there are."""
    knots = {q for curve in (model.emissions, model.delivered, model.energy_value)
             if curve.kind is CurveKind.TABULATED for q, _ in curve.table if q_init <= q < limit}
    return sorted({*linspace(q_init, limit, n, endpoint=False), *knots}), len(knots)


def hexes(points) -> list[str]:
    return [float(q).hex() for q in points]


ROUTE_TYPES = {"array": np.ndarray, "float": list}


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
    """An array state's maximal feasible expansions are the scalar decisions',
    but for ulps of np.exp and np.log against math.exp and math.log, and fail
    as the scalar path does."""

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
            with pytest.raises(type(exc)):
                _max_feasible(dm, s, k)
            return
        infeasible = [t.q for t, x in zip(states, scalar) if x.status is ExpansionStatus.INFEASIBLE]
        if infeasible:  # the first one named
            with pytest.raises(InfeasiblePeriodError, match=f"^revenue cannot cover cost at Q={re.escape(repr(infeasible[0]))}$"):
                _max_feasible(dm, s, k)
            return
        expansions = _max_feasible(dm, s, k)
        # an entry expands, by a positive step, where the scalar decision does; the others take 0.0
        assert (expansions > 0.0).tolist() == [x.status is ExpansionStatus.EXPANDING for x in scalar]
        assert all(x.expansion == 0.0 for x, y in zip(scalar, expansions.tolist()) if y == 0.0)
        # (R* - C)/k, to a few ulps of the largest term in R* - C
        scale = np.array([
            max(1.0, x.revenue, t.C_S + t.C_R, abs(t.f * t.pi)) for x, t in zip(scalar, states)
        ])
        assert np.all(np.abs(expansions - [x.expansion for x in scalar]) <= 4e-15 * (scale / k))
        # the reach S(Q) = Q + the maximal feasible expansion, as the certificate builds it
        reach = [t.q + x.expansion for t, x in zip(states, scalar)]
        np.testing.assert_allclose(s.q + expansions, reach, rtol=2e-15, atol=0.0)


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
        s = model.state(qs)
        reach = float(np.max(np.abs(s.q + _max_feasible(dm, s, model.invest_cost))))
        tol = 2e-15 * (abs(array[0]) + 2.0 * reach / (qs[1] - qs[0]))
        assert abs(min_margin - array[0]) <= tol
        np.testing.assert_allclose([max_e, max_c], array[2:], rtol=2e-15, atol=0.0)

    def test_an_overflowing_margin_raises_on_both_routes(self, baseline_demand, baseline_model):
        # beta Q^2 overflows in the states past Q = 1, which both routes build first: the
        # float loop raises at its state stage, the array route where the product overflows
        model = baseline_model._replace(cost_system=CostSpec(0.0, 1e308))
        qs = np.linspace(0.5, 6.0, 200, endpoint=False)
        for samples in (qs, qs.tolist()):
            with pytest.raises(CurveDomainError, match="^reachability certificate: "):
                _sampled_margins(baseline_demand, model, samples)
        # solving its own limit, the certificate stops first where the cost is inf at Q*
        with pytest.raises(CurveDomainError, match=r"^long-run limit: revenue - cost not finite at Q=5\.13.*: C_S=inf, "):
            certify_monotone_reachability(baseline_demand, model, q_init=0.5)

    def test_numpy_scalar_fields_fail_alike_on_both_routes(self, baseline_model):
        # each field holds a builtin float, so the float loop's M/f(Q) at a denormal
        # start raises as the array route does, not as numpy scalar arithmetic
        dm = DemandModel(np.float64(10.0), np.float64(0.0045))
        model = baseline_model._replace(cost_system=CostSpec(np.float64(9.6), np.float64(1.0)),
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
        with pytest.raises(InfeasiblePeriodError):
            _max_feasible(DM, model.state(qs), model.invest_cost)
        return model, result

    def test_certificate_and_enumeration_raise(self, window):
        model, result = window
        with pytest.raises(InfeasiblePeriodError):
            certify_monotone_reachability(DM, model, q_init=0.5, equilibrium=result)
        # the enumeration builds no certificate, so the error comes from the enumerated states
        with pytest.raises(InfeasiblePeriodError, match="^revenue cannot cover cost at Q="):
            enumerate_and_compare(DM, model, 4, 3, q_init=0.5, equilibrium=result)

    def test_verify_exits_3(self, window, tmp_path, capsys):
        doc = baseline_doc()
        doc.update(grid=window[0].to_dict(), demand=DM.to_dict())
        doc["simulation"]["q_init"] = 0.5
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--scenario", str(path)]) == 3
        assert "revenue cannot cover cost" in capsys.readouterr().err


class TestMaxFeasibleExpansion:
    """The maximal feasible expansion: ``solve_period``'s at a float, ``_max_feasible``'s at an array state."""

    def test_matches_optimal_expansion(self, baseline_demand, baseline_model):
        for q in (0.5, 2.0, 4.0, 6.0):
            expected = decide_at(baseline_demand, baseline_model.state(q), baseline_model.invest_cost).expansion
            assert solve_period(baseline_demand, baseline_model, q).expansion == expected

    def test_zero_at_equilibrium(self, baseline_demand, baseline_model):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        assert solve_period(baseline_demand, baseline_model, limit).expansion == 0.0

    def test_infeasible_state_raises(self):
        model = bumped_cost_model(0.0, 1000.0, q_lo=0.3)
        # revenue at the domain edge falls short of the flat 100 M$/yr cost; the array names that entry
        with pytest.raises(InfeasiblePeriodError, match=r"^revenue cannot cover cost at Q=0\.3$"):
            _max_feasible(DM, model.state(np.array([0.3, 1.0])), model.invest_cost)

    def test_against_two_dimensional_grid_oracle(self, baseline_demand, baseline_model):
        q_state = 2.0
        e_q = baseline_model.emissions_at(q_state)
        f_q = baseline_model.delivered_at(q_state)
        cost = baseline_model.state(q_state).cost
        k = baseline_model.invest_cost
        best = solve_period(baseline_demand, baseline_model, q_state).expansion

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
    """The reach S(Q) = Q + the maximal feasible expansion."""

    def test_fixed_point_at_limit(self, baseline_demand, baseline_model):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        assert limit + solve_period(baseline_demand, baseline_model, limit).expansion == limit

    def test_nondecreasing_on_baseline(self, baseline_demand, baseline_model):
        result = solve_long_run_limit(baseline_demand, baseline_model)
        qs = np.linspace(0.5, result.capacity_limit * 0.9999, 500)
        values = [q + solve_period(baseline_demand, baseline_model, q).expansion for q in qs]
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

    @pytest.mark.parametrize("route", ["array", "float"])
    @pytest.mark.parametrize("dm", [BASELINE.demand, DemandModel(10.0, 1e-308)], ids=["baseline", "overflowing-scale"])
    @pytest.mark.parametrize("offset", ["limit", "an-ulp-below", "past"])
    def test_no_samples_at_the_limit(self, baseline_model, monkeypatch, dm, offset, route):
        # no two sample points differ: it holds with no samples, and its bound is 1.0 even
        # where M/(exp(1)*eps) overflows and the formula at zero slopes would give NaN
        if route == "float":
            monkeypatch.setattr(gm, "numpy_route", lambda: None)
        seen = received_points(monkeypatch)
        result = solve_long_run_limit(dm, baseline_model)
        limit = result.capacity_limit
        start = {"limit": limit, "an-ulp-below": math.nextafter(limit, 0.0), "past": limit + 1.0}[offset]
        assert gm.certificate_points(baseline_model, start, limit, 200) is None
        cert = certify_monotone_reachability(dm, baseline_model, q_init=start, equilibrium=result)
        assert repr(cert) == repr(ReachabilityCertificate(True, 0.0, start, 1.0, 0.0, 0.0, 0, 0))
        assert seen == []

    @pytest.mark.parametrize("route", ["array", "float"])
    def test_the_point_builder_keeps_each_point_once(self, baseline_demand, baseline_model, monkeypatch, route):
        # q_init = 0.5 is a knot and the first sample; knots added at the 8th sample and one ulp
        # below Q* are kept, one at Q* is dropped
        if route == "float":
            monkeypatch.setattr(gm, "numpy_route", lambda: None)
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        f = baseline_model.delivered
        samples = linspace(0.5, limit, 200, endpoint=False)
        added = (samples[7], math.nextafter(limit, 0.0), limit)
        assert 0.5 in dict(f.table) and not set(added) & set(dict(f.table))
        table = sorted({**dict(f.table), **{q: eval_curve(f, q) for q in added}}.items())
        model = baseline_model._replace(delivered=GridCurve(CurveKind.TABULATED, table=table))
        points, n_knots = gm.certificate_points(model, 0.5, limit, 200)
        expected, knots = reference_points(model, 0.5, limit, 200)
        assert type(points) is ROUTE_TYPES[route]
        assert hexes(points) == hexes(expected) and n_knots == knots == 266 + 2
        assert len(points) == 200 + 268 - 2 and points[-1] == math.nextafter(limit, 0.0)
        # a -0.0 knot of e and a 0.0 knot of pi are the first sample's 0.0, kept as it; from 6.5,
        # e has no knot below Q* and f's and pi's follow
        coarse = model._replace(
            emissions=GridCurve(CurveKind.TABULATED, table=((-0.0, 0.4), (6.0, 0.3), (12.0, 0.2))),
            energy_value=GridCurve(CurveKind.TABULATED, table=((0.0, 100.0), (6.0, 80.0), (7.0, 70.0), (12.0, 60.0))),
        )
        for start in (-0.0, 6.5):
            points, n_knots = gm.certificate_points(coarse, start, limit, 200)
            expected, knots = reference_points(coarse, start, limit, 200)
            assert hexes(points) == hexes(expected) and n_knots == knots
        assert hexes(gm.certificate_points(coarse, -0.0, limit, 200)[0][:1]) == [(0.0).hex()]

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([*CurveKind, "thinned"]),
        start=st.one_of(st.floats(0.0, 1.0), st.integers(0, 96)),
        n_samples=st.sampled_from((2, 200, 1000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_both_routes_take_the_same_points(self, seed, kind, start, n_samples):
        # thinned: e and pi tabulated on every second and every third of f's knots, so the
        # tables share some knots and not others; start: a fraction of Q* or one of f's knots
        dm, model = drawn_model(CurveKind.TABULATED if kind == "thinned" else kind, np.random.default_rng(seed))
        if kind == "thinned":
            model = model._replace(**{name: GridCurve(CurveKind.TABULATED, table=getattr(model, name).table[::step])
                                      for name, step in (("emissions", 2), ("energy_value", 3))})
        try:
            result = solve_long_run_limit(dm, model)
        except VrpError:
            return
        limit = result.capacity_limit
        q_init = start * limit if isinstance(start, float) else float(np.linspace(0.0, model.domain[1], 97)[start])
        samples = linspace(q_init, limit, n_samples, endpoint=False)
        rising = all(map(float.__lt__, samples, samples[1:]))
        expected = reference_points(model, q_init, limit, n_samples) if rising else None
        certificates = {}
        for route in ("array", "float"):
            with pytest.MonkeyPatch.context() as patch:
                if route == "float":
                    patch.setattr(gm, "numpy_route", lambda: None)
                seen = received_points(patch)
                try:
                    certificates[route] = certify_monotone_reachability(
                        dm, model, n_samples, q_init=q_init, equilibrium=result)
                except VrpError as exc:
                    certificates[route] = type(exc)
            # the points reach the margins whatever these raise
            assert [type(qs) for qs in seen] == ([ROUTE_TYPES[route]] if expected else [])
            assert [hexes(qs) for qs in seen] == ([hexes(expected[0])] if expected else [])
        array, floats = certificates["array"], certificates["float"]
        if isinstance(array, type):
            assert floats is array
            return
        assert (array.n_samples, array.n_knots) == ((n_samples, expected[1]) if expected else (0, 0))
        assert (floats.n_samples, floats.n_knots, floats.holds, floats.worst_capacity) == (
            array.n_samples, array.n_knots, array.holds, array.worst_capacity)

    def test_the_points_are_the_samples_and_the_knots_below_the_limit(self, baseline_demand, baseline_model, monkeypatch):
        seen = []
        margins = trajectory._sampled_margins
        monkeypatch.setattr(trajectory, "_sampled_margins", lambda dm, model, qs: seen.append(list(qs)) or margins(dm, model, qs))
        result = solve_long_run_limit(baseline_demand, baseline_model)
        limit = result.capacity_limit
        cert = certify_monotone_reachability(baseline_demand, baseline_model, q_init=0.5, equilibrium=result)
        # the baseline tabulates f alone; e and pi are exponentials, which add no knot
        knots = [q for q, _ in baseline_model.delivered.table if 0.5 <= q < limit]
        samples = linspace(0.5, limit, 200, endpoint=False)
        assert (cert.n_samples, cert.n_knots) == (200, len(knots)) == (200, 266)
        assert seen == [sorted({*samples, *knots})]
        assert len(seen[0]) == 200 + 266 - 1  # Q = 0.5 is the first sample and a knot: taken once
        # the least margin lies at a knot, on the segment it starts
        assert (round(cert.min_margin, 6), cert.worst_capacity) == (0.873809, 7.125)

    @pytest.mark.parametrize("samples", ["2", "200", "1000"])
    @pytest.mark.parametrize("route", ["array", "float"])
    def test_a_cliff_between_samples_fails_verify(self, tmp_path, monkeypatch, samples, route):
        # e falls 0.005 t/MWh over 2 MW at Q_10 of the myopic path, where no even sample lies: the
        # reach map falls there and a policy that stops short beats the myopic one; the knots see it
        if route == "float":
            monkeypatch.setattr(gm, "numpy_route", lambda: None)
        seen = received_points(monkeypatch)
        doc = baseline_doc()
        doc["grid"] = cliff_emissions(BASELINE.demand, BASELINE.grid, BASELINE.simulation.q_init).to_dict()
        path = tmp_path / "cliff.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--samples", samples, "--scenario", str(path), "--out", str(tmp_path)]) == 4
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["conditions"]["passed"] and not report["passed"]
        cert = report["reachability_certificate"]
        assert not cert["holds"] and (cert["n_samples"], cert["n_knots"]) == (int(samples), 267)
        assert (round(cert["min_margin"], 6), round(cert["worst_capacity"], 6)) == (-1.088749, 3.258242)
        assert [type(qs) for qs in seen] == [ROUTE_TYPES[route]]

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
        s = baseline_model.state(q)
        expected = decide_at(baseline_demand, s, baseline_model.invest_cost).deliverability_binding
        assert expected is (offset < 0.0)
        assert solve_period(baseline_demand, baseline_model, q).deliverability_binding is expected
        separated, _ = solve_separated_period(baseline_demand, baseline_model, q)
        assert separated.deliverability_binding is expected
        run = simulate_myopic(baseline_demand, baseline_model, SimulationConfig(q_init=q, horizon=1))
        assert run.records[0].solution.deliverability_binding is expected

    @pytest.mark.parametrize("solve", [solve_period, solve_separated_period])
    def test_any_real_capacity_takes_the_float_kernel(self, baseline_demand, baseline_model, solve):
        # an int, a NumPy scalar and a 0-d array are read as the float, and every number is a builtin float
        def types(result):  # of every field, of both records of a separated solution
            return [type(v) for part in (result if solve is solve_separated_period else (result,)) for v in part]

        expected = solve(baseline_demand, baseline_model, 3.0)
        assert float in types(expected)
        for q in (3, np.float64(3.0), np.array(3.0)):
            result = solve(baseline_demand, baseline_model, q)
            assert repr(result) == repr(expected)
            assert types(result) == types(expected)


class TestNetCostsFromTheState:
    """C and C_2 are the state's fields: no decision forms them again from C_S, C_R, f and pi."""

    def test_every_decision_follows_the_fields(self, baseline_demand, baseline_model):
        dm, model, k = baseline_demand, baseline_model, baseline_model.invest_cost
        s = model.state(3.0)
        rev = decide_at(dm, s, k).revenue
        # C halfway to the revenue, and C_2 a quarter of it: neither is the formula's
        moved = s._replace(cost=0.5 * (s.cost + rev), cost_generator=0.25 * rev)
        assert moved.cost != s.C_S + s.C_R - s.f * s.pi and moved.cost_generator != s.C_R - s.f * s.pi

        d = decide_at(dm, moved, k)
        assert (d.revenue, d.status) == (rev, ExpansionStatus.EXPANDING)
        assert d.expansion == (rev - moved.cost) / k
        assert required_share(moved, rev) == 0.25
        solution = _period_solution(moved, k, d, d.expansion)
        assert (solution.share, solution.financial_binding, solution.phase) == (0.25, True, Phase.SUPPORTED)
        separated, sharing = _separated_solution(moved, k, d)
        assert sharing.share == 0.25 and sharing.generator_budget_residual == 0.0
        assert separated.expansion == (0.75 * rev - s.C_S) / k
        divisor = math.e * dm.sensitivity
        assert _gap(moved, dm.market_size, divisor) == (s.e * dm.market_size / divisor - moved.cost, moved.cost)

    def test_the_array_decision_follows_the_fields(self, baseline_demand, baseline_model):
        dm, model, k = baseline_demand, baseline_model, baseline_model.invest_cost
        qs = np.array([2.0, 3.0])
        s = model.state(qs)
        rev = np.array([decide_at(dm, model.state(q), k).revenue for q in qs.tolist()])
        # the first entry expands by a quarter of its revenue, the second sits at the equilibrium
        moved = s._replace(cost=np.array([0.75 * rev[0], rev[1] * (1.0 + 1e-10)]))
        expansion = _max_feasible(dm, moved, k)
        assert expansion[0] == pytest.approx(0.25 * rev[0] / k, rel=1e-12) and expansion[1] == 0.0
        with pytest.raises(InfeasiblePeriodError, match=r"at Q=3\.0$"):
            _max_feasible(dm, s._replace(cost=np.array([0.0, 2.0 * rev[1]])), k)

    @given(kind=st.sampled_from(CurveKind), seed=st.integers(0, 2**32 - 1), negative=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_states_form_the_net_costs_once(self, kind, seed, negative, data):
        # float and array states give C and C_2 with the formula's bits, and the value range encloses them,
        # also where pi < 0 (and, on a polynomial f, f < 0)
        _, model = drawn_model(kind, np.random.default_rng(seed))
        if negative:
            model = model._replace(energy_value=negated(model.energy_value))
        lo, hi = model.domain
        a, b = sorted(data.draw(st.floats(lo, hi)) for _ in range(2))
        qs = np.linspace(a, b, 65)
        states = [model.state(q) for q in qs.tolist()]
        for s in states:
            assert repr((s.cost, s.cost_generator)) == repr((s.C_S + s.C_R - s.f * s.pi, s.C_R - s.f * s.pi))
        array = model.state(qs)
        assert np.array_equal(array.cost, array.C_S + array.C_R - array.f * array.pi)
        assert np.array_equal(array.cost_generator, array.C_R - array.f * array.pi)
        r = model.state_range(a, b)
        assert r.cost[2] == max(r.C_S[2] + r.C_R[2], r.f[2] * r.pi[2])
        assert r.cost_generator[2] == max(r.C_R[2], r.f[2] * r.pi[2])
        for name in ("cost", "cost_generator"):
            least, greatest, magnitude = getattr(r, name)
            slack = scaled(ROUNDING_TOL, magnitude)
            assert all(least - slack <= getattr(s, name) <= greatest + slack for s in states), name


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
            step = min(solve_period(baseline_demand, baseline_model, q).expansion, max(0.0, limit - q))
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
        expansions = _max_feasible(baseline_demand, baseline_model.state(qs), k)
        assert np.all(expansions > 0.0)  # each expands
        scalar = [decide_at(baseline_demand, baseline_model.state(float(q)), k).expansion for q in qs]
        np.testing.assert_allclose(expansions, scalar, rtol=1e-14, atol=0.0)

    def test_a_run_from_1e_12_reaches_the_limit(self, baseline_demand, baseline_model):
        run = simulate_myopic(baseline_demand, baseline_model, SimulationConfig(q_init=1e-12, horizon=400))
        assert run.termination is Termination.REACHED_LIMIT
        assert len(run.records) > 100
        assert run.records[-1].capacity == pytest.approx(run.capacity_limit, abs=1e-6)


class TestSerialization:
    def test_csv_round_trip(self, baseline_demand, baseline_model, tmp_path):
        cfg = SimulationConfig(q_init=0.5, horizon=25, stop_at_limit=False)
        trajectory = simulate_myopic(baseline_demand, baseline_model, cfg)
        write_simulate_out(trajectory, baseline_demand.market_size, tmp_path)
        path = tmp_path / "trajectory.csv"
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


def outcome(fn, *args):
    """The repr of what ``fn(*args)`` returns (so its bits and -0.0), or the class and message it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc)


class TestScalarPathBits:
    """The float path of a period (decision, telemetry, separated accounts,
    both bisections and the myopic loop) gives the bits and errors of the
    bodies it was written from, kept in conftest as ``reference_*``."""

    @given(
        family=st.sampled_from([*CurveKind, "accepted", "dip"]),
        seed=st.integers(0, 2**32 - 1),
        drawn=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_outputs_match_the_reference_bodies(self, family, seed, drawn):
        rng = np.random.default_rng(seed)
        if family == "dip":
            dm, model = adversarial_dip_model()
        elif family == "accepted":
            dm, model = random_accepted_model(rng)
        else:
            dm, model = drawn_model(family, rng)
        (lo, hi), k = model.domain, model.invest_cost
        threshold = outcome(find_deliverability_threshold, dm, model)
        assert threshold == outcome(reference_find_deliverability_threshold, dm, model)
        assert outcome(solve_long_run_limit, dm, model) == outcome(reference_solve_long_run_limit, dm, model)
        qs = [lo, hi, min(lo + drawn * (hi - lo), hi), 0.0]  # 0.0 lies below the dip model's domain
        try:
            limit = solve_long_run_limit(dm, model).capacity_limit
        except VrpError:
            pass
        else:
            qs += [limit, math.nextafter(limit, 0.0), math.nextafter(limit, math.inf)]
        for q in qs:
            assert outcome(solve_separated_period, dm, model, q) == outcome(reference_solve_separated_period, dm, model, q)
            for stop in (True, False):  # from Q* without the stop, limit - Q is 0.0 in the first period
                cfg = SimulationConfig(q, 200, stop)
                assert outcome(simulate_myopic, dm, model, cfg) == outcome(reference_simulate_myopic, dm, model, cfg)
            try:
                s = model.state(q)
            except CurveDomainError:
                continue
            assert outcome(decide_at, dm, s, k) == outcome(reference_decide_at, dm, s, k)
            try:
                d = decide_at(dm, s, k)
            except VrpError:
                continue
            # and states where C_2 = C_R - f*pi is NaN or -0.0, or the separated expansion NaN: clamps write 0.0
            changes = ({}, {"pi": math.nan}, {"C_R": -0.0, "pi": 0.0}, {"C_S": math.nan})
            for state in (formed_state(*s._replace(**change)[:6]) for change in changes):
                for x in (d.expansion, 0.0, -0.0):
                    assert outcome(_period_solution, state, k, d, x) == outcome(reference_period_solution, state, k, d, x)
                assert outcome(_separated_solution, state, k, d) == outcome(reference_separated_solution, state, k, d)

    def test_a_domain_past_half_the_float_range_bisects_to_a_finite_threshold(self):
        # on a domain past DBL_MAX/2, lo + hi overflows; the midpoint sums the halves, so it stays in the domain
        model = GridModel(
            GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.0)), GridCurve(CurveKind.POLYNOMIAL, (3e-308,)),
            GridCurve(CurveKind.EXPONENTIAL_DECAY, (100.0, 0.0)), CostSpec(0.0, 0.0), CostSpec(0.0, 0.0),
            1000.0, (0.0, 1.7e308),
        )
        assert repr(find_deliverability_threshold(DM, model)) == "1.2262648039062695e+308"

    def test_a_run_held_at_the_limit_records_positive_zeros(self, baseline_demand, baseline_model):
        # without the stop, each period at Q* caps its expansion at max(0.0, Q* - Q) = 0.0, never -0.0
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit
        cfg = SimulationConfig(limit, 5, stop_at_limit=False)
        trajectory = simulate_myopic(baseline_demand, baseline_model, cfg)
        assert repr(trajectory) == repr(reference_simulate_myopic(baseline_demand, baseline_model, cfg))
        assert [r.capacity for r in trajectory.records] == [limit] * 5
        assert all(math.copysign(1.0, r.solution.expansion) == 1.0 for r in trajectory.records)


class TestEvaluationCounts:
    """One grid state per period, and per checked capacity: e, f and pi are
    each evaluated once, by the curves' scalar kernels or one array call, and
    one decision is made on it."""

    @pytest.fixture()
    def counted(self, baseline_model):
        """The baseline model built on curves whose kernels count their calls by curve name."""
        calls = Counter()

        def counting(name, curve):
            evaluate, curve = curve._at, GridCurve(curve.kind, curve.coefficients, curve.table)

            def at(q):
                calls[name] += 1
                return evaluate(q)

            object.__setattr__(curve, "_at", at)  # before the model binds its kernel to it
            return curve

        model = baseline_model._replace(**{
            field: counting(name, getattr(baseline_model, field))
            for name, field in (("e", "emissions"), ("f", "delivered"), ("pi", "energy_value"))
        })
        return model, calls

    def test_myopic_run_three_per_period(self, baseline_demand, baseline_cfg, counted):
        model, evaluations = counted
        solve_long_run_limit(baseline_demand, model)
        limit_evaluations = Counter(evaluations)
        evaluations.clear()
        trajectory = simulate_myopic(baseline_demand, model, baseline_cfg)
        assert len(trajectory.records) == 157
        evaluations.subtract(limit_evaluations)
        assert evaluations == {"e": 157, "f": 157, "pi": 157}

    def test_limit_solve_evaluations(self, baseline_demand, counted):
        # the threshold bisection evaluates f alone; the gap bisection one state per iterate
        model, evaluations = counted
        result = solve_long_run_limit(baseline_demand, model)
        assert result.iterations == 28
        assert evaluations == {"f": 72, "e": 30, "pi": 30}

    def test_separated_period_three_per_call(self, baseline_demand, counted):
        model, evaluations = counted
        for q in (1.0, 3.0, 6.5):
            evaluations.clear()
            solve_separated_period(baseline_demand, model, q)
            assert evaluations == {"e": 1, "f": 1, "pi": 1}

    @pytest.mark.parametrize("n", [2, 50, 200, 1000])
    def test_float_certificate_three_per_sample(self, baseline_demand, counted, monkeypatch, n):
        # the margins, the reach and the discrete slopes read each sample's one state
        model, evaluations = counted
        limit = solve_long_run_limit(baseline_demand, model).capacity_limit
        evaluations.clear()
        _sampled_margins(baseline_demand, model, linspace(0.5, limit, n, endpoint=False))
        assert evaluations == {"e": n, "f": n, "pi": n}
        # the whole certificate on its float route: the same, once per point, samples and knots
        monkeypatch.setattr(gm, "numpy_route", lambda: None)
        result, points = solve_long_run_limit(baseline_demand, model), reference_points(model, 0.5, limit, n)[0]
        evaluations.clear()
        certify_monotone_reachability(baseline_demand, model, n, q_init=0.5, equilibrium=result)
        assert evaluations == {"e": len(points), "f": len(points), "pi": len(points)}

    @pytest.fixture()
    def array_calls(self, baseline_model, monkeypatch):
        """The entries of each array evaluation of the baseline's e, f and pi, by curve name."""
        calls = {"e": [], "f": [], "pi": []}
        names = {id(baseline_model.emissions): "e", id(baseline_model.delivered): "f",
                 id(baseline_model.energy_value): "pi"}
        evaluate = gm.eval_curve

        def counted(curve, q):
            calls[names[id(curve)]].append(np.size(q))
            return evaluate(curve, q)

        monkeypatch.setattr(gm, "eval_curve", counted)
        return calls

    @pytest.mark.parametrize("n", [2, 200, 1000])
    def test_array_certificate_one_call_per_curve(self, baseline_demand, baseline_model, array_calls, n):
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit  # on floats: no array call
        _sampled_margins(baseline_demand, baseline_model, np.linspace(0.5, limit, n, endpoint=False))
        assert array_calls == {"e": [n], "f": [n], "pi": [n]}
        # the whole certificate: one call per curve still, with one entry per point, samples and knots
        result, points = solve_long_run_limit(baseline_demand, baseline_model), reference_points(baseline_model, 0.5, limit, n)[0]
        array_calls.update(e=[], f=[], pi=[])
        certify_monotone_reachability(baseline_demand, baseline_model, n, q_init=0.5, equilibrium=result)
        assert array_calls == {"e": [len(points)], "f": [len(points)], "pi": [len(points)]}

    def test_array_enumeration_evaluates_e_once_per_distinct_capacity(
        self, baseline_demand, baseline_model, array_calls
    ):
        # each level's distinct capacities, (3**(t+1) - 1) / 2 at g = 4, by one state; the last level by e alone
        limit = solve_long_run_limit(baseline_demand, baseline_model).capacity_limit  # on floats: no array call
        _walk_prefix_array(baseline_demand, baseline_model, 0.5, limit, np.linspace(0.0, 1.0, 4), 6)
        assert array_calls["e"] == [1, 4, 13, 40, 121, 364, 1093] and sum(array_calls["e"]) == 1636
        assert array_calls["f"] == array_calls["pi"] == [1, 4, 13, 40, 121, 364]

    def test_kkt_summary_three_per_capacity(self, baseline_demand, counted):
        # one state and one decision serve the skip test, both solutions and both residuals
        model, evaluations = counted
        result = solve_long_run_limit(baseline_demand, model)
        evaluations.clear()
        summary = cli._kkt_summary(baseline_demand, model, q_init=BASELINE.simulation.q_init, equilibrium=result)
        assert summary["states_checked"] == 8 and summary["certified"]
        assert evaluations == {"e": 8, "f": 8, "pi": 8}

    @pytest.mark.parametrize("command", ["price", "share"])
    def test_capacity_commands_three_per_call(self, counted, monkeypatch, capsys, command):
        # the solution and the printed e come from one state
        model, evaluations = counted
        monkeypatch.setattr(cli, "load_scenario", lambda path: BASELINE._replace(grid=model))
        assert cli.main([command, "--scenario", "baseline.json", "3.0"]) == 0
        assert json.loads(capsys.readouterr().out)["capacity"] == 3.0
        assert evaluations == {"e": 1, "f": 1, "pi": 1}

    @pytest.fixture()
    def decisions(self, monkeypatch):
        calls = Counter()

        def counting(name):
            original = getattr(dp, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        for name in ("decide_at", "demand"):
            monkeypatch.setattr(dp, name, counting(name))
        return calls

    def test_myopic_run_one_decision_per_period(self, baseline_demand, baseline_model, baseline_cfg, decisions):
        solve_long_run_limit(baseline_demand, baseline_model)
        limit_calls = Counter(decisions)
        decisions.clear()
        trajectory = simulate_myopic(baseline_demand, baseline_model, baseline_cfg)
        assert len(trajectory.records) == 157
        decisions.subtract(limit_calls)
        # one float body per period: no demand call beside it
        assert decisions == {"decide_at": 157}

    def test_separated_period_one_decision_per_call(self, baseline_demand, baseline_model, decisions):
        for q in (1.0, 3.0, 6.5):
            decisions.clear()
            solve_separated_period(baseline_demand, baseline_model, q)
            assert decisions == {"decide_at": 1}

    def test_output_writers_evaluate_nothing(self, baseline_demand, baseline_cfg, counted, tmp_path):
        # e and f of each period travel on its record
        model, evaluations = counted
        trajectory = simulate_myopic(baseline_demand, model, baseline_cfg)
        evaluations.clear()
        write_simulate_out(trajectory, baseline_demand.market_size, tmp_path)
        assert not evaluations
        assert trajectory.cumulative_emission_index == sum(r.state.e for r in trajectory.records)
