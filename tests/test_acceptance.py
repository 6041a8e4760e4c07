"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS line with its runtime; run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion report.
"""

import math
import time

import numpy as np
import pytest

from conftest import BASELINE, pick_expanding_state, random_accepted_model
from vrpplan.demand_pricing import (
    ExpansionStatus,
    decide_at,
    kkt_residuals,
)
from vrpplan.dispatch import calibrate_grid, default_fleet, default_profiles, merit_order_dispatch
from vrpplan.equilibrium import solve_long_run_limit
from vrpplan.oracles import enumerate_and_compare
from vrpplan.revenue_sharing import solve_separated_period
from vrpplan.tolerances import CERTIFY_TOL
from vrpplan.trajectory import (
    SimulationConfig,
    Termination,
    certify_monotone_reachability,
    reachability_lower_bound,
    simulate_myopic,
    solve_period,
)
from vrpplan.units import convert_price_units


def _report(number: int, elapsed: float, summary: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.3f} s) {summary}")


def test_criterion_1_unit_conversion():
    rows = [(69.37, 22.63), (145.40, 47.42), (247.03, 80.57)]
    start = time.perf_counter()
    converted = [convert_price_units(p, 0.35) for p, _ in rows]
    elapsed = time.perf_counter() - start
    for got, (_, want) in zip(converted, rows):
        assert got == pytest.approx(want, abs=0.01)
    assert elapsed < 1e-3
    _report(1, elapsed, "capacity->energy price conversion reproduces reference rows")


def test_criterion_2_reachability_bound():
    start = time.perf_counter()
    bound = reachability_lower_bound(10.0, 0.0045, 1000.0, 0.1, 150.0)
    elapsed = time.perf_counter() - start
    assert bound == pytest.approx(0.768, abs=1e-3)
    assert elapsed < 1e-3
    _report(2, elapsed, f"conservative reach-map bound = {bound:.6f}")


def test_criterion_3_closed_form_price_vs_scan():
    rng = np.random.default_rng(303)
    n_points = 10**6
    start = time.perf_counter()
    for _ in range(200):
        dm, model = random_accepted_model(rng)
        lo, hi = model.domain
        q = rng.uniform(lo + 0.05 * (hi - lo), hi)
        e_q = model.emissions_at(q)
        f_q = model.delivered_at(q)
        d = decide_at(dm, model.state(q), model.invest_cost)
        closed = d.price

        base = e_q / dm.sensitivity
        p_cap = 10.0 * base
        if 0 < f_q < dm.market_size:
            p_cap = max(p_cap, 2.0 * base * math.log(dm.market_size / f_q))
        prices = np.linspace(0.0, p_cap, n_points)
        sales = dm.market_size * np.exp(-dm.sensitivity * prices / e_q)
        values = np.where(sales <= f_q * (1.0 + 1e-12), prices * sales, -np.inf)
        idx = int(np.argmax(values))
        scan_price = float(prices[idx])
        scan_best = float(values[idx])

        step = p_cap / (n_points - 1)
        assert abs(closed - scan_price) <= step * (1.0 + 1e-9)
        closed_revenue = d.revenue
        assert closed_revenue >= scan_best - 1e-6 * abs(closed_revenue)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, elapsed, "closed-form price within one grid step of a 1e6-point scan, 200 models")


def test_criterion_4_kkt_certification():
    # one closed-form check at every state: Q*, capacities within 1e-9 of the
    # domain start, where the expansion is below ZERO_TOL, and an expanding one
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        dm, model = random_accepted_model(rng, require_root=True)
        lo, k = model.domain[0], model.invest_cost
        states = [lo + 1e-12, lo + 1e-9, lo + 10.0 ** rng.uniform(-12, -9)]
        states += [solve_long_run_limit(dm, model).capacity_limit, pick_expanding_state(dm, model, rng)]
        for q in states:
            separated, sharing = solve_separated_period(dm, model, q)
            s = model.state(q)
            for problem, solution in (("integrated", solve_period(dm, model, q)), ("revenue-sharing", separated)):
                res = kkt_residuals(dm, s, k, solution, problem=problem)
                values = [getattr(res, name) for name in res._fields]
                numbers = [v for v in values if type(v) is not tuple] + list(res.comp_slackness)
                assert all(type(v) is float for v in numbers) and type(res.certified) is bool
                if problem == "revenue-sharing":
                    violation = max(0.0, -sharing.operator_budget_residual, -sharing.generator_budget_residual)
                    assert res.certified == (violation <= CERTIFY_TOL)
                elif decide_at(dm, s, k).status is ExpansionStatus.EXPANDING:
                    assert res.certified
                    worst = max(worst, res.max_abs_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, elapsed, f"first-order residuals certified, worst expanding = {worst:.2e}")


def test_criterion_5_equilibrium_properties():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    for _ in range(50):
        dm, model = random_accepted_model(rng, require_root=True)
        result = solve_long_run_limit(dm, model)
        assert not result.domain_capped
        cost = model.state(result.capacity_limit).cost
        assert result.residual <= 1e-8 * max(1.0, abs(cost))
        assert result.emissions_at_limit > 0.0

        limits = [
            solve_long_run_limit(dm, model._replace(invest_cost=k)).capacity_limit
            for k in (250.0, 1000.0, 4000.0)
        ]
        spread = (max(limits) - min(limits)) / max(abs(max(limits)), 1e-300)
        assert spread <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, elapsed, "50 random limits converged; invariant under investment cost")


def test_criterion_6_myopic_dominance():
    rng = np.random.default_rng(606)
    settings = [(3, 4), (4, 4), (3, 5), (4, 5), (3, 6), (4, 6)]
    start = time.perf_counter()
    certified = 0
    evaluated = 0
    while certified < 10:
        dm, model = random_accepted_model(rng, require_root=True)
        result = solve_long_run_limit(dm, model)
        lo, hi = model.domain
        q_init = lo + 0.05 * (hi - lo)
        try:
            certificate = certify_monotone_reachability(
                dm, model, 100, q_init=q_init, equilibrium=result
            )
        except Exception:
            continue
        if not certificate.holds:
            continue
        horizon, grid = settings[certified % len(settings)]
        report = enumerate_and_compare(dm, model, grid, horizon, q_init=q_init)
        assert report.statewise_violations == 0
        assert report.hitting_time_violations == 0
        assert report.emissions_violations == 0
        certified += 1
        evaluated += report.n_policies_evaluated
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(6, elapsed, f"zero dominance violations over {evaluated} enumerated policies")


def test_criterion_7_sharing_equivalence():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    interior_states = 0
    models = 0
    while interior_states < 20 and models < 200:
        dm, model = random_accepted_model(rng)
        models += 1
        lo, hi = model.domain
        for q in np.linspace(lo + 0.1 * (hi - lo), hi * 0.95, 12):
            s = model.state(q)
            if s.cost_generator <= 0:
                continue
            integrated = decide_at(dm, s, model.invest_cost)
            if integrated.status is not ExpansionStatus.EXPANDING:
                continue
            separated, sharing = solve_separated_period(dm, model, q)
            if not 0.0 < separated.share < 1.0:
                continue
            assert separated.price == integrated.price
            assert abs(separated.expansion - integrated.expansion) <= 1e-8 * max(
                1.0, abs(integrated.expansion)
            )
            total = s.C_S + model.invest_cost * separated.expansion + s.cost_generator
            assert abs(total - separated.revenue) <= 1e-8 * max(
                1.0, abs(separated.revenue)
            )
            assert sharing.equivalent_to_integrated
            interior_states += 1
    elapsed = time.perf_counter() - start
    assert interior_states >= 20
    assert elapsed < 10.0
    _report(7, elapsed, f"separated = integrated on {interior_states} interior-share states")


def test_criterion_8_baseline_qualitative():
    start = time.perf_counter()
    dm = BASELINE.demand
    model = BASELINE.grid
    cfg = SimulationConfig(q_init=0.5, horizon=200)
    run = simulate_myopic(dm, model, cfg)
    again = simulate_myopic(dm, model, cfg)
    elapsed = time.perf_counter() - start

    assert run == again  # determinism
    assert run.termination is Termination.REACHED_LIMIT

    steps = [r.solution.expansion for r in run.records]
    peak = int(np.argmax(steps))
    assert 0 < peak < len(steps) - 1
    assert all(b > a for a, b in zip(steps[: peak + 1], steps[1 : peak + 1]))
    declining = [s for s in steps[peak:] if s > 1e-12]
    assert all(b < a for a, b in zip(declining, declining[1:]))

    prices = [r.solution.price for r in run.records]
    assert all(b <= a for a, b in zip(prices, prices[1:]))

    phases = [r.solution.phase.value for r in run.records]
    assert sorted(set(phases)) == [1, 2, 3]
    assert all(b >= a for a, b in zip(phases, phases[1:]))

    assert elapsed < 10.0
    _report(
        8,
        elapsed,
        f"S-shaped expansion (peak at t={peak}), nonincreasing price, phases 1->2->3",
    )


def test_criterion_9_calibrator_properties():
    start = time.perf_counter()
    fleet = default_fleet()
    profiles = default_profiles()  # 8760 hours
    q_grid = list(np.linspace(0.0, 14.0, 20))
    calibration = calibrate_grid(fleet, profiles, q_grid, 0.35)

    e = np.array([s[1] for s in calibration.samples])
    f = np.array([s[2] for s in calibration.samples])
    pi = np.array([s[3] for s in calibration.samples])
    assert np.all(np.diff(e) <= 1e-12)
    assert np.all(np.diff(f) >= -1e-12)
    assert np.all(np.diff(f, 2) <= 1e-9 * max(1.0, float(np.max(f))))
    assert np.all(np.diff(pi) <= 1e-12)
    assert f[0] == 0.0

    load = np.asarray(profiles.load)
    for q in (0.0, 5.0, 10.0, 14.0):
        result = merit_order_dispatch(fleet, profiles, q)
        assert np.all(result.thermal == load - result.wind_served)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(9, elapsed, "calibrated curves monotone/concave; hourly balance exact")
