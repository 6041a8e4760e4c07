"""Merit-order dispatch and grid-curve calibration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression, linprog

from vrpplan.dispatch import (
    FleetSpec,
    FleetUnit,
    HourlyProfiles,
    _decreasing_isotonic,
    build_grid_model,
    calibrate_grid,
    default_fleet,
    default_profiles,
    merit_order_dispatch,
    read_fleet_csv,
    read_profiles_csv,
    write_fleet_csv,
    write_profiles_csv,
)
from vrpplan.errors import DispatchShortageError
from vrpplan.grid_model import CostSpec, validate_grid_conditions


class TestMeritOrderDispatch:
    def test_single_hour_hand_example(self):
        fleet = FleetSpec(units=(FleetUnit(2.0, 30.0, 0.5),))
        profiles = HourlyProfiles(load=(1.0,), wind_cf=(0.5,))
        result = merit_order_dispatch(fleet, profiles, 1.0)
        assert result.wind_served[0] == pytest.approx(0.5)
        assert result.thermal[0] == pytest.approx(0.5)
        assert result.prices[0] == pytest.approx(30.0)
        assert result.emissions[0] == pytest.approx(0.25)
        assert result.curtailment[0] == 0.0

    def test_full_displacement_zero_price(self):
        fleet = FleetSpec(units=(FleetUnit(2.0, 30.0, 0.5),))
        profiles = HourlyProfiles(load=(1.0,), wind_cf=(0.8,))
        result = merit_order_dispatch(fleet, profiles, 2.0)
        assert result.wind_served[0] == pytest.approx(1.0)
        assert result.curtailment[0] == pytest.approx(0.6)
        assert result.prices[0] == 0.0
        assert result.emissions[0] == 0.0

    def test_shortage_names_hour(self):
        fleet = FleetSpec(units=(FleetUnit(2.0, 30.0, 0.5),))
        profiles = HourlyProfiles(load=(1.0, 5.0), wind_cf=(0.0, 0.0))
        with pytest.raises(DispatchShortageError) as excinfo:
            merit_order_dispatch(fleet, profiles, 0.0)
        assert excinfo.value.hour == 1

    def test_units_sorted_by_marginal_cost(self):
        fleet = FleetSpec(
            units=(FleetUnit(1.0, 50.0, 0.6), FleetUnit(1.0, 10.0, 0.2))
        )
        assert [u.marginal_cost for u in fleet.units] == [10.0, 50.0]

    def test_matches_linear_program_oracle(self):
        # single bus without ramping: greedy merit order is LP-optimal
        rng = np.random.default_rng(5)
        fleet = FleetSpec(
            units=(FleetUnit(1.5, 20.0, 0.9), FleetUnit(2.0, 45.0, 0.4))
        )
        load = tuple(rng.uniform(0.5, 3.2, size=24))
        cf = tuple(rng.uniform(0.0, 1.0, size=24))
        profiles = HourlyProfiles(load=load, wind_cf=cf)
        result = merit_order_dispatch(fleet, profiles, 0.8)

        caps = np.array([1.5, 2.0])
        costs = np.array([20.0, 45.0])
        for hour in range(24):
            residual = load[hour] - result.wind_served[hour]
            lp = linprog(
                costs,
                A_eq=[[1.0, 1.0]],
                b_eq=[residual],
                bounds=[(0.0, c) for c in caps],
                method="highs",
            )
            assert lp.success
            np.testing.assert_allclose(
                result.unit_generation[:, hour], lp.x, atol=1e-9
            )

    def test_energy_balance_exact(self):
        fleet = default_fleet()
        profiles = default_profiles(hours=500)
        for q in (0.0, 2.0, 5.0, 9.0):
            result = merit_order_dispatch(fleet, profiles, q)
            load = np.asarray(profiles.load)
            assert np.all(result.thermal == load - result.wind_served)

    def test_monotone_in_wind_capacity(self):
        fleet = default_fleet()
        profiles = default_profiles(hours=400)
        previous = None
        for q in np.linspace(0.0, 12.0, 7):
            result = merit_order_dispatch(fleet, profiles, q)
            if previous is not None:
                assert np.sum(result.emissions) <= np.sum(previous.emissions) + 1e-12
                assert np.sum(result.wind_served) >= np.sum(previous.wind_served) - 1e-12
                assert np.all(result.curtailment >= previous.curtailment - 1e-12)
                assert np.all(result.prices <= previous.prices + 1e-12)
            previous = result


class TestProfiles:
    def test_default_mean_matches_target(self):
        profiles = default_profiles(wind_cf=0.35)
        assert profiles.hours == 8760
        assert profiles.mean_wind_cf == pytest.approx(0.35, abs=1e-3)
        assert max(profiles.wind_cf) <= 1.0
        assert min(profiles.load) > 0.0

    def test_default_deterministic(self):
        assert default_profiles(hours=100, seed=7) == default_profiles(hours=100, seed=7)
        assert default_profiles(hours=100, seed=7) != default_profiles(hours=100, seed=8)

    def test_validation(self):
        with pytest.raises(ValueError):
            HourlyProfiles(load=(1.0,), wind_cf=(0.5, 0.5))
        with pytest.raises(ValueError):
            HourlyProfiles(load=(0.0,), wind_cf=(0.5,))
        with pytest.raises(ValueError):
            HourlyProfiles(load=(1.0,), wind_cf=(1.5,))


class TestCalibration:
    def test_no_wind_sample(self):
        fleet = default_fleet()
        profiles = default_profiles(hours=300)
        calibration = calibrate_grid(fleet, profiles, [0.0, 4.0, 8.0], 0.35)
        q0, e0, f0, pi0 = calibration.samples[0]
        assert q0 == 0.0
        assert f0 == 0.0

        # independent fleet-average oracle: fill units in cost order by hand
        ordered = sorted(fleet.units, key=lambda u: u.marginal_cost)
        total_emissions = 0.0
        for load in profiles.load:
            residual = load
            for unit in ordered:
                generation = min(residual, unit.capacity)
                total_emissions += generation * unit.emission_rate
                residual -= generation
        assert e0 == pytest.approx(total_emissions / sum(profiles.load), rel=1e-12)

    def test_monotone_curves(self):
        fleet = default_fleet()
        profiles = default_profiles(hours=600)
        q_grid = list(np.linspace(0.0, 14.0, 12))
        calibration = calibrate_grid(fleet, profiles, q_grid, 0.35)
        e = [s[1] for s in calibration.samples]
        f = [s[2] for s in calibration.samples]
        pi = [s[3] for s in calibration.samples]
        assert all(a >= b for a, b in zip(e, e[1:]))
        assert all(b >= a for a, b in zip(f, f[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(pi, pi[1:]))
        # delivered output is a sum of min(Q cf, load) terms, hence concave
        second = np.diff(f, 2)
        assert np.all(second <= 1e-9 * max(f))

    def test_builds_accepted_grid_model(self):
        fleet = default_fleet()
        profiles = default_profiles(hours=600)
        calibration = calibrate_grid(
            fleet, profiles, list(np.linspace(0.0, 14.0, 12)), 0.35
        )
        model = build_grid_model(
            calibration, CostSpec(21.0, 5.0), CostSpec(9.6, 1.0), 1000.0
        )
        assert model.domain == (0.0, 14.0)
        assert validate_grid_conditions(model, 60).passed

    def test_q_grid_validation(self):
        fleet = default_fleet()
        profiles = default_profiles(hours=10)
        with pytest.raises(ValueError):
            calibrate_grid(fleet, profiles, [0.0], 0.35)
        with pytest.raises(ValueError):
            calibrate_grid(fleet, profiles, [0.0, 0.0], 0.35)
        with pytest.raises(ValueError):
            calibrate_grid(fleet, profiles, [0.0, 1.0], 0.0)


@st.composite
def sweeps(draw):
    """A fleet, profiles and an increasing capacity grid, with ties and exact edges."""
    # on a lattice of quarters and eighths the arithmetic is exact, so residuals
    # fall exactly onto cumulative capacities as the wind grows
    lattice = draw(st.booleans())

    def number(lo, hi, step):
        if lattice:
            return st.integers(math.ceil(lo / step), math.floor(hi / step)).map(lambda k: k * step)
        return st.floats(lo, hi)

    capacity = number(0.25, 5.0, 0.25)
    pool = draw(st.lists(capacity, min_size=1, max_size=3))
    units = tuple(
        FleetUnit(draw(st.one_of(st.sampled_from(pool), capacity)), draw(number(0.0, 200.0, 1.0)),
                  draw(number(0.0, 1.2, 0.125)))
        for _ in range(draw(st.integers(1, 12)))
    )
    fleet = FleetSpec(units=units)
    cumcap = np.cumsum([u.capacity for u in fleet.units]).tolist()
    hours = draw(st.integers(1, 48))
    # a load on a cumulative capacity, or a rounding step past the whole fleet
    edges = st.sampled_from([*cumcap, cumcap[-1] * (1 + 5e-13)])
    load = draw(st.lists(st.one_of(number(0.25, cumcap[-1], 0.25), edges), min_size=hours, max_size=hours))
    cf = draw(st.lists(st.one_of(st.just(0.0), number(0.0, 1.0, 0.125)), min_size=hours, max_size=hours))
    assume(any(cf))
    steps = draw(st.lists(st.one_of(number(1e-3, 3.0, 0.5), number(1e-6, 1e-2, 2.0**-10)), min_size=1, max_size=40))
    q_grid = np.cumsum([draw(number(0.0, 5.0, 0.5)), *steps]).tolist()
    assume(all(b > a for a, b in zip(q_grid, q_grid[1:])))
    return fleet, HourlyProfiles(load=tuple(load), wind_cf=tuple(cf)), q_grid


class TestSweepMatchesHourlyDispatch:
    @given(sweeps())
    @settings(max_examples=120, deadline=None)
    def test_sums_over_the_reference_dispatch(self, sweep):
        fleet, profiles, q_grid = sweep
        load, cf = np.asarray(profiles.load), np.asarray(profiles.wind_cf)
        e, f, pi = [], [], []
        for q in q_grid:
            hourly = merit_order_dispatch(fleet, profiles, q)
            e.append(float(np.sum(hourly.emissions)) / float(np.sum(load)))
            f.append(float(np.sum(hourly.wind_served)) / (profiles.hours * 0.35))
            weights = hourly.wind_served if np.sum(hourly.wind_served) > 0 else cf
            pi.append(float(np.sum(hourly.prices * weights) / np.sum(weights)) * 8.76 * 0.35)
        e_iso, pi_iso = _decreasing_isotonic(np.array(e)), _decreasing_isotonic(np.array(pi))

        calibration = calibrate_grid(fleet, profiles, q_grid, 0.35)
        assert calibration.emissions_adjusted == bool(np.any(e_iso != np.array(e)))
        assert calibration.energy_value_adjusted == bool(np.any(pi_iso != np.array(pi)))
        assert [s[2] for s in calibration.samples] == f
        assert [s[3] for s in calibration.samples] == pi_iso.tolist()
        np.testing.assert_allclose([s[1] for s in calibration.samples], e_iso, rtol=1e-13, atol=0)

    def test_sweep_allocates_no_units_by_hours_array(self):
        rng = np.random.default_rng(3)
        fleet = FleetSpec(units=tuple(FleetUnit(0.5, float(mc), 0.5) for mc in rng.uniform(5.0, 150.0, 30)))
        profiles = default_profiles()
        q_grid = list(np.linspace(0.0, 12.0, 41))
        calibrate_grid(fleet, profiles, q_grid, 0.35)  # fills the cached input arrays
        tracemalloc.start()
        try:
            calibrate_grid(fleet, profiles, q_grid, 0.35)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one units x hours float array would take 30 * 8760 * 8 B = 2.1 MB
        assert peak < 1_000_000


finite = st.floats(min_value=-1e9, max_value=1e9)
sequences = st.one_of(
    st.lists(finite, min_size=2, max_size=300),
    st.lists(finite, min_size=2, max_size=300).map(lambda xs: sorted(xs, reverse=True)),
    # ties: every value drawn from a pool of at most four
    st.lists(finite, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=300)
    ),
)


class TestDecreasingIsotonic:
    @given(sequences)
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, xs):
        values = np.array(xs)
        fit = _decreasing_isotonic(values)
        assert fit.shape == values.shape
        assert np.all(np.diff(fit) <= 0)
        if np.any(np.diff(values) > 0):
            expected = isotonic_regression(values, increasing=False).x
            np.testing.assert_allclose(fit, expected, rtol=1e-15, atol=0)
        else:
            # nothing to correct comes back as it is; scipy's running sums can
            # move a long tied run by a few ulps instead
            assert np.array_equal(fit, values)

    def test_pools_violating_neighbours(self):
        fit = _decreasing_isotonic(np.array([3.0, 1.0, 2.0, 0.0, 0.5]))
        np.testing.assert_array_equal(fit, [3.0, 1.5, 1.5, 0.25, 0.25])

    def test_correction_fires_on_rising_energy_value(self):
        # curtailment in the windy hour moves the output weights toward the
        # calm, priced hour, so the weighted energy value rises from Q=1 to 2
        fleet = FleetSpec(units=(FleetUnit(2.0, 30.0, 0.5),))
        profiles = HourlyProfiles(load=(1.0, 1.0), wind_cf=(1.0, 0.1))
        calibration = calibrate_grid(fleet, profiles, [0.0, 1.0, 2.0], 0.35)
        assert calibration.energy_value_adjusted
        assert not calibration.emissions_adjusted
        pi = [s[3] for s in calibration.samples]
        assert all(a >= b for a, b in zip(pi, pi[1:]))
        scale = 8.76 * 0.35
        raw = [30.0 * scale, 30.0 * 0.1 / 1.1 * scale, 30.0 * 0.2 / 1.2 * scale]
        assert pi == pytest.approx([raw[0], (raw[1] + raw[2]) / 2, (raw[1] + raw[2]) / 2])
        assert [v for _, v in calibration.energy_value_curve.table] == pi


class TestCsvRoundTrips:
    def test_fleet(self, tmp_path):
        fleet = default_fleet()
        path = tmp_path / "fleet.csv"
        write_fleet_csv(fleet, path)
        assert read_fleet_csv(path) == fleet

    def test_profiles(self, tmp_path):
        profiles = default_profiles(hours=48)
        path = tmp_path / "profiles.csv"
        write_profiles_csv(profiles, path)
        assert read_profiles_csv(path) == profiles

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("capacity_gw,mc_usd_per_mwh\n1.0,10.0\n")
        with pytest.raises(ValueError):
            read_fleet_csv(path)
