"""Merit-order dispatch and grid-curve calibration."""

import csv
import math
import tracemalloc
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression, linprog

from vrpplan.dispatch import (
    FLEET_CSV_COLUMNS,
    PROFILE_CSV_COLUMNS,
    FleetSpec,
    FleetUnit,
    HourlyProfiles,
    _decreasing_isotonic,
    _read_csv,
    _serve_wind,
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
from vrpplan.tolerances import ROUNDING_TOL


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
        assert np.mean(profiles.wind_cf) == pytest.approx(0.35, abs=1e-3)
        assert max(profiles.wind_cf) <= 1.0
        assert min(profiles.load) > 0.0

    def test_default_deterministic(self):
        a, b, c = (default_profiles(hours=100, seed=seed) for seed in (7, 7, 8))
        assert np.array_equal(a.load, b.load) and np.array_equal(a.wind_cf, b.wind_cf)
        assert not np.array_equal(a.load, c.load)

    def test_holds_read_only_arrays_of_its_own(self):
        load = np.array([1.0, 2.0])
        profiles = HourlyProfiles(load, (0.5, 1))
        load[0] = 9.0
        assert profiles.load.tolist() == [1.0, 2.0] and profiles.wind_cf.tolist() == [0.5, 1.0]
        for values in (profiles.load, profiles.wind_cf):
            assert values.dtype == np.float64 and not values.flags.writeable

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


def reference_calibrate(fleet, profiles, q_grid, wind_cf):
    """The sweep gathering every hour's marginal-unit terms afresh at each
    capacity: (samples, emissions_adjusted, energy_value_adjusted)."""
    qs = [float(q) for q in q_grid]
    load, profile_cf = profiles.load, profiles.wind_cf
    caps, mcs, ers, cumcap = fleet._arrays
    total_load = float(np.sum(load))
    below = np.concatenate([[0.0], cumcap[:-1]])
    floor = np.concatenate([[-np.inf], cumcap[:-1]])
    full_below = np.concatenate([[0.0], np.cumsum(ers * caps)[:-1]])
    residual = _serve_wind(fleet, profiles, qs[0])[2]
    marginal = np.minimum(np.searchsorted(cumcap, residual, side="left"), len(caps) - 1)
    e_vals, f_vals, pi_vals = [], [], []
    for q in qs:
        wind_served = np.minimum(q * profile_cf, load)
        residual = load - wind_served
        while True:
            down = residual <= floor[marginal]
            if not down.any():
                break
            marginal -= down
        marginal_output = np.minimum(residual, cumcap[-1]) - below[marginal]
        emissions = full_below[marginal] + ers[marginal] * marginal_output
        prices = np.where(residual <= ROUNDING_TOL, 0.0, mcs[marginal])
        served = np.sum(wind_served)
        e_vals.append(float(np.sum(emissions)) / total_load)
        f_vals.append(float(served) / (profiles.hours * wind_cf))
        weights = wind_served if served > 0 else profile_cf
        price_energy = float(np.sum(prices * weights) / np.sum(weights))
        pi_vals.append(price_energy * 8.76 * wind_cf)
    e_iso = _decreasing_isotonic(np.asarray(e_vals)).tolist()
    pi_iso = _decreasing_isotonic(np.asarray(pi_vals)).tolist()
    return tuple(zip(qs, e_iso, f_vals, pi_iso)), e_iso != e_vals, pi_iso != pi_vals


def assert_same_bits(calibration, reference):
    samples, emissions_adjusted, energy_value_adjusted = reference
    # repr tells -0.0 from 0.0 and compares NaN, where == would not
    assert repr(calibration.samples) == repr(samples)
    assert calibration.emissions_adjusted == emissions_adjusted
    assert calibration.energy_value_adjusted == energy_value_adjusted


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

    @given(sweeps())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_reference_sweep_bit_for_bit(self, sweep):
        fleet, profiles, q_grid = sweep
        assert_same_bits(calibrate_grid(fleet, profiles, q_grid, 0.35),
                         reference_calibrate(fleet, profiles, q_grid, 0.35))

    def test_a_30_unit_fleet_over_a_year_matches_the_reference(self):
        rng = np.random.default_rng(11)
        caps = rng.uniform(0.2, 1.0, 30)
        caps *= 13.0 / caps.sum()  # the default profiles peak near 10 GW
        units = zip(caps, rng.uniform(5.0, 150.0, 30), rng.uniform(0.0, 1.0, 30))
        fleet = FleetSpec(units=tuple(FleetUnit(float(c), float(m), float(r)) for c, m, r in units))
        profiles = default_profiles()
        q_grid = list(np.linspace(0.0, 12.0, 241))
        assert_same_bits(calibrate_grid(fleet, profiles, q_grid, 0.35),
                         reference_calibrate(fleet, profiles, q_grid, 0.35))

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


def reference_read_csv(path, columns, kind):
    """The row-by-row CSV read: (line numbers of the nonblank rows, the named
    columns as finite floats, one array row per column)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = set(columns) - set(header)
        if missing:
            raise ValueError(f"{path}: missing {kind} columns {sorted(missing)}")
        index = [header.index(c) for c in columns]
        cells = itemgetter(*index)
        lines, values = [], []
        for row in reader:
            if not row:
                continue
            lines.append(reader.line_num)
            try:
                values.extend(map(float, cells(row)))
            except (IndexError, ValueError):
                for column, i in zip(columns, index):
                    text = row[i] if i < len(row) else ""
                    try:
                        float(text)
                    except ValueError:
                        message = f"line {lines[-1]}: column {column}: not a number: {text!r}"
                        raise ValueError(f"{path}: {message}") from None
    table = np.array(values).reshape(-1, len(columns))
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, at = bad[0]
        raise ValueError(f"{path}: line {lines[row]}: column {columns[at]}: not finite: {table[row, at]}")
    return lines, table.T


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0.0, 20.0).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0.0", "1e5", "+.5", "5.", "1E-3", "  2.5 ", "\t3\t", "1\xa0"]),
)
ODD_CELLS = st.sampled_from([
    "1_0", "\u0661\u0662", "\u0663.\u0665", "\uff17",  # float() takes these, numpy's reader does not
    "inf", "-inf", "nan", "Infinity", "1e999", "",
    "x", "1.5e", "0x10", '1"2', " ", "1,5",
])


@st.composite
def csv_texts(draw):
    """A calibration CSV text: the named columns among extra ones, in any
    order, and rows that are blank, short, quoted or not numbers at all."""
    columns = draw(st.sampled_from([FLEET_CSV_COLUMNS, PROFILE_CSV_COLUMNS]))
    extra = draw(st.lists(st.sampled_from(["note", "unit", ""]), max_size=2))
    header = draw(st.permutations([*columns, *extra]))
    clean = draw(st.booleans())  # numbers only: numpy's reader takes most such files whole

    def cell():
        text = draw(NUMBERS if clean or draw(st.integers(0, 5)) else ODD_CELLS)
        quoting = draw(st.sampled_from(["", "", "", "quoted", "newline"]))
        if quoting == "quoted" or "," in text or '"' in text:
            return '"' + text.replace('"', '""') + '"'
        return f'"{text}\n"' if quoting == "newline" else text

    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "short", "long", "unclosed"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            width = len(header) + {"short": -1, "long": 2}.get(kind, 0)
            row = [cell() for _ in range(max(width, 1))]
            if kind == "unclosed":  # a quote left open runs on into the next lines
                row[-1] = '"' + draw(NUMBERS)
            lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    last = draw(st.sampled_from([end, ""]))
    return columns, end.join(lines) + last


def read_outcome(read, path, columns):
    """The table bit for bit, or the error's class and message."""
    try:
        table = read(path, columns, "test")
    except ValueError as exc:
        return type(exc), str(exc)
    return table.dtype, table.shape, table.tobytes()


class TestCsvReaderMatchesTheRowWalk:
    @given(csv_texts())
    @example((PROFILE_CSV_COLUMNS, "hour,load_gw,wind_cf\n"))  # header only
    @example((PROFILE_CSV_COLUMNS, "hour,load_gw,wind_cf"))
    @example((FLEET_CSV_COLUMNS, "note,er_ton_per_mwh,capacity_gw,mc_usd_per_mwh\r\nx,0.5,1_0,\u0661\r\n"))
    @example((FLEET_CSV_COLUMNS, 'capacity_gw,mc_usd_per_mwh,er_ton_per_mwh\n\n"2.0\n",5,0\r\n \n'))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.filterwarnings("error")
    def test_same_table_or_same_message(self, tmp_path, case):
        columns, text = case
        path = tmp_path / "input.csv"
        with open(path, "w", newline="") as handle:
            handle.write(text)
        expected = read_outcome(lambda *args: reference_read_csv(*args)[1], path, columns)
        assert read_outcome(_read_csv, path, columns) == expected


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
        read = read_profiles_csv(path)
        assert np.array_equal(read.load, profiles.load)
        assert np.array_equal(read.wind_cf, profiles.wind_cf)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("capacity_gw,mc_usd_per_mwh\n1.0,10.0\n")
        with pytest.raises(ValueError):
            read_fleet_csv(path)
