"""Single-bus merit-order dispatch and empirical grid-curve calibration.

A thermal fleet plus hourly load/wind profiles is dispatched for a sweep of
installed wind capacities; the resulting average emissions intensity e(Q),
usable wind output f(Q), and wind-weighted energy value pi(Q) become the
tabulated curves of a :class:`~vrpplan.grid_model.GridModel`.

No transmission, storage, reserves, or ramping: wind serves load first
(curtailing any excess), thermal units fill the residual in marginal-cost
order, and the clearing price is the cost of the last unit running (zero in
hours wind covers everything).

:func:`merit_order_dispatch` is the hourly reference.  :func:`calibrate_grid`
sums emissions and prices by each hour's marginal unit instead, walked down as
the sweep's wind lowers the residual load, with no units x hours array.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from . import grid_model as gm
from .errors import DispatchShortageError
from .tolerances import ROUNDING_TOL, scaled

HOURS_PER_YEAR = 8760


@dataclass(frozen=True)
class FleetUnit:
    capacity: float  # GW
    marginal_cost: float  # $/MWh
    emission_rate: float  # ton-CO2/MWh

    def __post_init__(self):
        if not 0 < self.capacity < math.inf:
            raise ValueError("unit capacity must be positive and finite")
        if not (0 <= self.marginal_cost < math.inf and 0 <= self.emission_rate < math.inf):
            raise ValueError("marginal cost and emission rate must be nonnegative and finite")


@dataclass(frozen=True)
class FleetSpec:
    """Thermal fleet, stored in merit (ascending marginal-cost) order."""

    units: tuple[FleetUnit, ...]

    def __post_init__(self):
        if not self.units:
            raise ValueError("fleet must contain at least one unit")
        ordered = tuple(sorted(self.units, key=lambda u: u.marginal_cost))
        object.__setattr__(self, "units", ordered)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        caps = np.array([u.capacity for u in self.units])
        mcs = np.array([u.marginal_cost for u in self.units])
        ers = np.array([u.emission_rate for u in self.units])
        return caps, mcs, ers, np.cumsum(caps)

    @property
    def total_capacity(self) -> float:
        return float(self._arrays[3][-1])


@dataclass(frozen=True)
class HourlyProfiles:
    """Hourly demand (GW) and per-unit wind output, equal lengths."""

    load: tuple[float, ...]
    wind_cf: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "load", tuple(map(float, self.load)))
        object.__setattr__(self, "wind_cf", tuple(map(float, self.wind_cf)))
        if len(self.load) != len(self.wind_cf):
            raise ValueError("load and wind_cf profiles must have equal length")
        if not self.load:
            raise ValueError("profiles must not be empty")
        load, cf = self._arrays
        if not (np.isfinite(load).all() and load.min() > 0):
            raise ValueError("load must be finite and strictly positive")
        if not (cf.min() >= 0 and cf.max() <= 1):  # false for NaN
            raise ValueError("wind capacity factors must lie in [0, 1]")

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.load), np.asarray(self.wind_cf)

    @property
    def hours(self) -> int:
        return len(self.load)

    @property
    def mean_wind_cf(self) -> float:
        return float(np.mean(self._arrays[1]))


@dataclass(frozen=True)
class HourlyDispatch:
    """Hourly dispatch outcome for one installed wind capacity.

    ``thermal`` is defined as load minus served wind, so the hourly energy
    balance wind_served + thermal = load holds by construction.  ``emissions``
    is generation (GWh) times emission rate per unit, summed; the intensity
    ratio emissions/load is an exact ton/MWh grid average.
    """

    wind_capacity: float
    wind_served: np.ndarray
    curtailment: np.ndarray
    thermal: np.ndarray
    prices: np.ndarray  # $/MWh clearing price per hour
    emissions: np.ndarray
    unit_generation: np.ndarray  # units x hours, GW


def _serve_wind(fleet: FleetSpec, profiles: HourlyProfiles, wind_capacity: float):
    """Hourly available wind, served wind and residual load; raise on a shortage."""
    if wind_capacity < 0:
        raise ValueError("wind capacity must be nonnegative")
    load, cf = profiles._arrays
    available = wind_capacity * cf
    wind_served = np.minimum(available, load)
    residual = load - wind_served
    top = fleet.total_capacity
    over = residual > top + scaled(ROUNDING_TOL, top)
    if np.any(over):
        hour = int(np.argmax(over))
        raise DispatchShortageError(hour, float(residual[hour]), top)
    return available, wind_served, residual


def merit_order_dispatch(
    fleet: FleetSpec, profiles: HourlyProfiles, wind_capacity: float
) -> HourlyDispatch:
    """Dispatch every hour: wind first, thermal in merit order for the rest."""
    available, wind_served, residual = _serve_wind(fleet, profiles, wind_capacity)
    caps, mcs, ers, cumcap = fleet._arrays
    below = np.concatenate([[0.0], cumcap[:-1]])
    unit_generation = residual[None, :] - below[:, None]
    np.clip(unit_generation, 0.0, caps[:, None], out=unit_generation)
    # the unit serving each hour's last MW; the last unit past the fleet's edge
    marginal = np.minimum(np.searchsorted(cumcap, residual, side="left"), len(caps) - 1)
    return HourlyDispatch(
        wind_capacity=wind_capacity,
        wind_served=wind_served,
        curtailment=available - wind_served,
        thermal=residual,
        # wind is marginal where the residual load is rounding-size
        prices=np.where(residual <= ROUNDING_TOL, 0.0, mcs[marginal]),
        emissions=ers @ unit_generation,
        unit_generation=unit_generation,
    )


@dataclass(frozen=True)
class CalibrationOutput:
    """Empirical grid curves sampled over a wind-capacity sweep."""

    samples: tuple[tuple[float, float, float, float], ...]  # (Q, e, f, pi)
    emissions_curve: gm.GridCurve
    delivered_curve: gm.GridCurve
    energy_value_curve: gm.GridCurve
    emissions_adjusted: bool  # isotonic correction applied to e
    energy_value_adjusted: bool  # isotonic correction applied to pi


def _decreasing_isotonic(values: np.ndarray) -> np.ndarray:
    """Least-squares nonincreasing fit by pool adjacent violators.

    Best & Chakravarti (1990), in the order of Busing (2022) that
    ``scipy.optimize.isotonic_regression`` follows, so that the two agree bit
    for bit: an increasing fit of the reversed sequence, where each pool keeps
    one mean and one size, merges with the pool behind it, absorbs the values
    ahead that violate its mean, then merges back while the order is violated.
    A sequence with no violation is returned as it is, so tied runs do not
    drift by rounding.
    """
    if not np.any(np.diff(values) > 0):
        return values
    y = values[::-1].tolist()
    means: list[float] = []
    sizes: list[int] = []
    i = 0
    while i < len(y):
        mean, size = y[i], 1
        if means and means[-1] >= mean:
            total = sizes[-1] * means.pop() + mean
            size += sizes.pop()
            mean = total / size
            while i + 1 < len(y) and mean >= y[i + 1]:
                i += 1
                total, size = total + y[i], size + 1
                mean = total / size
            while means and means[-1] >= mean:
                total += sizes[-1] * means.pop()
                size += sizes.pop()
                mean = total / size
        means.append(mean)
        sizes.append(size)
        i += 1
    return np.repeat(means[::-1], sizes[::-1])


def calibrate_grid(
    fleet: FleetSpec,
    profiles: HourlyProfiles,
    q_grid: list[float],
    wind_cf: float,
) -> CalibrationOutput:
    """Sweep installed wind capacity and tabulate e(Q), f(Q), pi(Q).

    e(Q): total emissions / total load (grid average, ton/MWh).
    f(Q): non-curtailed wind energy / (hours * wind_cf), GW capacity-equivalent.
    pi(Q): wind-output-weighted clearing price, converted to M$/GW-yr via the
    8.76 * wind_cf capacity/energy factor.  With no wind on line the weights
    fall back to the wind profile itself (the value of the first marginal MW).

    Each hour's marginal unit is located at the first capacity and walked down
    as its residual load falls.  f and pi equal the sums over
    :func:`merit_order_dispatch` exactly, e within rounding.

    Tiny monotonicity violations in e and pi (sampling noise in the weighted
    price) are smoothed by decreasing isotonic regression and flagged.
    """
    qs = [float(q) for q in q_grid]
    if len(qs) < 2:
        raise ValueError("q_grid needs at least 2 capacities")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q_grid must be strictly increasing")
    if not 0.0 < wind_cf <= 1.0:
        raise ValueError("wind_cf must lie in (0, 1]")

    load, profile_cf = profiles._arrays
    caps, mcs, ers, cumcap = fleet._arrays
    total_load = float(np.sum(load))
    below = np.concatenate([[0.0], cumcap[:-1]])
    floor = np.concatenate([[-np.inf], cumcap[:-1]])  # no unit below unit 0
    full_below = np.concatenate([[0.0], np.cumsum(ers * caps)[:-1]])  # emissions under each unit
    # residuals only fall as Q grows: check the fleet at the first capacity and
    # locate each hour's marginal unit there, then walk it down the sweep
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

    def curve(values: list[float]) -> gm.GridCurve:
        return gm.GridCurve(gm.CurveKind.TABULATED, table=tuple(zip(qs, values)))

    return CalibrationOutput(
        samples=tuple(zip(qs, e_iso, f_vals, pi_iso)),
        emissions_curve=curve(e_iso),
        delivered_curve=curve(f_vals),
        energy_value_curve=curve(pi_iso),
        emissions_adjusted=e_iso != e_vals,
        energy_value_adjusted=pi_iso != pi_vals,
    )


def build_grid_model(
    calibration: CalibrationOutput,
    cost_renewable: gm.CostSpec,
    cost_system: gm.CostSpec,
    invest_cost: float,
) -> gm.GridModel:
    """Assemble a GridModel from calibrated curves plus cost parameters."""
    qs = [q for q, _, _, _ in calibration.samples]
    return gm.GridModel(
        emissions=calibration.emissions_curve,
        delivered=calibration.delivered_curve,
        energy_value=calibration.energy_value_curve,
        cost_renewable=cost_renewable,
        cost_system=cost_system,
        invest_cost=invest_cost,
        domain=(qs[0], qs[-1]),
    )


# ---------------------------------------------------------------------------
# Defaults and CSV ingestion
# ---------------------------------------------------------------------------


def default_fleet() -> FleetSpec:
    """Desk-scale thermal fleet for a ~10 GW-peak utility."""
    return FleetSpec(
        units=(
            FleetUnit(2.0, 5.0, 0.0),  # nuclear-like base
            FleetUnit(2.5, 22.0, 0.95),  # coal
            FleetUnit(3.0, 35.0, 0.38),  # efficient gas CC
            FleetUnit(2.5, 48.0, 0.42),  # older gas CC
            FleetUnit(2.0, 85.0, 0.55),  # gas peaker
            FleetUnit(1.5, 140.0, 0.78),  # oil peaker
        )
    )


def default_profiles(
    hours: int = HOURS_PER_YEAR, wind_cf: float = 0.35, seed: int = 2024
) -> HourlyProfiles:
    """Synthetic load and wind profiles with a fixed seed.

    Load is a daily plus seasonal sinusoid with noise; the wind pattern is a
    diurnal/seasonal shape rescaled so its mean equals ``wind_cf`` exactly.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(hours)
    hour_of_day = t % 24
    day = t // 24

    load = (
        6.5
        + 1.5 * np.sin(2.0 * np.pi * (hour_of_day - 9.0) / 24.0)
        + 1.0 * np.cos(2.0 * np.pi * day / 365.0)
        + rng.normal(0.0, 0.3, size=hours)
    )
    load = np.maximum(load, 2.0)

    raw = (
        0.6
        + 0.25 * np.sin(2.0 * np.pi * (hour_of_day - 14.0) / 24.0)
        + 0.15 * np.sin(2.0 * np.pi * day / 365.0 + 1.0)
        + rng.normal(0.0, 0.05, size=hours)
    )
    raw = np.clip(raw, 0.05, 1.1)
    cf = raw * (wind_cf / np.mean(raw))
    if np.max(cf) > 1.0:  # cannot happen for sensible wind_cf, but stay safe
        cf = np.clip(cf, 0.0, 1.0)
        cf = cf * (wind_cf / np.mean(cf))
    return HourlyProfiles(load=tuple(load), wind_cf=tuple(cf))


FLEET_CSV_COLUMNS = ("capacity_gw", "mc_usd_per_mwh", "er_ton_per_mwh")
PROFILE_CSV_COLUMNS = ("hour", "load_gw", "wind_cf")


def _read_csv(path, columns: tuple[str, ...], kind: str) -> tuple[list[int], np.ndarray]:
    """Line numbers of a CSV file's nonblank rows, and its named columns as finite floats."""
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


def read_fleet_csv(path) -> FleetSpec:
    """Fleet CSV with header capacity_gw, mc_usd_per_mwh, er_ton_per_mwh."""
    _, columns = _read_csv(path, FLEET_CSV_COLUMNS, "fleet")
    try:
        return FleetSpec(units=tuple(FleetUnit(*row) for row in columns.T.tolist()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_profiles_csv(path) -> HourlyProfiles:
    """Profile CSV with header hour, load_gw, wind_cf; hours 0..n-1, each once."""
    lines, (hours, load, cf) = _read_csv(path, PROFILE_CSV_COLUMNS, "profile")
    order = np.argsort(hours, kind="stable")
    wrong = hours[order] != np.arange(len(hours))
    if wrong.any():
        k = int(np.argmax(wrong))  # sorted, the hours must run 0, 1, ..., n - 1
        raise ValueError(f"{path}: line {lines[order[k]]}: column hour: hour {hours[order[k]]:g} stands where "
                         f"{k} belongs in 0..{len(hours) - 1}, each once")
    if len(cf) and not cf.any():
        raise ValueError(f"{path}: column wind_cf: zero in every hour, so wind has no energy value")
    try:
        return HourlyProfiles(load=tuple(load[order].tolist()), wind_cf=tuple(cf[order].tolist()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_fleet_csv(fleet: FleetSpec, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(FLEET_CSV_COLUMNS)
        for u in fleet.units:
            writer.writerow([repr(u.capacity), repr(u.marginal_cost), repr(u.emission_rate)])


def write_profiles_csv(profiles: HourlyProfiles, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PROFILE_CSV_COLUMNS)
        for hour, (load, cf) in enumerate(zip(profiles.load, profiles.wind_cf)):
            writer.writerow([hour, repr(load), repr(cf)])
