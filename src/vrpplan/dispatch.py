"""Single-bus merit-order dispatch and empirical grid-curve calibration.

A thermal fleet plus hourly load/wind profiles is dispatched for a sweep of
installed wind capacities; the resulting average emissions intensity e(Q),
usable wind output f(Q), and wind-weighted energy value pi(Q) become the
tabulated curves of a :class:`~vrpplan.grid_model.GridModel`.

No transmission, storage, reserves, or ramping: wind serves load first
(curtailing any excess), thermal units fill the residual in marginal-cost
order, and the clearing price is the cost of the last unit running (zero in
hours wind covers everything).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

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
        if self.capacity <= 0:
            raise ValueError("unit capacity must be positive")
        if self.marginal_cost < 0 or self.emission_rate < 0:
            raise ValueError("marginal cost and emission rate must be nonnegative")


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
        object.__setattr__(self, "load", tuple(float(x) for x in self.load))
        object.__setattr__(self, "wind_cf", tuple(float(x) for x in self.wind_cf))
        if len(self.load) != len(self.wind_cf):
            raise ValueError("load and wind_cf profiles must have equal length")
        if not self.load:
            raise ValueError("profiles must not be empty")
        if min(self.load) <= 0:
            raise ValueError("load must be strictly positive")
        if min(self.wind_cf) < 0 or max(self.wind_cf) > 1:
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


def merit_order_dispatch(
    fleet: FleetSpec,
    profiles: HourlyProfiles,
    wind_capacity: float,
    out: np.ndarray | None = None,
) -> HourlyDispatch:
    """Dispatch every hour: wind first, thermal in merit order for the rest.

    ``out``, a units x hours array, receives the unit generation in place of
    a new array; a capacity sweep passes one buffer to every call.
    """
    if wind_capacity < 0:
        raise ValueError("wind capacity must be nonnegative")
    load, cf = profiles._arrays
    caps, mcs, ers, cumcap = fleet._arrays

    available = wind_capacity * cf
    wind_served = np.minimum(available, load)
    curtailment = available - wind_served
    residual = load - wind_served

    over = residual > cumcap[-1] + scaled(ROUNDING_TOL, cumcap[-1])
    if np.any(over):
        hour = int(np.argmax(over))
        raise DispatchShortageError(hour, float(residual[hour]), fleet.total_capacity)

    below = np.concatenate([[0.0], cumcap[:-1]])
    unit_generation = np.subtract(residual[None, :], below[:, None], out=out)
    np.clip(unit_generation, 0.0, caps[:, None], out=unit_generation)

    marginal = np.searchsorted(cumcap, residual, side="left")
    marginal = np.minimum(marginal, len(caps) - 1)
    # wind is marginal where the residual load is rounding-size
    prices = np.where(residual <= ROUNDING_TOL, 0.0, mcs[marginal])

    emissions = ers @ unit_generation

    return HourlyDispatch(
        wind_capacity=wind_capacity,
        wind_served=wind_served,
        curtailment=curtailment,
        thermal=residual,
        prices=prices,
        emissions=emissions,
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
    total_load = float(np.sum(load))
    hours = profiles.hours

    # one units x hours buffer for the sweep: a fresh 2 MB array per capacity
    # costs page faults, and their number depends on the allocator's state
    generation = np.empty((len(fleet.units), hours))
    e_vals, f_vals, pi_vals = [], [], []
    for q in qs:
        result = merit_order_dispatch(fleet, profiles, q, out=generation)
        e_vals.append(float(np.sum(result.emissions)) / total_load)
        f_vals.append(float(np.sum(result.wind_served)) / (hours * wind_cf))
        weights = result.wind_served if np.sum(result.wind_served) > 0 else profile_cf
        price_energy = float(np.sum(result.prices * weights) / np.sum(weights))
        pi_vals.append(price_energy * 8.76 * wind_cf)

    e_arr = np.asarray(e_vals)
    pi_arr = np.asarray(pi_vals)
    e_iso = _decreasing_isotonic(e_arr)
    pi_iso = _decreasing_isotonic(pi_arr)
    e_adjusted = bool(np.any(e_iso != e_arr))
    pi_adjusted = bool(np.any(pi_iso != pi_arr))

    samples = tuple(
        (q, float(e), float(f), float(p))
        for q, e, f, p in zip(qs, e_iso, f_vals, pi_iso)
    )
    return CalibrationOutput(
        samples=samples,
        emissions_curve=gm.GridCurve(
            gm.CurveKind.TABULATED, table=tuple((q, float(e)) for q, e in zip(qs, e_iso))
        ),
        delivered_curve=gm.GridCurve(
            gm.CurveKind.TABULATED, table=tuple((q, f) for q, f in zip(qs, f_vals))
        ),
        energy_value_curve=gm.GridCurve(
            gm.CurveKind.TABULATED, table=tuple((q, float(p)) for q, p in zip(qs, pi_iso))
        ),
        emissions_adjusted=e_adjusted,
        energy_value_adjusted=pi_adjusted,
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


def read_fleet_csv(path) -> FleetSpec:
    """Fleet CSV with header capacity_gw, mc_usd_per_mwh, er_ton_per_mwh."""
    units = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(FLEET_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing fleet columns {sorted(missing)}")
        for row in reader:
            units.append(
                FleetUnit(
                    capacity=float(row["capacity_gw"]),
                    marginal_cost=float(row["mc_usd_per_mwh"]),
                    emission_rate=float(row["er_ton_per_mwh"]),
                )
            )
    return FleetSpec(units=tuple(units))


def read_profiles_csv(path) -> HourlyProfiles:
    """Profile CSV with header hour, load_gw, wind_cf; rows sorted by hour."""
    rows = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(PROFILE_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing profile columns {sorted(missing)}")
        for row in reader:
            rows.append((int(row["hour"]), float(row["load_gw"]), float(row["wind_cf"])))
    rows.sort(key=lambda r: r[0])
    return HourlyProfiles(
        load=tuple(r[1] for r in rows), wind_cf=tuple(r[2] for r in rows)
    )


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
