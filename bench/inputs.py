"""Seeded inputs for the benchmark: scenario documents, fleets and profiles.

Every input the program sees is generated here from the workload seed, so the
same seed gives the same inputs.  Models are produced as scenario documents
(plain JSON-able dicts); the program reads them through ``vrpplan.scenario``
and the checker through :class:`checker.Model`, so both see one definition.
Admissibility is decided by the independent checker, not by the program.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

import checker

HOURS_PER_YEAR = 8760
WIND_CF = 0.35
DIP_Q_INIT = 1.0


def load_baseline(root: Path) -> dict:
    return json.loads((root / "scenarios" / "baseline.json").read_text())


def write_json(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _scenario(grid: dict, market: float, sensitivity: float, q_init: float, horizon: int, stop: bool) -> dict:
    return {
        "schema_version": 1,
        "grid": grid,
        "demand": {"market_size": market, "sensitivity": sensitivity},
        "simulation": {"q_init": q_init, "horizon": horizon, "stop_at_limit": stop, "period_label": "year"},
        "wind_cf": WIND_CF,
        "output": "csv",
        "seed": 0,
    }


def _tabulate(fn, domain: tuple[float, float], knots: int) -> dict:
    qs = np.linspace(domain[0], domain[1], knots)
    return {"kind": "tabulated", "table": [[float(q), float(fn(q))] for q in qs]}


def _exp_doc(amplitude: float, rate: float) -> dict:
    return {"kind": "parametric-exponential-decay", "coefficients": [amplitude, rate]}


def perturbed_baseline(base: dict, rng: np.random.Generator, spread: float = 0.08) -> dict:
    """The shipped baseline with every parameter scaled by U(1-spread, 1+spread)."""
    for _ in range(200):
        doc = copy.deepcopy(base)
        grid = doc["grid"]

        def u() -> float:
            return float(rng.uniform(1.0 - spread, 1.0 + spread))

        doc["demand"]["market_size"] *= u()
        doc["demand"]["sensitivity"] *= u()
        for name in ("emissions", "energy_value"):
            a, r = grid[name]["coefficients"]
            grid[name]["coefficients"] = [a * u(), r * u()]
        scale = u()
        grid["delivered"]["table"] = [[q, v * scale] for q, v in grid["delivered"]["table"]]
        for name in ("cost_renewable", "cost_system"):
            grid[name] = {"alpha": grid[name]["alpha"] * u(), "beta": grid[name]["beta"] * u()}
        grid["invest_cost"] *= u()
        doc.pop("derivative_bounds", None)
        if checker.admissible(checker.Model(doc)) is not None:
            return doc
    raise RuntimeError("no admissible perturbation of the baseline")


def random_accepted(rng: np.random.Generator, variant: str, horizon: int = 200, stop: bool = True) -> dict:
    """The random accepted model family.

    ``variant`` picks the curve representation: ``tab-f`` (tabulated delivered
    output, exponential e and pi), ``all-tab`` (all three tabulated) or
    ``parametric`` (polynomial delivered output, exponential e and pi).
    """
    for _ in range(500):
        market = float(rng.uniform(6.0, 16.0))
        sensitivity = float(rng.uniform(0.003, 0.007))
        domain = (0.0, float(rng.uniform(10.0, 18.0)))
        e_amp, e_rate = float(rng.uniform(0.25, 0.55)), float(rng.uniform(0.03, 0.10))
        f_lim, f_rate = market * float(rng.uniform(0.45, 0.85)), float(rng.uniform(0.08, 0.25))
        pi_amp, pi_rate = float(rng.uniform(70.0, 140.0)), float(rng.uniform(0.04, 0.10))
        costs = [float(rng.uniform(lo, hi)) for lo, hi in ((8, 30), (1, 6), (3, 15), (0.3, 2))]
        invest = float(rng.uniform(300.0, 3000.0))
        q_init = float(rng.uniform(0.3, 1.0))

        def saturating(q, f_lim=f_lim, f_rate=f_rate):
            return f_lim * (1.0 - math.exp(-f_rate * q))

        if variant == "parametric":
            slope = f_lim * f_rate
            delivered = {"kind": "parametric-polynomial", "coefficients": [slope, -slope / (2.0 * domain[1])]}
        else:
            delivered = _tabulate(saturating, domain, 241)
        emissions, energy_value = _exp_doc(e_amp, e_rate), _exp_doc(pi_amp, pi_rate)
        if variant == "all-tab":
            emissions = _tabulate(lambda q: e_amp * math.exp(-e_rate * q), domain, 121)
            energy_value = _tabulate(lambda q: pi_amp * math.exp(-pi_rate * q), domain, 121)
        grid = {
            "emissions": emissions,
            "delivered": delivered,
            "energy_value": energy_value,
            "cost_renewable": {"alpha": costs[0], "beta": costs[1]},
            "cost_system": {"alpha": costs[2], "beta": costs[3]},
            "invest_cost": invest,
            "domain": list(domain),
        }
        doc = _scenario(grid, market, sensitivity, q_init, horizon, stop)
        if checker.admissible(checker.Model(doc)) is not None:
            return doc
    raise RuntimeError(f"could not draw an admissible {variant} model")


def tune_periods(doc: dict, target: int) -> dict:
    """Rescale the investment cost so the myopic run stops after about ``target`` periods.

    The limit does not depend on k, and the number of periods to reach it
    grows in proportion to k, so a few proportional corrections suffice.  This
    keeps the work per batch nearly the same from seed to seed.
    """
    doc = copy.deepcopy(doc)
    model = checker.Model(doc)
    q_star = model.limit()
    for _ in range(4):
        periods = max(1, model.myopic_periods(q_star))
        doc["grid"]["invest_cost"] = min(1e5, max(20.0, model.k * target / periods))
        model = checker.Model(doc)
    return doc


def dip_model() -> dict:
    """Feasible model whose one-step reach map dips below the limit.

    A sharp bump in non-investment cost (built through the energy-value table)
    with a small investment cost makes maximal one-step jumps overshoot into a
    low-reach region: the myopic policy is not statewise optimal here.
    """
    domain = (0.5, 12.0)

    def delivered(q):
        return 8.0 * (1.0 - math.exp(-0.12 * q))

    def energy_value(q):
        return -(100.0 + 60.0 * math.exp(-(((q - 3.0) / 0.8) ** 2))) / delivered(q)

    grid = {
        "emissions": _exp_doc(0.4, 0.15),
        "delivered": _tabulate(delivered, domain, 2401),
        "energy_value": _tabulate(energy_value, domain, 2401),
        "cost_renewable": {"alpha": 0.0, "beta": 0.0},
        "cost_system": {"alpha": 0.0, "beta": 0.0},
        "invest_cost": 30.0,
        "domain": list(domain),
    }
    return _scenario(grid, 10.0, 0.0045, DIP_Q_INIT, 200, True)


# ---------------------------------------------------------------------------
# Fleets and hourly profiles
# ---------------------------------------------------------------------------

DEFAULT_FLEET = (  # the program's built-in 6-unit fleet, (GW, $/MWh, t/MWh)
    (2.0, 5.0, 0.0),
    (2.5, 22.0, 0.95),
    (3.0, 35.0, 0.38),
    (2.5, 48.0, 0.42),
    (2.0, 85.0, 0.55),
    (1.5, 140.0, 0.78),
)


def generated_fleet(rng: np.random.Generator, n_units: int, total_capacity: float) -> list[tuple[float, float, float]]:
    """A larger thermal fleet with distinct marginal costs."""
    caps = rng.uniform(0.2, 1.0, size=n_units)
    caps *= total_capacity / caps.sum()
    costs = np.sort(rng.choice(np.arange(5, 400), size=n_units, replace=False)).astype(float)
    rates = rng.uniform(0.0, 1.0, size=n_units)
    return [(float(c), float(m), float(r)) for c, m, r in zip(caps, costs, rates)]


def hourly_profiles(rng: np.random.Generator, peak_load: float, hours: int = HOURS_PER_YEAR):
    """Full-year load and wind capacity-factor profiles (mean cf = WIND_CF)."""
    t = np.arange(hours)
    hour, day = t % 24, t // 24
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    load = (
        6.5
        + float(rng.uniform(1.0, 2.0)) * np.sin(2.0 * np.pi * (hour - 9.0) / 24.0)
        + float(rng.uniform(0.5, 1.5)) * np.cos(2.0 * np.pi * day / 365.0 + phase[0])
        + rng.normal(0.0, 0.3, size=hours)
    )
    load = np.maximum(load, 2.0)
    load *= peak_load / load.max()
    raw = (
        0.6
        + 0.25 * np.sin(2.0 * np.pi * (hour - 14.0) / 24.0)
        + 0.15 * np.sin(2.0 * np.pi * day / 365.0 + phase[1])
        + rng.normal(0.0, 0.05, size=hours)
    )
    raw = np.clip(raw, 0.05, 1.1)
    cf = raw * (WIND_CF / raw.mean())
    return load, cf


def write_fleet_csv(units, path: Path) -> Path:
    lines = ["capacity_gw,mc_usd_per_mwh,er_ton_per_mwh"]
    lines += [f"{c!r},{m!r},{r!r}" for c, m, r in units]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_profiles_csv(load, cf, path: Path) -> Path:
    lines = ["hour,load_gw,wind_cf"]
    lines += [f"{h},{float(x)!r},{float(c)!r}" for h, (x, c) in enumerate(zip(load, cf))]
    path.write_text("\n".join(lines) + "\n")
    return path
