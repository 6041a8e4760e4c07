"""Scenario files: the JSON surface tying a grid model, demand, and a run.

Schema (version 1):

    {
      "schema_version": 1,
      "grid": { ...GridModel document... } | "relative/path/to/grid.json",
      "demand": {"market_size": 10.0, "sensitivity": 0.0045},
      "simulation": {"q_init": 0.5, "horizon": 200,
                     "stop_at_limit": true, "period_label": "year"},
      "wind_cf": 0.35,
      "output": "csv" | "json",
      "seed": 0,
      "derivative_bounds": {"max_abs_emissions_slope": 0.1,
                            "max_abs_cost_slope": 150.0}   # optional
    }

``derivative_bounds`` pins the slope caps used for the conservative
reachability bound reported by ``verify``; without it the sampled maxima from
the certificate are used.  Every number must be finite: NaN, the infinities
and literals that overflow a float (``1e999``, a 400-digit integer) are
rejected with their field path.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .demand_pricing import DemandModel
from .errors import ScenarioError
from .grid_model import CostSpec, CurveKind, GridCurve, GridModel
from .serialize import Serializable, json_number, read_numbers
from .trajectory import SimulationConfig

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DerivativeBounds(Serializable):
    max_abs_emissions_slope: float
    max_abs_cost_slope: float

    def __post_init__(self):
        if not (
            0.0 <= self.max_abs_emissions_slope < math.inf
            and 0.0 <= self.max_abs_cost_slope < math.inf
        ):
            raise ValueError("derivative bounds must be nonnegative and finite")


@dataclass(frozen=True)
class Scenario:
    grid: GridModel
    demand: DemandModel
    simulation: SimulationConfig
    wind_cf: float
    output: str = "csv"
    seed: int = 0
    derivative_bounds: DerivativeBounds | None = None

    def __post_init__(self):
        if not 0.0 < self.wind_cf <= 1.0:
            raise ScenarioError("wind_cf must lie in (0, 1]")
        if self.output not in ("csv", "json"):
            raise ScenarioError("output must be 'csv' or 'json'")

    def to_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "grid": self.grid.to_dict(),
            "demand": self.demand.to_dict(),
            "simulation": self.simulation.to_dict(),
            "wind_cf": self.wind_cf,
            "output": self.output,
            "seed": self.seed,
        }
        if self.derivative_bounds is not None:
            doc["derivative_bounds"] = self.derivative_bounds.to_dict()
        return doc


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioError(f"{where}: missing required field '{key}'")
    return doc[key]


def require_finite(value, where: str, path: str) -> None:
    """Reject NaN, infinities and integers past the float range anywhere in a
    JSON-shaped document, naming the field."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"{where}: {path} must be a finite number, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            require_finite(item, where, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            require_finite(item, where, f"{path}[{i}]")


def scenario_from_dict(doc: dict, where: str = "scenario", base_dir: Path | None = None) -> Scenario:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"{where}: unsupported schema_version {version!r}")
    require_finite(doc, where, "")
    try:
        grid_doc = _require(doc, "grid", where)
        if isinstance(grid_doc, str):
            grid_path = (base_dir or Path(".")) / grid_doc
            try:
                grid_doc = json.loads(grid_path.read_text())
            except OSError as exc:
                raise ScenarioError(f"{where}: cannot read grid file {grid_path}: {exc}")
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{grid_path}: invalid JSON: {exc}")
            require_finite(grid_doc, str(grid_path), "grid")
        grid = GridModel.from_dict(grid_doc)
        demand = DemandModel.from_dict(_require(doc, "demand", where))
        simulation = SimulationConfig.from_dict(_require(doc, "simulation", where))
        bounds = None
        if doc.get("derivative_bounds"):
            bounds = read_numbers(DerivativeBounds, doc["derivative_bounds"], "derivative_bounds")
        return Scenario(
            grid=grid,
            demand=demand,
            simulation=simulation,
            wind_cf=json_number(_require(doc, "wind_cf", where), "wind_cf"),
            output=str(doc.get("output", "csv")),
            seed=int(doc.get("seed", 0)),
            derivative_bounds=bounds,
        )
    except ScenarioError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        # json errors already carry line/column anchors
        raise ScenarioError(f"{path}: invalid JSON: {exc}")
    return scenario_from_dict(doc, where=str(path), base_dir=path.parent)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Shipped baseline: 10 GW-peak utility, quadratic costs, synthetic curves
# ---------------------------------------------------------------------------

BASELINE_MARKET_SIZE = 10.0  # GW
BASELINE_SENSITIVITY = 0.0045
BASELINE_INVEST_COST = 1000.0  # M$/GW
BASELINE_WIND_CF = 0.35
BASELINE_Q_INIT = 0.5  # GW
BASELINE_DOMAIN = (0.0, 12.0)


def baseline_grid_model() -> GridModel:
    """Synthetic-concave grid curves with the baseline quadratic costs.

    Emissions decay from 0.40 ton/MWh; usable wind saturates toward 8 GW
    capacity-equivalent (tabulated, since the saturating shape is neither
    polynomial nor a plain decay); the captured energy value erodes from
    120 M$/GW-yr with penetration.
    """
    knots = np.linspace(BASELINE_DOMAIN[0], BASELINE_DOMAIN[1], 481)
    delivered = tuple(
        (float(q), float(8.0 * (1.0 - math.exp(-0.12 * q)))) for q in knots
    )
    return GridModel(
        emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.40, 0.06)),
        delivered=GridCurve(CurveKind.TABULATED, table=delivered),
        energy_value=GridCurve(CurveKind.EXPONENTIAL_DECAY, (120.0, 0.08)),
        cost_renewable=CostSpec(alpha=21.0, beta=5.0),
        cost_system=CostSpec(alpha=9.6, beta=1.0),
        invest_cost=BASELINE_INVEST_COST,
        domain=BASELINE_DOMAIN,
    )


def baseline_demand_model() -> DemandModel:
    return DemandModel(
        market_size=BASELINE_MARKET_SIZE, sensitivity=BASELINE_SENSITIVITY
    )


def baseline_scenario() -> Scenario:
    return Scenario(
        grid=baseline_grid_model(),
        demand=baseline_demand_model(),
        simulation=SimulationConfig(q_init=BASELINE_Q_INIT, horizon=200),
        wind_cf=BASELINE_WIND_CF,
        output="csv",
        seed=0,
        derivative_bounds=DerivativeBounds(
            max_abs_emissions_slope=0.1, max_abs_cost_slope=150.0
        ),
    )
