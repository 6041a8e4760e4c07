"""Scenario files: the JSON surface tying a grid model, demand, and a run.

Schema (version 1):

    {
      "schema_version": 1,
      "grid": { ...GridModel document... } | "relative/path/to/grid.json",
      "demand": {"market_size": 10.0, "sensitivity": 0.0045},
      "simulation": {"q_init": 0.5, "horizon": 200, "stop_at_limit": true},
      "wind_cf": 0.35,
      "output": "csv" | "json",
      "seed": 0,
      "derivative_bounds": {"max_abs_emissions_slope": 0.1,
                            "max_abs_cost_slope": 150.0}   # optional
    }

``derivative_bounds`` pins the slope caps used for the conservative
reachability bound reported by ``verify``; without it (absent or null) the
sampled maxima from the certificate are used.

Each value is checked once, by the reader of :mod:`vrpplan.serialize` that
reads it, and an error names its path (``grid.delivered.table[7][1]``) and the
file it is in, a grid file given by path included.  ``json_number`` reads a
scalar and rejects NaN, the infinities, literals that overflow a float
(``1e999``, a 400-digit integer), strings and booleans; ``json_integer`` reads
``seed`` and ``horizon`` in the same range; ``json_numbers`` reads coefficients,
the domain and a table row; ``json_typed`` reads a boolean, a string, an object
or an array.  A table is read in one pass (:class:`GridCurve`), and row by row
only to name a bad entry.  Keys that no reader reads, such as the
``calibration`` block ``calibrate`` writes, are ignored: nothing in them
reaches a solver.

The baseline utility is ``scenarios/baseline.json``, its only definition:
e = 0.40*exp(-0.06*Q), pi = 120*exp(-0.08*Q), and f tabulated at 481 evenly
spaced knots of 8*(1 - exp(-0.12*Q)) over [0, 12].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .demand_pricing import DemandModel
from .errors import ScenarioError
from .grid_model import GridModel
from .serialize import json_integer, json_number, json_typed, read_numbers
from .trajectory import SimulationConfig

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DerivativeBounds:
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
        # ValueError, as from every constructor: scenario_from_dict adds the file
        if not 0.0 < self.wind_cf <= 1.0:
            raise ValueError("wind_cf must lie in (0, 1]")
        if self.output not in ("csv", "json"):
            raise ValueError(f"output must be 'csv' or 'json', got {self.output!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        # syntax errors carry line/column anchors; an integer literal past
        # Python's 4,300-digit limit is a plain ValueError and carries none
        raise ScenarioError(f"{path}: invalid JSON: {exc}")


def scenario_from_dict(doc: dict, where: str = "scenario", base_dir: Path | None = None) -> Scenario:
    at = where  # the document an error is in: a grid file given by path names itself
    try:
        version = json_typed(doc, dict, "scenario").get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        grid_doc = doc.get("grid")
        if isinstance(grid_doc, str):
            at = (base_dir or Path(".")) / grid_doc
            grid_doc = _read_json(at)
        grid, at = GridModel.from_dict(grid_doc), where
        bounds = doc.get("derivative_bounds")  # absent or null: no pinned bounds
        return Scenario(
            grid=grid,
            demand=DemandModel.from_dict(doc.get("demand")),
            simulation=SimulationConfig.from_dict(doc.get("simulation")),
            wind_cf=json_number(doc.get("wind_cf"), "wind_cf"),
            output=doc.get("output", "csv"),
            seed=json_integer(doc.get("seed", 0), "seed"),
            derivative_bounds=None if bounds is None else read_numbers(DerivativeBounds, bounds, "derivative_bounds"),
        )
    except (LookupError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{at}: {exc}") from exc


def load_scenario(path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_read_json(path), where=str(path), base_dir=path.parent)
