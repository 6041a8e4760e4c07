"""Scenario files: the JSON surface tying a grid model, demand, and a run.

Schema (version 1):

    {
      "schema_version": 1,
      "grid": { ...GridModel document... } | "relative/path/to/grid.json",
      "demand": {"market_size": 10.0, "sensitivity": 0.0045},
      "simulation": {"q_init": 0.5, "horizon": 200, "stop_at_limit": true},
      "wind_cf": 0.35,
      "derivative_bounds": {"max_abs_emissions_slope": 0.1,
                            "max_abs_cost_slope": 150.0}   # optional
    }

``derivative_bounds`` pins the slope caps used for the conservative
reachability bound reported by ``verify``; without it (absent or null) the
sampled maxima from the certificate are used.

Every record is read by :func:`vrpplan.serialize.read_record`, each value
is checked once, and a type error and a range error alike name the field's
path (``grid.delivered.table[7][1]``, ``grid.cost_system.alpha``) and the
file it is in, a grid file given by path included.  ``json_number`` reads a
scalar and rejects NaN, the infinities, literals that overflow a float
(``1e999``, a 400-digit integer), strings and booleans; ``json_integer`` reads
``horizon`` in the same range; ``json_numbers`` reads coefficients, the domain
and a table row; ``json_typed`` reads a boolean, a string, an object or an
array.  A table is read in one pass (:class:`GridCurve`), and row by row only
to name a bad entry.  Keys that no reader reads, such as the ``calibration``
block ``calibrate`` writes, are ignored: nothing in them reaches a solver.
So are ``output`` and ``seed``, which older files carry: the format and the
seed are the ``--format`` and ``--seed`` flags.

The baseline utility is ``scenarios/baseline.json``, its only definition:
e = 0.40*exp(-0.06*Q), pi = 120*exp(-0.08*Q), and f tabulated at 481 evenly
spaced knots of 8*(1 - exp(-0.12*Q)) over [0, 12].
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .demand_pricing import DemandModel
from .errors import CurveDomainError, ScenarioError
from .grid_model import GridModel
from .serialize import json_typed, read_record, record
from .trajectory import SimulationConfig

SCHEMA_VERSION = 1


@record
class DerivativeBounds:
    max_abs_emissions_slope: float
    max_abs_cost_slope: float

    def __post_init__(self):
        for name in self._fields:
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


@record
class Scenario:
    grid: GridModel
    demand: DemandModel
    simulation: SimulationConfig
    wind_cf: float
    derivative_bounds: DerivativeBounds | None = None

    def __post_init__(self):
        # ValueError, as from every constructor: scenario_from_dict adds the file
        if not 0.0 < self.wind_cf <= 1.0:
            raise ValueError("wind_cf must lie in (0, 1]")
        q, (lo, hi) = self.simulation.q_init, self.grid.domain
        try:  # accepted exactly where the model's clamp accepts it, DOMAIN_TOL past either end
            self.grid._clamp_at(q)
        except CurveDomainError:
            raise ValueError(f"simulation.q_init {q} outside grid.domain [{lo}, {hi}]") from None


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
    def read_grid(value, path):
        if not isinstance(value, str):
            return GridModel.from_dict(value, path)
        grid_file = (base_dir or Path(".")) / value
        try:
            return GridModel.from_dict(_read_json(grid_file), path)
        except (LookupError, TypeError, ValueError) as exc:  # an error in a grid file names that file
            raise ScenarioError(f"{grid_file}: {exc}") from exc

    try:
        version = json_typed(doc, dict, "scenario").get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        return read_record(
            Scenario, doc, "", grid=read_grid, demand=DemandModel.from_dict, simulation=SimulationConfig.from_dict,
            # absent or null: no pinned bounds
            derivative_bounds=lambda value, path: None if value is None else read_record(DerivativeBounds, value, path),
        )
    except (LookupError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def load_scenario(path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_read_json(path), where=str(path), base_dir=path.parent)
