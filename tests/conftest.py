"""Shared fixtures: the baseline scenario and randomized model families."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from vrpplan.demand_pricing import DemandModel, ExpansionStatus, decide_at
from vrpplan.equilibrium import find_deliverability_threshold
from vrpplan.errors import ThresholdUnreachableError
from vrpplan.grid_model import CostSpec, CurveKind, GridCurve, GridModel
from vrpplan.demand_pricing import unconstrained_peak_revenue
from vrpplan.scenario import load_scenario
from vrpplan.trajectory import SimulationConfig

# the shipped baseline, the one definition of it, found from this file wherever the tests start
BASELINE_PATH = str(Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json")
BASELINE = load_scenario(BASELINE_PATH)  # loaded once per session; module-level for import-time params


def baseline_doc() -> dict:
    """A fresh copy of the shipped baseline document, for a test to edit."""
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def baseline_model() -> GridModel:
    return BASELINE.grid


@pytest.fixture(scope="session")
def baseline_demand() -> DemandModel:
    return BASELINE.demand


@pytest.fixture()
def baseline_cfg() -> SimulationConfig:
    return SimulationConfig(q_init=0.5, horizon=200)


def flat_curve(value: float, domain=(0.0, 10.0)) -> GridCurve:
    return GridCurve(
        CurveKind.TABULATED, table=((domain[0], value), (domain[1], value))
    )


def flat_model(
    e0: float,
    f0: float,
    pi0: float,
    alpha_r: float = 0.0,
    beta_r: float = 0.0,
    alpha_s: float = 0.0,
    beta_s: float = 0.0,
    invest_cost: float = 1000.0,
    domain=(0.0, 10.0),
) -> GridModel:
    """Constant e/f/pi curves: every quantity is hand-computable."""
    return GridModel(
        emissions=flat_curve(e0, domain),
        delivered=flat_curve(f0, domain),
        energy_value=flat_curve(pi0, domain),
        cost_renewable=CostSpec(alpha_r, beta_r),
        cost_system=CostSpec(alpha_s, beta_s),
        invest_cost=invest_cost,
        domain=domain,
    )


def saturating_table(limit: float, rate: float, domain, knots: int = 241):
    qs = np.linspace(domain[0], domain[1], knots)
    return tuple((float(q), float(limit * (1.0 - math.exp(-rate * q)))) for q in qs)


def drawn_model(kind: CurveKind, rng: np.random.Generator) -> tuple[DemandModel, GridModel]:
    """Every curve of one kind: decaying e and pi, rising f, random costs and k.

    The polynomial f turns negative past 4/rate, so some draws hold states
    that cannot be priced.
    """
    hi = float(rng.uniform(8.0, 16.0))  # builtin floats throughout, as a loaded scenario holds
    e0, e_rate, f_max, f_rate, pi0, pi_rate = rng.uniform(
        (0.2, 0.02, 3.0, 0.08, 60.0, 0.02), (0.6, 0.12, 12.0, 0.3, 150.0, 0.1)
    ).tolist()
    knots = np.linspace(0.0, hi, 97)

    def curve(shape, exponential, polynomial):
        if kind is CurveKind.TABULATED:
            return GridCurve(kind, table=tuple((float(q), shape(q)) for q in knots))
        return GridCurve(kind, exponential if kind is CurveKind.EXPONENTIAL_DECAY else polynomial)

    model = GridModel(
        emissions=curve(
            lambda q: e0 * math.exp(-e_rate * q), (e0, e_rate), (e0, -e0 / (2.0 * hi))
        ),
        delivered=curve(
            lambda q: f_max * (1.0 - math.exp(-f_rate * q)),
            (f_max, -f_rate / 10.0),
            (f_max * f_rate, -f_max * f_rate**2 / 4.0),
        ),
        energy_value=curve(
            lambda q: pi0 * math.exp(-pi_rate * q), (pi0, pi_rate), (pi0, -pi0 / (2.0 * hi))
        ),
        cost_renewable=CostSpec(*rng.uniform((5.0, 0.5), (30.0, 6.0)).tolist()),
        cost_system=CostSpec(*rng.uniform((3.0, 0.3), (15.0, 2.0)).tolist()),
        invest_cost=float(rng.uniform(30.0, 3000.0)),
        domain=(0.0, hi),
    )
    return DemandModel(*rng.uniform((6.0, 0.003), (16.0, 0.007)).tolist()), model


def random_accepted_model(
    rng: np.random.Generator, require_root: bool = False, max_tries: int = 500
) -> tuple[DemandModel, GridModel]:
    """Draw a model satisfying the structural conditions by construction.

    With ``require_root`` the draw is rejected until the deliverability
    threshold is reachable and the revenue/cost gap changes sign inside the
    domain, so the long-run limit solver is guaranteed applicable.
    """
    for _ in range(max_tries):
        market = rng.uniform(6.0, 16.0)
        sensitivity = rng.uniform(0.003, 0.007)
        dm = DemandModel(market_size=market, sensitivity=sensitivity)

        domain = (0.0, rng.uniform(10.0, 18.0))
        model = GridModel(
            emissions=GridCurve(
                CurveKind.EXPONENTIAL_DECAY,
                (rng.uniform(0.25, 0.55), rng.uniform(0.03, 0.10)),
            ),
            delivered=GridCurve(
                CurveKind.TABULATED,
                table=saturating_table(
                    market * rng.uniform(0.45, 0.85), rng.uniform(0.08, 0.25), domain
                ),
            ),
            energy_value=GridCurve(
                CurveKind.EXPONENTIAL_DECAY,
                (rng.uniform(70.0, 140.0), rng.uniform(0.04, 0.10)),
            ),
            cost_renewable=CostSpec(rng.uniform(8.0, 30.0), rng.uniform(1.0, 6.0)),
            cost_system=CostSpec(rng.uniform(3.0, 15.0), rng.uniform(0.3, 2.0)),
            invest_cost=rng.uniform(300.0, 3000.0),
            domain=domain,
        )
        if not require_root:
            return dm, model
        try:
            threshold = find_deliverability_threshold(dm, model)
        except ThresholdUnreachableError:
            continue
        gaps = [
            unconstrained_peak_revenue(dm, s.e) - s.cost
            for s in map(model.state, np.linspace(threshold, domain[1], 64))
        ]
        # the long-run-limit theorem needs the gap to fall strictly past the
        # threshold (cost increasing there); reject draws outside that family
        if gaps[0] > 0.0 > gaps[-1] and all(a > b for a, b in zip(gaps, gaps[1:])):
            return dm, model
    raise RuntimeError("could not draw an admissible random model")


def adversarial_dip_model() -> tuple[DemandModel, GridModel]:
    """A feasible model whose one-step reach map dips below the limit.

    A sharp bump in the non-investment cost (built through the energy-value
    table) combined with a small unit investment cost makes maximal one-step
    jumps overshoot into a low-reach region, breaking monotone reachability
    while every period stays financially feasible.
    """
    dm = DemandModel(market_size=10.0, sensitivity=0.0045)
    domain = (0.5, 12.0)
    knots = np.linspace(domain[0], domain[1], 2401)

    def delivered(q):
        return 8.0 * (1.0 - math.exp(-0.12 * q))

    def energy_value(q):
        bump = 100.0 + 60.0 * math.exp(-(((q - 3.0) / 0.8) ** 2))
        return -bump / delivered(q)

    model = GridModel(
        emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.15)),
        delivered=GridCurve(
            CurveKind.TABULATED, table=tuple((float(q), delivered(q)) for q in knots)
        ),
        energy_value=GridCurve(
            CurveKind.TABULATED, table=tuple((float(q), energy_value(q)) for q in knots)
        ),
        cost_renewable=CostSpec(0.0, 0.0),
        cost_system=CostSpec(0.0, 0.0),
        invest_cost=30.0,
        domain=domain,
    )
    return dm, model


def pick_expanding_state(
    dm: DemandModel, model: GridModel, rng: np.random.Generator, max_tries: int = 200
) -> float:
    """A state in the domain interior where the optimal expansion is positive."""
    lo, hi = model.domain
    for _ in range(max_tries):
        q = rng.uniform(lo + 0.02 * (hi - lo), lo + 0.8 * (hi - lo))
        if decide_at(dm, model.state(q), model.invest_cost).status is ExpansionStatus.EXPANDING:
            return q
    raise RuntimeError("no expanding state found")
