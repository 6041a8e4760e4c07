"""Command-line front end.

Commands (all take --scenario PATH):

    price Q      single-period optimum at capacity Q
    share Q      revenue-sharing solution at capacity Q
    limit        long-run capacity limit
    simulate     myopic multi-period run; CSV/JSON plus plot-data files
    verify       structural conditions, reachability certificate, policy
                 enumeration, and KKT residual summary
    calibrate    merit-order dispatch -> grid-model JSON

Exit codes: 0 success; 2 malformed input (a ``VrpError`` that is not an
``InfeasibleError``, a ``ValueError``, or an OS error naming its path);
3 infeasible (an ``InfeasibleError``, or ``share`` or ``simulate`` printing an
infeasible result); 4 verification failure.  Set VRP_LOG_LEVEL for diagnostics;
an unknown level exits 2 before any work.

Only ``calibrate``, with dispatch, and subsampled policy enumeration load
numpy: ``verify`` draws a subsample with numpy's seeded generator where
g**horizon exceeds the cap.  Otherwise ``simulate`` and ``verify`` sample
through the scalar path while numpy is not loaded: the grid conditions, the
reachability certificate, full enumeration and the KKT summary take float
loops.  ``logging`` loads with VRP_LOG_LEVEL set, or for a warning.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import demand_pricing as dp
from . import equilibrium as eqm
from . import grid_model as gm
from . import revenue_sharing as rs
from . import trajectory as traj
from .errors import InfeasibleError, VrpError
from .scenario import Scenario, load_scenario
from .serialize import json_number
from .tolerances import CERTIFY_TOL
from .units import convert_price_units


def _logger():
    """The package logger, with logging configured as VRP_LOG_LEVEL says, WARNING
    when unset.  ``logging`` is imported by the first line that will print."""
    import logging
    logging.basicConfig(level=os.environ.get("VRP_LOG_LEVEL", "WARNING"))
    return logging.getLogger("vrpplan")


def _info(msg: str, *args) -> None:
    if "VRP_LOG_LEVEL" in os.environ:  # unset, the level is WARNING: the line never prints
        _logger().info(msg, *args)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrpplan",
        description="Voluntary renewable program planning and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, capacity: bool = False):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", help="output directory (default: print to stdout)")
        if capacity:
            p.add_argument("capacity", type=float, help="capacity state Q in GW")

    common(sub.add_parser("price", help="single-period optimal price and expansion"), True)
    common(sub.add_parser("share", help="revenue-sharing solution at a state"), True)
    common(sub.add_parser("limit", help="long-run capacity limit"))

    p = sub.add_parser("simulate", help="myopic multi-period simulation")
    common(p)
    p.add_argument("--samples", type=int, default=200, help="certificate sampling resolution")
    p.add_argument("--format", choices=("csv", "json"), help="override scenario output format")
    p.add_argument("--horizon", type=int, help="override scenario horizon")

    p = sub.add_parser("verify", help="run every independent check on the scenario")
    common(p)
    p.add_argument("--samples", type=int, default=200, help="sampling resolution")
    p.add_argument("--seed", type=int, help="override scenario seed (policy subsampling)")
    p.add_argument("--horizon", type=int, default=3, help="enumeration horizon")
    p.add_argument("--q-grid", type=int, default=4, dest="q_grid", help="actions per period")

    p = sub.add_parser("calibrate", help="dispatch a fleet into grid-model JSON")
    common(p)
    p.add_argument("--seed", type=int, help="override scenario seed (synthetic profiles)")
    p.add_argument("--fleet", help="fleet CSV (default: built-in synthetic fleet)")
    p.add_argument("--profiles", help="hourly profiles CSV (default: synthetic)")
    p.add_argument("--q-grid", type=int, default=20, dest="q_grid", help="capacity samples")

    return parser


def _seed(args, scenario: Scenario) -> int:
    return args.seed if args.seed is not None else scenario.seed


def require_finite(value, where: str, path: str = "") -> None:
    """Name the first NaN, infinity or integer past the float range in a result
    document, by ``json_number``: no command prints a non-finite number."""
    if isinstance(value, dict):
        for key, item in value.items():
            require_finite(item, where, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            require_finite(item, where, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        json_number(value, f"{where}: {path}")


# an integer past the float range has at least as many digits as the float maximum
_FLOAT_MAX_DIGITS = len(str(int(sys.float_info.max)))


def _json_text(doc: dict, where: str) -> str:
    """``doc`` as indented JSON, checked as :func:`require_finite` checks it.

    The encoder rejects NaN and the infinities.  It writes each number on a
    line of its own, so an integer past the float range makes a line at least
    as long as its digits.  Only a document that fails the encoder or holds
    so long a line takes the walk, which names the field.
    """
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        require_finite(doc, where)
        raise
    if max(map(len, text.splitlines())) >= _FLOAT_MAX_DIGITS:
        require_finite(doc, where)
    return text


def _emit(doc: dict, args, filename: str) -> None:
    text = _json_text(doc, f"{args.command} result")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text + "\n")
        _info("wrote %s", out_dir / filename)
    else:
        print(text)


def _cmd_price(args, scenario: Scenario) -> int:
    solution = traj.solve_period(scenario.demand, scenario.grid, args.capacity)
    doc = {
        "capacity": args.capacity,
        "emissions_intensity": scenario.grid.emissions_at(args.capacity),
        "price_energy_usd_per_mwh": convert_price_units(solution.price, scenario.wind_cf),
        **solution.to_dict(),
    }
    _emit(doc, args, "period_solution.json")
    return EXIT_OK


def _cmd_share(args, scenario: Scenario) -> int:
    solution, sharing = rs.solve_separated_period(
        scenario.demand, scenario.grid, args.capacity
    )
    doc = {
        "capacity": args.capacity,
        "period_solution": solution.to_dict(),
        "sharing": sharing.to_dict(),
    }
    _emit(doc, args, "sharing_solution.json")
    return EXIT_INFEASIBLE if solution.phase is dp.Phase.INFEASIBLE else EXIT_OK


def _cmd_limit(args, scenario: Scenario) -> int:
    result = eqm.solve_long_run_limit(scenario.demand, scenario.grid)
    _emit(result.to_dict(), args, "equilibrium.json")
    return EXIT_OK


def _write_plot_files(out_dir: Path, trajectory: traj.Trajectory, scenario: Scenario) -> None:
    market = scenario.demand.market_size
    panels = {
        "plot_capacity.csv": ("Q", lambda r: r.capacity),
        "plot_renewable_share.csv": ("renewable_pct", lambda r: 100.0 * r.state.f / market),
        "plot_emissions_intensity.csv": ("e", lambda r: r.state.e),
        "plot_price.csv": ("p", lambda r: r.solution.price),
        "plot_expansion.csv": ("q", lambda r: r.solution.expansion),
        "plot_revenue_share.csv": ("gamma", lambda r: r.solution.share),
    }
    for name, (column, extract) in panels.items():
        (out_dir / name).write_text(traj.csv_text(("t", column), ((r.t, extract(r)) for r in trajectory.records)))


def _cmd_simulate(args, scenario: Scenario) -> int:
    cfg = scenario.simulation
    if args.horizon is not None:
        cfg = replace(cfg, horizon=args.horizon)
    trajectory = traj.simulate_myopic(scenario.demand, scenario.grid, cfg)
    certificate = traj.certify_monotone_reachability(
        scenario.demand,
        scenario.grid,
        n_samples=args.samples,
        q_init=cfg.q_init,
        equilibrium=trajectory.equilibrium,
    )
    doc = trajectory.to_dict()
    doc["equilibrium"] = trajectory.equilibrium.to_dict()
    doc["reachability_certificate"] = certificate.to_dict()

    fmt = args.format or scenario.output
    if args.out or fmt == "json":
        text = _json_text(doc, "simulate result")
    else:
        require_finite(doc, "simulate result")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        traj.write_trajectory_csv(trajectory, out_dir / "trajectory.csv")
        (out_dir / "trajectory.json").write_text(text + "\n")
        _write_plot_files(out_dir, trajectory, scenario)
        _info("wrote trajectory and plot data to %s", out_dir)
    elif fmt == "json":
        print(text)
    else:
        print(traj.csv_text(traj.TRAJECTORY_CSV_COLUMNS, traj.trajectory_csv_rows(trajectory)), end="")
    if trajectory.termination is traj.Termination.INFEASIBLE:
        _logger().warning("trajectory truncated: infeasible period")
        return EXIT_INFEASIBLE
    return EXIT_OK


def _kkt_summary(scenario: Scenario, result: eqm.EquilibriumResult, n_states: int = 8) -> dict:
    dm, model = scenario.demand, scenario.grid
    lo = scenario.simulation.q_init
    step = (result.capacity_limit - lo) / n_states
    worst = 0.0
    checked = 0
    for q in [lo + i * step for i in range(n_states)]:  # np.linspace(endpoint=False)'s points, bit for bit
        if dp.decide_at(dm, model.state(q), model.invest_cost).status is not dp.ExpansionStatus.EXPANDING:
            continue
        res = dp.kkt_residuals(dm, model, q, traj.solve_period(dm, model, q), problem="integrated")
        worst = max(worst, res.max_abs_residual)
        separated, _ = rs.solve_separated_period(dm, model, q)
        res = dp.kkt_residuals(dm, model, q, separated, problem="revenue-sharing")
        worst = max(worst, res.max_abs_residual)
        checked += 1
    return {
        "states_checked": checked,
        "max_abs_residual": worst,
        "certified": worst <= CERTIFY_TOL,
    }


def _cmd_verify(args, scenario: Scenario) -> int:
    from . import oracles
    dm, model = scenario.demand, scenario.grid
    conditions = gm.validate_grid_conditions(model, n_samples=args.samples)
    result = eqm.solve_long_run_limit(dm, model)
    certificate = traj.certify_monotone_reachability(
        dm,
        model,
        n_samples=args.samples,
        q_init=scenario.simulation.q_init,
        equilibrium=result,
    )
    dominance = oracles.enumerate_and_compare(
        dm,
        model,
        scenario.simulation,
        oracles.EnumerationConfig(
            action_grid_size=args.q_grid, horizon=args.horizon, seed=_seed(args, scenario)
        ),
        equilibrium=result,
        certificate=certificate,
    )
    kkt = _kkt_summary(scenario, result)

    if scenario.derivative_bounds is not None:
        bound = traj.reachability_lower_bound(
            dm.market_size,
            dm.sensitivity,
            model.invest_cost,
            scenario.derivative_bounds.max_abs_emissions_slope,
            scenario.derivative_bounds.max_abs_cost_slope,
        )
        bound_source = "scenario derivative_bounds"
    else:
        bound = certificate.bound_formula_value
        bound_source = "sampled derivative maxima"

    passed = (
        conditions.passed and certificate.holds and dominance.passed and kkt["certified"]
    )
    doc = {
        "passed": passed,
        "conditions": conditions.to_dict(),
        "equilibrium": result.to_dict(),
        "reachability_certificate": certificate.to_dict(),
        "reachability_bound": bound,
        "reachability_bound_source": bound_source,
        "dominance": dominance.to_dict(),
        "kkt": kkt,
    }
    _emit(doc, args, "verification.json")
    return EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_calibrate(args, scenario: Scenario) -> int:
    import numpy as np
    from . import dispatch
    fleet = dispatch.read_fleet_csv(args.fleet) if args.fleet else dispatch.default_fleet()
    if args.profiles:
        profiles = dispatch.read_profiles_csv(args.profiles)
    else:
        profiles = dispatch.default_profiles(
            wind_cf=scenario.wind_cf, seed=_seed(args, scenario)
        )
    lo, hi = scenario.grid.domain
    q_grid = list(np.linspace(lo, hi, args.q_grid))
    calibration = dispatch.calibrate_grid(fleet, profiles, q_grid, scenario.wind_cf)
    if calibration.emissions_adjusted or calibration.energy_value_adjusted:
        _logger().warning(
            "isotonic correction applied: emissions=%s energy_value=%s",
            calibration.emissions_adjusted,
            calibration.energy_value_adjusted,
        )
    model = dispatch.build_grid_model(
        calibration,
        scenario.grid.cost_renewable,
        scenario.grid.cost_system,
        scenario.grid.invest_cost,
    )
    doc = model.to_dict()
    doc["calibration"] = {
        "emissions_adjusted": calibration.emissions_adjusted,
        "energy_value_adjusted": calibration.energy_value_adjusted,
        "samples": [list(s) for s in calibration.samples],
    }
    _emit(doc, args, "grid_model.json")
    return EXIT_OK


_HANDLERS = {
    "price": _cmd_price,
    "share": _cmd_share,
    "limit": _cmd_limit,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    if "VRP_LOG_LEVEL" in os.environ:  # an invalid level fails here, before any work
        try:
            _logger()
        except ValueError as exc:
            print(f"error: VRP_LOG_LEVEL: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "seed", None) or 0) < 0:  # numpy's generators take no negative seed
        parser.error(f"argument --seed: must be nonnegative, got {args.seed}")
    try:
        scenario = load_scenario(args.scenario)
        return _HANDLERS[args.command](args, scenario)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (VrpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
