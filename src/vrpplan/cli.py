"""Command-line front end.

Commands (all take --scenario PATH):

    price Q      single-period optimum at capacity Q
    share Q      revenue-sharing solution at capacity Q
    limit        long-run capacity limit
    simulate     myopic multi-period run; CSV/JSON plus plot-data files
    verify       structural conditions (decided exactly), reachability
                 certificate, policy enumeration, and KKT residual summary
    calibrate    merit-order dispatch -> grid-model JSON

Exit codes: 0 success; 2 malformed input (a ``VrpError`` that is not an
``InfeasibleError``, a ``ValueError``, or an OS error naming its path);
3 infeasible (an ``InfeasibleError``, or ``share`` or ``simulate`` printing an
infeasible result); 4 verification failure; 141 stdout closed by its reader,
the code of a tool that SIGPIPE ended.  A warning prints to stderr as
``warning: ...``, beside the ``error:`` and ``infeasible:`` lines.

Every result leaves through :func:`_emit`.  One :func:`require_finite` walk
exits 2 naming a NaN, an infinity or an integer past the float range before
any byte is written.  Then the JSON, or ``simulate``'s CSV at ``--format csv``,
goes to stdout, or under ``--out`` to the command's JSON file, and for
``simulate`` to ``trajectory.csv``, in CRLF, and six plot files beside it.

Only ``calibrate``, with dispatch, loads numpy.  ``--samples`` sets the
certificate's even samples, to which it adds every table knot below the
limit; it and the policy enumeration follow the route rule of
:func:`~vrpplan.grid_model.numpy_route`, so a command builds their points as
floats, and the KKT summary takes floats.
``verify`` refuses more than ``oracles.MAX_POLICIES`` policies before any
work, as each command refuses ``--samples`` or ``calibrate``'s ``--q-grid``
past ``MAX_POINTS``.  ``dataclasses`` loads only with dispatch, for ``calibrate``,
and ``inspect`` only with numpy: every other record is a
:func:`~vrpplan.serialize.record`, which generates no code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
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


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool that SIGPIPE ended

_KKT_STATES = 8  # the capacities the KKT summary checks
MAX_POINTS = 10**6  # the most points --samples or calibrate's --q-grid may ask a run to build


def _at_least(floor: int, most: float = sys.float_info.max):
    """An argparse type: an integer of at least ``floor`` within the float range,
    the range ``json_integer`` puts on a scenario's integers, and at most ``most``."""
    def integer(text: str) -> int:
        value = int(text)  # argparse words a ValueError as "invalid integer value"
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        if value > sys.float_info.max:
            raise argparse.ArgumentTypeError(f"must lie in the float range, got {len(str(value))} digits")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    return integer


@cache  # one parser per process: each is a web of reference cycles
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

    def count(p: argparse.ArgumentParser, flag: str, floor: int, help: str, most=sys.float_info.max, **kwargs):
        p.add_argument(flag, type=_at_least(floor, most), help=f"{help} (at least {floor})", **kwargs)

    common(sub.add_parser("price", help="single-period optimal price and expansion"), True)
    common(sub.add_parser("share", help="revenue-sharing solution at a state"), True)
    common(sub.add_parser("limit", help="long-run capacity limit"))

    p = sub.add_parser("simulate", help="myopic multi-period simulation")
    common(p)
    count(p, "--samples", 2, "certificate sampling resolution", MAX_POINTS, default=200)
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="stdout format (default: csv)")
    count(p, "--horizon", 1, "override scenario horizon")

    p = sub.add_parser("verify", help="run every independent check on the scenario")
    common(p)
    count(p, "--samples", 2, "certificate sampling resolution", MAX_POINTS, default=200)
    count(p, "--horizon", 1, "enumeration horizon", default=3)
    count(p, "--q-grid", 2, "actions per period", default=4, dest="q_grid")

    p = sub.add_parser("calibrate", help="dispatch a fleet into grid-model JSON")
    common(p)
    count(p, "--seed", 0, "seed for synthetic profiles", default=0)
    p.add_argument("--fleet", help="fleet CSV (default: built-in synthetic fleet)")
    p.add_argument("--profiles", help="hourly profiles CSV (default: synthetic)")
    count(p, "--q-grid", 2, "capacity samples", MAX_POINTS, default=20, dest="q_grid")

    return parser


def require_finite(doc: dict, where: str) -> None:
    """Name the first NaN, infinity or integer past the float range in a result
    document, by ``json_number``: no command prints a non-finite number."""
    _require_finite(doc, where, "")


def _require_finite(value, where: str, path: str) -> None:
    # recurses by its private name: a tracer that wraps public functions sees one call per document
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, where, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _require_finite(item, where, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        json_number(value, f"{where}: {path}")


def _emit(doc: dict, args, filename: str, tables: dict | None = None) -> None:
    """Check ``doc`` and write it as the module docstring says.  ``tables``,
    simulate's, maps CSV file names to (columns, rows, line end); the first is
    the CSV printed at ``--format csv``."""
    require_finite(doc, f"{args.command} result")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(json.dumps(doc, indent=2) + "\n")
        for name, (columns, rows, newline) in (tables or {}).items():
            (out_dir / name).write_text(traj.csv_text(columns, rows), newline=newline)
    elif tables and args.format == "csv":
        columns, rows, _ = next(iter(tables.values()))
        print(traj.csv_text(columns, rows), end="")
    else:
        print(json.dumps(doc, indent=2))


def _cmd_price(args, scenario: Scenario) -> int:
    s = scenario.grid.state(args.capacity)  # one state: the solution and the document's e
    solution = traj._solve_at(scenario.demand, s, scenario.grid.invest_cost)
    doc = {
        "capacity": args.capacity,
        "emissions_intensity": s.e,
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


def _simulate_tables(trajectory: traj.Trajectory, market_size: float) -> dict:
    """``simulate``'s CSV files for :func:`_emit`: the trajectory, whose lines
    end in CRLF, then one plot file per panel, in the platform's line end."""
    ts = [r.t for r in trajectory.records]
    panels = {
        "plot_capacity.csv": ("Q", lambda r: r.capacity),
        "plot_renewable_share.csv": ("renewable_pct", lambda r: 100.0 * r.state.f / market_size),
        "plot_emissions_intensity.csv": ("e", lambda r: r.state.e),
        "plot_price.csv": ("p", lambda r: r.solution.price),
        "plot_expansion.csv": ("q", lambda r: r.solution.expansion),
        "plot_revenue_share.csv": ("gamma", lambda r: r.solution.share),
    }
    tables = {"trajectory.csv": (traj.TRAJECTORY_CSV_COLUMNS, traj.trajectory_csv_rows(trajectory), "\r\n")}
    for name, (column, extract) in panels.items():
        tables[name] = (("t", column), zip(ts, map(extract, trajectory.records)), None)
    return tables


def _cmd_simulate(args, scenario: Scenario) -> int:
    cfg = scenario.simulation
    if args.horizon is not None:
        cfg = cfg._replace(horizon=args.horizon)
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
    _emit(doc, args, "trajectory.json", _simulate_tables(trajectory, scenario.demand.market_size))
    if trajectory.termination is traj.Termination.INFEASIBLE:
        print("warning: trajectory truncated: infeasible period", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _kkt_summary(dm: dp.DemandModel, model: gm.GridModel, *, q_init: float, equilibrium: eqm.EquilibriumResult) -> dict:
    """The worst KKT residual of both problems at the expanding ones of _KKT_STATES capacities
    from ``q_init`` up to the ``equilibrium``'s limit, each read from one state and one decision."""
    k = model.invest_cost
    worst = 0.0
    checked = 0
    for q in gm.linspace(q_init, equilibrium.capacity_limit, _KKT_STATES, endpoint=False):
        s = model.state(q)
        d = dp.decide_at(dm, s, k)
        if d.status is not dp.ExpansionStatus.EXPANDING:
            continue
        res = dp.kkt_residuals(dm, s, k, traj._period_solution(s, k, d, d.expansion), problem="integrated")
        worst = max(worst, res.max_abs_residual)
        separated, _ = rs._separated_solution(s, k, d)
        res = dp.kkt_residuals(dm, s, k, separated, problem="revenue-sharing")
        worst = max(worst, res.max_abs_residual)
        checked += 1
    return {
        "states_checked": checked,
        "max_abs_residual": worst,
        "certified": worst <= CERTIFY_TOL,
    }


def _cmd_verify(args, scenario: Scenario) -> int:
    from . import oracles
    cap = oracles.MAX_POLICIES
    if args.q_grid ** min(args.horizon, cap.bit_length()) > cap:  # as --q-grid >= 2, past the cap from there on
        raise ValueError(f"--q-grid {args.q_grid} ** --horizon {args.horizon} policies: more than {cap}")
    dm, model, q_init = scenario.demand, scenario.grid, scenario.simulation.q_init
    conditions = gm.validate_grid_conditions(model)
    result = eqm.solve_long_run_limit(dm, model)
    certificate = traj.certify_monotone_reachability(dm, model, args.samples, q_init=q_init, equilibrium=result)
    dominance = oracles.enumerate_and_compare(dm, model, args.q_grid, args.horizon, q_init=q_init, equilibrium=result)
    kkt = _kkt_summary(dm, model, q_init=q_init, equilibrium=result)

    if scenario.derivative_bounds is not None:
        bound = traj.reachability_lower_bound(
            dm.market_size,
            dm.sensitivity,
            model.invest_cost,
            scenario.derivative_bounds.max_abs_emissions_slope,
            scenario.derivative_bounds.max_abs_cost_slope,
        )
        if not -math.inf < bound < math.inf:  # as where M/(exp(1)*eps) overflows at a tiny sensitivity
            raise ValueError(f"demand.sensitivity {dm.sensitivity!r}: the derivative_bounds' reachability bound is {bound}")
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
    from . import dispatch
    fleet = dispatch.read_fleet_csv(args.fleet) if args.fleet else dispatch.default_fleet()
    if args.profiles:
        profiles = dispatch.read_profiles_csv(args.profiles)
    else:
        profiles = dispatch.default_profiles(wind_cf=scenario.wind_cf, seed=args.seed)
    lo, hi = scenario.grid.domain
    calibration = dispatch.calibrate_grid(fleet, profiles, gm.linspace(lo, hi, args.q_grid), scenario.wind_cf)
    if calibration.emissions_adjusted or calibration.energy_value_adjusted:
        print(
            f"warning: isotonic correction applied: emissions={calibration.emissions_adjusted}"
            f" energy_value={calibration.energy_value_adjusted}",
            file=sys.stderr,
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
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        code = _HANDLERS[args.command](args, scenario)
        sys.stdout.flush()  # a closed pipe raises here, not at the exit flush
        return code
    except BrokenPipeError:  # the reader closed stdout: devnull takes the exit flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (VrpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
