"""The four benchmark workloads.

Each workload builds its inputs from the seed, then repeats whole rounds of the
same operations until the run length has passed (at least one round).  Only
the program's calls are inside the timed region; every output is checked
afterwards by the independent checker and against properties the method must
have.  A workload returns its end-to-end figures, the operations attempted and
failed, and the check failures it saw.
"""

from __future__ import annotations

import csv
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checker
import inputs
import speed
import vrpplan
from vrpplan import cli, dispatch, equilibrium, grid_model, oracles, revenue_sharing, trajectory
from vrpplan.dispatch import merit_order_dispatch as untraced_dispatch
from vrpplan.scenario import scenario_from_dict

SWEEP_HORIZON = 120
# (representation, stops at the limit, target myopic periods before the limit)
SWEEP_BATCH = (
    ("baseline", True, 60), ("baseline", True, 100), ("baseline", False, 60),
    ("tab-f", True, 60), ("tab-f", True, 100), ("tab-f", False, 60),
    ("all-tab", True, 60), ("all-tab", True, 100), ("all-tab", False, 60),
    ("parametric", True, 60), ("parametric", True, 100), ("parametric", False, 60),
)
VERIFY_ARGS = ("--horizon", "6", "--q-grid", "4", "--samples", "1000")
VERIFY_POLICIES = 4**6
PRICE_SCAN_STATES = 3
PRICE_SCAN_POINTS = 10**6
CALIB_GRID = np.linspace(0.0, 12.0, 241)
CALIB_LARGE_FLEET = 30
CALIB_CHECK_HOURS = 48
CLI_PERTURBED = 3


@dataclass
class Context:
    root: Path
    work: Path
    seconds: float
    min_rounds: int
    env: dict
    rng: np.random.Generator
    speed: speed.Speed
    tracer: object = None  # tracer.Tracer in a traced run
    trace_parts: list = field(default_factory=list)  # span dumps of traced subprocesses
    sub_aggregates: list = field(default_factory=list)  # tracer aggregates of subprocesses


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        """Operations completed, the base of per-operation layer figures."""
        return self.attempted - self.failed

    def check(self, label: str, fn):
        """Run one check; a failure is recorded, not raised."""
        try:
            fn()
        except checker.CheckFailed as exc:
            self.problems.append(f"{label}: {exc}")


def _rounds(ctx: Context):
    """Yield round numbers until the run length has passed and the minimum is met."""
    deadline = time.perf_counter() + ctx.seconds
    r = 0
    while True:
        yield r
        r += 1
        if r >= ctx.min_rounds and time.perf_counter() >= deadline:
            return


def _install(ctx: Context):
    if ctx.tracer is not None:
        ctx.tracer.install(vrpplan)


def _uninstall(ctx: Context):
    if ctx.tracer is not None:
        ctx.tracer.uninstall()


def _program(doc: dict):
    scenario = scenario_from_dict(doc)
    return scenario.demand, scenario.grid, scenario.simulation


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return [
            {"t": int(r["t"]), "Q": float(r["Q"]), "p": float(r["p"]), "q": float(r["q"]),
             "gamma": float(r["gamma"]), "R": float(r["R"]), "phase": int(r["phase"])}
            for r in csv.DictReader(handle)
        ]


def cli_session(ctx: Context) -> Result:
    """One client runs the six commands as subprocesses, one after another."""
    res = Result()
    baseline = inputs.load_baseline(ctx.root)
    docs = [baseline] + [inputs.perturbed_baseline(baseline, ctx.rng) for _ in range(CLI_PERTURBED)]
    paths = [ctx.root / "scenarios" / "baseline.json"]
    paths += [inputs.write_json(d, ctx.work / f"cli-{i}.json") for i, d in enumerate(docs[1:], 1)]
    models = [checker.Model(d) for d in docs]
    limits = [m.limit() for m in models]
    load, cf = inputs.hourly_profiles(ctx.rng, peak_load=0.8 * sum(u[0] for u in inputs.DEFAULT_FLEET))
    fleet_csv = inputs.write_fleet_csv(inputs.DEFAULT_FLEET, ctx.work / "fleet.csv")
    profiles_csv = inputs.write_profiles_csv(load, cf, ctx.work / "profiles.csv")

    times = {"quick": [], "simulate": [], "verify": [], "calibrate": []}
    before = ctx.speed.factor("process")
    for r in _rounds(ctx):
        i = r % len(docs)
        model, q_star, path = models[i], limits[i], str(paths[i])
        q = float(ctx.rng.uniform(model.q_init + 0.1 * (q_star - model.q_init), 0.8 * q_star))
        out = ctx.work / f"out-{r}"
        commands = [
            ("quick", ["price", "--scenario", path, repr(q)]),
            ("quick", ["share", "--scenario", path, repr(q)]),
            ("quick", ["limit", "--scenario", path]),
            ("simulate", ["simulate", "--scenario", path, "--out", str(out)]),
            ("verify", ["verify", "--scenario", path, "--out", str(out)]),
            ("calibrate", ["calibrate", "--scenario", path, "--out", str(out),
                           "--fleet", str(fleet_csv), "--profiles", str(profiles_csv)]),
        ]
        for group in (commands[:3], commands[3:]):  # the host's speed is sampled between groups
            finished = []
            for kind, argv in group:
                res.attempted += 1
                if ctx.tracer is None:
                    cmd = [sys.executable, "-m", "vrpplan.cli", *argv]
                else:
                    agg = ctx.work / f"agg-{r}-{argv[0]}.json"
                    cmd = [sys.executable, str(ctx.root / "bench" / "traced_cli.py"), str(agg), *argv]
                start = time.perf_counter()
                proc = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True)
                elapsed = time.perf_counter() - start
                ok_codes = (0, 4) if argv[0] == "verify" else (0,)
                if proc.returncode not in ok_codes:
                    res.failed += 1
                    res.problems.append(f"{argv[0]} exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                    continue
                finished.append((kind, elapsed))
                if ctx.tracer is not None:
                    dump = json.loads(agg.read_text())
                    ctx.sub_aggregates.append(dump["aggregates"])
                    ctx.trace_parts.append(dump["spans"])
                res.check(argv[0], lambda: _check_cli(argv[0], proc, out, model, q, load, cf, ctx.rng))
            after = ctx.speed.factor("process")
            for kind, elapsed in finished:
                times[kind].append(elapsed / (0.5 * (before + after)))
            before = after

    res.metrics = {f"cli.{k}_s": statistics.median(v) for k, v in times.items() if v}
    return res


def _check_cli(command, proc, out: Path, model, q, load, cf, rng) -> None:
    if command == "price":
        checker.check_period(model, q, json.loads(proc.stdout))
    elif command == "share":
        doc = json.loads(proc.stdout)
        checker.check_separated(model, q, doc["period_solution"], doc["sharing"])
    elif command == "limit":
        checker.check_limit(model, json.loads(proc.stdout))
    elif command == "simulate":
        doc = json.loads((out / "trajectory.json").read_text())
        q_star = checker.check_limit(model, doc["equilibrium"])
        checker.check_trajectory(model, _read_rows(out / "trajectory.csv"), q_star, model.horizon, model.stop_at_limit)
    elif command == "verify":
        doc = json.loads((out / "verification.json").read_text())
        checker.require((proc.returncode == 0) == doc["passed"], "verify exit code disagrees with its report")
        checker.check_verification(model, doc, policies=4**3, dip=False)
    elif command == "calibrate":
        samples = json.loads((out / "grid_model.json").read_text())["calibration"]["samples"]
        checker.check_calibration_samples(samples, list(np.linspace(model.lo, model.hi, 20)))
        checker.check_calibrated_f(samples, load, cf, inputs.WIND_CF, int(rng.integers(0, len(samples))))


# ---------------------------------------------------------------------------
# scenario-sweep
# ---------------------------------------------------------------------------


def _sweep_doc(ctx: Context, baseline: dict, variant: str, stop: bool, target: int) -> dict:
    if variant == "baseline":
        doc = inputs.perturbed_baseline(baseline, ctx.rng)
        doc["simulation"].update(horizon=SWEEP_HORIZON, stop_at_limit=stop)
    else:
        doc = inputs.random_accepted(ctx.rng, variant, SWEEP_HORIZON, stop)
    return inputs.tune_periods(doc, target)


def scenario_sweep(ctx: Context) -> Result:
    """In process: limit, myopic run, certificate and separated periods per model."""
    res = Result()
    baseline = inputs.load_baseline(ctx.root)
    docs = [_sweep_doc(ctx, baseline, *spec) for spec in SWEEP_BATCH]
    batch = [(checker.Model(doc), *_program(doc)) for doc in docs]

    rates = []
    first = {}  # model index -> fingerprint of its first round's outputs
    _install(ctx)
    try:
        for _ in _rounds(ctx):
            busy = 0.0
            done = 0
            before = ctx.speed.factor("scalar")
            for i, (model, dm, grid, cfg) in enumerate(batch):
                res.attempted += 1
                try:
                    start = time.perf_counter()
                    limit = equilibrium.solve_long_run_limit(dm, grid)
                    path = trajectory.simulate_myopic(dm, grid, cfg)
                    cert = trajectory.certify_monotone_reachability(dm, grid, q_init=cfg.q_init, equilibrium=limit)
                    separated = [revenue_sharing.solve_separated_period(dm, grid, r.capacity) for r in path.records]
                    busy += time.perf_counter() - start
                except Exception as exc:  # a failed operation is counted and reported, not fatal
                    res.failed += 1
                    res.problems.append(f"sweep: {type(exc).__name__}: {exc}")
                    continue
                done += 1
                fingerprint = (limit, path, cert, separated)
                if i not in first:
                    first[i] = fingerprint
                    res.check("sweep", lambda: _check_sweep(model, limit, path, cert, separated))
                elif fingerprint != first[i]:
                    res.problems.append(f"sweep model {i}: outputs differ between identical rounds")
            if busy > 0.0:
                rates.append(done / ctx.speed.normalize(busy, before, "scalar"))
    finally:
        _uninstall(ctx)
    res.metrics = {"sweep.scenarios_per_s": statistics.median(rates)} if rates else {}
    return res


def _check_sweep(model, limit, path, cert, separated) -> None:
    q_star = checker.check_limit(model, limit.to_dict())
    rows = [
        {"t": r.t, "Q": r.capacity, "p": r.solution.price, "q": r.solution.expansion,
         "gamma": r.solution.share, "R": r.solution.revenue, "phase": r.solution.phase.value}
        for r in path.records
    ]
    checker.check_trajectory(model, rows, q_star, model.horizon, model.stop_at_limit)
    checker.require(path.capacity_limit == limit.capacity_limit, "trajectory limit differs from the solved limit")
    checker.require(cert.n_samples == 200, "certificate resolution")
    for r, (solution, sharing) in zip(path.records, separated):
        checker.check_separated(model, r.capacity, solution.to_dict(), sharing.to_dict())


# ---------------------------------------------------------------------------
# deep-verify
# ---------------------------------------------------------------------------


def deep_verify(ctx: Context) -> Result:
    """The verify command in process at a deep horizon, plus both dense scans."""
    res = Result()
    baseline = inputs.load_baseline(ctx.root)
    cases = [
        ("baseline", baseline, ctx.root / "scenarios" / "baseline.json"),
        ("perturbed", inputs.perturbed_baseline(baseline, ctx.rng), None),
        ("random", inputs.random_accepted(ctx.rng, "tab-f"), None),
        ("dip", inputs.dip_model(), None),
    ]
    models = []
    for name, doc, path in cases:
        path = path or inputs.write_json(doc, ctx.work / f"verify-{name}.json")
        model = checker.Model(doc)
        hi = model.limit() if name != "dip" else model.hi
        states = [float(x) for x in ctx.rng.uniform(model.q_init, 0.9 * hi, PRICE_SCAN_STATES)]
        models.append((name, str(path), model, states, *_program(doc)[:2]))

    rates = []
    _install(ctx)
    try:
        for _ in _rounds(ctx):
            busy = 0.0
            done = 0
            for name, path, model, states, dm, grid in models:
                res.attempted += 1
                out = ctx.work / f"verify-out-{name}"
                try:
                    before = ctx.speed.factor("scalar")
                    start = time.perf_counter()
                    code = cli.main(["verify", "--scenario", path, "--out", str(out), *VERIFY_ARGS])
                    scan = oracles.dense_scan_equilibrium(dm, grid)
                    prices = [oracles.dense_scan_price(dm, grid, q, PRICE_SCAN_POINTS) for q in states]
                    busy += ctx.speed.normalize(time.perf_counter() - start, before, "scalar")
                except Exception as exc:  # a failed operation is counted and reported, not fatal
                    res.failed += 1
                    res.problems.append(f"verify {name}: {type(exc).__name__}: {exc}")
                    continue
                if code not in (0, 4):
                    res.failed += 1
                    res.problems.append(f"verify {name}: exit {code}")
                    continue
                done += 1
                report = json.loads((out / "verification.json").read_text())
                res.check(f"verify {name}", lambda: _check_verify(name, model, code, report, scan, states, prices))
            if busy > 0.0:
                rates.append(done / busy)
    finally:
        _uninstall(ctx)
    res.metrics = {"verify.models_per_s": statistics.median(rates)} if rates else {}
    return res


def _check_verify(name, model, code, report, scan, states, prices) -> None:
    checker.require((code == 0) == report["passed"], "verify exit code disagrees with its report")
    checker.check_verification(model, report, VERIFY_POLICIES, dip=name == "dip")
    checker.check_scan_bracket(scan.to_dict(), report["equilibrium"]["capacity_limit"])
    for q, p in zip(states, prices):
        checker.check_price_scan(model, q, p, PRICE_SCAN_POINTS)


# ---------------------------------------------------------------------------
# calibration-sweep
# ---------------------------------------------------------------------------


def calibration_sweep(ctx: Context) -> Result:
    """CSV ingestion, a dense calibration sweep and model assembly for two fleets."""
    res = Result()
    default_total = sum(u[0] for u in inputs.DEFAULT_FLEET)
    peak = 0.8 * default_total
    load, cf = inputs.hourly_profiles(ctx.rng, peak_load=peak)
    large = inputs.generated_fleet(ctx.rng, CALIB_LARGE_FLEET, 1.3 * peak)
    profiles_csv = inputs.write_profiles_csv(load, cf, ctx.work / "profiles.csv")
    fleets = [
        (sorted(inputs.DEFAULT_FLEET, key=lambda u: u[1]), inputs.write_fleet_csv(inputs.DEFAULT_FLEET, ctx.work / "fleet-6.csv")),
        (sorted(large, key=lambda u: u[1]), inputs.write_fleet_csv(large, ctx.work / "fleet-large.csv")),
    ]
    q_grid = [float(q) for q in CALIB_GRID]
    work = len(q_grid) * len(load)
    costs = (grid_model.CostSpec(21.0, 5.0), grid_model.CostSpec(9.6, 1.0))

    rates = []
    first = {}  # fleet index -> its first calibration
    _install(ctx)
    try:
        for _ in _rounds(ctx):
            busy = 0.0
            done = 0
            for i, (units, fleet_csv) in enumerate(fleets):
                res.attempted += 1
                try:
                    before = ctx.speed.factor("array")
                    start = time.perf_counter()
                    fleet = dispatch.read_fleet_csv(fleet_csv)
                    profiles = dispatch.read_profiles_csv(profiles_csv)
                    cal = dispatch.calibrate_grid(fleet, profiles, q_grid, inputs.WIND_CF)
                    model = dispatch.build_grid_model(cal, *costs, 1000.0)
                    report = grid_model.validate_grid_conditions(model)
                    busy += ctx.speed.normalize(time.perf_counter() - start, before, "array")
                except Exception as exc:  # a failed operation is counted and reported, not fatal
                    res.failed += 1
                    res.problems.append(f"calibration: {type(exc).__name__}: {exc}")
                    continue
                done += 1
                if i not in first:
                    first[i] = cal
                    res.check("calibration", lambda: _check_calibration(ctx.rng, units, fleet, profiles, load, cf, q_grid, cal, report))
                elif cal.samples != first[i].samples:
                    res.problems.append(f"calibration fleet {i}: outputs differ between identical rounds")
            if busy > 0.0:
                rates.append(done * work / busy)
    finally:
        _uninstall(ctx)
    res.metrics = {"calib.capacity_hours_per_s": statistics.median(rates)} if rates else {}
    return res


def _check_calibration(rng, units, fleet, profiles, load, cf, q_grid, cal, report) -> None:
    checker.check_calibration_samples(cal.samples, q_grid)
    index = int(rng.integers(1, len(q_grid)))
    checker.check_calibrated_f(cal.samples, load, cf, inputs.WIND_CF, index)
    hourly = untraced_dispatch(fleet, profiles, q_grid[index])
    hours = rng.choice(len(load), size=CALIB_CHECK_HOURS, replace=False)
    checker.check_dispatch_hours(units, load, cf, q_grid[index], hourly, hours)
    if not cal.emissions_adjusted:
        checker.close(cal.samples[index][1], float(np.sum(hourly.emissions)) / float(np.sum(load)),
                       checker.VALUE_REL_TOL, "calibrated e")
    checker.require(report.check("emissions_nonincreasing").passed, "validate: e increases")
    checker.require(report.check("delivered_nondecreasing").passed, "validate: f decreases")


WORKLOADS = {
    "cli-session": cli_session,
    "scenario-sweep": scenario_sweep,
    "deep-verify": deep_verify,
    "calibration-sweep": calibration_sweep,
}
