"""vrpplan benchmark: one command, four workloads, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  The
named workload runs whole rounds for S seconds; every run then also makes a
short fixed pass of each other workload, so that every end-to-end metric is
reported on every workload.  With ``--trace 1`` the same passes run with the
tracer installed and the per-layer metrics are printed instead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("cli-session", "scenario-sweep", "deep-verify", "calibration-sweep")
# Rounds every run makes of each workload; the named one then continues until
# the run length has passed.  Three cli rounds give each command three samples,
# so one slow sample cannot move its median.
MIN_ROUNDS = {"cli-session": 3, "scenario-sweep": 10, "deep-verify": 1, "calibration-sweep": 3}
SETUP_REPEATS = 3
PROBE_REPEATS = 5
SETUP_CODE = "import sys, vrpplan; from vrpplan.scenario import load_scenario; load_scenario(sys.argv[1])"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "cli.quick_s": "s",
    "cli.simulate_s": "s",
    "cli.verify_s": "s",
    "cli.calibrate_s": "s",
    "sweep.scenarios_per_s": "scenarios/s",
    "verify.models_per_s": "models/s",
    "calib.capacity_hours_per_s": "cap-hours/s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["VRP_LOG_LEVEL"] = "WARNING"
    return env


def _wall(cmd, env) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def measure_setup(env, speed) -> float:
    """Fresh interpreter until ``import vrpplan`` and ``load_scenario`` return."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "scenarios" / "baseline.json")]
    before = speed.factor("process")
    samples = [_wall(cmd, env) for _ in range(SETUP_REPEATS)]
    return statistics.median(samples) / (0.5 * (before + speed.factor("process")))


def measure_probe(env) -> dict:
    """Import cost of the package and the bare interpreter start."""
    probes = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "traced_cli.py"), "--probe"],
            env=env, check=True, capture_output=True, text=True,
        )
        probes.append(json.loads(proc.stdout))
    return {
        "import.vrpplan_s": statistics.median(p["import_s"] for p in probes),
        "import.modules": statistics.median(p["modules"] for p in probes),
        "import.scipy_modules": statistics.median(p["scipy_modules"] for p in probes),
        "process.start_s": statistics.median(_wall([sys.executable, "-c", "pass"], env) for _ in range(PROBE_REPEATS)),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "vrpplan" / "__init__.py").is_file() or not (ROOT / "scenarios" / "baseline.json").is_file():
        print("error: run from a vrpplan checkout (src/vrpplan and scenarios/baseline.json are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import vrpplan

    if Path(vrpplan.__file__).resolve().parent != ROOT / "src" / "vrpplan":
        print(f"error: imported vrpplan from {vrpplan.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import layers
    import speed
    import tracer
    import workloads

    # One client on one core: the benchmark and every process it starts share
    # the core whose speed the references measure.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    env = _env()
    problems = []
    try:
        machine = speed.Speed(env)
        setup_s = None if args.trace else measure_setup(env, machine)
        probe = measure_probe(env) if args.trace else None

        order = [args.workload] + [w for w in WORKLOAD_NAMES if w != args.workload]
        results, contexts = {}, {}
        peak_kb = 0
        for name in order:
            primary = name == args.workload
            ctx = workloads.Context(
                root=ROOT, work=work / name,
                seconds=args.seconds if primary else 0.0,
                min_rounds=MIN_ROUNDS[name],
                env=env, rng=np.random.default_rng([args.seed, WORKLOAD_NAMES.index(name)]), speed=machine,
                tracer=tracer.Tracer() if args.trace else None,
            )
            ctx.work.mkdir()
            start = time.perf_counter()
            results[name] = workloads.WORKLOADS[name](ctx)
            print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
            contexts[name] = ctx
            if primary:  # the peak before any companion pass adds its own
                who = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
                peak_kb = resource.getrusage(who).ru_maxrss
        for res in results.values():
            problems += res.problems
        attempted = sum(r.attempted for r in results.values())
        failed = sum(r.failed for r in results.values())

        if args.trace:
            views = {}
            parts = []
            for name, ctx in contexts.items():
                agg = tracer.merge([ctx.tracer.aggregates()] + ctx.sub_aggregates)
                views[name] = layers.View(agg, results[name].ops)
                parts.append({"workload": name, "process": "benchmark", **ctx.tracer.spans()})
                parts += [{"workload": name, "process": f"cli-{i}", **p} for i, p in enumerate(ctx.trace_parts)]
            metrics, source = layers.layer_metrics(args.workload, views, probe)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write_trace(trace_path, args.workload, args.seed, parts, {
                "metric_source": source,
                "traced_end_to_end": {k: v for r in results.values() for k, v in r.metrics.items()},
            })
            print(f"trace written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
        else:
            values = {"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}
            for res in results.values():
                values.update(res.metrics)
            missing = [m for m in END_TO_END if m not in values]
            problems += [f"metric {m} not measured" for m in missing]
            metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items() if m in values}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
