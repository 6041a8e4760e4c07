"""Self-test of the output checker: it accepts true outputs and rejects corrupted ones.

Each case takes an output the program produced, confirms the checker accepts
it, then corrupts one value the way a real fault would and confirms the
checker rejects it.  Run it with ``python3 bench/selftest.py`` from the root
of a checkout; it exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import tempfile
from pathlib import Path


def _cases(root: Path, work: Path):
    import numpy as np

    import checker
    import inputs
    from vrpplan import cli, dispatch, equilibrium, trajectory
    from vrpplan.scenario import scenario_from_dict

    baseline = inputs.load_baseline(root)
    model = checker.Model(baseline)
    scenario = scenario_from_dict(baseline)
    dm, grid, cfg = scenario.demand, scenario.grid, scenario.simulation

    path = trajectory.simulate_myopic(dm, grid, cfg)
    rows = [
        {"t": r.t, "Q": r.capacity, "p": r.solution.price, "q": r.solution.expansion,
         "gamma": r.solution.share, "R": r.solution.revenue, "phase": r.solution.phase.value}
        for r in path.records
    ]

    def raise_q(rows):
        rows = copy.deepcopy(rows)
        rows[10]["q"] *= 1.01
        return rows

    yield ("trajectory row with q raised by 1%", rows, raise_q,
           lambda r: checker.check_trajectory(model, r, path.capacity_limit, cfg.horizon, cfg.stop_at_limit))

    capped_q = 1.0  # f(1) < M/e on the baseline: the deliverability cap binds
    doc = {"capacity": capped_q, "emissions_intensity": grid.emissions_at(capped_q),
           **trajectory.solve_period(dm, grid, capped_q).to_dict()}

    def wrong_regime(doc):
        doc = dict(doc)
        doc["price"] = model.e(capped_q) / model.eps  # the uncapped-regime formula
        return doc

    yield ("price from the wrong regime", doc, wrong_regime, lambda d: checker.check_period(model, capped_q, d))

    def shifted_limit(doc):
        doc = dict(doc)
        doc["capacity_limit"] *= 1.001
        return doc

    limit_doc = equilibrium.solve_long_run_limit(dm, grid).to_dict()
    yield ("limit moved off the root", limit_doc, shifted_limit, lambda d: checker.check_limit(model, d))

    dip_doc = inputs.dip_model()
    dip_path = inputs.write_json(dip_doc, work / "dip.json")
    code = cli.main(["verify", "--scenario", str(dip_path), "--out", str(work)])
    report = json.loads((work / "verification.json").read_text())
    checker.require(code == 4, "dip model verify did not exit 4")

    def flipped(report):
        report = copy.deepcopy(report)
        report["passed"] = True
        report["dominance"]["statewise_violations"] = 0
        report["dominance"]["passed"] = True
        report["reachability_certificate"]["holds"] = True
        return report

    yield ("dip-model report flipped to passed", report, flipped,
           lambda r: checker.check_verification(checker.Model(dip_doc), r, 4**3, dip=True))

    rng = np.random.default_rng(0)
    load, cf = inputs.hourly_profiles(rng, peak_load=10.0)
    fleet = dispatch.FleetSpec(tuple(dispatch.FleetUnit(*u) for u in inputs.DEFAULT_FLEET))
    profiles = dispatch.HourlyProfiles(tuple(load), tuple(cf))
    hourly = dispatch.merit_order_dispatch(fleet, profiles, 4.0)
    units = sorted(inputs.DEFAULT_FLEET, key=lambda u: u[1])
    hours = [0, 5, 17, 100, 4000, 8759]

    def unbalanced(hourly):
        generation = hourly.unit_generation.copy()
        generation[1, 17] += 0.01
        return dataclasses.replace(hourly, unit_generation=generation)

    yield ("dispatch hour with an energy-balance error", hourly, unbalanced,
           lambda h: checker.check_dispatch_hours(units, load, cf, 4.0, h, hours))

    q_grid = [float(q) for q in np.linspace(0.0, 12.0, 25)]
    samples = dispatch.calibrate_grid(fleet, profiles, q_grid, inputs.WIND_CF).samples

    def rising_e(samples):
        samples = [list(s) for s in samples]
        samples[5][1] = samples[4][1] * 1.01
        return samples

    yield ("calibrated e made to rise", samples, rising_e, lambda s: checker.check_calibration_samples(s, q_grid))


def run(root: Path) -> list[str]:
    """Problems found: a true output rejected or a corrupted one accepted."""
    import checker

    problems = []
    with tempfile.TemporaryDirectory(dir=root / "bench" / "out") as tmp:
        cases = _cases(root, Path(tmp))
        while True:
            try:
                label, good, corrupt, check = next(cases)
            except StopIteration:
                break
            except checker.CheckFailed as exc:  # a precondition of a case did not hold
                problems.append(f"self-test: {exc}")
                break
            try:
                check(good)
            except checker.CheckFailed as exc:
                problems.append(f"self-test '{label}': true output rejected: {exc}")
                continue
            try:
                check(corrupt(good))
            except checker.CheckFailed:
                continue
            problems.append(f"self-test '{label}': corrupted output accepted")
    return problems


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path.insert(0, str(root / "src"))
    (root / "bench" / "out").mkdir(exist_ok=True)
    found = run(root)
    for line in found:
        print(line)
    print("self-test passed" if not found else f"self-test failed: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
