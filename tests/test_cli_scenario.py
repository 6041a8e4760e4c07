"""Unit conversion, scenario files, and the command-line surface."""

import argparse
import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE, BASELINE_PATH, baseline_doc, bumped_emissions, write_fleet_csv, write_profiles_csv
import vrpplan
from vrpplan import cli, equilibrium, grid_model, trajectory
from vrpplan.cli import main
from vrpplan.demand_pricing import DemandModel
from vrpplan.dispatch import default_fleet, default_profiles
from vrpplan.errors import DispatchShortageError, InfeasibleError, ScenarioError, VrpError
from vrpplan.grid_model import ConditionCheck, CostSpec, CurveKind, GridCurve, GridModel, eval_curve
from vrpplan.scenario import DerivativeBounds, load_scenario, scenario_from_dict
from vrpplan.serialize import record_dict
from vrpplan.tolerances import DOMAIN_TOL, scaled
from vrpplan.trajectory import SimulationConfig
from vrpplan.units import convert_price_units, invert_price_units

DROP = object()  # a parametrized value: delete the key instead


def _subclasses(cls: type) -> list[type]:
    return [sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))]


class TestPriceConversion:
    @pytest.mark.parametrize(
        "capacity_price, energy_price",
        [(69.37, 22.63), (145.40, 47.42), (247.03, 80.57)],
    )
    def test_reference_rows(self, capacity_price, energy_price):
        assert convert_price_units(capacity_price, 0.35) == pytest.approx(
            energy_price, abs=0.01
        )

    @given(
        price=st.floats(min_value=0.0, max_value=1e6),
        cf=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_identity(self, price, cf):
        assert invert_price_units(convert_price_units(price, cf), cf) == pytest.approx(
            price, rel=1e-12, abs=1e-12
        )

    def test_cf_out_of_range(self):
        for cf in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                convert_price_units(100.0, cf)


class TestScenarioFiles:
    def test_shipped_baseline_holds_the_documented_curves(self):
        # the shapes scenario.py's docstring gives, to the bit: the file is their only definition
        grid = BASELINE.grid
        assert grid.emissions == GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.40, 0.06))
        assert grid.energy_value == GridCurve(CurveKind.EXPONENTIAL_DECAY, (120.0, 0.08))
        qs = [i * 0.025 for i in range(480)] + [12.0]  # np.linspace(0, 12, 481)
        assert grid.delivered.table == tuple((q, 8.0 * (1.0 - math.exp(-0.12 * q))) for q in qs)
        assert grid.domain == (0.0, 12.0)

    def test_grid_by_reference(self, tmp_path):
        doc = baseline_doc()
        (tmp_path / "grid.json").write_text(json.dumps(doc["grid"]))
        doc["grid"] = "grid.json"
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        loaded = load_scenario(tmp_path / "scenario.json")
        assert loaded.grid == BASELINE.grid

    def test_invalid_json_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "grid": }')
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(path)

    def test_overlong_integer_names_the_file(self, tmp_path):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for this literal
        path = tmp_path / "long.json"
        path.write_text('{"schema_version": 1, "seed": ' + "1" * 5000 + "}")
        with pytest.raises(ScenarioError, match=f"{re.escape(str(path))}: invalid JSON"):
            load_scenario(path)

    def test_missing_field(self):
        doc = baseline_doc()
        del doc["demand"]
        with pytest.raises(ScenarioError, match="demand"):
            scenario_from_dict(doc)

    def test_bad_schema_version(self):
        doc = baseline_doc()
        doc["schema_version"] = 99
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(doc)

    def test_bad_wind_cf(self):
        doc = baseline_doc()
        doc["wind_cf"] = 1.7
        with pytest.raises(ScenarioError, match="wind_cf"):
            scenario_from_dict(doc)


RECORDS = [  # a record, one of another class with the same field values, the dataclass repr, a change it refuses
    (CostSpec(1.0, 2.0), DerivativeBounds(1.0, 2.0), "CostSpec(alpha=1.0, beta=2.0)",
     {"beta": -1.0}, "beta must be nonnegative and finite"),
    (DerivativeBounds(1.0, 2.0), CostSpec(1.0, 2.0),
     "DerivativeBounds(max_abs_emissions_slope=1.0, max_abs_cost_slope=2.0)",
     {"max_abs_cost_slope": math.inf}, "max_abs_cost_slope must be nonnegative and finite"),
    (SimulationConfig(0.5, 10), ConditionCheck(0.5, 10, True),
     "SimulationConfig(q_init=0.5, horizon=10, stop_at_limit=True)", {"horizon": 0}, "horizon must be at least 1"),
    (GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0)), None,
     "GridCurve(kind=<CurveKind.POLYNOMIAL: 'parametric-polynomial'>, coefficients=(21.0, 5.0), table=None)",
     {"coefficients": ()}, "polynomial curve needs at least one coefficient"),
]


@pytest.mark.parametrize("rec, twin, text, change, message", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_records_behave_as_frozen_dataclasses(rec, twin, text, change, message):
    cls, values = type(rec), tuple(getattr(rec, name) for name in rec._fields)
    # equal within one class only, and hashed as the field tuple
    assert rec == cls(*values) == cls(**dict(zip(rec._fields, values)))
    assert hash(rec) == hash(cls(*values)) == hash(values)
    assert rec != values and values != rec
    if twin is not None:
        assert tuple(getattr(twin, name) for name in twin._fields) == values
        assert rec != twin and twin != rec
    for name in (rec._fields[0], "unlisted"):
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert getattr(rec, rec._fields[0]) is values[0]
    # _replace runs the checks of __init__
    assert rec._replace() == rec and rec._replace() is not rec
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rec._replace(**change)
    # a missing, unknown, repeated or surplus argument
    for args, kwargs in [((), {}), (values, {"unlisted": 1}), (values, {rec._fields[0]: values[0]}),
                         ((*values, None), {})]:
        with pytest.raises(TypeError, match=f"^{cls.__name__}.__init__"):
            cls(*args, **kwargs)
    # the repr and the dict keys name the fields in declaration order
    assert repr(rec) == text
    assert list(record_dict(rec)) == list(rec._fields) == re.findall(r"(\w+)=", text)


class TestCliCommands:
    def test_limit_deterministic(self, capsys):
        assert main(["limit", "--scenario", BASELINE_PATH]) == 0
        first = capsys.readouterr().out
        assert main(["limit", "--scenario", BASELINE_PATH]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["capacity_limit"] == pytest.approx(7.146, abs=1e-3)

    def test_price_command(self, capsys):
        assert main(["price", "--scenario", BASELINE_PATH, "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phase"] == 1
        assert doc["price"] > 0
        assert doc["price_energy_usd_per_mwh"] == pytest.approx(
            convert_price_units(doc["price"], 0.35)
        )

    def test_share_command(self, capsys):
        assert main(["share", "--scenario", BASELINE_PATH, "6.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["sharing"]["share"] < 1.0
        assert doc["sharing"]["equivalent_to_integrated"]

    def test_simulate_writes_fileset(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert (
            main(["simulate", "--scenario", BASELINE_PATH, "--out", str(out)]) == 0
        )
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "plot_capacity.csv",
            "plot_emissions_intensity.csv",
            "plot_expansion.csv",
            "plot_price.csv",
            "plot_renewable_share.csv",
            "plot_revenue_share.csv",
            "trajectory.csv",
            "trajectory.json",
        ]
        with open(out / "trajectory.csv", newline="") as handle:
            phases = [int(r["phase"]) for r in csv.DictReader(handle)]
        assert sorted(set(phases)) == [1, 2, 3]
        assert all(b >= a for a, b in zip(phases, phases[1:]))
        doc = json.loads((out / "trajectory.json").read_text())
        assert doc["reachability_certificate"]["holds"]
        assert doc["termination"] == "reached_limit"

    def test_simulate_stdout_holds_the_trajectory_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", BASELINE_PATH, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--scenario", BASELINE_PATH, "--format", "json"]) == 0
        assert capsys.readouterr().out == (out / "trajectory.json").read_text()
        assert main(["simulate", "--scenario", BASELINE_PATH, "--format", "csv"]) == 0
        # the file ends its lines as csv.writer does, stdout as print does
        csv_text = (out / "trajectory.csv").read_bytes().decode()
        assert capsys.readouterr().out.split("\n") == csv_text.split("\r\n")

    def test_verify_baseline_passes(self, capsys):
        assert main(["verify", "--scenario", BASELINE_PATH, "--samples", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"]
        assert doc["reachability_bound"] == pytest.approx(0.768, abs=1e-3)
        assert doc["reachability_bound_source"] == "scenario derivative_bounds"
        assert doc["dominance"]["passed"]
        assert doc["kkt"]["certified"]

    @pytest.mark.parametrize("q_init", [1e-12, 1e-10, 4e-10])
    def test_verify_from_near_zero_capacity(self, tmp_path, capsys, q_init):
        # the first KKT state sits within 1e-9 of Q = 0, where the expansion is
        # below ZERO_TOL: the check stays on builtins, so the report serializes
        doc = baseline_doc()
        doc["simulation"]["q_init"] = q_init
        path = tmp_path / "near-zero.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--scenario", str(path), "--samples", "100"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True and out["kkt"]["certified"] is True
        scenario = load_scenario(path)
        dm, model = scenario.demand, scenario.grid
        result = equilibrium.solve_long_run_limit(dm, model)
        kkt = cli._kkt_summary(dm, model, q_init=scenario.simulation.q_init, equilibrium=result)
        assert type(kkt["certified"]) is bool and type(kkt["max_abs_residual"]) is float

    @pytest.mark.parametrize("ulps, n_samples", [(1, 0), (5, 0), (300, 200)])
    def test_a_start_a_few_ulps_below_the_limit(self, tmp_path, capsys, ulps, n_samples):
        # 1 and 5 ulps below Q*, the certificate's 200 points would coincide and
        # their slopes be 0/0: it holds trivially; 300 ulps below, they are distinct
        path = near_limit_scenario(tmp_path / "near-limit.json", ulps)
        assert main(["simulate", "--scenario", str(path), "--format", "json"]) == 0
        simulated = json.loads(capsys.readouterr().out)["reachability_certificate"]
        assert main(["verify", "--scenario", str(path)]) == 0
        verified = json.loads(capsys.readouterr().out)
        assert verified["passed"] and verified["reachability_certificate"] == simulated
        assert (simulated["holds"], simulated["n_samples"]) == (True, n_samples)

    @pytest.mark.parametrize("q_grid, horizon", [("4", "7"), ("20000", "1")])
    def test_verify_enumerates_every_policy_up_to_the_cap(self, capsys, q_grid, horizon):
        # 4**7 = 16,384 is the largest count at --q-grid 4, and 20,000 the cap itself
        assert main(["verify", "--scenario", BASELINE_PATH, "--q-grid", q_grid, "--horizon", horizon]) == 0
        dominance = json.loads(capsys.readouterr().out)["dominance"]
        assert dominance["n_policies_evaluated"] == int(q_grid) ** int(horizon)
        assert dominance["passed"]
        assert list(dominance) == [
            "n_policies_evaluated", "statewise_violations", "hitting_time_violations", "emissions_violations",
            "worst_hitting_gap", "worst_emissions_gap", "passed",
        ]

    def test_verify_fails_on_rejected_grid(self, tmp_path, capsys):
        doc = baseline_doc()
        # energy value rising with penetration violates the structure checks
        doc["grid"]["energy_value"] = {
            "kind": "tabulated",
            "table": [[0.0, 100.0], [12.0, 140.0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--scenario", str(path), "--samples", "50"]) == 4
        out = json.loads(capsys.readouterr().out)
        assert not out["passed"]
        assert not out["conditions"]["passed"]

    @pytest.mark.parametrize("samples", ["2", "200", "1000", "10000"])
    def test_verify_fails_on_a_bump_between_samples_at_any_resolution(self, tmp_path, capsys, samples):
        doc = baseline_doc()
        doc["grid"]["emissions"] = bumped_emissions(BASELINE.grid).emissions.to_dict()  # +0.01 t/MWh at Q = 6.013
        path = tmp_path / "bump.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--scenario", str(path), "--samples", samples]) == 4
        conditions = json.loads(capsys.readouterr().out)["conditions"]
        assert list(conditions) == ["passed", "checks"]  # no sample count: none is taken
        failed = [(c["name"], c["first_violation_q"]) for c in conditions["checks"] if not c["passed"]]
        assert failed == [("emissions_nonincreasing", 6.013)]

    def test_verify_takes_two_samples(self, capsys):
        assert main(["verify", "--scenario", BASELINE_PATH, "--samples", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["reachability_certificate"]["n_samples"] == 2

    def test_calibrate_emits_loadable_model(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert (
            main(
                [
                    "calibrate",
                    "--scenario",
                    BASELINE_PATH,
                    "--q-grid",
                    "6",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads((out / "grid_model.json").read_text())
        samples = doc.pop("calibration")["samples"]
        model = GridModel.from_dict(doc)
        assert model.domain == (0.0, 12.0)
        assert len(samples) == 6

    def test_calibrate_at_a_windy_site(self, tmp_path, capsys):
        # at wind_cf 0.6 the synthetic profiles once left [0, 1], and calibrate exited 2
        doc = baseline_doc()
        doc["wind_cf"] = 0.6
        path = tmp_path / "windy.json"
        path.write_text(json.dumps(doc))
        assert main(["calibrate", "--scenario", str(path), "--q-grid", "4"]) == 0
        calibrated = json.loads(capsys.readouterr().out)
        assert len(calibrated["calibration"]["samples"]) == 4

    def test_infeasible_state_exit_code(self, capsys):
        # no sellable credits at Q = 0 (delivered output is zero there)
        assert main(["price", "--scenario", BASELINE_PATH, "0.0"]) == 3

    def test_share_past_the_limit_prints_phase_0_and_exits_3(self, capsys):
        # Q* is 7.146: at 7.5 the operator budget is short, as price reports with exit 3
        assert main(["share", "--scenario", BASELINE_PATH, "7.5"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["period_solution"]["phase"] == 0
        assert doc["sharing"]["operator_budget_residual"] < 0

    @pytest.mark.parametrize("command", ["price", "share", "simulate"])
    def test_a_capacity_where_m_over_f_overflows_has_no_credits_to_sell(self, tmp_path, capsys, command):
        # on the baseline f(2.2e-309) = 2.1e-309, so M/f(Q) and with it the capped price overflow
        q = 2.2e-309
        if command == "simulate":
            doc = baseline_doc()
            doc["simulation"]["q_init"] = q
            scenario = tmp_path / "tiny.json"
            scenario.write_text(json.dumps(doc))
            argv = ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
        else:
            argv = [command, "--scenario", BASELINE_PATH, repr(q)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(r"infeasible: f\(Q\)=\S+ at Q=2\.2e-309: too few credits to price, "
                            r"M/f\(Q\) overflows\n", captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("error", [*_subclasses(VrpError), ValueError, OSError], ids=lambda c: c.__name__)
    def test_exit_code_follows_the_exception_class(self, monkeypatch, capsys, error):
        exc = error(7, 2.0, 1.0) if error is DispatchShortageError else error("boom")

        def handler(args, scenario):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "limit", handler)
        infeasible = issubclass(error, InfeasibleError)
        assert main(["limit", "--scenario", BASELINE_PATH]) == (3 if infeasible else 2)
        assert capsys.readouterr().err == f"{'infeasible' if infeasible else 'error'}: {exc}\n"

    def test_infeasible_family(self):
        assert {c.__name__ for c in _subclasses(InfeasibleError)} == {
            "NetZeroGridError", "NoSellableCreditsError", "NoRevenueError", "InfeasibleSharingError",
            "InfeasiblePeriodError", "ThresholdUnreachableError", "InfeasibleAtThresholdError",
            "DispatchShortageError",
        }

    @pytest.mark.parametrize("flag", ["--fleet", "--profiles"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_calibration_input_exits_2(self, tmp_path, capsys, flag, kind):
        path = tmp_path / "input.csv"
        if kind == "directory":
            path.mkdir()
        assert main(["calibrate", "--scenario", BASELINE_PATH, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("residual", math.nan, "nan"),
            ("residual", -math.inf, "-inf"),
            ("iterations", 10**400, "1" + "0" * 400),
        ],
        ids=["nan", "infinity", "huge-integer"],
    )
    @pytest.mark.parametrize(
        "argv, where",
        [
            (["limit"], "limit result: "),
            (["limit", "--out", "OUT"], "limit result: "),
            (["simulate"], "simulate result: equilibrium."),
            (["simulate", "--format", "json"], "simulate result: equilibrium."),
            (["simulate", "--out", "OUT"], "simulate result: equilibrium."),
            (["simulate", "--format", "json", "--out", "OUT"], "simulate result: equilibrium."),
            (["verify"], "verify result: equilibrium."),
            (["verify", "--out", "OUT"], "verify result: equilibrium."),
        ],
        ids=["limit", "limit-out", "simulate-csv", "simulate-json", "simulate-out", "simulate-json-out",
             "verify", "verify-out"],
    )
    def test_a_non_finite_result_names_its_field(
        self, monkeypatch, tmp_path, capsys, field, value, shown, argv, where
    ):
        # require_finite names the field before any byte is written
        solve = equilibrium.solve_long_run_limit
        monkeypatch.setattr(
            equilibrium, "solve_long_run_limit", lambda dm, model: solve(dm, model)._replace(**{field: value})
        )
        out = tmp_path / "out"
        argv = [str(out) if a == "OUT" else a for a in argv]
        assert main([argv[0], "--scenario", BASELINE_PATH, *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {where}{field} must be a finite number, got {shown}\n")
        assert not out.exists()

    def test_out_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert main(["limit", "--scenario", BASELINE_PATH, "--out", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_missing_scenario_exit_code(self, capsys):
        assert main(["limit", "--scenario", "does/not/exist.json"]) == 2

    def test_malformed_scenario_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["limit", "--scenario", str(path)]) == 2


def _parametric_model(**changes) -> GridModel:
    # unbounded curves, so the model's own domain check is the only one
    model = GridModel(
        emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.06)),
        delivered=GridCurve(CurveKind.POLYNOMIAL, (1.0,)),
        energy_value=GridCurve(CurveKind.EXPONENTIAL_DECAY, (120.0, 0.08)),
        cost_renewable=CostSpec(21.0, 5.0),
        cost_system=CostSpec(9.6, 1.0),
        invest_cost=1000.0,
        domain=(0.0, 12.0),
    )
    return model._replace(**changes)


CONSTRUCTORS = {
    "DemandModel.market_size": lambda x: DemandModel(market_size=x, sensitivity=0.0045),
    "DemandModel.sensitivity": lambda x: DemandModel(market_size=10.0, sensitivity=x),
    "CostSpec.alpha": lambda x: CostSpec(x, 1.0),
    "CostSpec.beta": lambda x: CostSpec(1.0, x),
    "GridCurve.coefficients": lambda x: GridCurve(CurveKind.POLYNOMIAL, (1.0, x)),
    "GridCurve.table.q": lambda x: GridCurve(CurveKind.TABULATED, table=((0.0, 1.0), (x, 2.0))),
    "GridCurve.table.value": lambda x: GridCurve(CurveKind.TABULATED, table=((0.0, 1.0), (1.0, x))),
    "GridModel.invest_cost": lambda x: _parametric_model(invest_cost=x),
    "GridModel.domain.lo": lambda x: _parametric_model(domain=(x, 12.0)),
    "GridModel.domain.hi": lambda x: _parametric_model(domain=(0.0, x)),
    "SimulationConfig.q_init": lambda x: SimulationConfig(q_init=x, horizon=10),
    "Scenario.wind_cf": lambda x: BASELINE._replace(wind_cf=x),
    "DerivativeBounds.emissions": lambda x: DerivativeBounds(x, 150.0),
    "DerivativeBounds.cost": lambda x: DerivativeBounds(0.1, x),
}


class TestNonFiniteInput:
    @given(
        field=st.sampled_from(sorted(CONSTRUCTORS)),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=120, deadline=None)
    def test_constructors_reject_nan_and_infinities(self, field, value):
        with pytest.raises((ValueError, ScenarioError)):
            CONSTRUCTORS[field](value)

    @pytest.mark.parametrize(
        "section, key, literal",
        [
            ("demand", "market_size", "NaN"),
            ("grid", "invest_cost", "1e999"),
            ("grid.cost_system", "alpha", "-Infinity"),
        ],
    )
    @pytest.mark.parametrize("command", [["limit"], ["price", "3.0"], ["simulate"]])
    def test_cli_names_the_field_and_exits_2(self, tmp_path, capsys, section, key, literal, command):
        doc = baseline_doc()
        target = doc
        for part in section.split("."):
            target = target[part]
        target[key] = "__VALUE__"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc).replace('"__VALUE__"', literal))
        assert main([command[0], "--scenario", str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert f"{section}.{key}" in captured.err
        assert captured.out == ""


class TestCliFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["price", "3.0", "--samples", "10"],
            ["share", "3.0", "--format", "json"],
            ["limit", "--seed", "1"],
            ["calibrate", "--samples", "10"],
            ["calibrate", "--format", "json"],
            ["simulate", "--seed", "1"],
            ["verify", "--seed", "1"],
        ],
    )
    def test_unused_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--scenario", BASELINE_PATH, *argv[1:]])
        assert exc.value.code == 2

    def test_simulate_rejects_zero_horizon(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", BASELINE_PATH, "--horizon", "0"])
        assert exc.value.code == 2
        assert "argument --horizon: must be at least 1, got 0" in capsys.readouterr().err

    def test_calibrate_seed_is_honoured(self, capsys):
        outputs = {}
        for seed in ("1", "7", "0", None):
            argv = ["calibrate", "--scenario", BASELINE_PATH, "--q-grid", "4"]
            assert main(argv + (["--seed", seed] if seed else [])) == 0
            outputs[seed] = capsys.readouterr().out
        assert outputs["1"] != outputs["7"]
        # --seed defaults to 0
        assert outputs[None] == outputs["0"]

    def test_simulate_solves_the_limit_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        solve = equilibrium.solve_long_run_limit

        def counted(dm, model):
            calls.append(model)
            return solve(dm, model)

        monkeypatch.setattr(equilibrium, "solve_long_run_limit", counted)
        assert main(["simulate", "--scenario", BASELINE_PATH, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        doc = json.loads((tmp_path / "trajectory.json").read_text())
        assert doc["capacity_limit"] == doc["equilibrium"]["capacity_limit"]

    def test_verify_solves_the_limit_and_certifies_once(self, monkeypatch, capsys):
        calls = []
        solve = equilibrium.solve_long_run_limit
        certify = trajectory.certify_monotone_reachability

        def counted_solve(dm, model):
            calls.append("limit")
            return solve(dm, model)

        def counted_certify(*args, **kwargs):
            calls.append("certificate")
            return certify(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "solve_long_run_limit", counted_solve)
        monkeypatch.setattr(trajectory, "certify_monotone_reachability", counted_certify)
        assert main(["verify", "--scenario", BASELINE_PATH]) == 0
        assert sorted(calls) == ["certificate", "limit"]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "key, value",
        [("horizon", 3.7), ("horizon", True), ("horizon", "3"), ("stop_at_limit", "no"), ("stop_at_limit", 1)],
    )
    def test_simulation_fields_keep_their_json_type(self, tmp_path, capsys, key, value):
        doc = baseline_doc()
        doc["simulation"][key] = value
        with pytest.raises(ScenarioError, match=f"simulation.{key}"):
            scenario_from_dict(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"simulation.{key}" in captured.err
        assert captured.out == ""

    def test_simulation_integer_and_booleans_parse(self):
        doc = baseline_doc()
        doc["simulation"].update(horizon=3, stop_at_limit=False)
        cfg = scenario_from_dict(doc).simulation
        assert (cfg.horizon, cfg.stop_at_limit) == (3, False)

    def test_q_init_outside_the_domain_is_refused_at_load(self, tmp_path, capsys):
        # once limit ran it (exit 0), and simulate and verify failed naming Q, not the input
        doc = baseline_doc()
        doc["simulation"]["q_init"] = 50
        message = "simulation.q_init 50.0 outside grid.domain [0.0, 12.0]"
        with pytest.raises(ScenarioError, match=f"^scenario: {re.escape(message)}$"):
            scenario_from_dict(doc)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        for command in ("limit", "simulate", "verify"):
            assert main([command, "--scenario", str(scenario)]) == 2
            assert capsys.readouterr() == ("", f"error: {scenario}: {message}\n")
        # the bound is the model's clamp: DOMAIN_TOL past the end is inside, one float more is not
        edge = 12.0 + scaled(DOMAIN_TOL, 0.0, 12.0)
        doc["simulation"]["q_init"] = edge
        assert scenario_from_dict(doc).simulation.q_init == edge
        doc["simulation"]["q_init"] = past = math.nextafter(edge, math.inf)
        with pytest.raises(ScenarioError, match=re.escape(f"simulation.q_init {past} outside grid.domain")):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("demand", "market_size"), 10**400, "demand.market_size"),
            (("grid", "domain", 1), DROP, "grid.domain must hold 2 numbers"),
            (("wind_cf",), 1e-320, "price_energy_usd_per_mwh"),
            (("grid", "emissions", "coefficients"), [1e308, -700.0], "overflows"),
            (("demand", "sensitivity"), 1e-320, "demand.sensitivity"),
            (("wind_cf",), "0.35", "wind_cf"),
            (("demand", "market_size"), "10", "demand.market_size"),
            (("simulation", "q_init"), True, "simulation.q_init"),
            (("grid", "cost_system", "alpha"), False, "grid.cost_system.alpha"),
            (("derivative_bounds", "max_abs_cost_slope"), "150", "derivative_bounds.max_abs_cost_slope"),
            (("schema_version",), True, "unsupported schema_version True"),
            (("derivative_bounds",), {}, "derivative_bounds.max_abs_emissions_slope must be a number"),
            (("derivative_bounds",), False, "derivative_bounds must be an object"),
            (("grid", "domain"), [0, 12, 99], "grid.domain must hold 2 numbers"),
            (("grid", "delivered", "table", 7), [0.1], "grid.delivered.table[7] must hold 2 numbers"),
            (("grid", "delivered", "table", 7), [0.1, 0.2, 0.3], "grid.delivered.table[7] must hold 2 numbers"),
            (("grid", "delivered", "table"), 5, "grid.delivered.table must be an array"),
            (("grid", "delivered", "table", 7, 0), 100.0, "grid.delivered.table: tabulated curve Q values"),
            (("simulation", "horizon"), 10**400, "simulation.horizon must be a finite number"),
            (("simulation", "q_init"), -1, "simulation.q_init must be nonnegative and finite"),
            (("simulation", "horizon"), 0, "simulation.horizon must be at least 1"),
            (("grid", "cost_system", "alpha"), -1, "grid.cost_system.alpha must be nonnegative and finite"),
            (("grid", "cost_renewable", "beta"), -1, "grid.cost_renewable.beta must be nonnegative and finite"),
            (("derivative_bounds", "max_abs_cost_slope"), -1,
             "derivative_bounds.max_abs_cost_slope must be nonnegative and finite"),
        ],
        ids=[
            "huge-integer",
            "dropped-domain-end",
            "subnormal-wind-cf",
            "exponential-overflow",
            "sensitivity-reciprocal-overflows",
            "string-wind-cf",
            "string-market-size",
            "boolean-q-init",
            "boolean-cost",
            "string-derivative-bound",
            "boolean-schema-version",
            "empty-derivative-bounds",
            "false-derivative-bounds",
            "three-domain-ends",
            "short-table-row",
            "long-table-row",
            "scalar-table",
            "unsorted-table",
            "huge-horizon",
            "negative-q-init",
            "zero-horizon",
            "negative-system-alpha",
            "negative-renewable-beta",
            "negative-derivative-bound",
        ],
    )
    def test_out_of_range_input_exits_2(self, tmp_path, capsys, path, value, message):
        # each once ended in a traceback, in exit 0 (some printing inf) or in a message naming no field
        doc = baseline_doc()
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        if value is DROP:
            del target[key]
        else:
            target[key] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["price", "--scenario", str(scenario), "3.0"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_a_tiny_sensitivity_under_pinned_bounds_names_the_input(self, tmp_path, capsys):
        # M/(exp(1)*eps) overflows in the pinned bound; verify once named its output field, reachability_bound
        doc = baseline_doc()
        doc["demand"]["sensitivity"], doc["simulation"]["q_init"] = 1e-308, 12.0
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        for argv in (["limit"], ["price", "3.0"], ["simulate"]):  # the input itself stays accepted
            assert main([argv[0], "--scenario", str(scenario), *argv[1:]]) == 0
        capsys.readouterr()
        assert main(["verify", "--scenario", str(scenario)]) == 2
        message = "error: demand.sensitivity 1e-308: the derivative_bounds' reachability bound is -inf\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("route", ["array", "float"])
    def test_a_tiny_sensitivity_names_the_input_before_the_certificate_samples(self, tmp_path, capsys, monkeypatch, command, route):
        # from q_init 0.5 the certificate's M/(exp(1)*eps) overflows; its slopes once raised, naming no input
        if route == "float":
            monkeypatch.setattr(grid_model, "numpy_route", lambda: None)
        routes, margins = [], trajectory._sampled_margins
        monkeypatch.setattr(trajectory, "_sampled_margins", lambda dm, model, qs: routes.append(type(qs).__name__) or margins(dm, model, qs))
        doc = baseline_doc()
        doc["demand"]["sensitivity"] = 1e-308
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main([command, "--scenario", str(scenario)]) == 2
        message = "error: demand.sensitivity 1e-308: the certificate's revenue scale M/(exp(1)*eps) overflows\n"
        assert capsys.readouterr() == ("", message)
        assert routes == [{"array": "ndarray", "float": "list"}[route]]

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"cost_system": {"alpha": 9.6, "beta": 1e308}},
             "Q=5.132567136843136: C_S=inf, C_R=239.5001369447166, f*pi=292.7946367558958"),
            # lo + hi overflows on this domain; the threshold is finite, but C_S and C_R are inf there
            ({"domain": [0.0, 1.7e308], "delivered": {"kind": "parametric-polynomial", "coefficients": [3e-308]},
              "emissions": {"kind": "parametric-exponential-decay", "coefficients": [0.4, 0.0]},
              "energy_value": {"kind": "parametric-exponential-decay", "coefficients": [100.0, 0.0]}},
             "Q=1.2262648039062695e+308: C_S=inf, C_R=inf, f*pi=367.8794411718809"),
        ],
        ids=["overflowing-beta", "wide-domain"],
    )
    def test_an_overflowing_cost_at_the_limit_names_the_costs(self, tmp_path, capsys, grid, message):
        # an inf cost scales the balance tolerance to inf, so the limit once "solved" and named its residual
        doc = baseline_doc()
        doc["grid"].update(grid)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["limit", "--scenario", str(scenario)]) == 2
        assert capsys.readouterr() == ("", f"error: long-run limit: revenue - cost not finite at {message}\n")

    @pytest.mark.parametrize(
        "path, field",
        [
            (("grid", "delivered", "table", 7, 1), "grid.delivered.table[7][1]"),
            (("grid", "emissions", "coefficients", 1), "grid.emissions.coefficients[1]"),
        ],
        ids=["table-entry", "coefficient"],
    )
    @pytest.mark.parametrize(
        "literal", ["NaN", "1e999", "1" + "0" * 400, '"0.3"', "true"],
        ids=["nan", "1e999", "400-digit-integer", "string", "boolean"],
    )
    def test_array_entry_names_its_path(self, tmp_path, capsys, path, field, literal):
        # a table is read as one array; a bad entry must still be named, not lost or a traceback
        doc = baseline_doc()
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = "__VALUE__"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc).replace('"__VALUE__"', literal))
        assert main(["price", "--scenario", str(scenario), "3.0"]) == 2
        captured = capsys.readouterr()
        assert f"{field} must be" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "curve, change, message",
        [
            ("emissions", {"kind": "x"}, "grid.emissions.kind must be one of"),
            ("delivered", {"kind": None}, "grid.delivered.kind must be one of"),
            ("emissions", {"coefficients": [0.5, 0.1, 0.2]}, "grid.emissions.coefficients: exponential-decay"),
            ("emissions", {"kind": "parametric-polynomial", "coefficients": []}, "grid.emissions.coefficients: polynomial"),
            (None, {"domain": [0, 1000]}, "grid.delivered curve covers [0.0, 12.0], not the model domain [0.0, 1000.0]"),
            (None, {"domain": [12, 0]}, "grid.domain must satisfy Q_min < Q_max"),
            (None, {"domain": [-3, 12]}, "grid.domain must satisfy Q_min >= 0, got -3.0"),
            (None, {"invest_cost": 0}, "grid.invest_cost must be positive"),
        ],
        ids=["unknown-kind", "missing-kind", "three-exponential-coefficients", "no-polynomial-coefficients",
             "domain-past-table", "reversed-domain", "negative-domain", "zero-invest-cost"],
    )
    def test_constructor_error_names_its_path(self, tmp_path, capsys, curve, change, message):
        # a curve's kind and count checks and the model's own checks run in constructors
        doc = baseline_doc()
        (doc["grid"] if curve is None else doc["grid"][curve]).update(change)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["limit", "--scenario", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert f"{scenario}: {message}" in captured.err
        assert captured.out == ""

    def test_error_in_grid_file_names_that_file(self, tmp_path, capsys):
        doc = baseline_doc()
        doc["grid"]["delivered"]["table"][7][1] = "__VALUE__"
        (tmp_path / "grid.json").write_text(json.dumps(doc["grid"]).replace('"__VALUE__"', "NaN"))
        doc["grid"] = "grid.json"
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        assert main(["limit", "--scenario", str(tmp_path / "scenario.json")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'grid.json'}: grid.delivered.table[7][1] must be a finite number" in err

    @pytest.mark.parametrize("key, value", [("wind_cf", 1.7)])
    def test_scenario_field_error_names_the_file(self, tmp_path, key, value):
        doc = baseline_doc()
        doc[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}: {key} must"):
            load_scenario(path)

    def test_null_bounds_and_unread_keys_load(self):
        doc = baseline_doc()
        doc["derivative_bounds"] = None
        # calibrate writes this block; no reader reads it, so it reaches no solver
        doc["grid"]["calibration"] = {"samples": [[math.nan]]}
        scenario = scenario_from_dict(doc)
        assert scenario.derivative_bounds is None
        assert scenario.grid == BASELINE.grid

    def test_unread_period_label_loads(self):
        # no output used the label, so no reader reads it: it is one more ignored key
        doc = baseline_doc()
        doc["simulation"]["period_label"] = 7
        assert scenario_from_dict(doc) == BASELINE

    def test_retired_output_and_seed_keys_are_ignored(self, tmp_path, capsys):
        # older files carry them: --format and --seed, with their defaults, took their place
        doc = baseline_doc()
        doc.update(output="json", seed=7)
        assert scenario_from_dict(doc) == BASELINE
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out.startswith(",".join(trajectory.TRAJECTORY_CSV_COLUMNS) + "\n")
        for argv, flags in ((["verify"], []), (["calibrate", "--q-grid", "4"], ["--seed", "0"])):
            assert main([*argv, "--scenario", str(path)]) == 0
            retired = capsys.readouterr().out
            assert main([*argv, "--scenario", BASELINE_PATH, *flags]) == 0
            assert retired == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["calibrate", "--q-grid", "3"], ["calibrate"]])
    def test_negative_seed_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--scenario", BASELINE_PATH, *argv[1:], "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["calibrate", "--q-grid", "-3"], ["calibrate", "--q-grid", "1"],
                                      ["verify", "--q-grid", "1"], ["verify", "--q-grid", "0"]])
    def test_q_grid_below_two_exits_2_naming_the_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--scenario", BASELINE_PATH, *argv[1:]])
        assert exc.value.code == 2
        assert f"argument --q-grid: must be at least 2, got {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--samples", "1"], "argument --samples: must be at least 2, got 1"),
            (["simulate", "--samples", "1"], "argument --samples: must be at least 2, got 1"),
            (["simulate", "--samples", "0"], "argument --samples: must be at least 2, got 0"),
            (["verify", "--horizon", "0"], "argument --horizon: must be at least 1, got 0"),
            (["verify", "--samples", "1.5"], "argument --samples: invalid integer value: '1.5'"),
            # MAX_POINTS: more points than a run can hold are refused before any is built
            (["simulate", "--samples", "100000000"], "argument --samples: must be at most 1000000, got 100000000"),
            (["verify", "--samples", "1000001"], "argument --samples: must be at most 1000000, got 1000001"),
            (["calibrate", "--q-grid", "100000000"], "argument --q-grid: must be at most 1000000, got 100000000"),
        ],
    )
    def test_a_flag_below_its_floor_exits_2_naming_both(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--scenario", BASELINE_PATH, *argv[1:]])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_the_floors_are_in_the_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "(at least 2)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "q_grid, horizon",
        [("4", "9"), ("4", "1" + "0" * 300), ("20001", "1"), ("10", "400"), ("2", "1024")],
        ids=["4^9", "4^1e300", "20001^1", "10^400", "2^1024"],
    )
    def test_more_policies_than_the_cap_exit_2_before_any_work(self, capsys, monkeypatch, q_grid, horizon):
        # refused before the scenario's checks run, and without g**h at a horizon of 301 digits
        monkeypatch.setattr(grid_model, "validate_grid_conditions", None)
        argv = ["verify", "--scenario", BASELINE_PATH, "--q-grid", q_grid, "--horizon", horizon]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --q-grid {q_grid} ** --horizon {horizon} policies: more than 20000\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--samples"), ("simulate", "--horizon"),
        ("verify", "--samples"), ("verify", "--horizon"), ("verify", "--q-grid"),
        ("calibrate", "--seed"), ("calibrate", "--q-grid"),
    ])
    def test_an_integer_flag_past_the_float_range_exits_2_naming_it(self, capsys, command, flag):
        # json_integer's range: past it, --samples and --q-grid overflow a float grid
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", BASELINE_PATH, flag, "1" + "0" * 400])
        assert exc.value.code == 2
        assert f"argument {flag}: must lie in the float range, got 401 digits" in capsys.readouterr().err

    def test_the_float_maximum_is_the_last_integer_a_flag_takes(self):
        largest = int(sys.float_info.max)
        assert cli._at_least(0)(str(largest)) == largest
        with pytest.raises(argparse.ArgumentTypeError, match="float range"):
            cli._at_least(0)(str(largest + 1))
        # a capped count keeps the float range's message past that range
        assert cli._at_least(2, cli.MAX_POINTS)(str(cli.MAX_POINTS)) == cli.MAX_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match="must be at most 1000000"):
            cli._at_least(2, cli.MAX_POINTS)(str(cli.MAX_POINTS + 1))
        with pytest.raises(argparse.ArgumentTypeError, match="float range"):
            cli._at_least(2, cli.MAX_POINTS)(str(largest + 1))


def calibrate_edited_csvs(tmp_path, filename: str, edit) -> tuple[int, Path]:
    """``calibrate``'s exit code on the built-in fleet and 48 hours of profiles
    as CSVs, with ``edit`` applied to the rows of ``filename``, and that path."""
    fleet, profiles = tmp_path / "fleet.csv", tmp_path / "profiles.csv"
    write_fleet_csv(default_fleet(), fleet)
    write_profiles_csv(default_profiles(hours=48), profiles)
    path = tmp_path / filename
    rows = [text.split(",") for text in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    argv = ["calibrate", "--scenario", BASELINE_PATH, "--fleet", str(fleet), "--profiles", str(profiles)]
    return main(argv + ["--q-grid", "4"]), path


class TestCalibrationCsvInput:
    @pytest.mark.parametrize(
        "filename, line, column, value",
        [
            ("profiles.csv", 4, "wind_cf", None),
            ("fleet.csv", 3, "er_ton_per_mwh", None),
            ("profiles.csv", 4, "load_gw", "inf"),
            ("profiles.csv", 4, "load_gw", "nan"),
            ("profiles.csv", 4, "wind_cf", "nan"),
            ("fleet.csv", 3, "mc_usd_per_mwh", "nan"),
            ("profiles.csv", 6, "hour", "3"),
            ("profiles.csv", None, "wind_cf", "0.0"),
        ],
        ids=["short-profile-row", "short-fleet-row", "inf-load", "nan-load", "nan-wind-cf",
             "nan-marginal-cost", "duplicate-hour", "zero-wind"],
    )
    def test_calibrate_names_the_file_and_column(self, tmp_path, capsys, filename, line, column, value):
        # each once ended in a traceback, in exit 3, in exit 0 or in a message naming an output curve
        def edit(rows):
            at = rows[0].index(column)
            for number, row in enumerate(rows[1:], start=2):
                if line in (None, number):
                    if value is None:
                        del row[at:]
                    else:
                        row[at] = value

        code, path = calibrate_edited_csvs(tmp_path, filename, edit)
        assert code == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err
        assert f"column {column}" in captured.err
        if line is not None:
            assert f"line {line}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "filename, column, value, message",
        [
            ("fleet.csv", "capacity_gw", "-1", "unit capacity must be positive and finite"),
            ("fleet.csv", "mc_usd_per_mwh", "-5", "marginal cost and emission rate must be nonnegative and finite"),
            ("profiles.csv", "wind_cf", "1.5", "wind capacity factors must lie in [0, 1]"),
            ("profiles.csv", "load_gw", "0", "load must be finite and strictly positive"),
            ("profiles.csv", None, None, "profiles must not be empty"),
        ],
        ids=["negative-capacity", "negative-cost", "wind-cf-above-1", "zero-load", "header-only"],
    )
    def test_calibrate_names_the_file_of_a_value_out_of_range(self, tmp_path, capsys, filename, column, value, message):
        # a value that reads as a number but that the fleet or profiles reject, or no rows at all
        def edit(rows):
            if column is None:
                del rows[1:]
            else:
                rows[1][rows[0].index(column)] = value

        code, path = calibrate_edited_csvs(tmp_path, filename, edit)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("line", [1, 2], ids=["header", "body"])
    def test_field_past_the_csv_size_limit_exits_2(self, tmp_path, capsys, line):
        # a field over the csv module's 131,072 characters, in the header, or in a
        # body row that numpy's reader rejects for its 1_0, so the row walk reads it
        rows = ["capacity_gw,mc_usd_per_mwh,er_ton_per_mwh", "13.5,1_0,0.5"]
        rows[line - 1] = " " * 200_000 + rows[line - 1]
        fleet = tmp_path / "fleet.csv"
        fleet.write_text("\n".join(rows) + "\n")
        assert main(["calibrate", "--scenario", BASELINE_PATH, "--fleet", str(fleet), "--q-grid", "4"]) == 2
        captured = capsys.readouterr()
        assert f"{fleet}: line {line}: field larger than field limit" in captured.err
        assert captured.out == ""


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter: this one has loaded scipy already
    script = f"""
import contextlib, io, sys
from vrpplan import cli
S = {BASELINE_PATH!r}
for argv in (["price", "3.0"], ["share", "3.0"], ["limit"], ["simulate", "--out", {str(tmp_path)!r}],
             ["verify"], ["calibrate"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([argv[0], "--scenario", S, *argv[1:]]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vrpplan.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def tabulated_baseline(path: Path) -> Path:
    """The shipped baseline with its emissions and energy-value decays read from 481-knot tables."""
    grid = BASELINE.grid
    qs = [q for q, _ in grid.delivered.table]

    def table(curve: GridCurve) -> GridCurve:
        return GridCurve(CurveKind.TABULATED, table=tuple((q, eval_curve(curve, q)) for q in qs))

    doc = baseline_doc()
    doc["grid"] = grid._replace(emissions=table(grid.emissions), energy_value=table(grid.energy_value)).to_dict()
    path.write_text(json.dumps(doc))
    return path


def near_limit_scenario(path: Path, ulps: int) -> Path:
    """The shipped baseline started ``ulps`` floats below its long-run limit."""
    q_init = equilibrium.solve_long_run_limit(BASELINE.demand, BASELINE.grid).capacity_limit
    for _ in range(ulps):
        q_init = math.nextafter(q_init, 0.0)
    doc = baseline_doc()
    doc["simulation"]["q_init"] = q_init
    path.write_text(json.dumps(doc))
    return path


def test_quick_commands_never_load_numpy(tmp_path):
    # a fresh interpreter: this one has loaded numpy already
    tabulated = tabulated_baseline(tmp_path / "tabulated.json")
    near_limit = [str(near_limit_scenario(tmp_path / f"near-{n}.json", n)) for n in (1, 5)]
    overflowing = tmp_path / "overflowing.json"  # C_S and C_S' overflow: the checks raise
    doc = baseline_doc()
    doc["grid"]["cost_system"]["beta"] = 1e308
    overflowing.write_text(json.dumps(doc))
    script = f"""
import contextlib, io, sys
from pathlib import Path
from vrpplan import cli
from vrpplan.scenario import load_scenario

def run(path, *argv, status=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([argv[0], "--scenario", path, *argv[1:]]) == status, (path, argv)
    return out.getvalue()

def verifications():  # full enumeration at g = 4 and 7, the certificate at 200 and 1,000 samples
    documents = []
    for i, path in enumerate(paths):
        for j, argv in enumerate(([], ["--horizon", "6", "--q-grid", "4", "--samples", "1000"],
                                  ["--horizon", "2", "--q-grid", "7"])):
            out = Path({str(tmp_path)!r}, f"verify-{{i}}-{{j}}")
            run(path, "verify", *argv, "--out", str(out))
            documents.append((out / "verification.json").read_text())
    return documents

paths = ({BASELINE_PATH!r}, {str(tabulated)!r})
for path in paths:
    for argv in (["price", "3.0"], ["share", "6.5"], ["limit"]):
        run(path, *argv)
assert "csv" not in sys.modules
# the certificate's float loop, in all three output forms; a few ulps below Q*, its trivial form
documents = [run(path, "simulate", "--format", "json") for path in (*paths, *{near_limit!r})]
for i, path in enumerate(paths):
    run(path, "simulate")
    run(path, "simulate", "--out", {str(tmp_path)!r} + f"/simulate-{{i}}")
# the float loops of the grid conditions, the enumeration and the KKT summary
verified = verifications() + [run(path, "verify") for path in {near_limit!r}]
for argv in (["simulate"], ["verify"]):
    run({str(overflowing)!r}, *argv, status=2)
curve = load_scenario({BASELINE_PATH!r}).grid.delivered  # a table, queried at a float
for q in (0.0, 3.3, 12.0):
    curve.slope(q, None)  # a table reads no value
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
assert "logging" not in sys.modules
run({BASELINE_PATH!r}, "calibrate")
assert "numpy" in sys.modules
# with numpy loaded every check takes its array route, to the same documents
assert [run(path, "simulate", "--format", "json") for path in (*paths, *{near_limit!r})] == documents
assert verifications() + [run(path, "verify") for path in {near_limit!r}] == verified
for argv in (["simulate"], ["verify"]):
    run({str(overflowing)!r}, *argv, status=2)
"""
    # no value of the retired VRP_LOG_LEVEL loads logging
    env = dict(os.environ, PYTHONPATH=str(Path(vrpplan.__file__).parents[1]), VRP_LOG_LEVEL="DEBUG")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_the_array_certificate_loads_no_numpy_submodule(tmp_path):
    # a fresh interpreter: numpy 2.4 loads numpy.ma on the first plain np.unique, which
    # would grow every in-process run's peak memory by about a megabyte
    tabulated = tabulated_baseline(tmp_path / "tabulated.json")  # e and pi share f's knots
    script = f"""
import sys
import numpy
from vrpplan.scenario import load_scenario
from vrpplan.trajectory import certify_monotone_reachability
loaded = set(sys.modules)
for path in ({BASELINE_PATH!r}, {str(tabulated)!r}):
    s = load_scenario(path)
    cert = certify_monotone_reachability(s.demand, s.grid, q_init=s.simulation.q_init)
    assert cert.holds and cert.n_knots > 0, cert
assert "numpy.ma" not in sys.modules
print(sorted(m for m in set(sys.modules) - loaded if m.startswith("numpy")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vrpplan.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_verify_leaves_numpy_unloaded_at_the_cap():
    # a fresh interpreter: the float walk enumerates the cap's largest sizes, and a count
    # past the cap is refused
    script = f"""
import contextlib, io, json, sys
from vrpplan import cli

for argv, policies in ((["--horizon", "7"], 4**7), (["--q-grid", "20000", "--horizon", "1"], 20000)):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--scenario", {BASELINE_PATH!r}, *argv]) == 0
    assert json.loads(out.getvalue())["dominance"]["n_policies_evaluated"] == policies
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["verify", "--scenario", {BASELINE_PATH!r}, "--horizon", "9"]) == 2
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vrpplan.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_a_warm_command_leaves_no_parser_in_reference_cycles(capsys):
    # the parser is built once per process, so a second command frees no argparse object late
    argv = ["limit", "--scenario", BASELINE_PATH]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it finds in gc.garbage
    try:
        assert main(argv) == 0
        gc.collect()
        parsers = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert parsers == []


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])  # a print writes at once, or at exit
@pytest.mark.parametrize("argv", [["limit"], ["price", "3.0"], ["simulate"], ["verify"]], ids=lambda argv: argv[0])
def test_a_closed_stdout_pipe_exits_141_in_silence(argv, unbuffered):
    # the reader is gone before the command writes, as in `vrpplan limit ... | true`:
    # the code a shell reports for a tool that SIGPIPE ended, not malformed input
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(vrpplan.__file__).parents[1]), PYTHONUNBUFFERED=unbuffered)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "vrpplan.cli", *argv, "--scenario", BASELINE_PATH],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")


def test_log_lines_with_and_without_the_level(tmp_path):
    # the retired VRP_LOG_LEVEL changes no line, and no value of it fails
    doc = baseline_doc()
    doc["simulation"].update(q_init=7.5, stop_at_limit=False)  # past the limit: truncated at once
    path = tmp_path / "past_limit.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(vrpplan.__file__).parents[1]))
    env.pop("VRP_LOG_LEVEL", None)
    for level in (None, "WARNING", "INFO", "ERROR", "NOISY"):
        run_env = env if level is None else dict(env, VRP_LOG_LEVEL=level)
        result = subprocess.run(
            [sys.executable, "-m", "vrpplan.cli", "simulate", "--scenario", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=run_env, timeout=120,
        )
        assert (result.returncode, result.stderr) == (3, "warning: trajectory truncated: infeasible period\n"), level
    result = subprocess.run(
        [sys.executable, "-m", "vrpplan.cli", "limit", "--scenario", BASELINE_PATH],
        capture_output=True, text=True, env=dict(env, VRP_LOG_LEVEL="NOISY"), timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")


def test_calibrate_warns_of_an_isotonic_correction(tmp_path, capsys):
    # full wind at the light hour and little at the peak: the energy value rises with
    # capacity at some sampled Q, so calibrate flattens it and says so
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("hour,load_gw,wind_cf\n0,2.0,1.0\n1,10.0,0.1\n")
    assert main(["calibrate", "--scenario", BASELINE_PATH, "--profiles", str(profiles)]) == 0
    assert capsys.readouterr().err == "warning: isotonic correction applied: emissions=False energy_value=True\n"
