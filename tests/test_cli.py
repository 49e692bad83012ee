import hashlib
import json
import subprocess
import sys

import pytest

from ezmerton.cli import (
    canonical_dict,
    catalog,
    main,
    parse_scenario,
    run_scenario,
    scenario_digest,
)
from ezmerton.errors import ValidationError


def base_scenario(**overrides):
    raw = {
        "schema_version": 1,
        "id": "p1m1",
        "preferences": {"b": 1.0, "delta": 0.03, "R": 2.0, "S": 2.5},
        "market": {"r": 0.02, "mu": 0.07, "sigma": 0.2},
        "experiment": {"name": "candidate_policy", "params": {}},
        "seed": 42,
    }
    raw.update(overrides)
    return raw


#: eta <= 0 preferences for wellposed_divergence: R > 1, and R < 1 with theta in (0, 1)
ILL_POSED = {"b": 1.0, "delta": -0.1, "R": 2.0, "S": 2.5}
ILL_POSED_R_BELOW_1 = {"b": 1.0, "delta": 0.05, "R": 0.5, "S": 0.25}

#: Small inputs for the rerun test, as scenario overrides plus params; an
#: entry not listed runs at its defaults.
RERUN_INPUTS = {
    "crra_counterexample": {"params": {"T_grid": list(range(1, 9))}},
    "ezsdu_counterexample": {"params": {"T_grid": list(range(1, 9))}},
    "mc_drift_check": {"params": {"n_paths": 1000}},
    "picard_solve": {"lattice": {"dt": 0.02, "n_steps": 60}},
    "transversality_sweep": {"params": {"nu": 0.05,
                                        "xi_grid": {"start": 0.01, "stop": 0.15,
                                                    "step": 0.01}}},
    "verification_check": {"lattice": {"dt": 0.02, "n_steps": 60},
                           "params": {"epsilon": 0.1, "n_strategies": 2,
                                      "n_samples": 500}},
    "wellposed_divergence": {"preferences": ILL_POSED},
}

#: Inputs the rerun test covers beyond one per catalog entry: test id ->
#: (entry, inputs as in RERUN_INPUTS).
RERUN_VARIANTS = {
    # rho = -1.5 with a zero tail: the bracket over the exact last layer
    "picard_solve-zero-tail-rho-1.5": (
        "picard_solve",
        {"preferences": {"b": 1.0, "delta": 0.03, "R": 2.0, "S": 3.5},
         "lattice": {"dt": 0.01, "n_steps": 100, "tail": "zero"}}),
}


#: A grid whose point count overflows, and one whose count is negative.
OVERFLOWING_GRID = {"name": "transversality_sweep",
                    "params": {"xi_grid": {"start": -10**308, "stop": 10**308,
                                           "step": 1e-300}}}
NEGATIVE_GRID = {"name": "policy_grid_search",
                 "params": {"pi_grid": {"start": 0, "stop": 1, "step": -1e-300}}}
#: An epsilon at which the verification identities overflow.
HUGE_EPSILON = {"name": "verification_check",
                "params": {"epsilon": 1e200, "n_strategies": 1, "n_samples": 10}}

#: Malformed scenarios as overrides of `base_scenario`, with the field their
#: exit-2 error names.
EXIT_2_CASES = [
    ({"lattice": [1, 2]}, "lattice"),
    ({"experiment": {"name": "mc_drift_check", "params": {"pi": "abc"}}},
     "experiment.params.pi"),
    ({"experiment": {"name": "crra_counterexample",
                     "params": {"T_grid": "abc"}}},
     "experiment.params.T_grid"),
    ({"preferences": {"b": 1.0, "delta": float("nan"), "R": 2.0, "S": 2.5}},
     "preferences.delta"),
    ({"preferences": {"b": 1.0, "delta": 0.03, "R": float("inf"), "S": 2.5}},
     "preferences.R"),
    # Sizes over ELEMENT_BUDGET.  Each carries a second fault that ends the
    # run at once if its own charge is missing: a field checked after the
    # charge (seed, or delta after a counterexample's horizons), or, where
    # the charge is the last check, a value the library refuses before any
    # large array (xi <= 0, an epsilon at which the identities overflow).
    # The step grid is built right after its count is checked, and numpy
    # refuses its 10**20 points before allocating: more than it can index.
    # So no case allocates or runs long even if its check is missing.
    ({"lattice": {"n_steps": 10**7}, "seed": -1}, "lattice.n_steps"),
    ({"experiment": {"name": "transversality_sweep",
                     "params": {"xi_grid": {"start": 0, "stop": 1,
                                            "step": 1e-20}}}},
     "experiment.params.xi_grid"),
    ({"experiment": {"name": "mc_drift_check", "params": {"n_paths": 10**10}},
      "seed": -1},
     "experiment.params.n_paths"),
    ({"preferences": {"b": 1.0, "delta": 0.0, "R": 2.0, "S": 2.5},
      "experiment": {"name": "crra_counterexample",
                     "params": {"T_grid": [1, 2, 3, 4, 5, 6, 7, 10**9]}}},
     "experiment.params.T_grid"),
    ({"experiment": {"name": "policy_grid_search",
                     "params": {"pi_grid": {"start": 0, "stop": 1, "step": 1e-4},
                                "xi_grid": {"start": -1, "stop": 1,
                                            "step": 2e-4}}}},
     "experiment.params.xi_grid"),
    ({"experiment": {"name": "verification_check", "params": {"n_samples": 10**8}},
      "seed": -1},
     "experiment.params.n_samples"),
    ({"experiment": {"name": "verification_check",
                     "params": {"n_strategies": 10**7, "epsilon": 1e200}}},
     "experiment.params.n_strategies"),
    # params the entry does not declare, or out of range
    ({"experiment": {"name": "picard_solve", "params": {"bogus": 1}}},
     "experiment.params.bogus"),
    ({"preferences": ILL_POSED,
      "experiment": {"name": "wellposed_divergence", "params": {"n_levels": 0}}},
     "experiment.params.n_levels"),
    ({"preferences": ILL_POSED,
      "experiment": {"name": "wellposed_divergence", "params": {"n_levels": -3}}},
     "experiment.params.n_levels"),
    ({"preferences": ILL_POSED,
      "experiment": {"name": "wellposed_divergence",
                     "params": {"n_levels": 1100}}},
     "experiment.params.n_levels"),
    ({"preferences": ILL_POSED_R_BELOW_1,
      "experiment": {"name": "wellposed_divergence",
                     "params": {"probe_offsets": []}}},
     "experiment.params.probe_offsets"),
    ({"experiment": {"name": "verification_check", "params": {"n_samples": 0}}},
     "experiment.params.n_samples"),
    ({"experiment": {"name": "verification_check", "params": {"n_samples": -5}}},
     "experiment.params.n_samples"),
    ({"experiment": {"name": "verification_check",
                     "params": {"n_strategies": -1}}},
     "experiment.params.n_strategies"),
    ({"experiment": {"name": "mc_drift_check", "params": {"horizon": 0}}},
     "experiment.params.horizon"),
    ({"experiment": {"name": "mc_drift_check", "params": {"horizon": -1}}},
     "experiment.params.horizon"),
    ({"experiment": {"name": "aversion_demos", "params": {"y_values": [0.5, 1, 1.5]}}},
     "experiment.params.y_values"),
    ({"experiment": OVERFLOWING_GRID}, "experiment.params.xi_grid"),
    ({"experiment": NEGATIVE_GRID}, "experiment.params.pi_grid"),
    # value rules the library enforces too, which once exited 3 in run only
    ({"experiment": {"name": "mc_drift_check", "params": {"n_paths": 999}}},
     "experiment.params.n_paths"),
    ({"experiment": {"name": "verification_check", "params": {"epsilon": -1.0}}},
     "experiment.params.epsilon"),
    ({"preferences": {"b": 1.0, "delta": 0.0, "R": 2.0, "S": 2.5},
      "experiment": {"name": "crra_counterexample", "params": {}}},
     "preferences.delta"),
    ({"preferences": ILL_POSED,
      "experiment": {"name": "ezsdu_counterexample", "params": {}}},
     "preferences.delta"),
]
EXIT_2_IDS = ["lattice-list", "param-pi-string", "param-T_grid-string",
              "delta-nan", "R-infinity", "budget-n_steps", "budget-xi_grid-step",
              "budget-n_paths", "budget-T_grid", "budget-grid-cells",
              "budget-n_samples", "budget-n_strategies", "undeclared-param",
              "n_levels-0", "n_levels-negative", "n_levels-1100",
              "probe_offsets-empty", "n_samples-0", "n_samples-negative",
              "n_strategies-negative", "horizon-0", "horizon-negative",
              "y_values-three", "grid-count-overflow", "grid-count-negative",
              "n_paths-999", "epsilon-negative", "crra-delta-0", "ezsdu-delta-negative"]

#: Counterexample horizons that fail one of the slope fit's rules.
DEGENERATE_T_GRIDS = {"largest-below-4": [1, 2, 3, 1, 2, 3, 1, 2], "one-horizon": [4] * 8,
                      "fewer-than-8": [2, 4, 6], "non-integer": [2, 4, 6.5, 8, 10, 12, 14, 16]}
COUNTEREXAMPLES = ["crra_counterexample", "ezsdu_counterexample"]


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestParsing:
    def test_happy_path(self):
        scn = parse_scenario(base_scenario())
        assert scn.id == "p1m1"
        assert scn.preferences.R == 2.0
        assert scn.lattice_cfg == {"dt": 0.01, "n_steps": 500, "tail": "proportional"}
        assert scn.solver_cfg == {"epsilon": 0.0, "tol": 1e-8, "max_iter": 200}

    def test_unit_elasticity_rejected_with_field(self):
        raw = base_scenario()
        raw["preferences"]["S"] = 1.0
        with pytest.raises(ValidationError) as err:
            parse_scenario(raw)
        assert err.value.field == "preferences.S"

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda r: r["market"].update(sigma=-0.1), "market.sigma"),
            (lambda r: r["preferences"].pop("b"), "preferences.b"),
            (lambda r: r.update(lattice={"dt": 0.0}), "lattice.dt"),
            (lambda r: r.update(seed="abc"), "seed"),
            (lambda r: r.update(experiment={"name": "nope"}), "experiment.name"),
            (lambda r: r.update(id=""), "id"),
            (lambda r: r.update(schema_version=99), "schema_version"),
            (lambda r: r.update(lattice={"tail": "exact"}), "lattice.tail"),
            (lambda r: r.update(experiment={"name": "transversality_sweep", "params": {
                "xi_grid": {"start": 0.01, "stop": 0.1, "step": 0.01, "num": 9}}}),
             "experiment.params.xi_grid.num"),
            (lambda r: r.update(experiment={"name": "transversality_sweep", "params": {
                "xi_grid": {"start": 0.01, "stop": 0.1}}}),
             "experiment.params.xi_grid.step"),
            (lambda r: r.update(experiment={"name": "picard_solve", "params": {"xi": 0}},
                                lattice={"n_steps": None}), "lattice.n_steps"),
        ],
    )
    def test_validation_errors_name_the_field(self, mutate, field):
        raw = base_scenario()
        mutate(raw)
        with pytest.raises(ValidationError) as err:
            parse_scenario(raw)
        assert err.value.field == field

    def test_null_takes_the_model_value_where_that_is_the_default(self):
        # pi, xi and nu default to the model's pi_hat, eta and discount rate
        params = {"pi": None, "xi": None, "nu": None}
        raw = base_scenario(experiment={"name": "mc_drift_check", "params": params})
        scn = parse_scenario(raw)
        assert scn.params == params
        assert scn.resolved == {**params, "n_paths": 100_000, "horizon": 5.0}

    def test_canonical_round_trip_idempotent(self):
        scn = parse_scenario(base_scenario())
        canon = canonical_dict(scn)
        again = canonical_dict(parse_scenario(canon))
        assert canon == again
        assert scenario_digest(scn) == scenario_digest(parse_scenario(canon))


class TestRun:
    def test_candidate_policy_outputs(self, tmp_path):
        scn = parse_scenario(base_scenario())
        manifest = run_scenario(scn, tmp_path, quiet=True)
        summary = json.loads((tmp_path / "candidate_policy_p1m1.json").read_text())
        assert summary["summary"]["pi_hat"] == pytest.approx(0.625)
        assert summary["summary"]["eta"] == pytest.approx(0.033375)
        assert manifest.outputs == ["candidate_policy_p1m1.csv",
                                    "candidate_policy_p1m1.json"]
        assert manifest.input_hash == scenario_digest(scn)
        csv_text = (tmp_path / "candidate_policy_p1m1.csv").read_text()
        assert csv_text.splitlines()[0].startswith("pi_hat,eta,")

    @pytest.mark.parametrize(
        "name, inputs",
        [(e.name, RERUN_INPUTS.get(e.name, {})) for e in catalog()]
        + list(RERUN_VARIANTS.values()),
        ids=[e.name for e in catalog()] + list(RERUN_VARIANTS))
    def test_rerun_is_byte_identical(self, tmp_path, capsys, name, inputs):
        overrides = dict(inputs)
        params = overrides.pop("params", {})
        path = write_scenario(tmp_path, base_scenario(
            id="rerun", experiment={"name": name, "params": params}, **overrides))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out_dir in (d1, d2):
            assert main(["run", "--scenario", str(path), "--out-dir", str(out_dir),
                         "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        for suffix in (".csv", ".json"):
            artifact = f"{name}_rerun{suffix}"
            assert (d1 / artifact).read_bytes() == (d2 / artifact).read_bytes()

    def test_verification_rerun_same_seed_identical(self, tmp_path):
        raw = base_scenario(
            id="verif",
            lattice={"dt": 0.02, "n_steps": 60},
            experiment={"name": "verification_check",
                        "params": {"epsilon": 0.1, "n_strategies": 2,
                                   "n_samples": 500}},
        )
        scn = parse_scenario(raw)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_scenario(scn, d1, quiet=True)
        run_scenario(scn, d2, quiet=True)
        assert ((d1 / "verification_check_verif.csv").read_bytes()
                == (d2 / "verification_check_verif.csv").read_bytes())

    def test_picard_driver(self, tmp_path):
        raw = base_scenario(
            id="solve",
            lattice={"dt": 0.02, "n_steps": 100, "tail": "proportional"},
            experiment={"name": "picard_solve", "params": {}},
        )
        scn = parse_scenario(raw)
        run_scenario(scn, tmp_path, quiet=True)
        payload = json.loads((tmp_path / "picard_solve_solve.json").read_text())
        v0 = payload["summary"]["utility_at_zero"]
        closed = payload["summary"]["closed_form_value"]
        assert v0 == pytest.approx(closed, rel=1e-2)
        # the per-layer ratios are in the CSV, not repeated in the summary
        assert sorted(payload["summary"]) == [
            "chi", "clamp_events", "closed_form_value", "converged", "iterations",
            "residual", "utility_at_zero", "w0"]

    def test_zero_tail_summary_is_standard_json(self, tmp_path):
        # The residual once read Infinity for every zero-tail solve, which
        # json.dumps writes as a non-standard token.
        raw = base_scenario(
            id="zero",
            lattice={"dt": 0.02, "n_steps": 100, "tail": "zero"},
            experiment={"name": "picard_solve", "params": {}},
        )
        run_scenario(parse_scenario(raw), tmp_path, quiet=True)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = (tmp_path / "picard_solve_zero.json").read_text()
        summary = json.loads(text, parse_constant=reject)["summary"]
        assert summary["residual"] <= 1e-8


class TestMainEntry:
    def test_run_exit_codes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_scenario())
        code = main(["run", "--scenario", str(path), "--out-dir",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 0

    def test_validation_exit_code(self, tmp_path, capsys):
        raw = base_scenario()
        raw["preferences"]["S"] = 1.0
        path = write_scenario(tmp_path, raw)
        code = main(["validate", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        err = json.loads(captured.err)
        assert err["error"]["field"] == "preferences.S"

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # wellposed_divergence on a well-posed scenario raises WellPosed -> 3
        raw = base_scenario(experiment={"name": "wellposed_divergence",
                                        "params": {}})
        path = write_scenario(tmp_path, raw)
        code = main(["run", "--scenario", str(path), "--out-dir",
                     str(tmp_path / "out"), "--quiet"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.err)["error"]["code"] == "numeric"

    @pytest.mark.parametrize("overrides, field", EXIT_2_CASES, ids=EXIT_2_IDS)
    def test_malformed_input_exits_2_naming_the_field(self, tmp_path, capsys,
                                                      overrides, field):
        # json.dumps writes NaN/Infinity tokens, which json.load accepts
        path = write_scenario(tmp_path, base_scenario(**overrides))
        code = main(["run", "--scenario", str(path), "--out-dir",
                     str(tmp_path / "out"), "--quiet"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"]["code"] == "validation"
        assert err["error"]["field"] == field

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            # a horizon whose squared times underflow, and one where X^{1-R} overflows
            ({"name": "mc_drift_check", "params": {"horizon": 1e-200, "n_paths": 1000}},
             {}),
            ({"name": "mc_drift_check", "params": {"horizon": 1e6, "n_paths": 1000}},
             {}),
            # xi <= 0 is no consumption fraction; at R = 2.5 xi^{1-R} is complex
            ({"name": "transversality_sweep", "params": {"xi_grid": [0.0]}}, {}),
            ({"name": "transversality_sweep", "params": {"xi_grid": [-0.1]}},
             {"preferences": {"b": 1.0, "delta": 0.03, "R": 2.5, "S": 2.5}}),
            # a one-node lattice has a single time: no slope to fit
            ({"name": "picard_solve", "params": {}}, {"lattice": {"n_steps": 0}}),
            ({"name": "verification_check", "params": {}}, {"lattice": {"n_steps": 0}}),
            # a negative level: at R = 2 its utility is real but the risk gap
            # negative, at R = 1/2 it is complex
            ({"name": "aversion_demos", "params": {"y_values": [-1, 2]}}, {}),
            ({"name": "aversion_demos", "params": {"y_values": [-1, 2]}},
             {"preferences": {"b": 1.0, "delta": 0.03, "R": 0.5, "S": 0.8}}),
            # the perturbed wealth's powers overflow: the identities are not finite
            (HUGE_EPSILON, {}),
        ],
        ids=["horizon-tiny", "horizon-huge", "xi-zero", "xi-negative",
             "picard-one-node", "verification-one-node", "y_values-negative",
             "y_values-negative-R-below-1", "epsilon-huge"],
    )
    def test_failing_params_exit_3(self, tmp_path, capsys, experiment, overrides):
        path = write_scenario(tmp_path, base_scenario(experiment=experiment, **overrides))
        code = main(["run", "--scenario", str(path), "--out-dir",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "numeric"

    @pytest.mark.parametrize("overrides, field", [
        ({"solver": {"max_itr": 5}}, "solver.max_itr"),
        ({"lattice": {"tial": "zero"}}, "lattice.tial"),
        ({"preferences": {"b": 1.0, "delta": 0.03, "R": 2.0, "S": 2.5, "rho": -0.5}},
         "preferences.rho"),
        ({"market": {"r": 0.02, "mu": 0.07, "sigma": 0.2, "lambda": 0.25}},
         "market.lambda"),
        ({"experiment": {"name": "candidate_policy", "param": {}}}, "experiment.param"),
        ({"sede": 7}, "sede"),
    ], ids=["solver", "lattice", "preferences", "market", "experiment", "top-level"])
    def test_undeclared_key_exits_2_naming_the_field(self, tmp_path, capsys,
                                                     overrides, field):
        # A misspelt key once passed validation and ran with the defaults.
        path = write_scenario(tmp_path, base_scenario(**overrides))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["code"], err["field"]) == ("validation", field)

    def test_io_exit_code(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "missing.json")])
        assert code == 4

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--scenario", str(path)]) == 2

    def test_seed_override_changes_digest(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_scenario())
        assert main(["validate", "--scenario", str(path)]) == 0
        base_digest = json.loads(capsys.readouterr().out)["digest"]
        scn = parse_scenario(base_scenario(seed=43))
        assert scenario_digest(scn) != base_digest

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for entry in catalog():
            assert f"{entry.name}: {entry.description}" in out
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [e["name"] for e in payload]
        assert names == sorted(names)


def run_module(tmp_path, subprocess_env, raw):
    """`python -m ezmerton run` on the scenario raw, in a fresh interpreter."""
    path = write_scenario(tmp_path, raw)
    return subprocess.run(
        [sys.executable, "-m", "ezmerton", "run", "--scenario", str(path),
         "--out-dir", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, env=subprocess_env)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_no_warning_escapes_the_cli(tmp_path, subprocess_env, name):
    # Outside pytest's warning filter: a numpy warning would reach stderr.
    inputs = dict(RERUN_INPUTS.get(name, {}))
    params = inputs.pop("params", {})
    proc = run_module(tmp_path, subprocess_env, base_scenario(
        experiment={"name": name, "params": params}, **inputs))
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("name", COUNTEREXAMPLES)
@pytest.mark.parametrize("T_grid", DEGENERATE_T_GRIDS.values(), ids=list(DEGENERATE_T_GRIDS))
def test_degenerate_T_grid_exits_2_with_one_error_line(tmp_path, subprocess_env,
                                                       name, T_grid):
    # These grids once raised IndexError (exit 1), printed a RankWarning or,
    # the last two, reached the library's own check (exit 3).
    proc = run_module(tmp_path, subprocess_env, base_scenario(
        experiment={"name": name, "params": {"T_grid": T_grid}}))
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["field"]) == ("validation", "experiment.params.T_grid")


@pytest.mark.parametrize(
    "overrides, field",
    EXIT_2_CASES + [({"experiment": {"name": name, "params": {"T_grid": T_grid}}},
                     "experiment.params.T_grid")
                    for T_grid in DEGENERATE_T_GRIDS.values() for name in COUNTEREXAMPLES],
    ids=EXIT_2_IDS + [f"T_grid-{grid}-{name}" for grid in DEGENERATE_T_GRIDS
                      for name in COUNTEREXAMPLES])
def test_validate_agrees_with_run(tmp_path, capsys, overrides, field):
    # validate once checked only which params a scenario held, so it accepted
    # values (T_grid [2, 4, 6], n_levels 0, a budget) that run then refused.
    path = write_scenario(tmp_path, base_scenario(**overrides))
    out_dir = tmp_path / "out"
    for argv in (["validate"], ["run", "--out-dir", str(out_dir), "--quiet"]):
        code = main([argv[0], "--scenario", str(path), *argv[1:]])
        error = json.loads(capsys.readouterr().err)["error"]
        assert (code, error["code"], error["field"]) == (2, "validation", field)
    assert not out_dir.exists()


def test_consumption_overflow_exits_3_with_one_error_line(tmp_path, subprocess_env):
    # C^{1-S} overflows at xi = 1e-300.  At delta = 10, pi = 10 and dt 0.5
    # the low nodes' wealth underflows to C = 0, so U = inf there, while
    # e^{-delta t} underflows to 0 on the late steps: inf * 0 is NaN.  At
    # pi_hat = 410 (R = 1.89, S = 9.25, sigma = 0.023) the top nodes' wealth
    # overflows exp, and C = xi X a multiply.  Each of numpy's warnings once
    # reached stderr ahead of the error object.
    cases = (
        base_scenario(lattice={"dt": 0.02, "n_steps": 50},
                      experiment={"name": "picard_solve", "params": {"xi": 1e-300}}),
        base_scenario(preferences={"b": 1.0, "delta": 10.0, "R": 2.0, "S": 2.5},
                      lattice={"dt": 0.5, "n_steps": 400, "tail": "zero"},
                      experiment={"name": "picard_solve", "params": {"pi": 10}}),
        base_scenario(preferences={"b": 1.0, "delta": 0.03, "R": 1.89, "S": 9.25},
                      market={"r": 0.02, "mu": 0.2, "sigma": 0.023},
                      lattice={"dt": 0.32, "n_steps": 200},
                      experiment={"name": "picard_solve", "params": {}}),
    )
    for raw in cases:
        proc = run_module(tmp_path, subprocess_env, raw)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"]["code"] == "numeric"


@pytest.mark.parametrize("experiment, code", [
    (OVERFLOWING_GRID, 2), (NEGATIVE_GRID, 2), (HUGE_EPSILON, 3),
], ids=["grid-count-overflow", "grid-count-negative", "epsilon-huge"])
def test_former_tracebacks_exit_with_one_error_line(tmp_path, subprocess_env,
                                                    experiment, code):
    # These once exited 1 with a traceback: an OverflowError in the grid's
    # integer count, numpy's ValueError from np.arange after a negative count
    # passed the budget, and numpy warnings then an OverflowError in A2.
    proc = run_module(tmp_path, subprocess_env, base_scenario(experiment=experiment))
    assert proc.returncode == code
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["code"] == ("validation" if code == 2 else "numeric")


@pytest.mark.parametrize(
    "name",
    ["picard_solve", "aversion_demos", "crra_counterexample", "ezsdu_counterexample"],
)
def test_no_catalog_entry_loads_scipy(tmp_path, subprocess_env, name):
    # picard_solve runs the reference scenario (dt 0.01, 500 steps)
    path = write_scenario(tmp_path, base_scenario(
        experiment={"name": name, "params": {}}))
    code = ("import sys; from ezmerton.cli import main; "
            f"code = main(['run', '--scenario', {str(path)!r}, '--out-dir', "
            f"{str(tmp_path / 'out')!r}, '--quiet']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=subprocess_env).stdout
    exit_code, modules = out.strip().split(" ", 1)
    assert exit_code == "0"
    assert modules == "[]"


class TestCatalog:
    def test_contains_every_experiment_once(self):
        names = [e.name for e in catalog()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_registry_lists_all_experiment_operations(self):
        assert {e.name for e in catalog()} == {
            "aversion_demos", "candidate_policy", "crra_counterexample",
            "ezsdu_counterexample", "mc_drift_check", "picard_solve",
            "policy_grid_search", "transversality_sweep", "verification_check",
            "wellposed_divergence",
        }

    def test_catalog_entries_documented(self):
        for entry in catalog():
            assert entry.description

    def test_list_json_names_each_entry_parameters_in_order(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {e["name"]: e["parameters"] for e in payload} == {
            "aversion_demos": ["y_values", "temporal_levels", "temporal_switch_time"],
            "candidate_policy": [],
            "crra_counterexample": ["T_grid"],
            "ezsdu_counterexample": ["T_grid"],
            "mc_drift_check": ["pi", "xi", "nu", "n_paths", "horizon"],
            "picard_solve": ["pi", "xi"],
            "policy_grid_search": ["pi_grid", "xi_grid"],
            "transversality_sweep": ["nu", "xi_grid"],
            "verification_check": ["epsilon", "n_strategies", "n_samples"],
            "wellposed_divergence": ["probe_offsets", "n_levels"],
        }
        # "fields" gives each of them, in the same order, with its kind, its
        # default (null where the entry fills it in) and the checks that are set.
        fields = {e["name"]: e["fields"] for e in payload}
        assert all([f["name"] for f in fields[e["name"]]] == e["parameters"]
                   for e in payload)
        assert fields["mc_drift_check"] == [
            {"name": "pi", "kind": "number", "default": None},
            {"name": "xi", "kind": "number", "default": None},
            {"name": "nu", "kind": "number", "default": None},
            {"name": "n_paths", "kind": "integer", "default": 100_000, "lo": 1000},
            {"name": "horizon", "kind": "number", "default": 5.0, "gt": 0},
        ]
        assert fields["aversion_demos"][0] == {
            "name": "y_values", "kind": "list", "default": [0.5, 1.5], "length": 2}
        assert fields["policy_grid_search"][0] == {
            "name": "pi_grid", "kind": "grid",
            "default": {"start": 0.0, "stop": 1.5, "step": 0.005}}
        assert fields["wellposed_divergence"] == [
            {"name": "probe_offsets", "kind": "list", "default": None},
            {"name": "n_levels", "kind": "integer", "default": 13, "lo": 1, "hi": 1000},
        ]
        assert fields["verification_check"][0] == {
            "name": "epsilon", "kind": "number", "default": 0.1, "gt": 0}
        assert fields["candidate_policy"] == []


def test_null_probe_offsets_run_at_the_default_offsets(tmp_path, capsys):
    # A null takes the default, as an absent key does; [] is exit 2.
    outputs = []
    for key, params in (("absent", {}), ("null", {"probe_offsets": None})):
        path = write_scenario(tmp_path, base_scenario(
            preferences=ILL_POSED_R_BELOW_1,
            experiment={"name": "wellposed_divergence", "params": params}), f"{key}.json")
        assert main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / key),
                     "--quiet"]) == 0
        out = tmp_path / key / "wellposed_divergence_p1m1"
        outputs.append((out.with_suffix(".csv").read_bytes(),
                        json.loads(out.with_suffix(".json").read_text())["summary"]))
    assert outputs[0] == outputs[1]


def test_policy_grid_search_default_grids(tmp_path):
    # pi in 0, 0.005, ..., 1.495 and xi in 0.005, ..., 0.195: the np.arange of
    # the default start/stop/step objects, which spelt out give the same bytes.
    spelt = {"pi_grid": {"start": 0.0, "stop": 1.5, "step": 0.005},
             "xi_grid": {"start": 0.005, "stop": 0.2, "step": 0.005}}
    texts = []
    for key, params in (("default", {}), ("spelt", spelt)):
        run_scenario(parse_scenario(base_scenario(
            id=key, experiment={"name": "policy_grid_search", "params": params})),
            tmp_path, quiet=True)
        texts.append((tmp_path / f"policy_grid_search_{key}.csv").read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert lines[0] == "pi,xi,value,evaluable"
    cells = [line.split(",")[:2] for line in lines[1:]]
    assert len(cells) == 300 * 39
    assert cells[0] == ["0", "0.0050000000000000001"]
    assert cells[-1] == ["1.4950000000000001", "0.19500000000000001"]
    columns = "".join(f"{pi},{xi}\n" for pi, xi in cells)
    assert hashlib.sha256(columns.encode()).hexdigest() == (
        "c5d0aa758aee9638766fc76671da6b431b3af3fdda0a1c15b5e4b92e66e2196c")
