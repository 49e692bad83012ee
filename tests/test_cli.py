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
        ],
    )
    def test_validation_errors_name_the_field(self, mutate, field):
        raw = base_scenario()
        mutate(raw)
        with pytest.raises(ValidationError) as err:
            parse_scenario(raw)
        assert err.value.field == field

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

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_rerun_is_byte_identical(self, tmp_path, name):
        overrides = dict(RERUN_INPUTS.get(name, {}))
        params = overrides.pop("params", {})
        scn = parse_scenario(base_scenario(
            id="rerun", experiment={"name": name, "params": params}, **overrides))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_scenario(scn, d1, quiet=True)
        run_scenario(scn, d2, quiet=True)
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

    @pytest.mark.parametrize(
        "overrides, field",
        [
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
            # Sizes over ELEMENT_BUDGET.  Each would otherwise fail on its own
            # (an allocation numpy refuses, or an error before any large array),
            # so no case allocates even if its check is missing.
            ({"lattice": {"n_steps": 10**7}}, "lattice.n_steps"),
            ({"experiment": {"name": "transversality_sweep",
                             "params": {"xi_grid": {"start": 0, "stop": 1,
                                                    "step": 1e-13}}}},
             "experiment.params.xi_grid"),
            ({"experiment": {"name": "mc_drift_check", "params": {"n_paths": 10**10}}},
             "experiment.params.n_paths"),
            ({"experiment": {"name": "crra_counterexample",
                             "params": {"T_grid": [10**9]}}},
             "experiment.params.T_grid"),
            ({"experiment": {"name": "policy_grid_search",
                             "params": {"pi_grid": {"start": 0, "stop": 1, "step": 1e-4},
                                        "xi_grid": {"start": -1, "stop": 1,
                                                    "step": 2e-4}}}},
             "experiment.params.xi_grid"),
            ({"experiment": {"name": "verification_check",
                             "params": {"n_samples": 10**8, "epsilon": -1.0}}},
             "experiment.params.n_samples"),
            ({"experiment": {"name": "verification_check",
                             "params": {"n_strategies": 10**7, "epsilon": -1.0}}},
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
        ],
        ids=["lattice-list", "param-pi-string", "param-T_grid-string",
             "delta-nan", "R-infinity", "budget-n_steps", "budget-xi_grid-step",
             "budget-n_paths", "budget-T_grid", "budget-grid-cells",
             "budget-n_samples", "budget-n_strategies", "undeclared-param",
             "n_levels-0", "n_levels-negative", "n_levels-1100",
             "probe_offsets-empty", "n_samples-0", "n_samples-negative",
             "n_strategies-negative", "horizon-0", "horizon-negative"],
    )
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
        "experiment, preferences",
        [
            # a horizon whose squared times underflow, and one where X^{1-R} overflows
            ({"name": "mc_drift_check", "params": {"horizon": 1e-200, "n_paths": 1000}},
             None),
            ({"name": "mc_drift_check", "params": {"horizon": 1e6, "n_paths": 1000}},
             None),
            # xi <= 0 is no consumption fraction; at R = 2.5 xi^{1-R} is complex
            ({"name": "transversality_sweep", "params": {"xi_grid": [0.0]}}, None),
            ({"name": "transversality_sweep", "params": {"xi_grid": [-0.1]}},
             {"b": 1.0, "delta": 0.03, "R": 2.5, "S": 2.5}),
        ],
        ids=["horizon-tiny", "horizon-huge", "xi-zero", "xi-negative"],
    )
    def test_failing_params_exit_3(self, tmp_path, capsys, experiment, preferences):
        raw = base_scenario(experiment=experiment)
        if preferences is not None:
            raw["preferences"] = preferences
        path = write_scenario(tmp_path, raw)
        code = main(["run", "--scenario", str(path), "--out-dir",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "numeric"

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


@pytest.mark.parametrize(
    "name, scipy_loaded",
    [("picard_solve", False), ("aversion_demos", False), ("crra_counterexample", True)],
)
def test_only_the_counterexamples_load_scipy(tmp_path, subprocess_env, name,
                                            scipy_loaded):
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
    if scipy_loaded:
        assert "'scipy.integrate'" in modules
    else:
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
