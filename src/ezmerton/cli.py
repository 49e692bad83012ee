"""Scenario-driven command line: parse a JSON scenario, run it, emit CSV/JSON.

Subcommands
-----------
run       execute the scenario's experiment, write <name>_<id>.csv/.json plus a
          run manifest; identical (scenario, seed) produce byte-identical CSVs
list      print the experiment catalog (sorted; --json for machine use)
validate  check a scenario file against the schema and print its digest

Exit codes: 0 success, 2 parse/validation error, 3 numeric failure, 4 I/O
error.  Errors are emitted as one JSON object on stderr; a validation error
names the offending field.  Every number, experiment params included, must be
finite: JSON's NaN and Infinity are rejected at validation, as is a params key
the experiment does not declare (`list --json`).  Sizes (lattice nodes, grid
points and cells, Monte Carlo draws, counterexample integrand values) are
checked against ELEMENT_BUDGET before anything is allocated.

Scenario schema (version 1)::

    {
      "schema_version": 1,
      "id": "p1m1-candidate",
      "preferences": {"b": 1.0, "delta": 0.03, "R": 2.0, "S": 2.5},
      "market": {"r": 0.02, "mu": 0.07, "sigma": 0.2},
      "lattice": {"dt": 0.01, "n_steps": 500, "tail": "proportional"},
      "solver": {"epsilon": 0.0, "tol": 1e-8, "max_iter": 200},
      "experiment": {"name": "candidate_policy", "params": {}},
      "seed": 42
    }

lattice and solver are optional (defaults above); CSV numbers are written with
17 significant digits and '.' decimal separator.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, closed_form, experiments, solver
from .errors import EzmertonError, InvalidParameters, ValidationError
from .lattice import (
    TailClosure,
    build_lattice,
    consumption_grid,
    mc_drift_check,
    transformed_consumption_grid,
)
from .preferences import Market, Preferences

__all__ = ["Scenario", "RunManifest", "CatalogEntry", "parse_scenario",
           "canonical_dict", "scenario_digest", "run_scenario", "catalog", "main"]

_SCHEMA_VERSION = 1
_LATTICE_DEFAULTS = {"dt": 0.01, "n_steps": 500, "tail": "proportional"}
_SOLVER_DEFAULTS = {"epsilon": 0.0, "tol": 1e-8, "max_iter": 200}

#: Most elements one scenario may ask for, checked before anything is
#: allocated: lattice nodes, grid points, grid-search cells, Monte Carlo draws
#: and counterexample integrand values.  Ten million float64 values are 80 MB.
ELEMENT_BUDGET = 10_000_000
#: Integrand values per unit block of a counterexample: three integrands, each
#: at least one 21-point Gauss-Kronrod rule.
_VALUES_PER_BLOCK = 3 * 21
#: Default consumption-fraction grid of the sweep and the grid search.
_XI_GRID = {"start": 0.005, "stop": 0.2, "step": 0.005}

@dataclass(frozen=True)
class Scenario:
    id: str
    preferences: Preferences
    market: Market
    lattice_cfg: dict
    solver_cfg: dict
    experiment: str
    params: dict
    seed: int


@dataclass(frozen=True)
class RunManifest:
    scenario_id: str
    artifact_version: str
    input_hash: str
    outputs: list[str]
    wall_clock_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "artifact_version": self.artifact_version,
            "input_hash": self.input_hash,
            "outputs": self.outputs,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


def _require(cond: bool, message: str, field: str) -> None:
    if not cond:
        raise ValidationError(f"{field}: {message}", field=field)


def _number(val, field: str, integer: bool = False):
    """val as a finite float, or as an int when integer is set."""
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             "must be a number", field)
    try:
        as_float = float(val)
    except OverflowError:  # an integer beyond the float range
        as_float = math.inf
    _require(math.isfinite(as_float), "must be a finite number", field)
    if integer:
        _require(as_float.is_integer(), "must be an integer", field)
        return int(val)
    return as_float


def _within_budget(elements, field: str) -> None:
    _require(elements <= ELEMENT_BUDGET,
             f"asks for more than the budget of {ELEMENT_BUDGET} elements", field)


def _num(raw: dict, field_prefix: str, key: str, lo=None, hi=None,
         integer: bool = False):
    field = f"{field_prefix}.{key}"
    _require(key in raw, "missing required field", field)
    val = _number(raw[key], field, integer)
    if lo is not None:
        _require(val >= lo, f"must be >= {lo}", field)
    if hi is not None:
        _require(val <= hi, f"must be <= {hi}", field)
    return val


def parse_scenario(raw: dict) -> Scenario:
    """Validate a raw scenario dict and build the typed Scenario.

    Raises ValidationError naming the offending field.
    """
    _require(isinstance(raw, dict), "scenario must be a JSON object", "$")
    version = raw.get("schema_version", _SCHEMA_VERSION)
    _require(version == _SCHEMA_VERSION,
             f"unsupported schema_version {version}", "schema_version")
    _require(isinstance(raw.get("id"), str) and raw["id"] != "",
             "must be a non-empty string", "id")
    _require(all(ch.isalnum() or ch in "-_." for ch in raw["id"]),
             "may contain only alphanumerics, '-', '_', '.'", "id")

    prefs_raw = raw.get("preferences")
    _require(isinstance(prefs_raw, dict), "missing preferences object", "preferences")
    b = _num(prefs_raw, "preferences", "b")
    delta = _num(prefs_raw, "preferences", "delta")
    R = _num(prefs_raw, "preferences", "R")
    S = _num(prefs_raw, "preferences", "S")
    _require(b > 0.0, "must be > 0", "preferences.b")
    _require(R > 0.0 and R != 1.0, "must be positive and != 1", "preferences.R")
    _require(S > 0.0 and S != 1.0, "must be positive and != 1", "preferences.S")

    market_raw = raw.get("market")
    _require(isinstance(market_raw, dict), "missing market object", "market")
    r = _num(market_raw, "market", "r")
    mu = _num(market_raw, "market", "mu")
    sigma = _num(market_raw, "market", "sigma")
    _require(sigma > 0.0, "must be > 0", "market.sigma")

    _require(isinstance(raw.get("lattice", {}), dict), "must be an object", "lattice")
    lat_raw = {**_LATTICE_DEFAULTS, **raw.get("lattice", {})}
    dt = _num(lat_raw, "lattice", "dt")
    _require(dt > 0.0, "must be > 0", "lattice.dt")
    n_steps = _num(lat_raw, "lattice", "n_steps", lo=0, integer=True)
    _within_budget((n_steps + 1) * (n_steps + 2) // 2, "lattice.n_steps")
    tail = lat_raw.get("tail", "proportional")
    _require(tail in ("proportional", "zero"),
             "must be 'proportional' or 'zero'", "lattice.tail")

    _require(isinstance(raw.get("solver", {}), dict), "must be an object", "solver")
    sol_raw = {**_SOLVER_DEFAULTS, **raw.get("solver", {})}
    epsilon = _num(sol_raw, "solver", "epsilon", lo=0.0)
    tol = _num(sol_raw, "solver", "tol")
    _require(tol > 0.0, "must be > 0", "solver.tol")
    max_iter = _num(sol_raw, "solver", "max_iter", lo=1, integer=True)

    exp_raw = raw.get("experiment")
    _require(isinstance(exp_raw, dict), "missing experiment object", "experiment")
    name = exp_raw.get("name")
    _require(isinstance(name, str) and name in _REGISTRY,
             f"unknown experiment; known: {sorted(_REGISTRY)}", "experiment.name")
    params = exp_raw.get("params", {})
    _require(isinstance(params, dict), "params must be an object", "experiment.params")
    declared = _REGISTRY[name].parameters
    for key in params:
        _require(key in declared, f"not a parameter of {name}; declared: {list(declared)}",
                 f"experiment.params.{key}")

    seed = raw.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
             "must be a non-negative integer", "seed")

    try:
        preferences = Preferences(b=b, delta=delta, R=R, S=S)
    except InvalidParameters as exc:
        raise ValidationError(f"preferences: {exc}", field="preferences") from exc
    return Scenario(
        id=raw["id"],
        preferences=preferences,
        market=Market(r=r, mu=mu, sigma=sigma),
        lattice_cfg={"dt": dt, "n_steps": n_steps, "tail": tail},
        solver_cfg={"epsilon": epsilon, "tol": tol, "max_iter": max_iter},
        experiment=name,
        params=params,
        seed=seed,
    )


def canonical_dict(scn: Scenario) -> dict:
    """Canonical plain-dict form: defaults materialised, stable key set."""
    return {
        "schema_version": _SCHEMA_VERSION,
        "id": scn.id,
        "preferences": {"b": scn.preferences.b, "delta": scn.preferences.delta,
                        "R": scn.preferences.R, "S": scn.preferences.S},
        "market": {"r": scn.market.r, "mu": scn.market.mu,
                   "sigma": scn.market.sigma},
        "lattice": dict(scn.lattice_cfg),
        "solver": dict(scn.solver_cfg),
        "experiment": {"name": scn.experiment, "params": scn.params},
        "seed": scn.seed,
    }


def scenario_digest(scn: Scenario) -> str:
    """Stable sha256 digest of the canonicalised scenario."""
    payload = json.dumps(canonical_dict(scn), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A runnable experiment; `run` validates its params, returns (rows, summary)."""

    name: str
    description: str
    parameters: tuple[str, ...]
    run: Callable[[Scenario], tuple[list, dict]]


_REGISTRY: dict[str, CatalogEntry] = {}


def _entry(name: str, description: str, parameters: tuple[str, ...] = ()):
    """Register the decorated adapter as `name`.  Adapters reach the library
    through module attributes (`solver.`, `experiments.`) at call time, so
    wrappers installed on those attributes see the calls."""
    def register(run):
        _REGISTRY[name] = CatalogEntry(name, description, parameters, run)
        return run
    return register


def _param(params: dict, key: str, default, integer: bool = False, lo=None, hi=None):
    """Numeric experiment parameter `key` in [lo, hi], or default when absent."""
    if key not in params:
        return default
    return _num(params, "experiment.params", key, lo, hi, integer)


def _param_list(params: dict, key: str, default, length: int | None = None) -> list:
    """List-of-numbers experiment parameter `key` (values kept as given), or
    default when it is absent."""
    field = f"experiment.params.{key}"
    vals = params.get(key, default)
    _require(isinstance(vals, list), "must be a list of numbers", field)
    for i, v in enumerate(vals):
        _number(v, f"{field}[{i}]")
    if length is not None:
        _require(len(vals) == length, f"must hold {length} numbers", field)
    return vals


def _param_grid(params: dict, key: str, default: dict) -> np.ndarray:
    """Grid experiment parameter `key`, a list of numbers or a start/stop/step
    object, or default when it is absent."""
    field = f"experiment.params.{key}"
    spec = params.get(key, default)
    if isinstance(spec, dict):
        for k in ("start", "stop", "step"):
            _require(k in spec, "grid object needs start/stop/step", field)
            _number(spec[k], f"{field}.{k}")
        _require(spec["step"] != 0, "step must be non-zero", f"{field}.step")
        # the float count, not its ceiling: it may overflow to inf
        _within_budget((spec["stop"] - spec["start"]) / spec["step"], field)
        arr = np.arange(spec["start"], spec["stop"], spec["step"])
    else:
        arr = np.asarray(_param_list(params, key, default), dtype=float)
    _require(arr.size > 0, "empty grid", field)
    return arr


def _T_grid(params: dict) -> list:
    """Counterexample horizons; the largest sets the number of unit blocks."""
    T_grid = _param_list(params, "T_grid", list(range(10, 101, 10)))
    _within_budget(max(T_grid, default=0) * _VALUES_PER_BLOCK, "experiment.params.T_grid")
    return T_grid


def _candidate_strategy(scn: Scenario):
    policy = closed_form.candidate_policy(scn.preferences, scn.market)
    pi = _param(scn.params, "pi", policy.pi_hat)
    xi = _param(scn.params, "xi", policy.eta)
    return closed_form.ProportionalStrategy(pi=float(pi), xi=float(xi))


@_entry("candidate_policy", "closed-form candidate policy (pi_hat, eta) and value")
def _run_candidate_policy(scn: Scenario):
    policy = closed_form.candidate_policy(scn.preferences, scn.market)
    row = {
        "pi_hat": policy.pi_hat,
        "eta": policy.eta,
        "phi": policy.phi,
        "value_coefficient": policy.value_coefficient,
        "value_at_unit_wealth": policy.value(1.0),
    }
    return [row], row


@_entry("picard_solve",
        "lattice fixed-point solve of the utility recursion for a proportional strategy",
        ("pi", "xi"))
def _run_picard_solve(scn: Scenario):
    prefs, market = scn.preferences, scn.market
    strat = _candidate_strategy(scn)
    lat = build_lattice(market, strat, scn.lattice_cfg["dt"],
                        scn.lattice_cfg["n_steps"])
    if scn.lattice_cfg["tail"] == "proportional":
        tail = TailClosure.proportional(strat, prefs, market)
    else:
        tail = TailClosure.zero()
    u_grid = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
    report = solver.picard_solve(
        prefs, u_grid, lat, tail,
        epsilon=scn.solver_cfg["epsilon"],
        Lambda=u_grid if scn.solver_cfg["epsilon"] > 0 else None,
        tol=scn.solver_cfg["tol"], max_iter=scn.solver_cfg["max_iter"],
    )
    rows = [
        {"iteration": it, "sup_norm_step": step, "ratio": ratio}
        for it, step, ratio in report.trace
    ]
    summary = report.to_json_dict()
    summary["utility_at_zero"] = report.utility_at_zero(prefs)
    try:
        summary["closed_form_value"] = closed_form.proportional_utility(
            prefs, market, strat, lat.x0, 0.0)
    except EzmertonError:
        summary["closed_form_value"] = None
    return rows, summary


@_entry("mc_drift_check",
        "Monte Carlo check of the decay rate of e^{-nu t} X_t^{1-R}",
        ("pi", "xi", "nu", "n_paths", "horizon"))
def _run_mc_drift_check(scn: Scenario):
    prefs, params = scn.preferences, scn.params
    strat = _candidate_strategy(scn)
    nu = _param(params, "nu", prefs.delta * prefs.theta)
    n_paths = _param(params, "n_paths", 100_000, integer=True)
    # one normal draw per path and time step, at the 21 times of the fit
    _within_budget(n_paths * 21, "experiment.params.n_paths")
    horizon = _param(params, "horizon", 5.0)
    _require(horizon > 0.0, "must be > 0", "experiment.params.horizon")
    report = mc_drift_check(scn.market, strat, nu, prefs.R, n_paths=n_paths,
                            horizon=horizon, seed=scn.seed)
    rows = [{"t": t, "log_mean": lm}
            for t, lm in zip(report.times, report.log_means)]
    summary = {"slope": report.slope, "stderr": report.stderr,
               "n_paths": report.n_paths,
               "target": -closed_form.decay_rate(nu, prefs, scn.market, strat)}
    return rows, summary


@_entry("crra_counterexample",
        "additive-utility stream where the difference form has divergent positive and negative parts",
        ("T_grid",))
def _run_crra_counterexample(scn: Scenario):
    rep = experiments.crra_counterexample(scn.preferences.delta, scn.preferences.R,
                                          _T_grid(scn.params))
    return rep.rows(), rep.summary()


@_entry("ezsdu_counterexample",
        "recursive-utility stream where the difference form has divergent positive and negative parts",
        ("T_grid",))
def _run_ezsdu_counterexample(scn: Scenario):
    rep = experiments.ezsdu_counterexample(scn.preferences, _T_grid(scn.params))
    return rep.rows(), rep.summary()


@_entry("transversality_sweep",
        "consumption-fraction sweep of decay rates, evaluability, transversality and admitted bubbles",
        ("nu", "xi_grid"))
def _run_transversality_sweep(scn: Scenario):
    prefs, params = scn.preferences, scn.params
    nu = _param(params, "nu", prefs.delta)
    cells = experiments.transversality_sweep(prefs.delta, prefs.R, scn.market, nu,
                                             _param_grid(params, "xi_grid", _XI_GRID))
    rows = [c.as_row() for c in cells]
    summary = {
        "n_cells": len(cells),
        "n_bubbles": sum(1 for c in cells if c.bubble.is_bubble),
        "n_transversal": sum(1 for c in cells if c.transversality_ok),
        "n_evaluable": sum(1 for c in cells if c.evaluable),
    }
    return rows, summary


@_entry("policy_grid_search",
        "brute-force argmax of the proportional-strategy value over a (pi, xi) grid",
        ("pi_grid", "xi_grid"))
def _run_policy_grid_search(scn: Scenario):
    pi_grid = _param_grid(scn.params, "pi_grid", {"start": 0.0, "stop": 1.5, "step": 0.005})
    xi_grid = _param_grid(scn.params, "xi_grid", _XI_GRID)
    _within_budget(pi_grid.size * xi_grid.size, "experiment.params.xi_grid")
    rep = experiments.policy_grid_search(scn.preferences, scn.market, pi_grid, xi_grid)
    return list(rep.rows()), rep.summary()


@_entry("aversion_demos",
        "Jensen gaps separating risk aversion (R) from temporal variance aversion (S)",
        ("y_values", "temporal_levels", "temporal_switch_time"))
def _run_aversion_demos(scn: Scenario):
    params = scn.params
    rep = experiments.aversion_demos(
        scn.preferences,
        y_values=tuple(_param_list(params, "y_values", [0.5, 1.5], length=2)),
        temporal_levels=tuple(
            _param_list(params, "temporal_levels", [0.5, 1.5], length=2)),
        temporal_switch_time=_param(params, "temporal_switch_time", 1.0),
    )
    return rep.rows(), rep.summary()


@_entry("wellposed_divergence",
        "eta <= 0 probes: value supremum explodes (R<1) or upper bounds collapse (R>1)",
        ("probe_offsets", "n_levels"))
def _run_wellposed_divergence(scn: Scenario):
    params = scn.params
    offsets = None
    if params.get("probe_offsets") is not None:
        offsets = _param_list(params, "probe_offsets", None)
        _require(len(offsets) > 0, "must not be empty", "experiment.params.probe_offsets")
    rep = experiments.wellposed_divergence(
        scn.preferences, scn.market,
        probe_offsets=offsets,
        n_levels=_param(params, "n_levels", 13, integer=True, lo=1,
                        hi=experiments.MAX_DIVERGENCE_LEVELS),
    )
    return rep.rows(), rep.summary()


@_entry("verification_check",
        "perturbed optimality identities for the candidate policy plus lattice supersolution checks",
        ("epsilon", "n_strategies", "n_samples"))
def _run_verification_check(scn: Scenario):
    params = scn.params
    n_samples = _param(params, "n_samples", 10_000, integer=True, lo=1)
    _within_budget(n_samples, "experiment.params.n_samples")
    n_steps = min(scn.lattice_cfg["n_steps"], 200)
    n_strategies = _param(params, "n_strategies", 5, integer=True, lo=0)
    # one lattice and one residual check per strategy
    _within_budget(n_strategies * (n_steps + 1) * (n_steps + 2) // 2,
                   "experiment.params.n_strategies")
    rep = experiments.verification_check(
        scn.preferences, scn.market,
        epsilon=_param(params, "epsilon", 0.1),
        n_strategies=n_strategies,
        seed=scn.seed,
        n_samples=n_samples,
        dt=scn.lattice_cfg["dt"],
        n_steps=n_steps,
    )
    return rep.rows(), rep.summary()


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        if not rows:
            fh.write("")
            return
        writer = csv.writer(fh)
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(row.get(k)) for k in header])


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def run_scenario(scn: Scenario, out_dir: Path, quiet: bool = False) -> RunManifest:
    """Execute a validated scenario and write its artifacts."""
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, summary = _REGISTRY[scn.experiment].run(scn)
    base = f"{scn.experiment}_{scn.id}"
    csv_path = out_dir / f"{base}.csv"
    json_path = out_dir / f"{base}.json"
    _write_csv(csv_path, rows)
    with open(json_path, "w") as fh:
        json.dump({"scenario": canonical_dict(scn), "summary": summary},
                  fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    manifest = RunManifest(
        scenario_id=scn.id,
        artifact_version=__version__,
        input_hash=scenario_digest(scn),
        outputs=[csv_path.name, json_path.name],
        wall_clock_seconds=time.perf_counter() - started,
    )
    manifest_path = out_dir / f"manifest_{scn.id}.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"wrote {csv_path} {json_path} {manifest_path}")
    return manifest


def catalog() -> list[CatalogEntry]:
    """Every runnable experiment, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def _error_json(code: str, exc: Exception) -> str:
    payload = {"error": {"code": code, "message": str(exc)}}
    if isinstance(exc, ValidationError) and exc.field:
        payload["error"]["field"] = exc.field
    return json.dumps(payload)


def _load_scenario(path: str, seed_override: int | None) -> Scenario:
    with open(path) as fh:
        raw = json.load(fh)
    if seed_override is not None:
        if not isinstance(raw, dict):
            raise ValidationError("$: scenario must be a JSON object", field="$")
        raw = {**raw, "seed": seed_override}
    return parse_scenario(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ezmerton",
        description="Scenario runner for the recursive-utility laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--scenario", required=True, help="path to scenario JSON")
    p_run.add_argument("--out-dir", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--quiet", action="store_true")

    p_list = sub.add_parser("list", help="list runnable experiments")
    p_list.add_argument("--json", action="store_true", dest="as_json")

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("--scenario", required=True)

    args = parser.parse_args(argv)

    if args.command == "list":
        entries = catalog()
        if args.as_json:
            print(json.dumps(
                [{"name": e.name, "description": e.description,
                  "parameters": list(e.parameters)} for e in entries],
                indent=2))
        else:
            for e in entries:
                print(f"{e.name}: {e.description}")
        return 0

    try:
        scn = _load_scenario(args.scenario,
                             getattr(args, "seed", None))
    except (json.JSONDecodeError, UnicodeDecodeError, ValidationError, KeyError) as exc:
        print(_error_json("validation", exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(_error_json("io", exc), file=sys.stderr)
        return 4

    if args.command == "validate":
        print(json.dumps({"ok": True, "id": scn.id,
                          "digest": scenario_digest(scn)}))
        return 0

    try:
        run_scenario(scn, Path(args.out_dir), quiet=args.quiet)
    except ValidationError as exc:
        print(_error_json("validation", exc), file=sys.stderr)
        return 2
    except EzmertonError as exc:
        print(_error_json("numeric", exc), file=sys.stderr)
        return 3
    except OSError as exc:
        print(_error_json("io", exc), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
