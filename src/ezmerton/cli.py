"""Scenario-driven command line: parse a JSON scenario, run it, emit CSV/JSON.

Subcommands
-----------
run       execute the scenario's experiment, write <name>_<id>.csv/.json plus a
          run manifest; identical (scenario, seed) produce byte-identical CSVs
list      print the experiment catalog (sorted; --json for machine use)
validate  apply every rule `run` applies to a scenario and print its digest

Exit codes: 0 success, 2 parse/validation error, 3 numeric failure, 4 I/O
error.  Errors are emitted as one JSON object on stderr; a validation error
names the offending field.  Each field is declared once, as a `Param`: the
scenario's objects in the table `_SCHEMA`, each experiment's params (`list
--json`) and cross-field rule in its `@_entry`.  `parse_scenario` checks the
scenario against them, so `validate` applies every rule `run` does: undeclared
keys, value ranges, finiteness (JSON's NaN and Infinity are rejected) and
ELEMENT_BUDGET on sizes (lattice nodes, grid points and cells, Monte Carlo
draws, counterexample unit blocks), all before anything is allocated.  The
Monte Carlo check then holds one block of paths whatever its size, so its
n_paths charge bounds its time, and a lattice solve at most two float64 grids
of its charged nodes plus one block (C and U while U is built; U and W after).

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

#: Most elements one scenario may ask for, checked before anything is
#: allocated: lattice nodes, grid points, grid-search cells, Monte Carlo draws
#: and counterexample unit blocks.  Ten million float64 values are 80 MB.  In
#: bytes, `mc_drift_check` holds one 1.3 MB block of draws and one 1.4 MB
#: block of paths whatever n_paths is, so its charge of 21 * n_paths bounds
#: its time, not its memory; `picard_solve` holds at most two float64 grids
#: of its charged nodes (C and U while U is built; U and the solution W plus
#: one block while it solves), at most 160 MB at the budget.
ELEMENT_BUDGET = 10_000_000
#: Budget units charged per unit block of a counterexample.  A block costs a
#: few closed-form values, but the charge stays at the 3 * 21 of a 21-point
#: rule per integrand, so that the accepted T_grid range and its exit-2 bound
#: do not move.
_VALUES_PER_BLOCK = 3 * 21
#: Default consumption-fraction grid of the sweep and the grid search.
_XI_GRID = {"start": 0.005, "stop": 0.2, "step": 0.005}
#: The default of a field that must be given.
_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One scenario field.  kind is "number" (finite float), "integer",
    "list" (non-empty, of finite numbers, kept as given), "grid" (such a list
    or a start/stop/step object, as an array) or "choice" (one of `choices`).
    A default (or given null) of None leaves the model's value to the adapter.
    A number is >= lo, <= hi, > gt and != ne where set; a list holds `length`
    values; charge(value) counts against ELEMENT_BUDGET."""

    kind: str = "number"
    default: object = _REQUIRED
    lo: float | None = None
    hi: float | None = None
    gt: float | None = None
    ne: float | None = None
    length: int | None = None
    choices: tuple = ()
    charge: Callable | None = None


def _nodes(n_steps: int) -> int:
    return (n_steps + 1) * (n_steps + 2) // 2


#: The fields of each object of a scenario, in the order they are checked.
_SCHEMA = {
    "preferences": {"b": Param(gt=0), "delta": Param(), "R": Param(gt=0, ne=1),
                    "S": Param(gt=0, ne=1)},
    "market": {"r": Param(), "mu": Param(), "sigma": Param(gt=0)},
    "lattice": {"dt": Param(default=0.01, gt=0),
                "n_steps": Param("integer", 500, lo=0, charge=_nodes),
                "tail": Param("choice", "proportional", choices=("proportional", "zero"))},
    "solver": {"epsilon": Param(default=0.0, lo=0), "tol": Param(default=1e-8, gt=0),
               "max_iter": Param("integer", 200, lo=1)},
}
_SCENARIO_KEYS = ("schema_version", "id", *_SCHEMA, "experiment", "seed")
#: A start/stop/step grid object.
_GRID = {"start": Param(), "stop": Param(), "step": Param(ne=0)}
#: A number that defaults to a value of the model.
_MODEL = Param(default=None)


@dataclass(frozen=True)
class Scenario:
    id: str
    preferences: Preferences
    market: Market
    lattice_cfg: dict
    solver_cfg: dict
    experiment: str
    #: The experiment params as given; the digest hashes these.
    params: dict
    seed: int
    #: Every declared param of the experiment, checked, with defaults filled.
    resolved: dict


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


def _declared(raw: dict, declared, where: str) -> None:
    """Reject a key of raw, the object at `where`, that is not declared."""
    for key in raw:
        _require(key in declared, f"not a field of {where or 'the scenario'}; "
                 f"declared: {list(declared)}", f"{where}.{key}" if where else str(key))


def _section(raw, fields: dict[str, Param], where: str) -> dict:
    """The object raw at `where`, resolved against its declared fields: an
    undeclared key is rejected, then each value checked in declaration order."""
    _require(isinstance(raw, dict), "must be an object", where)
    _declared(raw, fields, where)
    return {key: _value(raw.get(key, spec.default), spec, f"{where}.{key}")
            for key, spec in fields.items()}


def _value(val, spec: Param, field: str):
    """val checked against its declaration `spec`."""
    if val is None and spec.default is None:
        return None
    _require(val is not _REQUIRED, "missing required field", field)
    if spec.kind == "choice":
        _require(val in spec.choices, f"must be one of {list(spec.choices)}", field)
        return val
    if spec.kind == "grid":
        return _grid(val, field)
    if spec.kind == "list":
        return _numbers(val, field, spec.length)
    val = _number(val, field, spec.kind == "integer")
    _require(spec.gt is None or val > spec.gt, f"must be > {spec.gt}", field)
    _require(spec.ne is None or val != spec.ne, f"must be != {spec.ne}", field)
    _require(spec.lo is None or val >= spec.lo, f"must be >= {spec.lo}", field)
    _require(spec.hi is None or val <= spec.hi, f"must be <= {spec.hi}", field)
    if spec.charge is not None:
        _within_budget(spec.charge(val), field)
    return val


def _numbers(vals, field: str, length: int | None = None) -> list:
    """A non-empty list (or tuple) of finite numbers, values kept as given."""
    _require(isinstance(vals, (list, tuple)) and len(vals) > 0,
             "must be a non-empty list of numbers", field)
    for i, v in enumerate(vals):
        _number(v, f"{field}[{i}]")
    _require(length is None or len(vals) == length, f"must hold {length} numbers", field)
    return list(vals)


def _grid(spec, field: str) -> np.ndarray:
    """A list of numbers, or a start/stop/step object, as an array of points."""
    if not isinstance(spec, dict):
        return np.asarray(_numbers(spec, field), dtype=float)
    ends = _section(spec, _GRID, field)
    # counted in floats, which may overflow to inf; a count <= 0 is no point
    count = (ends["stop"] - ends["start"]) / ends["step"]
    _require(count > 0, "empty grid", field)
    _within_budget(count, field)
    return np.arange(ends["start"], ends["stop"], ends["step"])


def parse_scenario(raw: dict) -> Scenario:
    """Validate a raw scenario dict and build the typed Scenario.

    Checks every rule `run` depends on, the entry's cross-field rule last.
    Raises ValidationError naming the offending field.
    """
    _require(isinstance(raw, dict), "scenario must be a JSON object", "$")
    _declared(raw, _SCENARIO_KEYS, "")
    version = raw.get("schema_version", _SCHEMA_VERSION)
    _require(version == _SCHEMA_VERSION,
             f"unsupported schema_version {version}", "schema_version")
    _require(isinstance(raw.get("id"), str) and raw["id"] != "",
             "must be a non-empty string", "id")
    _require(all(ch.isalnum() or ch in "-_." for ch in raw["id"]),
             "may contain only alphanumerics, '-', '_', '.'", "id")
    sections = {obj: _section(raw.get(obj, {}), fields, obj)
                for obj, fields in _SCHEMA.items()}

    exp_raw = raw.get("experiment")
    _require(isinstance(exp_raw, dict), "missing experiment object", "experiment")
    _declared(exp_raw, ("name", "params"), "experiment")
    name = exp_raw.get("name")
    _require(isinstance(name, str) and name in _REGISTRY,
             f"unknown experiment; known: {sorted(_REGISTRY)}", "experiment.name")
    entry = _REGISTRY[name]
    params = exp_raw.get("params", {})
    resolved = _section(params, entry.parameters, "experiment.params")

    seed = raw.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
             "must be a non-negative integer", "seed")

    try:
        preferences = Preferences(**sections["preferences"])
    except InvalidParameters as exc:
        raise ValidationError(f"preferences: {exc}", field="preferences") from exc
    scn = Scenario(id=raw["id"], preferences=preferences, market=Market(**sections["market"]),
                   lattice_cfg=sections["lattice"], solver_cfg=sections["solver"],
                   experiment=name, params=params, seed=seed, resolved=resolved)
    if entry.rule is not None:
        entry.rule(scn, resolved)
    return scn


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
    """A runnable experiment: its declared params, the cross-field rule that
    `parse_scenario` applies to them, and `run(scn, params)`, which returns
    (rows, summary)."""

    name: str
    description: str
    parameters: dict[str, Param]
    rule: Callable[[Scenario, dict], None] | None
    run: Callable[[Scenario, dict], tuple[list, dict]]


_REGISTRY: dict[str, CatalogEntry] = {}


def _entry(name: str, description: str, parameters: dict[str, Param] | None = None,
           rule: Callable[[Scenario, dict], None] | None = None):
    """Register the decorated adapter as `name`.  Adapters reach the library
    through module attributes (`solver.`, `experiments.`) at call time, so
    wrappers installed on those attributes see the calls."""
    def register(run):
        _REGISTRY[name] = CatalogEntry(name, description, parameters or {}, rule, run)
        return run
    return register


def _counterexample_rule(scn: Scenario, p: dict) -> None:
    """Every rule of `experiments._counterexample` on its inputs: the slope
    fit needs 8 positive integer horizons, two of them distinct, the tail
    closure the last four unit blocks, and the stream a discount rate
    delta > 0.  The largest horizon sets the unit blocks."""
    T_grid, field = p["T_grid"], "experiment.params.T_grid"
    _within_budget(max(T_grid) * _VALUES_PER_BLOCK, field)
    _require(len(T_grid) >= 8, "needs at least 8 horizons", field)
    _require(all(T > 0 and T == int(T) for T in T_grid),
             "horizons must be positive integers", field)
    _require(len(set(T_grid)) >= 2, "needs at least two distinct horizons", field)
    _require(max(T_grid) >= 4, "needs a largest horizon of at least 4", field)
    _require(scn.preferences.delta > 0.0, "the counterexample needs delta > 0",
             "preferences.delta")


def _verification_steps(scn: Scenario) -> int:
    return min(scn.lattice_cfg["n_steps"], 200)  # the verification lattices' cap


def _candidate_strategy(scn: Scenario, p: dict):
    policy = closed_form.candidate_policy(scn.preferences, scn.market)
    pi = policy.pi_hat if p["pi"] is None else p["pi"]
    xi = policy.eta if p["xi"] is None else p["xi"]
    return closed_form.ProportionalStrategy(pi=float(pi), xi=float(xi))


#: The (pi, xi) of a proportional strategy; the candidate's by default.
_STRATEGY = {"pi": _MODEL, "xi": _MODEL}
_COUNTEREXAMPLE = {"T_grid": Param("list", tuple(range(10, 101, 10)))}
_LEVELS = Param("list", (0.5, 1.5), length=2)


@_entry("candidate_policy", "closed-form candidate policy (pi_hat, eta) and value")
def _run_candidate_policy(scn: Scenario, p: dict):
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
        _STRATEGY)
def _run_picard_solve(scn: Scenario, p: dict):
    prefs, market = scn.preferences, scn.market
    strat = _candidate_strategy(scn, p)
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
        {"scalar_steps": steps, "certified_bound": bound, "width_ratio": ratio}
        for steps, bound, ratio in report.trace
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
        # one normal draw per path and time step, at the 21 times of the fit
        {**_STRATEGY, "nu": _MODEL,
         "n_paths": Param("integer", 100_000, lo=1000, charge=lambda n: n * 21),
         "horizon": Param(default=5.0, gt=0)})
def _run_mc_drift_check(scn: Scenario, p: dict):
    prefs = scn.preferences
    strat = _candidate_strategy(scn, p)
    nu = prefs.delta * prefs.theta if p["nu"] is None else p["nu"]
    report = mc_drift_check(scn.market, strat, nu, prefs.R, n_paths=p["n_paths"],
                            horizon=p["horizon"], seed=scn.seed)
    rows = [{"t": t, "log_mean": lm}
            for t, lm in zip(report.times, report.log_means)]
    summary = {"slope": report.slope, "stderr": report.stderr,
               "n_paths": report.n_paths,
               "target": -closed_form.decay_rate(nu, prefs, scn.market, strat)}
    return rows, summary


@_entry("crra_counterexample",
        "additive-utility stream where the difference form has divergent positive and negative parts",
        _COUNTEREXAMPLE, _counterexample_rule)
def _run_crra_counterexample(scn: Scenario, p: dict):
    rep = experiments.crra_counterexample(scn.preferences.delta, scn.preferences.R,
                                          p["T_grid"])
    return rep.rows(), rep.summary()


@_entry("ezsdu_counterexample",
        "recursive-utility stream where the difference form has divergent positive and negative parts",
        _COUNTEREXAMPLE, _counterexample_rule)
def _run_ezsdu_counterexample(scn: Scenario, p: dict):
    rep = experiments.ezsdu_counterexample(scn.preferences, p["T_grid"])
    return rep.rows(), rep.summary()


@_entry("transversality_sweep",
        "consumption-fraction sweep of decay rates, evaluability, transversality and admitted bubbles",
        {"nu": _MODEL, "xi_grid": Param("grid", _XI_GRID)})
def _run_transversality_sweep(scn: Scenario, p: dict):
    prefs = scn.preferences
    nu = prefs.delta if p["nu"] is None else p["nu"]
    cells = experiments.transversality_sweep(prefs.delta, prefs.R, scn.market, nu,
                                             p["xi_grid"])
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
        {"pi_grid": Param("grid", {"start": 0.0, "stop": 1.5, "step": 0.005}),
         "xi_grid": Param("grid", _XI_GRID)},
        lambda scn, p: _within_budget(p["pi_grid"].size * p["xi_grid"].size,
                                      "experiment.params.xi_grid"))
def _run_policy_grid_search(scn: Scenario, p: dict):
    rep = experiments.policy_grid_search(scn.preferences, scn.market,
                                         p["pi_grid"], p["xi_grid"])
    return list(rep.rows()), rep.summary()


@_entry("aversion_demos",
        "Jensen gaps separating risk aversion (R) from temporal variance aversion (S)",
        {"y_values": _LEVELS, "temporal_levels": _LEVELS,
         "temporal_switch_time": Param(default=1.0)})
def _run_aversion_demos(scn: Scenario, p: dict):
    rep = experiments.aversion_demos(
        scn.preferences, y_values=tuple(p["y_values"]),
        temporal_levels=tuple(p["temporal_levels"]),
        temporal_switch_time=p["temporal_switch_time"])
    return rep.rows(), rep.summary()


@_entry("wellposed_divergence",
        "eta <= 0 probes: value supremum explodes (R<1) or upper bounds collapse (R>1)",
        {"probe_offsets": Param("list", None),
         "n_levels": Param("integer", 13, lo=1, hi=experiments.MAX_DIVERGENCE_LEVELS)})
def _run_wellposed_divergence(scn: Scenario, p: dict):
    rep = experiments.wellposed_divergence(
        scn.preferences, scn.market,
        probe_offsets=p["probe_offsets"], n_levels=p["n_levels"])
    return rep.rows(), rep.summary()


@_entry("verification_check",
        "perturbed optimality identities for the candidate policy plus lattice supersolution checks",
        {"epsilon": Param(default=0.1, gt=0),
         "n_strategies": Param("integer", 5, lo=0),
         "n_samples": Param("integer", 10_000, lo=1, charge=lambda n: n)},
        # one lattice and one residual check per strategy
        lambda scn, p: _within_budget(p["n_strategies"] * _nodes(_verification_steps(scn)),
                                      "experiment.params.n_strategies"))
def _run_verification_check(scn: Scenario, p: dict):
    rep = experiments.verification_check(
        scn.preferences, scn.market, epsilon=p["epsilon"],
        n_strategies=p["n_strategies"], seed=scn.seed, n_samples=p["n_samples"],
        dt=scn.lattice_cfg["dt"], n_steps=_verification_steps(scn))
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
    rows, summary = _REGISTRY[scn.experiment].run(scn, scn.resolved)
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


def _field_json(name: str, spec: Param) -> dict:
    """One experiment param as `list --json` prints it: name, kind, default
    (null where the entry fills the value in) and the checks that are set."""
    checks = {key: getattr(spec, key) for key in ("lo", "hi", "gt", "ne", "length")
              if getattr(spec, key) is not None}
    if spec.choices:
        checks["choices"] = list(spec.choices)
    return {"name": name, "kind": spec.kind, "default": spec.default, **checks}


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
                  "parameters": list(e.parameters),
                  "fields": [_field_json(k, spec) for k, spec in e.parameters.items()]}
                 for e in entries],
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
    except EzmertonError as exc:
        print(_error_json("numeric", exc), file=sys.stderr)
        return 3
    except OSError as exc:
        print(_error_json("io", exc), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
