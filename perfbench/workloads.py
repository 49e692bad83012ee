"""The benchmark's four workloads.

Each workload function builds its inputs (the set-up) and returns the fixed
operation list of one pass.  An operation is a call into the program (`run`, timed)
and an oracle (`check`, untimed) that raises `Wrong` when the output is not
correct.  The program receives only the generated inputs; the seed chooses
the evidence scalings and the scenario seeds of the CLI runs.

Why these four: `value_ladder` is the direct solver branch across grid sizes
(kernel, backward sweep and `unconditional_expectation` shift shares with n);
`split_sweep` is the nested chi-split iteration on a small grid, where Python
overhead and the stopping rule dominate; `evidence` is the residual checker,
truncation levels and verification, where a solver change barely shows; and
`cli_run` is the only one that pays for interpreter start-up, imports,
parsing and artifact writing.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ezmerton import (
    AdaptedGrid,
    Market,
    Preferences,
    TailClosure,
    build_lattice,
    candidate_policy,
    check_solution,
    compare,
    consumption_grid,
    generalized_utility,
    picard_solve,
    transformed_consumption,
)
from ezmerton.errors import NotConverged
from ezmerton.experiments import verification_check

HERE = Path(__file__).resolve().parent
REF_PREFS = Preferences(b=1.0, delta=0.03, R=2.0, S=2.5)
REF_MARKET = Market(r=0.02, mu=0.07, sigma=0.2)
HORIZON = 5.0
#: Relative error allowed per unit dt: twice the first-order constant the
#: reference point shows (4.7e-6 at dt 0.05, 9.4e-7 at 0.01, 2.3e-7 at 0.0025).
FIRST_ORDER_TOL = 2e-4
SPLIT_TOL = 1e-4
CLI_REPEATS = 4
#: (R, S) points of `split_sweep`; rho = -1, -1.25, -1.5, -2, -3.  rho = -1.5
#: is the known chi = 1 defect and stays in the list.
SPLIT_POINTS = ((2.0, 3.0), (3.0, 5.5), (2.0, 3.5), (2.0, 4.0), (2.0, 5.0))
KNOWN_DEFECT_RHO = -1.5  # raises NotConverged until the chi = 1 defect is fixed


def split_key(rho: float) -> str:
    return f"rho{rho:g}"


SPLIT_KEYS = tuple(split_key(Preferences(b=1.0, delta=0.03, R=R, S=S).rho)
                   for R, S in SPLIT_POINTS)


class Wrong(Exception):
    """An output that fails its oracle."""


class Failed(Exception):
    """A failure the program reports in a documented way (an exit code 2-4)."""


@dataclass
class Context:
    seed: int
    smoke: bool
    workdir: Path
    trace_dir: Path | None = None


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    primary: bool = True  # counts in op_mean_s / op_p90_s
    #: The one documented error this operation is known to raise today; any
    #: other failure of any operation makes the run incorrect.
    known_failure: type[Exception] | None = None


def u_grid(prefs: Preferences, lat) -> AdaptedGrid:
    return AdaptedGrid([
        np.asarray(transformed_consumption(prefs, k * lat.dt, c), dtype=float)
        for k, c in enumerate(consumption_grid(lat).values)
    ])


def relerr(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def _value_check(prefs: Preferences, target: float, tol: float):
    def check(report) -> dict:
        err = relerr(report.utility_at_zero(prefs), target)
        if not (report.converged and err <= tol):
            raise Wrong(f"relerr {err:.3e} > {tol:.1e}")
        return {"relerr": err}
    return check


def _verdict(expected: str):
    def check(report) -> dict:
        if report.classification != expected:
            raise Wrong(f"verdict {report.classification}, expected {expected}")
        return {}
    return check


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def value_ladder(ctx: Context) -> list[Op]:
    """picard_solve on the candidate stream at the reference point, horizon 5."""
    policy = candidate_policy(REF_PREFS, REF_MARKET)
    tail = TailClosure.proportional(policy.strategy, REF_PREFS, REF_MARKET)
    target = policy.value(1.0)
    ops = []
    for n in (100, 500, 2000):
        lat = build_lattice(REF_MARKET, policy.strategy, HORIZON / n, n)
        U = u_grid(REF_PREFS, lat)
        # the primary rungs are the two that wall_s, mostly n=2000, hardly sees
        ops.append(Op(f"solve.n{n}",
                      lambda U=U, lat=lat: picard_solve(REF_PREFS, U, lat, tail),
                      _value_check(REF_PREFS, target, FIRST_ORDER_TOL * lat.dt),
                      primary=n < 2000))
    return ops


def split_sweep(ctx: Context) -> list[Op]:
    """picard_solve at n=100 (dt 0.05) on the chi-split branch, rho <= -1."""
    ops = []
    for R, S in SPLIT_POINTS:
        prefs = Preferences(b=1.0, delta=0.03, R=R, S=S)
        policy = candidate_policy(prefs, REF_MARKET)
        lat = build_lattice(REF_MARKET, policy.strategy, 0.05, 100)
        tail = TailClosure.proportional(policy.strategy, prefs, REF_MARKET)
        U = u_grid(prefs, lat)
        known = prefs.rho == KNOWN_DEFECT_RHO
        # the primary ops are the solves that converge today
        ops.append(Op(f"split.{split_key(prefs.rho)}",
                      lambda p=prefs, U=U, lat=lat, t=tail: picard_solve(p, U, lat, t),
                      _value_check(prefs, policy.value(1.0), SPLIT_TOL),
                      primary=not known, known_failure=NotConverged if known else None))
    return ops


def evidence(ctx: Context) -> list[Op]:
    """Sub/supersolution pairs, one divergence call and one verification run.

    50 pairs give 100 `check_solution` verdicts a pass, so the p90 has ten
    samples beyond it in every pass.
    """
    policy = candidate_policy(REF_PREFS, REF_MARKET)
    lat = build_lattice(REF_MARKET, policy.strategy, 0.02, 100)
    tail = TailClosure.proportional(policy.strategy, REF_PREFS, REF_MARKET)
    U = u_grid(REF_PREFS, lat)
    W = picard_solve(REF_PREFS, U, lat, tail).solution
    zero = AdaptedGrid([np.zeros(k + 1) for k in range(lat.n_steps + 1)])
    rng = np.random.default_rng(ctx.seed)
    size = lat.n_steps + 1
    ops = []
    for i in range(2 if ctx.smoke else 50):
        sub = W.scaled(np.sort(rng.uniform(0.5, 0.95, size)))        # nondecreasing
        sup = W.scaled(np.sort(rng.uniform(1.05, 1.5, size))[::-1])  # nonincreasing
        ops += [
            Op(f"check.sub{i}",
               lambda g=sub: check_solution(g, U, lat, REF_PREFS, 1e-6, "W"),
               _verdict("subsolution")),
            Op(f"check.sup{i}",
               lambda g=sup: check_solution(g, U, lat, REF_PREFS, 1e-6, "W"),
               _verdict("supersolution")),
            Op(f"compare{i}", lambda a=sub, b=sup: compare(a, b),
               _ordered, primary=False),
        ]

    def genutil_check(report) -> dict:
        base = report.values[0]
        homog = max(relerr(v, n ** (REF_PREFS.R - 1.0) * base)
                    for n, v in zip(report.ns, report.values))
        if report.classification != "diverges_to_minus_inf" or homog > 1e-10:
            raise Wrong(f"{report.classification}, homogeneity rel {homog:.2e}")
        err = relerr(base, policy.value(1.0))
        if err > FIRST_ORDER_TOL * lat.dt:
            raise Wrong(f"base level relerr {err:.2e}")
        return {"relerr": err}

    ops.append(Op("genutil",
                  lambda: generalized_utility(zero, REF_PREFS, REF_MARKET, lat, tail,
                                              n_max=8192),
                  genutil_check, primary=False))

    def verification_ok(report) -> dict:
        kinds = {v["classification"] for v in report.strategy_verdicts}
        if not kinds <= {"supersolution", "solution"}:
            raise Wrong(f"strategy verdicts {sorted(kinds)}")
        return {}

    ops.append(Op("verification_check",
                  lambda: verification_check(REF_PREFS, REF_MARKET, epsilon=0.1,
                                             n_strategies=5, seed=ctx.seed,
                                             n_samples=10_000, dt=0.01, n_steps=200),
                  verification_ok, primary=False))
    return ops


def _ordered(verdict) -> dict:
    if not verdict.ordered:
        raise Wrong(f"{len(verdict.violations)} ordering violations")
    return {}


# ---------------------------------------------------------------------------
# cli_run: one fresh `python -m ezmerton run` process per operation
# ---------------------------------------------------------------------------

def _close(value, target, rel):
    return value is not None and abs(value - target) <= rel * abs(target)


def _cli_oracles() -> dict[str, Callable[[dict], dict]]:
    """Summary oracle of each catalog entry; raises Wrong on a miss."""

    def need(cond: bool, what: str):
        if not cond:
            raise Wrong(what)

    def picard(s):
        err = relerr(s["utility_at_zero"], s["closed_form_value"])
        dt = 0.01  # the reference scenario's lattice step
        need(s["converged"] and err <= FIRST_ORDER_TOL * dt, f"relerr {err:.3e}")
        return {"relerr": err}

    def candidate(s):
        need(_close(s["pi_hat"], 0.625, 1e-10) and _close(s["eta"], 0.033375, 1e-10)
             and _close(s["value_at_unit_wealth"], -289.044388700143, 1e-10),
             "candidate policy differs from the closed form")
        return {}

    def drift(s):
        need(abs(s["slope"] - s["target"]) <= 5.0 * s["stderr"],
             f"slope {s['slope']} vs {s['target']} (se {s['stderr']})")
        return {}

    def counterexample(s):
        need(s["positive_slope"] > 0 and s["negative_slope"] > 0
             and math.isfinite(s["discounted_value_at_0"]),
             "difference-form parts do not both grow")
        return {}

    def crra(s):
        need(_close(s["discounted_value_at_0"], -1.0, 1e-8), "V_0 != 1/(1-R)")
        return counterexample(s)

    def sweep(s):
        need((s["n_cells"], s["n_evaluable"], s["n_transversal"], s["n_bubbles"])
             == (39, 13, 13, 0), f"sweep counts {s}")
        return {}

    def grid(s):
        need(abs(s["argmax_pi"] - 0.625) <= 0.005
             and abs(s["argmax_xi"] - 0.033375) <= 0.005, "argmax off the candidate")
        return {}

    def aversion(s):
        need(s["risk_gap"] > 0 and s["temporal_gap"] > 0, "non-positive Jensen gap")
        return {}

    def divergence(s):
        need(s["verdict"] == "diverges_to_minus_inf" and s["last_value"] < -1e6,
             f"verdict {s['verdict']}")
        return {}

    def verification(s):
        need(s["supersolution_count"] == s["strategy_count"] == 5
             and s["max_A1"] <= 1e-12 and s["max_A2"] <= 1e-12
             and s["max_abs_A3"] <= 1e-10, "optimality identities fail")
        return {}

    return {
        "picard_solve": picard, "candidate_policy": candidate,
        "mc_drift_check": drift, "crra_counterexample": crra,
        "ezsdu_counterexample": counterexample, "transversality_sweep": sweep,
        "policy_grid_search": grid, "aversion_demos": aversion,
        "wellposed_divergence": divergence, "verification_check": verification,
    }


def _scenario(name: str, seed: int) -> dict:
    # wellposed_divergence needs eta <= 0, which a negative discount rate gives
    delta = -0.1 if name == "wellposed_divergence" else 0.03
    return {
        "schema_version": 1,
        "id": f"bench-{name}",
        "preferences": {"b": 1.0, "delta": delta, "R": 2.0, "S": 2.5},
        "market": {"r": 0.02, "mu": 0.07, "sigma": 0.2},
        "lattice": {"dt": 0.01, "n_steps": 500, "tail": "proportional"},
        "experiment": {"name": name, "params": {}},
        "seed": seed,
    }


def cli_run(ctx: Context) -> list[Op]:
    """Fresh-process runs: the reference scenario (n=500) `CLI_REPEATS` times,
    then one scenario per other catalog entry.

    While `ctx.trace_dir` is set, each process runs under `child.py trace`,
    which writes its spans there.
    """
    oracles = _cli_oracles()
    scen_dir = ctx.workdir / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for i, name in enumerate(sorted(oracles)):
        paths[name] = scen_dir / f"{name}.json"
        paths[name].write_text(json.dumps(_scenario(name, ctx.seed * 100 + i)))
    first_bytes: dict[str, dict[str, bytes]] = {}
    count = itertools.count(1)

    def run(name: str):
        out = ctx.workdir / "out" / str(next(count))
        cmd = [sys.executable, "-m", "ezmerton", "run"]
        if ctx.trace_dir is not None:
            cmd = [sys.executable, str(HERE / "child.py"), "trace",
                   str(ctx.trace_dir / f"{out.name}.json"), "run"]
        cmd += ["--scenario", str(paths[name]), "--out-dir", str(out), "--quiet"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode in (2, 3, 4):  # validation, numeric or I/O error
            raise Failed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return out, proc

    def check(name: str, res) -> dict:
        out, proc = res
        if proc.returncode != 0:
            raise Wrong(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        artifacts = {p.suffix: p.read_bytes() for p in out.glob(f"{name}_*")}
        if artifacts != first_bytes.setdefault(name, artifacts) or len(artifacts) != 2:
            raise Wrong("CSV/JSON differ between runs of one scenario and seed")
        facts = oracles[name](json.loads(artifacts[".json"])["summary"])
        facts["artifact_bytes"] = sum(len(b) for b in artifacts.values())
        return facts

    names = ["picard_solve"] * (1 if ctx.smoke else CLI_REPEATS)
    names += [n for n in sorted(oracles) if n != "picard_solve"]
    return [Op(f"cli.{name}", lambda n=name: run(n), lambda res, n=name: check(n, res),
               primary=name == "picard_solve")
            for name in names]


WORKLOADS = {
    "value_ladder": value_ladder,
    "split_sweep": split_sweep,
    "evidence": evidence,
    "cli_run": cli_run,
}
