"""Run one workload of the ezmerton benchmark and report its metrics.

    python3 perfbench/run.py --workload value_ladder --seed 1 --seconds 15 --trace 0

The run repeats passes over the workload's fixed operation list until
--seconds have gone by (at least one pass), checks every output against its
oracle, prints the figures by name with their unit, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  --smoke makes one pass at each workload's
smallest size.  Details (environment, per-operation records, spans) are
written under .perfbench_out/ in the checkout.

Measurements act only on the benchmark's own processes: no CPU pinning and no
cache dropping.  Thread pools of numerical libraries are pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("value_ladder", "split_sweep", "evidence", "cli_run")
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
EXPERIMENT_NAMES = ("aversion_demos", "crra_counterexample", "ezsdu_counterexample",
                    "policy_grid_search", "transversality_sweep",
                    "verification_check", "wellposed_divergence")


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def run_pass(ops) -> list[dict]:
    """One pass: time each operation, then check its output (untimed)."""
    from ezmerton.errors import EzmertonError
    from workloads import Failed, Wrong

    records = []
    for op in ops:
        status, facts, result = "ok", {}, None
        start = time.perf_counter()
        try:
            result = op.run()
        except (EzmertonError, Failed) as exc:  # a documented failure
            status, facts = "failed", {"error": f"{type(exc).__name__}: {exc}"}
            facts["known"] = op.known_failure is not None and isinstance(exc, op.known_failure)
        except Exception as exc:  # a crash: counts as failed and as incorrect
            status, facts = "crashed", {"error": f"{type(exc).__name__}: {exc}",
                                        "traceback": traceback.format_exc()}
        took = time.perf_counter() - start
        if status == "ok":
            try:
                facts = op.check(result)
            except Wrong as exc:
                status, facts = "wrong", {"error": str(exc)}
        records.append({"label": op.label, "primary": op.primary,
                        "seconds": took, "status": status, **facts})
    return records


def all_correct(records: list[dict]) -> bool:
    """Only an operation's known failure leaves a run correct: a wrong output,
    a crash or any other documented error makes it incorrect."""
    return all(r["status"] == "ok" or r.get("known") for r in records)


def setup_probe(args, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup", args.workload,
         str(args.seed), str(workdir / "probe")],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment() -> dict:
    import numpy
    import scipy

    caches = {}  # level -> size as the kernel reports it, e.g. "307200K"
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            caches[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            pass
    llc = caches[max(caches)] if caches else None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "last_level_cache": llc,
        "threads_pinned": THREAD_VARS,
        "isolation": "acts only on the benchmark's own processes; "
                     "no CPU pinning, no cache dropping",
    }


def peak_rss_mb(workload: str) -> float:
    # cli_run does its work in child processes; ru_maxrss is in KiB on Linux
    who = resource.RUSAGE_CHILDREN if workload == "cli_run" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def end_to_end(workload: str, passes, setup_samples) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, the named figures of this workload)."""
    records = [r for recs in passes for r in recs]
    walls = [sum(r["seconds"] for r in recs) for recs in passes]
    primary = [r["seconds"] for r in records if r["primary"]]
    failed = sum(r["status"] != "ok" for r in records)
    relerrs = [r["relerr"] for r in records if "relerr" in r]
    # no successful value at all reads as a 100% error
    worst = max(relerrs, default=1.0)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_mean_s": (statistics.fmean(primary), "s"),
        "op_p90_s": (p90(primary), "s"),
        "ok_ratio": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "relerr_max": (worst, "1"),
    }
    named = {"fail_ratio": (failed / len(records), "ratio"),
             "samples": (len(primary), "count")}

    def median_of(label: str) -> float:
        return statistics.median(r["seconds"] for r in records if r["label"] == label)

    if workload == "value_ladder":
        for label in dict.fromkeys(r["label"] for r in records):
            n = label.split(".")[1]
            named[f"solve_s.{n}"] = (median_of(label), "s")
            errs = [r["relerr"] for r in records if r["label"] == label and "relerr" in r]
            named[f"relerr.{n}"] = (max(errs, default=1.0), "1")
    elif workload == "evidence":
        named["check_s"] = (statistics.median(primary), "s")
        named["check_p90_s"] = metrics["op_p90_s"]
        named["genutil_s"] = (median_of("genutil"), "s")
    elif workload == "cli_run":
        named["cli_run_s"] = (statistics.median(primary), "s")
    return metrics, named


def per_layer(tr, traced: list[str], passes) -> dict:
    """Per-layer metrics: set-up plus the median traced pass.

    Even passes ran untraced and odd ones traced; the difference of their
    median walls is the tracing overhead.
    """
    from tracer import MODULES
    from workloads import SPLIT_KEYS, split_key

    def total(fn: str, field: int) -> float:
        per_pass = [tr.totals.get((ph, fn), [0, 0, 0])[field] for ph in traced]
        return tr.totals.get(("setup", fn), [0, 0, 0])[field] + statistics.median(per_pass)

    def busy(fn: str) -> tuple[float, str]:
        return total(fn, 1) / 1e9, "s"

    def own(fn: str) -> tuple[float, str]:
        return total(fn, 2) / 1e9, "s"

    def calls(fn: str) -> tuple[float, str]:
        return total(fn, 0), "count"

    def module_self(mod: str) -> tuple[float, str]:
        names = {name for (_, name) in tr.totals if name.startswith(mod + ".")}
        return sum(total(n, 2) for n in names) / 1e9, "s"

    last = traced[-1]
    spans = [s for s in tr.spans if s["phase"] in ("setup", last)]
    solves = [s for s in spans if s["name"] == "solver.picard_solve" and s["phase"] == last]
    done = [s["attrs"] for s in solves if "error" not in s["attrs"]]  # with a report
    n_max = max((s["attrs"]["n"] for s in spans if s["name"] == "lattice.build_lattice"),
                default=0)
    levels = [s["attrs"]["levels"] for s in spans
              if s["name"] == "solver.generalized_utility" and "attrs" in s]
    walls = [sum(r["seconds"] for r in recs) for recs in passes]
    untraced = statistics.median(walls[0::2])
    traced_wall = statistics.median(walls[1::2])
    overhead = traced_wall - untraced
    reference = [r for r in passes[-1] if r["label"] == "cli.picard_solve"]

    m = {
        "preferences.kernel_s": busy("preferences.transformed_aggregator_grid"),
        "preferences.kernel_calls": calls("preferences.transformed_aggregator_grid"),
        "preferences.consumption_grid_s": busy("preferences.transformed_consumption"),
        "lattice.build_s": busy("lattice.build_lattice"),
        "lattice.sweep_s": busy("lattice.step_expectation"),
        "lattice.sweep_calls": calls("lattice.step_expectation"),
        "lattice.uncond_s": busy("lattice.unconditional_expectation"),
        "lattice.uncond_calls": calls("lattice.unconditional_expectation"),
        # computed, not measured: one float per node of the largest lattice
        "lattice.grid_bytes": (8 * (n_max + 1) * (n_max + 2) // 2, "bytes"),
        "lattice.mc_drift_s": busy("lattice.mc_drift_check"),
        "solver.order_check_s": busy("solver.order_check"),
        "solver.reference_integral_s": busy("solver.reference_integral"),
        "solver.apply_s": busy("solver.apply_recursion"),
        "solver.picard_solve_s": busy("solver.picard_solve"),
        "solver.picard_solve_self_s": own("solver.picard_solve"),
        "solver.picard_solve_calls": calls("solver.picard_solve"),
        "solver.iterations": (sum(a["iterations"] for a in done), "count"),
        "solver.residual": (max((a["residual"] for a in done), default=0.0), "1"),
        "solver.clamp_events": (sum(a["clamp_events"] for a in done), "count"),
    }
    for key in SPLIT_KEYS:
        point = [s["attrs"] for s in solves if split_key(s["attrs"]["rho"]) == key]
        # a point this workload does not solve reads 0; a figure the solver's
        # state did not yield (see tracer._attrs) reads -1, never a measurement
        a = point[0] if point else {"iterations": 0, "chi": 0.0, "clamp_events": 0}
        m[f"solver.split_outer_iterations.{key}"] = (a.get("iterations", -1), "count")
        m[f"solver.chi.{key}"] = (a.get("chi", -1.0), "1")
        m[f"solver.clamp_events.{key}"] = (a.get("clamp_events", -1), "count")
    m.update({
        "solver.check_solution_s": busy("solver.check_solution"),
        "solver.check_solution_self_s": own("solver.check_solution"),
        "solver.check_solution_calls": calls("solver.check_solution"),
        "solver.compare_s": busy("solver.compare"),
        "solver.generalized_utility_s": busy("solver.generalized_utility"),
        "solver.generalized_utility_self_s": own("solver.generalized_utility"),
        "solver.genutil_levels": (max(levels, default=0), "count"),
    })
    for name in EXPERIMENT_NAMES:
        m[f"experiments.{name}_s"] = busy(f"experiments.{name}")
    m.update({
        "cli.parse_s": busy("cli.parse_scenario"),
        "cli.run_scenario_s": busy("cli.run_scenario"),
        "cli.run_scenario_self_s": own("cli.run_scenario"),
        "cli.artifact_bytes": (reference[0].get("artifact_bytes", 0) if reference else 0,
                               "bytes"),
    })
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_self(mod)
    m.update({
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / untraced, "ratio"),
        "trace.spans": (statistics.median(
            sum(s["phase"] == ph for s in tr.spans) for ph in traced), "count"),
    })
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at each workload's smallest size")
    args = parser.parse_args(argv)

    if not (SRC / "ezmerton" / "__init__.py").is_file():
        print(f"error: no ezmerton sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)  # before numpy loads, here and in children
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    import tracer  # stdlib only; ezmerton is not imported yet

    # set-up: this process's own fresh import and inputs, plus fresh children
    start = time.perf_counter()
    import workloads

    ctx = workloads.Context(args.seed, args.smoke, workdir)
    tr = tracer.Tracer() if args.trace else None
    undo = tracer.install(tr, workloads) if tr else None
    ops = workloads.WORKLOADS[args.workload](ctx)
    setup_samples = [time.perf_counter() - start]
    if undo:
        undo()
    elif not args.smoke:
        setup_samples += [setup_probe(args, workdir) for _ in range(SETUP_SAMPLES - 1)]

    passes, traced_phases = [], []
    started = time.perf_counter()
    min_passes = 2 if args.trace else 1
    while True:
        phase = f"pass{len(passes)}"
        undo = None
        if args.trace and len(passes) % 2 == 1:
            traced_phases.append(phase)
            tr.phase = phase
            ctx.trace_dir = workdir / "spans" / phase
            ctx.trace_dir.mkdir(parents=True)
            undo = tracer.install(tr, workloads)
        try:
            passes.append(run_pass(ops))
        finally:
            if undo:
                undo()
        if ctx.trace_dir is not None:
            for path in sorted(ctx.trace_dir.glob("*.json")):
                tr.merge(phase, json.loads(path.read_text()))
            ctx.trace_dir = None
        if len(passes) >= min_passes and (
                args.smoke or time.perf_counter() - started >= args.seconds):
            break

    records = [r for recs in passes for r in recs]
    failed = sum(r["status"] != "ok" for r in records)
    correct = all_correct(records)
    env = environment()
    if args.trace:
        metrics = per_layer(tr, traced_phases, passes)
        named = {}
        (workdir / "spans.json").write_text(json.dumps(tr.to_json_dict()))
    else:
        metrics, named = end_to_end(args.workload, passes, setup_samples)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  attempted {len(records)}  failed {failed}")
    print("env " + json.dumps(env))
    for r in records:
        if r["status"] != "ok":
            known = " (known)" if r.get("known") else ""
            print(f"  {r['status']}{known}: {r['label']}: {r['error']}")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    (workdir / "result.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "setup_samples": setup_samples,
         "named": named, "metrics": metrics, "records": records}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
