"""The ROADMAP "Baseline" figures that `run.py` does not report.

    python3 perfbench/baseline.py

Run it from the root of a checkout. The ladder's solve times, relative
errors, iterations and kernel share, and the import time, come from
`run.py --workload value_ladder` and `--workload cli_run` (see BASELINE.md).
This script adds the rest: the time of one operator application, the
Richardson values and contraction ratios, the chi-split cost at rho = -2.5
and -4.5, and which scipy import costs what. It prints one line per figure:
the ROADMAP's value, the measured value, and whether they agree within the
ROADMAP's stated ±20%. Times are medians of a few repeats on one thread.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "PYTHONPATH": str(SRC)})
sys.path[:0] = [str(SRC), str(HERE)]


def fresh_import_s(setup: str, stmt: str, repeats: int = 5) -> float:
    """Median seconds of `stmt` in a fresh interpreter, after `setup`."""
    code = (f"import time\n{setup}\nt = time.perf_counter()\n{stmt}\n"
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(repeats))


def timed(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def main() -> int:
    from ezmerton import (Preferences, TailClosure, apply_recursion, build_lattice,
                          candidate_policy, picard_solve)
    from workloads import REF_MARKET, REF_PREFS, relerr, u_grid

    rows = []

    def row(figure: str, roadmap: float | None, measured: float, fmt: str = ".3g"):
        agree = "" if roadmap is None else (
            "agrees" if abs(measured - roadmap) <= 0.2 * abs(roadmap) else "DISAGREES")
        shown = "-" if roadmap is None else format(roadmap, fmt)
        rows.append(f"{figure:<50} {shown:>10} {format(measured, fmt):>10}  {agree}")

    policy = candidate_policy(REF_PREFS, REF_MARKET)
    tail = TailClosure.proportional(policy.strategy, REF_PREFS, REF_MARKET)
    target = policy.value(1.0)

    def solve(n: int):
        lat = build_lattice(REF_MARKET, policy.strategy, 5.0 / n, n)
        U = u_grid(REF_PREFS, lat)
        return lat, U, picard_solve(REF_PREFS, U, lat, tail)

    # horizon 5 at dt = 0.02, 0.01, 0.005: n = 250, 500, 1000
    reports = {}
    for n in (250, 500, 1000):
        lat, U, reports[n] = solve(n)
        if n == 500:
            W = reports[n].solution
            took, _ = timed(lambda: apply_recursion(REF_PREFS, U, W, lat, tail), 5)
            row("one application n=500 (ms)", 26, 1e3 * took)
            ratios = reports[n].contraction_ratios
            row("observed contraction ratio n=500, first", 0.01, ratios[0])
            row("observed contraction ratio n=500, last", 0.01, ratios[-1])
    lat, U, report = solve(2000)
    took, _ = timed(lambda: apply_recursion(REF_PREFS, U, report.solution, lat, tail), 5)
    row("one application n=2000 (ms)", 148, 1e3 * took)

    # Richardson extrapolation 2V(dt/2) - V(dt)
    values = {n: r.utility_at_zero(REF_PREFS) for n, r in reports.items()}
    row("Richardson relerr dt 0.02->0.01", 8.9e-10,
        relerr(2 * values[500] - values[250], target))
    row("Richardson relerr dt 0.01->0.005", 2.0e-10,
        relerr(2 * values[1000] - values[500], target))

    # The ROADMAP does not state dt for these; dt=0.01 (the CLI default) matches
    # its rho=-2.5 figure, and dt=0.05 is the split_sweep workload's lattice.
    for S, secs in ((4.5, 0.48), (6.5, 2.6)):  # R=2: rho = -2.5, -4.5
        prefs = Preferences(b=1.0, delta=0.03, R=2.0, S=S)
        pol = candidate_policy(prefs, REF_MARKET)
        t = TailClosure.proportional(pol.strategy, prefs, REF_MARKET)
        for dt in (0.01, 0.05):
            lat = build_lattice(REF_MARKET, pol.strategy, dt, 100)
            U = u_grid(prefs, lat)
            took, _ = timed(lambda: picard_solve(prefs, U, lat, t), 3)
            row(f"chi-split solve rho={prefs.rho:g}, n=100, dt={dt} (s)",
                secs if dt == 0.01 else None, took)

    row("import scipy.stats after numpy (s)", None,
        fresh_import_s("import numpy", "import scipy.stats"))
    row("import scipy.integrate after numpy (s)", None,
        fresh_import_s("import numpy", "import scipy.integrate"))
    # what dropping scipy.stats saves while closed_form/experiments keep
    # importing scipy.integrate
    row("import scipy.stats after scipy.integrate (s)", 0.6,
        fresh_import_s("import numpy, scipy.integrate", "import scipy.stats"))

    print(f"{'figure':<50} {'ROADMAP':>10} {'measured':>10}")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
