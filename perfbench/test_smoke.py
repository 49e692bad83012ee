"""Smoke test of the benchmark itself: one pass of each workload at its
smallest size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

Checks the result line's shape, that every metric BENCHMARK.json declares is
reported with its declared unit, and that every figure named for the workload
is printed by name with a unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COMMON = ["setup_s", "wall_s", "fail_ratio", "peak_rss_mb"]
NAMED = {
    "value_ladder": ["solve_s.n100", "solve_s.n500", "solve_s.n2000",
                     "relerr.n100", "relerr.n500", "relerr.n2000"],
    "split_sweep": ["relerr_max"],
    "evidence": ["check_s", "check_p90_s", "genutil_s"],
    "cli_run": ["cli_run_s", "relerr_max"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if line.startswith("  ") and len(fields) == 3:
            printed[fields[0]] = fields[2]
    expected = dict(declared)
    if not trace:
        expected.update({name: printed.get(name) for name in COMMON + NAMED[workload]})
    for name, unit in expected.items():
        assert printed.get(name) and printed[name] == unit, name


def test_refuses_without_sources(tmp_path):
    """Outside a checkout (no src/ezmerton) the run fails without a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "value_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_only_the_known_failure_keeps_a_run_correct():
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from ezmerton.errors import NotConverged, PreconditionFailed
    from run import all_correct, run_pass
    from workloads import Op

    def raises(exc):
        def run():
            raise exc("boom")
        return run

    def op(label, run, known=None):
        return Op(label, run, lambda result: {}, known_failure=known)

    known = op("known", raises(NotConverged), known=NotConverged)
    assert all_correct(run_pass([op("fine", lambda: 1), known]))
    for other in (op("new", raises(NotConverged)),
                  op("other", raises(PreconditionFailed), known=NotConverged),
                  op("crash", raises(ValueError))):
        records = run_pass([known, other])
        assert [r["status"] != "ok" for r in records] == [True, True]
        assert not all_correct(records), other.label
