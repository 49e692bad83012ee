"""Fresh-interpreter entry points of the benchmark.

    python3 perfbench/child.py setup <workload> <seed> <workdir>
        Times `import ezmerton` plus the workload's set-up in this fresh
        interpreter and prints {"setup_s": seconds}.  For cli_run, set-up is
        the import alone.

    python3 perfbench/child.py trace <spans.json> <ezmerton CLI arguments...>
        Runs the ezmerton CLI like `python -m ezmerton`, with spans recorded
        around every public function, and writes them to <spans.json>.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def setup(workload: str, seed: str, workdir: str) -> int:
    start = time.perf_counter()
    import ezmerton  # noqa: F401  (the fresh import is part of set-up)
    import workloads

    if workload != "cli_run":
        workloads.WORKLOADS[workload](
            workloads.Context(int(seed), False, Path(workdir)))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def trace(spans_path: str, *cli_args: str) -> int:
    import ezmerton.cli
    import tracer

    tr = tracer.Tracer()
    tr.phase = "pass"
    undo = tracer.install(tr)
    try:
        code = ezmerton.cli.main(list(cli_args))
    finally:
        undo()
        Path(spans_path).write_text(json.dumps(tr.to_json_dict()))
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "trace": trace}[mode](*rest))
