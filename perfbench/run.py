"""majorep benchmark: one command, four closed-loop workloads, every output checked.

    python3 perfbench/run.py --workload constellations --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository.  The package is imported
from ``src/``; nothing is installed.  Set-up is timed from a fresh interpreter
to the first timed call, several times, and its median is ``setup_s``.  The
last process of those continues into the timed phase (``worker.py``).  BLAS is
pinned to one thread in every child.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The full report -- environment, per-class
medians, failures by class, the tail percentile and its sample count -- is
written to ``.perfbench/results/``.  Exit code 0 on success, 2 when the
package source is missing, 1 when a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def units(section: str) -> dict[str, str]:
    """Metric name to unit, in the order BENCHMARK.json lists them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class Child:
    """A worker process whose wall time from spawn to READY is its set-up time."""

    def __init__(self, argv, env, deadline):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self.proc.kill)
        self.timer.start()
        self.setup_s = None
        for line in self.proc.stdout:
            if line.strip() == "READY":
                self.setup_s = time.perf_counter() - self.start
                break

    def finish(self) -> list[str]:
        lines = self.proc.stdout.read().splitlines()
        code = self.proc.wait()
        self.timer.cancel()
        if code != 0 or self.setup_s is None:
            raise RuntimeError(f"worker exited with code {code}")
        return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the self-tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "majorep", "__init__.py")):
        print("error: run from the repository root; src/majorep is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            child = Child(argv + ["--setup-only"], env, deadline)
            child.finish()
            setups.append(child.setup_s)
        child = Child(argv, env, deadline)
        setups.append(child.setup_s)
        lines = child.finish()
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {args.workload} worker failed: {exc}", file=sys.stderr)
        return 1

    report = result.pop("report")
    report["setup_samples_s"] = setups
    if args.trace:
        wanted = units("per_layer")
        values = result["metrics"]
    else:
        wanted = units("end_to_end")
        values = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = set(wanted) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in wanted.items()}
    os.makedirs(os.path.join(".perfbench", "results"), exist_ok=True)
    tag = "-smoke" if args.smoke else ""
    out = os.path.join(".perfbench", "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json")
    with open(out, "w") as fh:
        json.dump(dict(result, report=report), fh, indent=1)
    fail = report["failures"]
    print(f"{args.workload}: {fail['attempted']} attempted, {fail['failed']} failed "
          f"({fail['failure_rate']:.4f}); by class {fail['by_class']}; report in {out}")
    defect = fail["known_defect"]
    if defect["operations"]:
        print(f"known multiplicity defect (measured, not gated): {defect['wrong']} of "
              f"{defect['operations']} degenerate-family operations mislabelled or not rebuilt "
              f"({defect['rate']:.4f}); by family {defect['by_family']}")
    if not args.trace:
        e2e = report["end_to_end"]
        print(f"latency_tail_ms is p{e2e['tail_percentile']:.1f} of {e2e['samples']} samples; "
              f"timed {e2e['timed_s']:.2f} s over {e2e['rounds']} rounds")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
