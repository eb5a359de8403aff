"""nltraffic benchmark driver.

    python3 perfbench/run.py --workload {sweep,crosscheck} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src`` (``PYTHONPATH=src``), nothing needs installing.  The driver makes the
workload's inputs from ``--seed``, then runs repetitions one at a time, each
in a fresh single-threaded child process (``child.py``), for as long as
another repetition fits in ``--seconds``.  Children write under a temporary
directory inside the checkout, which is removed outside the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``wall_s``, ``peak_rss_mib`` and ``success_rate`` are
  medians or totals over the repetitions; ``setup_s`` is the median over the
  repetitions and a few set-up-only children.
* ``--trace 1``: repetitions alternate between traced and untraced children;
  the per-layer metrics are medians over the traced ones, and
  ``trace.overhead_s`` is the median, over each traced repetition and the
  untraced one after it, of traced minus untraced wall time.

The checks behind ``correct`` are in ``workloads.py``; ``selftest.py`` shows
that they catch corrupted outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "crosscheck")
# Set-up-only children per run; the first one only warms the bytecode cache.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
PATHS = 1024
# crosscheck's path starts are distinct points of this lattice in [-1.25, 0].
LATTICE = 100_000


def make_inputs(workload: str, seed: int) -> dict:
    """Generated inputs for one run; the seed moves only crosscheck's path starts."""
    if workload != "crosscheck":
        return {}
    rng = random.Random(seed)
    points = rng.sample(range(-125 * LATTICE // 100, 1), PATHS)
    return {"starts": sorted(k / LATTICE for k in points)}


class Runner:
    """Starts the children of one benchmark run, one at a time."""

    def __init__(self, workload: str, inputs: dict, tmp: Path):
        self.workload = workload
        self.inputs = inputs
        self.tmp = tmp
        self.count = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def child(self, mode: str):
        """Run one child; its result dict, or None if it failed."""
        self.count += 1
        work = self.tmp / f"child{self.count}"
        work.mkdir()
        spec = work / "spec.json"
        result = work / "result.json"
        spec.write_text(json.dumps({
            "workload": self.workload,
            "mode": mode,
            "inputs": self.inputs,
            "out": str(work / "out"),
            "result": str(result),
        }))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec), repr(time.monotonic())],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
            )
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        data = json.loads(result.read_text()) if ok and result.is_file() else None
        shutil.rmtree(work)
        if data is None:
            print(f"{self.workload}: {mode} child failed", file=sys.stderr)
        else:
            timings = {k: data[k] for k in ("setup_s", "wall_s", "peak_rss_mib") if k in data}
            print(f"{self.workload}: {mode} child {json.dumps(timings)}", file=sys.stderr)
        return data


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = make_inputs(workload, seed)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workload, inputs, tmp)
        probes = [runner.child("setup") for _ in range(SETUP_PROBES)]
        reps, cycles = [], []
        start = time.monotonic()
        # Start another repetition only while a typical one still fits.
        while len(reps) < 1 + trace or (
                time.monotonic() - start + statistics.median(cycles) <= seconds):
            mode = "traced" if trace and len(reps) % 2 == 0 else "plain"
            began = time.monotonic()
            reps.append((mode, runner.child(mode)))
            cycles.append(time.monotonic() - began)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    done = [r for _, r in reps if r is not None]
    attempted = sum(r["attempted"] for r in done) + len(reps) - len(done)
    failed = sum(len(r["failures"]) for r in done) + len(reps) - len(done)
    for message in sorted({m for r in done for m in r["failures"]})[:20]:
        print(f"{workload}: check failed: {message}", file=sys.stderr)
    correct = failed == 0 and all(p is not None for p in probes)

    if not trace:
        plain = [r for _, r in reps if r is not None]
        setups = [p["setup_s"] for p in probes[1:] if p is not None]
        setups += [r["setup_s"] for r in plain]
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
            "setup_s": (statistics.median(setups), "s"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
        }
    else:
        traced = [r for mode, r in reps if mode == "traced" and r is not None]
        metrics = {
            name: (statistics.median(r["layers"][name] for r in traced), unit)
            for name, unit in LAYER_UNITS.items() if name != "trace.overhead_s"
        }
        # Each traced repetition is compared with the plain one right after it:
        # the machine's speed drifts over tens of seconds, far more than the
        # tracing costs.
        pairs = [(t, p) for (_, t), (_, p) in zip(reps[0::2], reps[1::2])
                 if t is not None and p is not None]
        metrics["trace.overhead_s"] = (
            statistics.median(t["wall_s"] - p["wall_s"] for t, p in pairs), "s")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nltraffic" / "__init__.py").is_file():
        print(f"no nltraffic sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
