"""One repetition of a benchmark workload, run in a fresh process by run.py.

    python3 perfbench/child.py SPEC_JSON SPAWNED_AT

``SPEC_JSON`` names the workload, the mode (``setup``, ``plain`` or
``traced``), the generated inputs, the output directory and the result
file.  ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process; set-up time runs from there until ``nltraffic`` is
imported and the workload's configurations and data are built.  The result
file gets set-up time, the timed calls' wall time, this process's peak RSS
(taken before the outputs are checked) and the output gate's tally.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str, spawned_at: float) -> None:
    spec = json.loads(Path(spec_path).read_text())
    import nltraffic  # noqa: F401  (part of set-up)
    import workloads
    from tracer import Tracer, layer_metrics

    workload = workloads.WORKLOADS[spec["workload"]]
    state = workload.setup(spec["inputs"], Path(spec["out"]))
    result = {"setup_s": time.monotonic() - spawned_at}

    if spec["mode"] != "setup":
        tracer = Tracer() if spec["mode"] == "traced" else contextlib.nullcontext()
        with tracer:
            start = time.perf_counter()
            outputs = workload.run(state)
            wall_s = time.perf_counter() - start
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate = workload.check(state, outputs)
        result.update(
            wall_s=wall_s,
            peak_rss_mib=peak_rss_mib,
            attempted=gate.attempted,
            failures=gate.failures,
        )
        if spec["mode"] == "traced":
            layers = layer_metrics(tracer.summary(), tracer.counts)
            harness_s = layers["harness.self_s"]
            layers.update({
                "harness.files_written": gate.files,
                "harness.bytes_written": gate.bytes,
                "harness.write_mib_per_s": gate.bytes / 2**20 / harness_s if harness_s else 0.0,
                "analysis.rows_below_count_bound": gate.rows_below_count_bound,
                "analysis.max_rel_dev": gate.max_rel_dev,
            })
            result["layers"] = layers
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
