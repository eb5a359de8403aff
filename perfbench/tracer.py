"""Spans around the public functions of the nltraffic modules, taken from outside.

A :class:`Tracer` wraps the functions listed in :data:`WRAPPED` and rebinds
every name that refers to one of them in every loaded ``nltraffic`` module,
because ``harness``, ``analysis`` and ``characteristics`` import solver
functions by name (``from .fv import ...``) and patching ``nltraffic.fv``
alone would miss those calls.  Spans (name, start, end, parent) are kept in
memory and summarised once the traced block has finished; leaving the block
restores every original binding.
"""

from __future__ import annotations

from collections import defaultdict
import functools
import sys
import time

# Public functions timed per layer.  ``cli`` is an argparse front end over
# ``harness`` and is not a layer of its own.
WRAPPED = {
    "model": ("cell_averages",),
    "fv": (
        "compute_w",
        "cfl_dt",
        "step_upwind",
        "step_lax_friedrichs",
        "solve_nonlocal",
        "solve_local",
    ),
    "characteristics": ("trace_many", "solve_picard"),
    "analysis": (
        "total_variation",
        "evaluate_bounds",
        "reconstruct_tv_from_characteristics",
        "check_max_principle",
        "check_monotonicity",
        "check_plateau",
    ),
    "harness": (
        "run_sweep",
        "run_simulate",
        "run_characteristics",
        "run_mechanism_demo",
        "run_verify",
    ),
}

SOLVERS = ("fv.solve_nonlocal", "fv.solve_local", "characteristics.solve_picard")

# Every per-layer metric a traced run reports, with its unit.  The harness
# file counts, the count-bound rows and the deviation from the pinned values
# come from the output gate; the tracing overhead from the driver.
LAYER_UNITS = {
    "model.self_s": "s",
    "model.cell_averages_s": "s",
    "fv.self_s": "s",
    "fv.compute_w_s": "s",
    "fv.compute_w_calls": "count",
    "fv.compute_w_ns_per_interface": "ns",
    "fv.solve_nonlocal_s": "s",
    "fv.solve_nonlocal_self_s": "s",
    "fv.history_mib": "MiB",
    "fv.step_s": "s",
    "fv.steps": "count",
    "fv.cell_updates": "count",
    "fv.cfl_dt_s": "s",
    "fv.solver_failures": "count",
    "fv.solve_local_s": "s",
    "characteristics.self_s": "s",
    "characteristics.trace_many_s": "s",
    "characteristics.path_steps": "count",
    "characteristics.ns_per_path_step": "ns",
    "characteristics.solve_picard_self_s": "s",
    "characteristics.picard_iterations": "count",
    "characteristics.picard_residual": "1",
    "analysis.self_s": "s",
    "analysis.reconstruct_self_s": "s",
    "analysis.blocks_resolved": "count",
    "analysis.blocks_skipped": "count",
    "analysis.rows_below_count_bound": "count",
    "analysis.max_rel_dev": "1",
    "harness.self_s": "s",
    "harness.files_written": "count",
    "harness.bytes_written": "B",
    "harness.write_mib_per_s": "MiB/s",
    "trace.overhead_s": "s",
}


def _count(counts, name, args, result):
    """Work counters read off a finished call's arguments and result."""
    if name == "fv.compute_w":
        counts["fv.compute_w_interfaces"] += result.size
    elif name in ("fv.step_upwind", "fv.step_lax_friedrichs"):
        counts["fv.steps"] += 1
        counts["fv.cell_updates"] += len(args[0])
    elif name == "fv.solve_nonlocal":
        counts["fv.history_bytes"] = max(counts["fv.history_bytes"], result.w_fields.nbytes)
    elif name == "characteristics.trace_many" and result:
        counts["characteristics.path_steps"] += (len(result[0].times) - 1) * len(result)
    elif name == "characteristics.solve_picard":
        counts["characteristics.picard_iterations"] += result.info["iterations"]
        counts["characteristics.picard_residual"] = result.info["residuals"][-1]
    elif name == "analysis.reconstruct_tv_from_characteristics":
        counts["analysis.blocks_resolved"] += len(result.blocks)
        counts["analysis.blocks_skipped"] += len(result.skipped)


class Tracer:
    """Context manager that records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = time.perf_counter()
                if name in SOLVERS:
                    counts["fv.solver_failures"] += 1
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            _count(counts, name, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nltraffic" or key.startswith("nltraffic."))]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"nltraffic.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
        return False

    def summary(self) -> dict:
        """Per-function calls, total and self time; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(table)


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metric values (name -> number) from a span summary and counters."""

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def layer_self(layer):
        return sum(row["self_s"] for name, row in summary.items() if name.startswith(layer + "."))

    def per(value, base, scale):
        return value * scale / base if base else 0.0

    step_s = total("fv.step_upwind") + total("fv.step_lax_friedrichs")
    out = {f"{layer}.self_s": layer_self(layer) for layer in WRAPPED}
    out.update({
        "model.cell_averages_s": total("model.cell_averages"),
        "fv.compute_w_s": total("fv.compute_w"),
        "fv.compute_w_calls": summary.get("fv.compute_w", {}).get("calls", 0),
        "fv.compute_w_ns_per_interface": per(
            total("fv.compute_w"), counts.get("fv.compute_w_interfaces", 0), 1e9),
        "fv.solve_nonlocal_s": total("fv.solve_nonlocal"),
        "fv.solve_nonlocal_self_s": own("fv.solve_nonlocal"),
        "fv.history_mib": counts.get("fv.history_bytes", 0) / 2**20,
        "fv.step_s": step_s,
        "fv.steps": counts.get("fv.steps", 0),
        "fv.cell_updates": counts.get("fv.cell_updates", 0),
        "fv.cfl_dt_s": total("fv.cfl_dt"),
        "fv.solver_failures": counts.get("fv.solver_failures", 0),
        "fv.solve_local_s": total("fv.solve_local"),
        "characteristics.trace_many_s": total("characteristics.trace_many"),
        "characteristics.path_steps": counts.get("characteristics.path_steps", 0),
        "characteristics.ns_per_path_step": per(
            total("characteristics.trace_many"), counts.get("characteristics.path_steps", 0), 1e9),
        "characteristics.solve_picard_self_s": own("characteristics.solve_picard"),
        "characteristics.picard_iterations": counts.get("characteristics.picard_iterations", 0),
        "characteristics.picard_residual": counts.get("characteristics.picard_residual", 0.0),
        "analysis.reconstruct_self_s": own("analysis.reconstruct_tv_from_characteristics"),
        "analysis.blocks_resolved": counts.get("analysis.blocks_resolved", 0),
        "analysis.blocks_skipped": counts.get("analysis.blocks_skipped", 0),
    })
    return out
