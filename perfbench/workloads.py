"""The benchmark workloads: set-up, the timed calls, and the output gate.

Each workload is the public ``nltraffic`` calls behind the commands users
run, with fixed configurations; only ``crosscheck``'s path starts come from
the benchmark seed, and they arrive here as generated inputs.

* ``sweep``: ``nltraffic sweep --tau 0.2 --j 2,3,4,5,6,7``, the headline
  experiment and the memory wall (the j = 7 solve stores a 1.1 GiB history).
  ``fv`` does almost all of the work.
* ``crosscheck``: ``nltraffic verify``, ``nltraffic mechanism`` with its
  defaults, and the fixed-point solver against the marcher on the
  acceptance-criterion-10 configuration carried to t = 0.3; on the marched
  record, 1024 seeded characteristics and the local solve of the same
  configuration.  Picard transport dominates; it is the only workload using
  ``solve_local``.

A third workload, ``fan`` (``simulate`` at ten taus, the same with
``--local``, and 1024 path CSVs), was left out.  Its time is mostly Python
CSV formatting, whose speed on a shared 2-vCPU host drifted by a third
within twenty minutes, twice as much as these two workloads; sets of ten
runs spread by 15 to 30 % of their median, wider than a regression bound
of at most 25 % can tolerate.

Every workload's ``check`` counts one operation per sweep row, written CSV,
verify report, mechanism verdict, Picard check, traced path or local solve,
and records each one that fails.  Pinned values are the outputs of
nltraffic 0.1.0 at full precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import math
from pathlib import Path

import numpy as np

import nltraffic

# Largest relative deviation from a pinned value that still passes.
REL_TOL = 1e-6


@dataclass
class Gate:
    """Tally of the checked operations of one repetition."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    max_rel_dev: float = 0.0
    files: int = 0
    bytes: int = 0
    rows_below_count_bound: int = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def pinned(self, value: float, ref: float, tol: float = REL_TOL) -> bool:
        dev = abs(value - ref) / abs(ref) if math.isfinite(value) else math.inf
        self.max_rel_dev = max(self.max_rel_dev, dev)
        return dev <= tol


def check_manifest(gate: Gate, out_dir: Path):
    """Which files a run directory's manifest lists, and whether each matches it.

    Each listed file must exist with the recorded size and sha256.  The
    manifest as a whole is not compared with anything, because it embeds the
    run's wall time.
    """
    manifest = out_dir / "manifest.txt"
    matches = {}
    if not manifest.is_file():
        return matches
    _, _, listing = manifest.read_text(encoding="ascii").partition("\n\n")
    for line in listing.splitlines():
        name, sha, size = line.split("  ")
        path = out_dir / name
        data = path.read_bytes() if path.is_file() else b""
        matches[name] = (
            path.is_file()
            and sha == f"sha256={hashlib.sha256(data).hexdigest()}"
            and size == f"bytes={len(data)}"
        )
        gate.files += 1
        gate.bytes += len(data)
    gate.files += 1
    gate.bytes += manifest.stat().st_size
    return matches


def read_csv(path: Path, columns: int):
    """Numeric body of a CSV with a header line, or None if it does not parse."""
    try:
        body = path.read_text(encoding="ascii").split("\n", 1)[1]
        values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
        return values.reshape(-1, columns)
    except (OSError, IndexError, ValueError):
        return None


# --- sweep -------------------------------------------------------------------

SWEEP_TAU = 0.2
SWEEP_JS = (2, 3, 4, 5, 6, 7)

# j -> (epsilon, series, count, dyadic, measured_tv, reconstructed_tv) at tau 0.2.
SWEEP_PINS = {
    2: (0.25, 3.2439313037296964, 1, 1, 3.1638515795394397, 1.3799484320019832),
    3: (0.125, 3.143772567481202, 1, 1, 4.3138640578803935, 2.0743198833455967),
    4: (0.0625, 6.70862094356504, 3, 3, 4.664886316048505, 4.579221324247158),
    5: (0.03125, 13.510658675435401, 7, 7, 4.008769213355446, 5.83040079096561),
    6: (0.015625, 31.933117413076534, 16, 16, 3.292762391648939, 5.999707376931107),
    7: (0.0078125, 66.8659860942401, 33, 33, 3.363842093182898, 5.999999998338434),
}


def sweep_setup(inputs: dict, out: Path) -> dict:
    spec = nltraffic.SweepSpec(taus=(SWEEP_TAU,), js=SWEEP_JS)
    return {"spec": spec, "out": out / "sweep"}


def sweep_run(state: dict):
    return nltraffic.run_sweep(state["spec"], out=str(state["out"]))


def _resolved_partial_sum(tau: float, j: int) -> float:
    k_min, k_max, _ = nltraffic.sweep_resolution(j)
    eps = 2.0 ** -j
    return 2.0 * sum(nltraffic.logistic_value(2.0 ** -k, tau, eps) for k in range(k_min, k_max + 1))


def sweep_check(state: dict, result) -> Gate:
    gate = Gate()
    rows, failures = result
    clean = not failures and len(rows) == len(SWEEP_JS)
    by_j = {r.j: r for r in rows}
    previous = -math.inf
    for j in SWEEP_JS:
        r = by_j.get(j)
        ok = clean and r is not None
        if ok:
            eps, series, count, dyadic, measured, recon = SWEEP_PINS[j]
            ok = (r.tau, r.epsilon, r.series_bound, r.count_bound, r.dyadic_bound) == (
                SWEEP_TAU, eps, series, count, dyadic)
            ok = gate.pinned(r.measured_tv, measured) and ok
            ok = gate.pinned(r.reconstructed_tv, recon) and ok
            # Criterion 7, carried to j = 7: strictly rising and within 5 % of
            # the closed-form sum over the resolved blocks.
            partial = _resolved_partial_sum(r.tau, j)
            ok = ok and r.reconstructed_tv > previous
            ok = ok and abs(r.reconstructed_tv - partial) <= 0.05 * partial
            previous = r.reconstructed_tv
            # Reported, not gated: the grid's TV falls below the count bound.
            gate.rows_below_count_bound += r.measured_tv < r.count_bound
        gate.op(ok, f"sweep row j={j}")

    listed = check_manifest(gate, state["out"])
    table = read_csv(state["out"] / "sweep.csv", 8)
    ok = listed.get("sweep.csv", False) and table is not None and table.shape[0] == len(rows)
    if ok:
        for line, r in zip(table, sorted(rows, key=lambda r: (r.j, r.tau))):
            fields = (r.tau, r.epsilon, r.j, r.series_bound, r.count_bound,
                      r.dyadic_bound, r.measured_tv, r.reconstructed_tv)
            ok = ok and tuple(line) == fields
    gate.op(ok, "sweep.csv")
    return gate


# --- crosscheck --------------------------------------------------------------

VERIFY_REPORTS = (
    "max-principle", "monotonicity-upwind", "monotonicity-lax-friedrichs", "plateau",
    "origin-pinned", "confinement", "non-crossing", "bound-chain", "dyadic-count",
    "threshold-equivalence",
)
PICARD_DX = 4.0 ** -5
PICARD_T = 0.3
PICARD_GAP = 0.0005411909057943503
MECHANISM_TV = 2.0624252928817612
MECHANISM_SLOPE = 0.6249782746619137
# Exact cell averages of the datum on the Picard grid: the local solve's mass
# at t = 0.3, since both ghosts give zero boundary flux.
LOCAL_MASS = 1.5714285373687744
MASS_TOL = 1e-14
LOCAL_TV = 3.141435151313


def crosscheck_setup(inputs: dict, out: Path) -> dict:
    grid = nltraffic.make_grid((-1.5, 1.0), PICARD_DX)
    cfg = nltraffic.SolverConfig(
        grid=grid, epsilon=2.0 ** -3, datum=nltraffic.parse_datum("blowup", PICARD_DX),
        t_final=PICARD_T,
    )
    return {"picard": cfg, "starts": [float(y) for y in inputs["starts"]]}


def crosscheck_run(state: dict) -> dict:
    reports = nltraffic.run_verify()
    mechanism = nltraffic.run_mechanism_demo()
    marched = nltraffic.solve_nonlocal(state["picard"])
    try:
        picard = nltraffic.solve_picard(state["picard"])
    except nltraffic.ConvergenceError:
        picard = None
    paths = nltraffic.trace_many(marched, state["starts"])
    local = nltraffic.solve_local(state["picard"])
    return {"reports": reports, "mechanism": mechanism, "marched": marched, "picard": picard,
            "paths": paths, "local": local}


def crosscheck_check(state: dict, result: dict) -> Gate:
    gate = Gate()
    passed = {r.name: r.passed for r in result["reports"]}
    for name in VERIFY_REPORTS:
        gate.op(passed.get(name, False), f"verify {name}")

    mech = result["mechanism"]
    ok = gate.pinned(mech.tv_final, MECHANISM_TV)
    ok = gate.pinned(mech.slope_estimate, MECHANISM_SLOPE) and ok
    gate.op(mech.ok and ok, "mechanism verdict")

    picard = result["picard"]
    ok = picard is not None
    if ok:
        a = result["marched"].snapshot(PICARD_T).values
        b = picard.snapshot(PICARD_T).values
        gap = float(np.sum(np.abs(a - b)) * PICARD_DX)
        ok = gap <= 5.0 * PICARD_DX
        ok = gate.pinned(gap, PICARD_GAP) and ok
    gate.op(ok, "picard check")

    u = result["local"].snapshot(PICARD_T).values
    ok = bool(np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12))
    ok = gate.pinned(float(np.sum(u) * PICARD_DX), LOCAL_MASS, MASS_TOL) and ok
    ok = gate.pinned(nltraffic.total_variation(u), LOCAL_TV) and ok
    gate.op(ok, "local solve")

    # Starts are sorted, so a path must never pass its right-hand neighbour.
    paths = result["paths"]
    rows = result["marched"].info["steps"] + 1
    good = [i < len(paths) and paths[i].start == y and paths[i].positions.shape == (rows,)
            and bool(np.all(np.isfinite(paths[i].positions)))
            for i, y in enumerate(state["starts"])]
    for i in range(len(good) - 1):
        if good[i] and good[i + 1]:
            good[i] = float(np.max(paths[i].positions - paths[i + 1].positions)) <= 1e-8
    for i, ok in enumerate(good):
        gate.op(ok, f"path {i}")
    return gate


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "sweep": Workload(sweep_setup, sweep_run, sweep_check),
    "crosscheck": Workload(crosscheck_setup, crosscheck_run, crosscheck_check),
}
