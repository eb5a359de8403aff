"""Self-tests of the benchmark: the output gates, the tracer and the seed.

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

Each gate test runs its workload once in this process, checks that the
untouched outputs pass, then corrupts one output and expects the gate to
count a failure.  ``sweep`` needs about 2.3 GiB and 10 s.
"""

from __future__ import annotations

from dataclasses import replace
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import nltraffic  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "nltraffic" or name.startswith("nltraffic.")
        for key, value in vars(module).items()
        if callable(value)
    }


def test_sweep_gate_catches_corrupted_row_and_csv(tmp_path):
    state = workloads.sweep_setup({}, tmp_path)
    rows, failures = workloads.sweep_run(state)
    gate = workloads.sweep_check(state, (rows, failures))
    assert gate.failures == [] and gate.attempted == 7
    assert gate.rows_below_count_bound == 3

    bent = list(rows)
    bent[3] = replace(bent[3], measured_tv=bent[3].measured_tv * (1 + 1e-5))
    assert workloads.sweep_check(state, (bent, failures)).failures == ["sweep row j=5", "sweep.csv"]

    csv = state["out"] / "sweep.csv"
    csv.write_text(csv.read_text().replace("4.008769213355446", "4.008769213355447"))
    assert workloads.sweep_check(state, (rows, failures)).failures == ["sweep.csv"]


def test_crosscheck_gate_catches_failed_report_missing_picard_and_crossed_path(tmp_path):
    inputs = {"starts": run.make_inputs("crosscheck", 3)["starts"][::16]}
    state = workloads.crosscheck_setup(inputs, tmp_path)
    result = workloads.crosscheck_run(state)
    gate = workloads.crosscheck_check(state, result)
    assert gate.failures == [] and gate.attempted == 13 + 64

    reports = list(result["reports"])
    reports[2] = replace(reports[2], worst=1.0)
    bad = dict(result, reports=reports, picard=None)
    failures = workloads.crosscheck_check(state, bad).failures
    assert failures == ["verify monotonicity-lax-friedrichs", "picard check"]

    paths = list(result["paths"])
    paths[5] = replace(paths[5], positions=paths[6].positions + 1e-6)
    local = replace(result["local"], snapshots={
        t: u * (1 + 1e-9) for t, u in result["local"].snapshots.items()})
    bad = dict(result, paths=paths, local=local)
    assert workloads.crosscheck_check(state, bad).failures == ["local solve", "path 5"]


def test_tracer_restores_every_binding():
    before = _bindings()
    with Tracer() as tracer:
        assert nltraffic.fv.compute_w is not before[("nltraffic.fv", "compute_w")]
        assert nltraffic.characteristics.compute_w is nltraffic.fv.compute_w
        assert nltraffic.harness.solve_nonlocal is nltraffic.solve_nonlocal
        grid = nltraffic.make_grid((-1.0, 1.0), 2.0 ** -6)
        cfg = nltraffic.SolverConfig(
            grid=grid, epsilon=2.0 ** -3, datum=nltraffic.parse_datum("blowup", grid.dx),
            t_final=0.05)
        nltraffic.trace_many(nltraffic.solve_nonlocal(cfg), [-0.5, -0.25])
    assert _bindings() == before
    summary = tracer.summary()
    steps = summary["fv.step_upwind"]["calls"]
    assert steps > 0 and summary["fv.compute_w"]["calls"] == steps
    assert summary["characteristics.trace_many"]["calls"] == 1
    nonlocal_row = summary["fv.solve_nonlocal"]
    assert 0.0 < nonlocal_row["self_s"] < nonlocal_row["total_s"]


def test_seed_moves_only_crosscheck_starts():
    assert run.make_inputs("sweep", 1) == run.make_inputs("sweep", 2) == {}
    a, b = run.make_inputs("crosscheck", 1), run.make_inputs("crosscheck", 2)
    assert a.keys() == b.keys() == {"starts"}
    assert a["starts"] != b["starts"]
    assert a == run.make_inputs("crosscheck", 1)
    starts = a["starts"]
    assert len(set(starts)) == len(starts) == 1024 and starts == sorted(starts)
    assert -1.25 <= starts[0] and starts[-1] <= 0.0
