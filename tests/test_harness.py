"""Datum parsing, grid plumbing, experiment drivers, and the command line."""

import dataclasses
import hashlib
import importlib
import importlib.util
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nltraffic import (
    ConfigurationError,
    RunConfig,
    SweepSpec,
    build_bar_u,
    build_u0,
    default_truncation,
    evaluate_bounds,
    make_grid,
    parse_datum,
    reconstruct_tv_from_characteristics,
    run_characteristics,
    run_mechanism_demo,
    run_simulate,
    run_sweep,
    run_verify,
    save_piecewise,
    solve_nonlocal,
    sweep_resolution,
    trace_many,
    write_bounds,
)
import nltraffic
from nltraffic.cli import main as cli_main
from nltraffic.harness import build_solver_config


def test_package_exports_names_not_submodules():
    submodules = {"analysis", "characteristics", "errors", "fv", "harness", "model"}
    assert not submodules & set(nltraffic.__all__)
    assert len(set(nltraffic.__all__)) == len(nltraffic.__all__)
    for name in nltraffic.__all__:
        assert getattr(nltraffic, name) is not None


def test_benchmark_tracer_wraps_only_existing_functions():
    # perfbench/tracer.py looks these up by name only under --trace 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"nltraffic.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"nltraffic.{layer}.{name}"


# --- datum parsing ---------------------------------------------------------------


def test_parse_datum_forms(tmp_path):
    dx = 4.0**-4
    blow = parse_datum("blowup", dx)
    assert np.array_equal(blow.breakpoints, build_u0(6).breakpoints)
    assert np.array_equal(parse_datum("blowup:3", dx).values, build_u0(3).values)
    bar = parse_datum("bar_u:0.1", dx)
    assert np.array_equal(bar.values, build_bar_u(0.1).values)
    step = parse_datum("step", dx)
    assert step.left_extension == 0.0 and step.right_extension == 1.0
    rie = parse_datum("riemann:0.3,0.9", dx)
    assert rie.left_extension == 0.3 and rie.right_extension == 0.9
    target = tmp_path / "profile.txt"
    save_piecewise(build_bar_u(0.2), target)
    loaded = parse_datum(f"file:{target}", dx)
    assert np.array_equal(loaded.breakpoints, build_bar_u(0.2).breakpoints)


@pytest.mark.parametrize(
    "spec",
    [
        "gaussian",
        "bar_u",
        "bar_u:zero",
        "riemann:0.5",
        "blowup:many",
        "file:/no/such/profile.txt",
    ],
)
def test_parse_datum_rejects(spec):
    with pytest.raises(ConfigurationError):
        parse_datum(spec, 0.01)


def test_default_truncation_tracks_resolution():
    assert default_truncation(4.0**-4) == 6
    assert default_truncation(4.0**-5) == 7
    assert default_truncation(0.1) == 4
    # just below 4^-4 the finest block must fit in a cell; no fuzz moves it
    assert default_truncation(4.0**-4 * (1.0 - 1e-12)) == 7


# --- grids and run configuration ---------------------------------------------------


def test_make_grid_and_validation():
    g = make_grid((-1.0, 1.0), 0.125)
    assert g.n_cells == 16
    assert g.dx == 0.125
    with pytest.raises(ConfigurationError):
        make_grid((-1.0, 1.0), 0.3)
    with pytest.raises(ConfigurationError):
        make_grid((-1.0, 1.0), 0.0)


def test_resolved_epsilon_rules():
    def epsilon(**kw):
        run = RunConfig(datum="step", domain=(-1.0, 1.0), dx=0.125, **kw)
        return build_solver_config(run).epsilon

    assert epsilon(dyadic_j=3) == 0.125
    assert epsilon(epsilon=0.25) == 0.25
    # the local limit has no lookahead: one cell stands in, and a given one is refused
    assert epsilon(scheme="godunov-local") == 0.125
    for given in (dict(epsilon=0.25), dict(dyadic_j=2), dict(epsilon=0.25, dyadic_j=2)):
        with pytest.raises(ConfigurationError, match="local limit, which takes no lookahead"):
            epsilon(scheme="godunov-local", **given)
    with pytest.raises(ConfigurationError, match="give exactly one of epsilon and dyadic-j"):
        epsilon()
    with pytest.raises(ConfigurationError, match="give exactly one of epsilon and dyadic-j"):
        epsilon(epsilon=0.25, dyadic_j=2)
    with pytest.raises(ConfigurationError):
        epsilon(dyadic_j=-1)


def test_sweep_resolution_table():
    assert [sweep_resolution(j) for j in range(2, 7)] == [
        (1, 1, 2.0**-4),
        (2, 3, 2.0**-8),
        (2, 4, 2.0**-10),
        (3, 5, 2.0**-12),
        (3, 5, 2.0**-12),
    ]


# --- artifact writers --------------------------------------------------------------


def _small_run(out, **kw):
    base = dict(
        datum="step",
        domain=(-1.0, 1.0),
        dx=2.0**-6,
        dyadic_j=4,
        t_final=0.125,
        output_times=(0.0625,),
        out=str(out),
    )
    base.update(kw)
    return RunConfig(**base)


def _manifest_digests(out):
    lines = (out / "manifest.txt").read_text().splitlines()
    return [ln for ln in lines if "sha256=" in ln]


def _parameter_lines(out):
    lines = (out / "manifest.txt").read_text().splitlines()
    return [ln for ln in lines if " = " in ln and ln.split(" = ")[0] not in ("tool", "wall_time_s")]


def test_run_simulate_writes_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    files = run_simulate(_small_run(a))
    assert [f.name for f in files] == [
        "u_t0_eps0.0625.csv",
        "u_t0.0625_eps0.0625.csv",
        "u_t0.125_eps0.0625.csv",
    ]
    header = files[0].read_text().splitlines()[0]
    assert header == "x,u"
    run_simulate(_small_run(b))
    assert _manifest_digests(a) == _manifest_digests(b)
    manifest = (a / "manifest.txt").read_text()
    assert "tool = nltraffic" in manifest
    assert "wall_time_s" in manifest

    def timeless(out):
        lines = (out / "manifest.txt").read_text().splitlines()
        return [ln for ln in lines if not ln.startswith("wall_time_s = ")]

    assert timeless(a) == timeless(b)
    assert len(timeless(a)) == len(manifest.splitlines()) - 1


@pytest.mark.parametrize("local, scheme", [(False, "upwind"), (True, "godunov-local")])
def test_manifest_names_the_scheme_that_ran(tmp_path, local, scheme):
    run_simulate(_small_run(tmp_path, scheme=scheme, dyadic_j=None if local else 4))
    lines = _parameter_lines(tmp_path)
    assert [ln for ln in lines if ln.startswith("scheme = ")] == [f"scheme = {scheme}"]
    assert f"lookahead_cells = {0 if local else 4}" in lines


def test_run_characteristics_writes_paths_and_rejects_local(tmp_path):
    files = run_characteristics(_small_run(tmp_path, datum="blowup:4"), [-0.5, -0.25])
    assert sorted(f.name for f in files) == [
        "char_y-0.25_eps0.0625.csv",
        "char_y-0.5_eps0.0625.csv",
    ]
    assert files[0].read_text().splitlines()[0] == "t,x,u"
    local = _small_run(tmp_path / "local", datum="blowup:4", scheme="godunov-local",
                       dyadic_j=None)
    with pytest.raises(ConfigurationError, match="godunov-local scheme marches the local limit"):
        run_characteristics(local, [-0.5])
    assert not (tmp_path / "local").exists()


def test_runs_refuse_values_that_would_share_a_file(tmp_path):
    # file names carry six significant digits: a second value of the same
    # name would overwrite the first file, so the run is refused up front
    paths = _small_run(tmp_path / "paths", datum="blowup:4")
    for starts, named in (([-0.1234567, -0.5, -0.1234568], "-0.1234567 and -0.1234568"),
                          ([-0.5, -0.25, -0.5], "-0.5 and -0.5")):
        with pytest.raises(ConfigurationError, match=f"^starts {named} would share"):
            run_characteristics(paths, starts)
    for outputs, named in (((0.1000001, 0.1000002), "0.1000001 and 0.1000002"),
                           ((0.1249999999,), "0.1249999999 and 0.125")):  # t_final is one
        with pytest.raises(ConfigurationError, match=f"^snapshot times {named} would share"):
            run_simulate(_small_run(tmp_path / "snapshots", output_times=outputs))
    assert not (tmp_path / "paths").exists() and not (tmp_path / "snapshots").exists()
    out = str(tmp_path / "cli")
    assert cli_main(["characteristics", "--dyadic-j", "4", "--start=-0.1234567,-0.1234568",
                     "--out", out]) == 2
    assert cli_main(["simulate", "--dyadic-j", "4", "--tau", "0.1000001,0.1000002",
                     "--out", out]) == 2
    assert not (tmp_path / "cli").exists()


def test_characteristics_manifest_records_how_far_it_traced(tmp_path):
    # paths run to the run's horizon, the one the manifest names
    run_characteristics(_small_run(tmp_path / "whole", datum="blowup:4"), [-0.5])
    run_characteristics(_small_run(tmp_path / "cut", datum="blowup:4", t_final=0.1), [-0.5])
    whole, cut = _parameter_lines(tmp_path / "whole"), _parameter_lines(tmp_path / "cut")
    assert [ln for ln in cut if ln not in whole] == ["t_final = 0.1"]
    assert not any(ln.startswith("t_end") for ln in whole)
    (csv,) = (tmp_path / "cut").glob("char_*.csv")
    assert csv.read_text().splitlines()[-1].startswith("0.1,")


def test_write_bounds_creates_table(tmp_path):
    rows = [evaluate_bounds(t, j=3) for t in (0.1, 0.2)]
    files = write_bounds(rows, str(tmp_path))
    assert files[0].name == "bounds.csv"
    text = files[0].read_text().splitlines()
    assert text[0] == "tau,epsilon,j,series,count,dyadic,measured_tv,reconstructed_tv"
    assert len(text) == 3
    assert (tmp_path / "manifest.txt").exists()


def test_bounds_manifest_names_its_lookahead(tmp_path):
    # one tau at three lookaheads: given as epsilon, as the same epsilon by j, and another
    runs = {"eps": ["--epsilon", "0.0625"], "j": ["--dyadic-j", "4"], "other": ["--epsilon", "0.1"]}
    for name, argv in runs.items():
        assert cli_main(["bounds", "--tau", "0.2", *argv, "--out", str(tmp_path / name)]) == 0
    assert _parameter_lines(tmp_path / "eps") == [
        "epsilons = 0.0625", "js = None", "rows = 1", "taus = 0.2"]
    assert _parameter_lines(tmp_path / "j") == [
        "epsilons = 0.0625", "js = 4", "rows = 1", "taus = 0.2"]
    assert _parameter_lines(tmp_path / "other") == [
        "epsilons = 0.1", "js = None", "rows = 1", "taus = 0.2"]


# --- sweep and demos ----------------------------------------------------------------


def test_sweep_spec_validation():
    spec = SweepSpec(taus=(0.3, 0.1), js=(4, 2))
    assert spec.taus == (0.1, 0.3)
    assert spec.js == (2, 4)
    with pytest.raises(ConfigurationError):
        SweepSpec(taus=(0.1, 0.1))
    for taus in ((-0.1,), (math.nan,), (0.1, math.inf), (), (0.0,)):
        with pytest.raises(ConfigurationError):
            SweepSpec(taus=taus)
    with pytest.raises(ConfigurationError):
        SweepSpec(js=(2, 2))
    with pytest.raises(ConfigurationError):
        SweepSpec(js=(-1, 2))
    # refused, not truncated to j = 2
    with pytest.raises(ConfigurationError, match="j must be a nonnegative integer, got 2.5"):
        SweepSpec(js=(2.5,))
    # refused like an empty tau list, not run to a sweep.csv of its header alone
    with pytest.raises(ConfigurationError, match="sweep needs at least one j"):
        SweepSpec(js=())


def test_sweep_runs_at_j_zero():
    # epsilon = 1 lies in the range of every bound, so j = 0 is a row like any
    rows, failures = run_sweep(SweepSpec(js=(0,)))
    assert failures == []
    (row,) = rows
    assert (row.j, row.epsilon, row.count_bound, row.dyadic_bound) == (0, 1.0, 2, 1)
    assert row.series_bound == pytest.approx(4.278, abs=1e-3)
    assert row.reconstructed_tv == 2.0


def test_run_sweep_smoke(tmp_path):
    rows, failures = run_sweep(SweepSpec(taus=(0.1, 0.2), js=(2,)), out=str(tmp_path))
    assert failures == []
    assert [(r.j, r.tau) for r in rows] == [(2, 0.1), (2, 0.2)]
    for r in rows:
        assert np.isfinite(r.measured_tv)
        assert r.reconstructed_tv > 0.0
        assert r.count_bound >= r.dyadic_bound
    assert (tmp_path / "sweep.csv").exists()
    # the manifest lists what the sweep was given and how many solves failed
    assert _parameter_lines(tmp_path) == [
        "failures = 0", "js = 2", "taus = 0.1,0.2"]


def test_sweep_solves_each_j_once_with_no_observer(monkeypatch):
    solves = []

    def spy(cfg):  # an observer handed to the march would fail the call
        record = solve_nonlocal(cfg)
        solves.append(record)
        return record

    monkeypatch.setattr(nltraffic.harness, "solve_nonlocal", spy)
    rows, failures = run_sweep(SweepSpec(taus=(0.1, 0.2), js=(4,)))
    assert failures == []
    [record] = solves
    assert [r.tau for r in rows] == [0.1, 0.2]
    for r in rows:
        recon = reconstruct_tv_from_characteristics(record, r.tau)
        assert len(recon.blocks) == 3
        assert r.reconstructed_tv == recon.total


def test_sweep_refuses_a_row_before_it_marches(monkeypatch, capsys):
    marched = []
    monkeypatch.setattr(nltraffic.harness, "solve_nonlocal", lambda cfg: marched.append(cfg))
    # tau/epsilon = 11 * 2^6 = 704 lies past the series bound's reach at j = 6,
    # and the row (11, 2) must not march first either
    assert cli_main(["sweep", "--tau", "11", "--j", "2,6"]) == 2
    assert marched == []
    assert "exceeds 700" in capsys.readouterr().err


def test_sweep_matches_the_stock_datum_once_per_row(monkeypatch):
    built = []

    def spy(K):
        built.append(K)
        return build_u0(K)

    monkeypatch.setattr(nltraffic.analysis, "build_u0", spy)
    rows, failures = run_sweep(SweepSpec(taus=(0.05, 0.1, 0.2), js=(2, 4)))
    assert failures == [] and len(rows) == 6
    assert built == [default_truncation(sweep_resolution(j)[2]) for j in (2, 4) for _ in range(3)]


def test_mechanism_demo_validation():
    with pytest.raises(ConfigurationError):
        run_mechanism_demo(h=0.5, epsilon=0.4)
    with pytest.raises(ConfigurationError):
        run_mechanism_demo(h=0.0)
    with pytest.raises(ConfigurationError):
        run_mechanism_demo(tau=0.0)
    with pytest.raises(ConfigurationError, match="epsilon must be positive and finite, got inf"):
        run_mechanism_demo(epsilon=math.inf)
    with pytest.raises(ConfigurationError, match="tau must be positive and finite, got inf"):
        run_mechanism_demo(tau=math.inf)
    # the platoon's front -(h/2) exp(-tau/epsilon) reaches -h/8 at tau = epsilon ln 4
    for tau in (0.6, 0.4 * math.log(4.0)):
        with pytest.raises(ConfigurationError, match=r"tau < epsilon ln 4 = 0\.554518"):
            run_mechanism_demo(h=0.1, epsilon=0.4, tau=tau)


@pytest.mark.parametrize("h", [0.03, 0.05, 0.07, 0.1])
def test_mechanism_demo_cells_are_at_most_h_over_32(h):
    # 32 epsilon / h is whole for some pairs and not for others; either way the
    # lookahead holds whole cells and the vacuum window [-h/8, 0) holds cell centres
    for epsilon in (0.11, 0.15, 0.2, 0.3, 0.4):
        report = run_mechanism_demo(h=h, epsilon=epsilon, tau=0.01)
        assert report.dx <= h / 32.0
        assert epsilon / report.dx == math.ceil(32.0 * epsilon / h)


@pytest.mark.parametrize("h, epsilon, tau", [
    (0.1, 0.4, 0.05), (0.05, 0.2, 0.05),  # the canned platoons
    (0.2, 0.25, 0.1), (0.1, 0.4, 0.2), (0.1, 0.4, 0.5),  # vacuum gate FAIL on their own grids
    (0.1, 0.4, 0.99 * 0.4 * math.log(4.0)),  # the front just short of the vacuum window
])
def test_mechanism_probe_lies_in_the_traced_probe_cell(h, epsilon, tau):
    # The demo reads its growth rate at -h/8 - (5h/8) e^(-t/epsilon), where
    # the path from -0.75h is in closed form.  On the demo's own grid a path
    # traced from -0.75h ends in the same cell, so it reads the same rate.
    report = run_mechanism_demo(h=h, epsilon=epsilon, tau=tau)
    dx = report.dx
    n_left = math.ceil(max(1.0, 4.0 * h) / dx)
    n_right = math.ceil(max(1.0, epsilon + 0.25) / dx)
    t_probe = tau / 5.0
    cfg = build_solver_config(RunConfig(
        datum=f"bar_u:{h!r}", domain=(-n_left * dx, n_right * dx), dx=dx, epsilon=epsilon,
        t_final=tau, output_times=(t_probe,)))
    record = solve_nonlocal(cfg)
    (probe,) = trace_many(record, [-0.75 * h])
    k = record.snapshot_steps[t_probe]
    assert probe.times[k] == t_probe
    exact = -h / 8.0 - 5.0 * h / 8.0 * math.exp(-t_probe / epsilon)
    cell = cfg.grid.cell_of(exact)
    assert cfg.grid.cell_of(probe.positions[k]) == cell
    traced = (record.snapshots[t_probe][cell] - probe.transported[0]) / t_probe
    assert report.slope_estimate == traced


@pytest.mark.parametrize("h, epsilon, tau", [(0.1, 0.4, 0.5), (0.2, 0.25, 0.1)])
def test_cli_mechanism_verdict_names_the_failed_gate(h, epsilon, tau, capsys):
    code = cli_main(["mechanism", "--h", str(h), "--epsilon", str(epsilon), "--tau", str(tau)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == "verdict: FAIL (vacuum)"


def test_mechanism_verdict_names_every_failed_gate():
    report = dataclasses.replace(run_mechanism_demo(), tv_final=1.0, plateau_max=1e-3,
                                 slope_estimate=0.0)
    assert not report.ok
    assert list(report.lines())[-1] == "verdict: FAIL (variation, jam, growth rate)"


def test_mechanism_demo_keeps_its_growth_rate_and_variation():
    report = run_mechanism_demo()
    assert report.slope_estimate == 0.6249782746619137
    assert report.tv_final == 2.0624252928817617


def test_run_verify_suite_selection(capsys):
    with pytest.raises(ConfigurationError):
        run_verify(["bounds", "nonsense"])
    reports = run_verify(["bounds"])
    assert reports and all(r.passed for r in reports)
    printed = capsys.readouterr().out
    assert printed.count("PASS") == len(reports)


# --- command line -------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["sweep", "--domain=-2,1"], ["sweep", "--cfl", "0.5"], ["mechanism", "--dx", "0.01"],
    ["sweep", "--scheme", "lax-friedrichs"],
])
def test_cli_sweep_and_mechanism_take_no_grid_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "characteristics"])
@pytest.mark.parametrize("flag", [["--cfl", "0.5"], ["--local"]])
def test_cli_runs_take_no_cfl_or_local_flag(command, flag, capsys):
    # every march steps at 0.9 cells, and --scheme godunov-local names the local limit
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--dyadic-j", "4", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_characteristics_takes_no_t_end(tmp_path, capsys):
    # paths run to --t-final; a shorter trace is a run with a shorter horizon
    out = str(tmp_path / "paths")
    with pytest.raises(SystemExit) as exc:
        cli_main(["characteristics", "--dyadic-j", "4", "--start=-0.5", "--t-end", "0.3",
                  "--out", out])
    assert exc.value.code == 2
    assert "unrecognized arguments: --t-end" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dyadic-j = 4\nstart = -0.5\nt-end = 0.3\n")
    assert cli_main(["characteristics", "--config", str(cfg), "--out", out]) == 2
    assert "config key 't-end' does not apply" in capsys.readouterr().err
    assert not (tmp_path / "paths").exists()


def test_cli_simulate_with_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small smoke run\n"
        "datum = step\n"
        "domain = -1,1\n"
        "dx = 0.015625\n"
        "dyadic-j = 4\n"
        "t-final = 0.125\n"
    )
    out = tmp_path / "out"
    code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "u_t0.125_eps0.0625.csv").exists()


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("datum = step\ndx = 0.015625\nepsilon = 0.0625\nt-final = 0.0625\n")
    out = tmp_path / "out"
    code = cli_main(
        ["simulate", "--config", str(cfg), "--domain=-1,1", "--out", str(out),
         "--t-final", "0.03125"]
    )
    assert code == 0
    assert (out / "u_t0.03125_eps0.0625.csv").exists()


def test_cli_error_paths(tmp_path, capsys):
    # config errors come back as exit 2
    assert cli_main(["simulate", "--datum", "nope", "--epsilon", "0.0625"]) == 2
    assert cli_main(["simulate", "--datum", "step"]) == 2  # epsilon unresolved
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert cli_main(["simulate", "--config", str(cfg)]) == 2
    # a sweep picks its own domain, so a file cannot give it one
    cfg.write_text("domain = -2,1\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
    assert not (tmp_path / "sweep").exists()
    # a sweep always marches upwind, so a file cannot name its scheme
    cfg.write_text("scheme = upwind\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
    assert "config key 'scheme' does not apply" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
    assert cli_main(["verify", "nonsense"]) == 2
    assert cli_main(["mechanism", "--epsilon", "inf"]) == 2
    # an unknown scheme from a file exits 2 before any file is written
    cfg.write_text("dyadic-j = 4\nscheme = nonsense\n")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()
    # a domain that is not finite is refused before any division
    assert cli_main(["simulate", "--domain=-inf,1", "--dyadic-j", "4"]) == 2
    # a sweep grid of 1.7e11 cells is refused at once, not counted or allocated
    started = time.perf_counter()
    assert cli_main(["sweep", "--j", "30"]) == 2
    assert time.perf_counter() - started < 1.0
    assert "physical memory" in capsys.readouterr().err
    # a density outside [0, 1] is refused by the solver configuration
    assert cli_main(["simulate", "--datum", "riemann:0.2,1.5", "--dyadic-j", "4"]) == 2
    # a time that is not a finite nonnegative number is refused at once
    assert cli_main(["simulate", "--tau", "nan", "--dyadic-j", "4"]) == 2
    assert cli_main(["bounds", "--tau", "nan", "--dyadic-j", "4"]) == 2
    # an infinite lookahead or horizon is refused by name
    capsys.readouterr()
    for argv, name in ((["--epsilon", "inf"], "epsilon"),
                       (["--dyadic-j", "4", "--t-final", "inf"], "t_final")):
        assert cli_main(["simulate", *argv, "--out", str(tmp_path / "inf")]) == 2
        assert capsys.readouterr().err == f"error: {name} must be positive and finite, got inf\n"
    assert not (tmp_path / "inf").exists()
    # a negative j is refused by name, with one message whichever command got it
    capsys.readouterr()
    for argv in (["bounds", "--tau", "0.1", "--dyadic-j", "-1"],
                 ["simulate", "--dyadic-j", "-1", "--out", str(tmp_path / "neg")],
                 ["sweep", "--j", "2,-1", "--out", str(tmp_path / "neg")]):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "error: j must be a nonnegative integer, got -1\n"
    assert not (tmp_path / "neg").exists()
    # a key must name a flag of the command, not just any parsed attribute
    cfg.write_text("dyadic-j = 4\n")
    assert cli_main(["bounds", "--config", str(cfg)]) == 0
    for key in ("command = sweep", "handler = x", "config = other.cfg", "help = yes"):
        cfg.write_text(f"dyadic-j = 4\n{key}\n")
        assert cli_main(["bounds", "--config", str(cfg)]) == 2
    # an option named twice in one file, under one spelling or two, exits 2
    for text in ("dyadic_j = 3\ndyadic-j = 4\n", "tau = 0.1\ntau = 0.4\n",
                 "dyadic-j = 4\ndyadic-j = 4\n"):
        cfg.write_text(text)
        assert cli_main(["bounds", "--config", str(cfg)]) == 2
    # a flag still overrides the file
    cfg.write_text("dyadic-j = 3\ntau = 0.1\n")
    capsys.readouterr()
    assert cli_main(["bounds", "--config", str(cfg), "--dyadic-j", "4"]) == 0
    assert capsys.readouterr().out.startswith("tau=0.1 epsilon=0.0625:")


@pytest.mark.parametrize("local", [False, True])
def test_cli_constant_road_stays_constant(tmp_path, local):
    out = tmp_path / "out"
    argv = ["simulate", "--datum", "riemann:0.5,0.5", "--out", str(out)]
    scheme = ["--scheme", "godunov-local"] if local else ["--dyadic-j", "4"]
    assert cli_main(argv + scheme) == 0
    snapshots = sorted(out.glob("u_t*.csv"))
    assert len(snapshots) == 2
    for f in snapshots:
        u = np.loadtxt(f, delimiter=",", skiprows=1)[:, 1]
        assert u.size == 640 and np.all(u == 0.5)


def test_cli_local_run_refuses_a_lookahead(tmp_path, capsys):
    out = tmp_path / "local"
    argv = ["simulate", "--scheme", "godunov-local", "--epsilon", "-5", "--dyadic-j", "-1",
            "--datum", "riemann:1,0", "--dx", "0.0625", "--out", str(out)]
    assert cli_main(argv) == 2
    assert "local limit, which takes no lookahead" in capsys.readouterr().err
    assert not out.exists()


def test_cli_characteristics_refuses_the_local_scheme(tmp_path, capsys):
    out = tmp_path / "local"
    argv = ["characteristics", "--scheme", "godunov-local", "--start=-0.5", "--out", str(out)]
    assert cli_main(argv) == 2
    assert "godunov-local scheme marches the local limit" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bounds_and_verify(tmp_path, capsys):
    assert cli_main(["bounds", "--tau", "0.1,0.2", "--dyadic-j", "4"]) == 0
    out = capsys.readouterr().out
    assert "tau" in out and out.count("0.0625") >= 2
    # a lookahead of 1 lies in the range of every bound
    for argv in (["--dyadic-j", "0"], ["--epsilon", "1", "--tau", "0.2"]):
        assert cli_main(["bounds", *argv]) == 0
        fields = dict(f.split("=") for f in capsys.readouterr().out.split()[2:])
        assert float(fields["series"]) >= int(fields["count"])
        if fields["dyadic"] != "-":
            assert int(fields["count"]) >= int(fields["dyadic"])
    assert cli_main(["verify", "bounds"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_reads_suites_from_config(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("suites = bounds\n")
    assert cli_main(["verify", "--config", str(cfg)]) == 0
    names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert names == ["bound-chain:", "dyadic-count:", "threshold-equivalence:"]
    # a suite named on the command line wins over the file
    cfg.write_text("suites = nonsense\n")
    assert cli_main(["verify", "--config", str(cfg), "bounds"]) == 0


def test_cli_hands_over_only_the_options_given(tmp_path, monkeypatch):
    seen = {}

    def replace(name, result):
        def fake(*args, **kwargs):
            seen[name] = (args, kwargs)
            return result

        monkeypatch.setattr(nltraffic.harness, name, fake)

    replace("run_simulate", [tmp_path / "u.csv"])
    replace("run_sweep", ([], []))
    replace("run_mechanism_demo", SimpleNamespace(lines=lambda: [], ok=True))

    assert cli_main(["simulate", "--dyadic-j", "4"]) == 0
    assert seen["run_simulate"] == ((RunConfig(dyadic_j=4),), {})
    assert cli_main(["sweep"]) == 0
    assert seen["run_sweep"][0][0] == SweepSpec()
    assert cli_main(["mechanism"]) == 0
    assert seen["run_mechanism_demo"] == ((), {})

    # config values are typed by the command's own flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dyadic-j = 4\nscheme = godunov-local\n")
    assert cli_main(["simulate", "--config", str(cfg)]) == 0
    assert seen["run_simulate"] == ((RunConfig(dyadic_j=4, scheme="godunov-local"),), {})
    cfg.write_text("tau = 0.05\n")
    assert cli_main(["mechanism", "--config", str(cfg)]) == 0
    assert seen["run_mechanism_demo"] == ((), {"tau": 0.05})


def test_cli_mechanism_smoke(capsys):
    code = cli_main(["mechanism", "--h", "0.1", "--epsilon", "0.4", "--tau", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: PASS" in out
