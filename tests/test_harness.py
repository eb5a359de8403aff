"""Datum parsing, grid plumbing, experiment drivers, and the command line."""

import hashlib
import importlib
import importlib.util
import math
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
    write_bounds,
)
import nltraffic
from nltraffic.cli import main as cli_main


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
    g = make_grid((-1.0, 1.0), 0.125)
    assert RunConfig(dyadic_j=3).resolved_epsilon(g) == 0.125
    assert RunConfig(epsilon=0.25).resolved_epsilon(g) == 0.25
    assert RunConfig(local=True).resolved_epsilon(g) == g.dx
    with pytest.raises(ConfigurationError):
        RunConfig().resolved_epsilon(g)
    with pytest.raises(ConfigurationError):
        RunConfig(epsilon=0.25, dyadic_j=2).resolved_epsilon(g)
    with pytest.raises(ConfigurationError):
        RunConfig(dyadic_j=-1).resolved_epsilon(g)


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


def test_run_characteristics_writes_paths_and_rejects_local(tmp_path):
    files = run_characteristics(_small_run(tmp_path, datum="blowup:4"), [-0.5, -0.25])
    assert sorted(f.name for f in files) == [
        "char_y-0.25_eps0.0625.csv",
        "char_y-0.5_eps0.0625.csv",
    ]
    assert files[0].read_text().splitlines()[0] == "t,x,u"
    with pytest.raises(ConfigurationError):
        run_characteristics(_small_run(tmp_path, local=True), [-0.5])


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
    run_characteristics(_small_run(tmp_path / "whole", datum="blowup:4"), [-0.5])
    run_characteristics(_small_run(tmp_path / "cut", datum="blowup:4"), [-0.5], t_end=0.1)

    def params(name):
        lines = (tmp_path / name / "manifest.txt").read_text().splitlines()
        return [ln for ln in lines if " = " in ln and not ln.startswith("wall_time_s")]

    whole, cut = params("whole"), params("cut")
    assert "t_end = None" in whole and "t_end = 0.1" in cut
    assert [ln for ln in whole if ln not in cut] == ["t_end = None"]


def test_write_bounds_creates_table(tmp_path):
    rows = [evaluate_bounds(t, j=3) for t in (0.1, 0.2)]
    files = write_bounds(rows, str(tmp_path))
    assert files[0].name == "bounds.csv"
    text = files[0].read_text().splitlines()
    assert text[0] == "tau,epsilon,j,series,count,dyadic,measured_tv,reconstructed_tv"
    assert len(text) == 3
    assert (tmp_path / "manifest.txt").exists()


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
        SweepSpec(domain=(-0.5, 1.0))
    with pytest.raises(ConfigurationError):
        SweepSpec(js=(0, 2))  # epsilon = 1 has no series bound


def test_run_sweep_smoke(tmp_path):
    rows, failures = run_sweep(SweepSpec(taus=(0.1, 0.2), js=(2,)), out=str(tmp_path))
    assert failures == []
    assert [(r.j, r.tau) for r in rows] == [(2, 0.1), (2, 0.2)]
    for r in rows:
        assert np.isfinite(r.measured_tv)
        assert r.reconstructed_tv > 0.0
        assert r.count_bound >= r.dyadic_bound
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_traces_each_solve_once(monkeypatch):
    solves = []

    def spy(cfg, observers=()):
        record = solve_nonlocal(cfg, observers)
        solves.append((len(observers), record))
        return record

    monkeypatch.setattr(nltraffic.harness, "solve_nonlocal", spy)
    rows, failures = run_sweep(SweepSpec(taus=(0.1, 0.2), js=(4,)))
    assert failures == []
    [(n_observers, record)] = solves
    assert n_observers == 1
    assert [r.tau for r in rows] == [0.1, 0.2]
    for r in rows:
        assert r.reconstructed_tv == reconstruct_tv_from_characteristics(record, r.tau).total


def test_mechanism_demo_validation():
    with pytest.raises(ConfigurationError):
        run_mechanism_demo(h=0.5, epsilon=0.4)
    with pytest.raises(ConfigurationError):
        run_mechanism_demo(h=0.0)
    with pytest.raises(ConfigurationError):
        run_mechanism_demo(tau=0.0)
    with pytest.raises(ConfigurationError):
        run_mechanism_demo(dx=0.03)  # epsilon is not a whole number of cells
    with pytest.raises(ConfigurationError):
        run_mechanism_demo(epsilon=math.inf)


def test_mechanism_demo_refuses_a_grid_without_vacuum_cells():
    # at dx = 0.4 the cell centres nearest 0 are -0.2 and 0.2, so none falls
    # in the vacuum window [-h/8, 0) that the demo checks
    with pytest.raises(ConfigurationError, match=r"dx=0\.4 .*vacuum window \[-h/8, 0\)"):
        run_mechanism_demo(dx=0.4)


def test_run_verify_suite_selection(capsys):
    with pytest.raises(ConfigurationError):
        run_verify(["bounds", "nonsense"])
    reports = run_verify(["bounds"])
    assert reports and all(r.passed for r in reports)
    printed = capsys.readouterr().out
    assert printed.count("PASS") == len(reports)


# --- command line -------------------------------------------------------------------


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
    assert cli_main(["verify", "nonsense"]) == 2
    assert cli_main(["mechanism", "--epsilon", "inf"]) == 2
    # a cell width or a domain that is not finite is refused before any division
    assert cli_main(["mechanism", "--dx", "0"]) == 2
    assert cli_main(["mechanism", "--dx", "nan"]) == 2
    assert cli_main(["simulate", "--domain=-inf,1", "--dyadic-j", "4"]) == 2
    # a density outside [0, 1] is refused by the solver configuration
    assert cli_main(["simulate", "--datum", "riemann:0.2,1.5", "--dyadic-j", "4"]) == 2
    # a time that is not a finite nonnegative number is refused at once
    assert cli_main(["simulate", "--tau", "nan", "--dyadic-j", "4"]) == 2
    assert cli_main(["bounds", "--tau", "nan", "--dyadic-j", "4"]) == 2
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
    argv = ["simulate", "--datum", "riemann:0.5,0.5", "--dyadic-j", "4", "--out", str(out)]
    assert cli_main(argv + ["--local"] * local) == 0
    snapshots = sorted(out.glob("u_t*.csv"))
    assert len(snapshots) == 2
    for f in snapshots:
        u = np.loadtxt(f, delimiter=",", skiprows=1)[:, 1]
        assert u.size == 640 and np.all(u == 0.5)


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
    cfg.write_text("dyadic-j = 4\nlocal = yes\n")
    assert cli_main(["simulate", "--config", str(cfg)]) == 0
    assert seen["run_simulate"] == ((RunConfig(dyadic_j=4, local=True),), {})
    assert seen["run_simulate"][0][0].local is True
    cfg.write_text("tau = 0.05\n")
    assert cli_main(["mechanism", "--config", str(cfg)]) == 0
    assert seen["run_mechanism_demo"] == ((), {"tau": 0.05})
    cfg.write_text("local = maybe\n")
    assert cli_main(["simulate", "--config", str(cfg)]) == 2


def test_cli_mechanism_smoke(capsys):
    code = cli_main(["mechanism", "--h", "0.1", "--epsilon", "0.4", "--tau", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: PASS" in out
