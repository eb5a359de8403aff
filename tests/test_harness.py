"""Datum parsing, grid plumbing, experiment drivers, and the command line."""

import hashlib
import math
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
    run_characteristics,
    run_mechanism_demo,
    run_simulate,
    run_sweep,
    run_verify,
    save_piecewise,
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
        "riemann:0.2,1.5",
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
    with pytest.raises(ConfigurationError):
        SweepSpec(taus=(-0.1,))
    with pytest.raises(ConfigurationError):
        SweepSpec(js=(2, 2))
    with pytest.raises(ConfigurationError):
        SweepSpec(domain=(-0.5, 1.0))


def test_run_sweep_smoke(tmp_path):
    rows, failures = run_sweep(SweepSpec(taus=(0.1, 0.2), js=(2,)), out=str(tmp_path))
    assert failures == []
    assert [(r.j, r.tau) for r in rows] == [(2, 0.1), (2, 0.2)]
    for r in rows:
        assert np.isfinite(r.measured_tv)
        assert r.reconstructed_tv > 0.0
        assert r.count_bound >= r.dyadic_bound
    assert (tmp_path / "sweep.csv").exists()
    with pytest.raises(ConfigurationError):
        run_sweep(SweepSpec(taus=()))


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


def test_cli_error_paths(tmp_path):
    # config errors come back as exit 2
    assert cli_main(["simulate", "--datum", "nope", "--epsilon", "0.0625"]) == 2
    assert cli_main(["simulate", "--datum", "step"]) == 2  # epsilon unresolved
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert cli_main(["simulate", "--config", str(cfg)]) == 2
    assert cli_main(["verify", "nonsense"]) == 2
    assert cli_main(["mechanism", "--epsilon", "inf"]) == 2
    # a key must name a flag of the command, not just any parsed attribute
    cfg.write_text("dyadic-j = 4\n")
    assert cli_main(["bounds", "--config", str(cfg)]) == 0
    for key in ("command = sweep", "handler = x", "config = other.cfg", "help = yes"):
        cfg.write_text(f"dyadic-j = 4\n{key}\n")
        assert cli_main(["bounds", "--config", str(cfg)]) == 2


def test_cli_bounds_and_verify(tmp_path, capsys):
    assert cli_main(["bounds", "--tau", "0.1,0.2", "--dyadic-j", "4"]) == 0
    out = capsys.readouterr().out
    assert "tau" in out and out.count("0.0625") >= 2
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
