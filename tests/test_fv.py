"""Grid machinery, lookahead averages, and the marching schemes.

Oracles here are brute force on purpose: windowed means by explicit slicing,
the single-jump flux by dense sampling of f on the interval between the two
states.  Scheme properties (range, monotonicity, conservation) are swept over
small deterministic configuration lattices.  The fast marches are also
compared with whole-grid marches on random configurations, each drawn from
``np.random.default_rng(seed)`` for a fixed seed, so a failure reproduces
byte for byte too; ``tools/fuzzmarch.py`` runs any number of seeds.
"""

import warnings

import numpy as np
import pytest

from nltraffic import (
    ConfigurationError,
    Grid1D,
    PiecewiseConstant1D,
    RunConfig,
    SolverConfig,
    SolverError,
    build_bar_u,
    build_u0,
    cell_averages,
    cfl_dt,
    compute_w,
    default_truncation,
    fv,
    godunov_flux_local,
    make_grid,
    parse_datum,
    piecewise_to_text,
    solve_local,
    solve_nonlocal,
    step_lax_friedrichs,
    step_upwind,
    sweep_resolution,
)
from nltraffic.fv import _clock, _march
from nltraffic.harness import build_solver_config


def window_mean_oracle(u, m, right_ghost):
    """Mean of the next m cells after each interface, by explicit slicing."""
    ext = np.concatenate((u, np.full(m, right_ghost)))
    return np.array([ext[i : i + m].mean() for i in range(u.size + 1)])


def constant(c):
    """The profile that holds ``c`` on the whole line."""
    return PiecewiseConstant1D(np.array([0.0]), np.array([]), c, c)


def godunov_oracle(ul, ur):
    """Exact single-jump flux for f(u) = u(1-u) by dense minimization."""
    f = lambda v: v * (1.0 - v)
    span = np.linspace(min(ul, ur), max(ul, ur), 20001)
    return f(span).min() if ul <= ur else f(span).max()


class _StepLog:
    """Observer that records every notice a march hands out."""

    def __init__(self):
        self.notices = []

    def snapshot(self, step, t, u):
        self.notices.append(("snapshot", step, t))

    def step(self, step, t0, t1, w):
        self.notices.append(("step", step, t0, t1, w.copy()))

    def steps(self):
        """(step, t0, t1, w) of every step notice, in march order."""
        return [n[1:] for n in self.notices if n[0] == "step"]


# --- grid ----------------------------------------------------------------------


def test_grid_geometry():
    g = Grid1D(-1.5, 1.0, 10)
    assert g.dx == 0.25
    np.testing.assert_allclose(g.edges, np.linspace(-1.5, 1.0, 11), atol=0)
    np.testing.assert_allclose(g.centers, g.edges[:-1] + 0.125, atol=0)
    assert g.cell_of(-1.5) == 0
    assert g.cell_of(-1.5 + 0.25) == 1  # edges belong to the right cell
    assert g.cell_of(0.99) == 9
    assert g.cell_of(1.0) == 9  # right endpoint clamps into the last cell


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid1D(1.0, -1.0, 10)
    with pytest.raises(ConfigurationError):
        Grid1D(0.0, 1.0, 0)
    with pytest.raises(ConfigurationError):
        Grid1D(0.0, np.inf, 4)


# --- lookahead average ----------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 5, 16, 17, 64, 128])
def test_compute_w_matches_slicing_oracle(m):
    # 32 cells, then the edges of the block split into blocks of m: a ragged
    # last block, n + 1 a whole number of blocks, a field shorter than one
    for n in sorted({32, 3 * m + 5, 3 * m - 1, max(m - 3, 1)}):
        g = Grid1D(0.0, 1.0, n)
        dx = g.dx
        u = (np.arange(n) % 7) / 7.0  # deterministic, non-symmetric profile
        for ghost in (1.0, 0.0, 0.375):
            w = compute_w(u, m * dx, dx, ghost)
            np.testing.assert_allclose(w, window_mean_oracle(u, m, ghost), rtol=0, atol=1e-15)


def test_compute_w_constant_is_exact():
    g = Grid1D(-1.0, 1.0, 50)
    u = np.full(50, 0.375)
    w = compute_w(u, 5 * g.dx, g.dx, right_ghost_value=0.375)
    assert np.all(w == 0.375)


def test_compute_w_step_halfway_through_window():
    # jump at -eps/2: the window at x = -eps is half vacuum, half jam
    eps = 0.25
    g = Grid1D(-1.0, 1.0, 128)
    u = np.where(g.centers >= -eps / 2, 1.0, 0.0)
    w = compute_w(u, eps, g.dx, 1.0)
    i = int(np.flatnonzero(np.isclose(g.edges, -eps))[0])
    assert w[i] == 0.5
    assert w[-1] == 1.0
    assert w[0] == 0.0


def test_compute_w_requires_whole_cell_window():
    g = Grid1D(0.0, 1.0, 10)
    with pytest.raises(ConfigurationError):
        compute_w(np.zeros(10), 0.15, g.dx, 1.0)


def test_compute_w_jam_window_is_bit_exact():
    # the second jam starts at interface 550, inside a block of 128 cells
    for n, m, edge in ((64, 4, 0.0), (1000, 128, 0.1)):
        g = Grid1D(-1.0, 1.0, n)
        u = np.where(g.centers >= edge, 1.0, 0.3)
        w = compute_w(u, m * g.dx, g.dx, 1.0)
        jam = np.flatnonzero(g.edges >= edge)
        assert np.all(w[jam] == 1.0)


def test_compute_w_returns_its_own_interface_array():
    u = np.linspace(0.0, 1.0, 300)
    w = compute_w(u, 64 * 0.01, 0.01, 1.0)
    assert w.shape == (301,)
    assert w.flags.owndata and w.base is None


# --- step size -------------------------------------------------------------------


def test_cfl_dt_caps_at_cfl_dx():
    cap = 0.9 * 0.1
    assert cfl_dt(np.zeros(5), 0.1, 0.9) == cap
    assert cfl_dt(np.full(5, 0.5), 0.1, 0.9) == cap  # speed 1/2 still capped
    assert cfl_dt(np.ones(5), 0.1, 0.9) == cap  # jammed road, floor guards 1/0
    assert cfl_dt(np.full(5, -1.0), 0.1, 0.9) == pytest.approx(cap / 2, rel=1e-15)


@pytest.mark.parametrize("scheme, factor", [("upwind", 1.0), ("lax-friedrichs", 16 / 17)])
def test_every_step_is_the_cfl_step_except_landings(scheme, factor):
    # On the 10-cell grid, 0.08 plus the landing step 0.21 - 0.08 adds up to
    # 0.21000000000000002, so a clock that accumulated that step would miss.
    for n, t_final, outputs in ((640, 0.3, (0.1, 0.17)), (10, 0.5, (0.08, 0.21))):
        g = Grid1D(-1.5, 1.0, n)
        cfg = SolverConfig(grid=g, epsilon=8 * g.dx, datum=build_u0(4), t_final=t_final,
                           scheme=scheme, output_times=outputs)
        log = _StepLog()
        solve_nonlocal(cfg, observers=[log])
        # replay the march clock: full steps of cfl * dx * factor, and a
        # shortened step that ends exactly on each target it reaches
        dt = 0.9 * g.dx * factor
        t, times, landings = 0.0, [0.0], 0
        for target in outputs + (t_final,):
            while t < target:
                landing = dt >= target - t
                landings += landing
                t = target if landing else t + dt
                times.append(t)
        assert landings == 3
        assert [0.0] + [s[2] for s in log.steps()] == times
        assert [s[1] for s in log.steps()] == times[:-1]


# --- single steps ----------------------------------------------------------------


@pytest.mark.parametrize("c", [0.0, 0.25, 1.0])
def test_constant_state_is_stationary_for_both_steppers(c):
    n, dx, dt = 20, 0.05, 0.02
    u = np.full(n, c)
    w = np.full(n + 1, c)
    up = step_upwind(u, w, dt, dx, left_ghost_value=c)
    lf = step_lax_friedrichs(u, w, dt, dx, c, c)
    np.testing.assert_array_equal(up, u)
    np.testing.assert_array_equal(lf, u)


def test_step_upwind_moves_mass_downstream_only():
    n, dx = 16, 0.125
    u = np.zeros(n)
    u[4] = 0.5
    w = compute_w(u, 2 * dx, dx, 0.0)
    out = step_upwind(u, w, 0.05, dx, 0.0)
    assert out[3] == 0.0  # nothing flows upstream
    assert out[5] > 0.0
    assert out.sum() == pytest.approx(u.sum(), abs=1e-15)


def test_step_upwind_rejects_cfl_violation():
    u = np.zeros(8)
    w = np.zeros(9)
    with pytest.raises(ConfigurationError):
        step_upwind(u, w, 0.2, 0.1, 0.0)


def test_steppers_reject_wrong_interface_count():
    with pytest.raises(ConfigurationError):
        step_upwind(np.zeros(8), np.zeros(8), 0.01, 0.1, 0.0)
    with pytest.raises(ConfigurationError):
        step_lax_friedrichs(np.zeros(8), np.zeros(10), 0.01, 0.1, 0.0, 1.0)


def test_caller_buffers_give_the_allocated_results_bit_for_bit():
    u = np.linspace(0.0, 1.0, 300)
    eps, dx = 64 * 0.01, 0.01
    w = compute_w(u, eps, dx, 1.0)
    out, work = np.empty(301), np.empty(2 * 64 * 6)  # 300 cells and the ghost: 6 blocks
    assert compute_w(u, eps, dx, 1.0, out=out, work=work) is out
    assert out.tobytes() == w.tobytes()
    stepped = step_upwind(u, w, 0.009, dx, 0.0)
    # the step leaves its interface fluxes, not yet scaled by dt/dx, in work
    step_upwind(u, w, 0.009, dx, 0.25, work=work[:601])
    assert work[:301].tobytes() == (np.concatenate(([0.25], u)) * (1.0 - w)).tobytes()
    assert step_upwind(u, w, 0.009, dx, 0.0, out=u, work=work[:601]) is u
    assert u.tobytes() == stepped.tobytes()
    with pytest.raises(ConfigurationError, match="interface slots"):
        compute_w(u, eps, dx, 1.0, out=np.empty(300))
    with pytest.raises(ConfigurationError, match="work slots"):
        compute_w(u, eps, dx, 1.0, work=work[:-1])
    with pytest.raises(ConfigurationError, match="cell slots"):
        step_upwind(u, w, 0.009, dx, 0.0, out=np.empty(301))
    with pytest.raises(ConfigurationError, match="work slots"):
        step_upwind(u, w, 0.009, dx, 0.0, work=work[:600])
    flux = godunov_flux_local(u[:-1], u[1:])
    out = np.empty(299)
    assert godunov_flux_local(u[:-1], u[1:], out=out, work=work[:598]) is out
    assert out.tobytes() == flux.tobytes()
    with pytest.raises(ConfigurationError, match="flux slots"):
        godunov_flux_local(u[:-1], u[1:], out=np.empty(300))
    with pytest.raises(ConfigurationError, match="work slots"):
        godunov_flux_local(u[:-1], u[1:], work=work[:597])


# --- single-jump flux for the sharp-interaction law -------------------------------


def test_godunov_flux_frozen_values():
    assert godunov_flux_local(0.0, 1.0) == 0.0
    assert godunov_flux_local(1.0, 0.0) == 0.25
    for c in (0.0, 0.3, 0.5, 1.0):
        assert godunov_flux_local(c, c) == pytest.approx(c * (1 - c), abs=0)


def test_godunov_flux_matches_dense_oracle():
    states = np.linspace(0.0, 1.0, 11)
    for ul in states:
        for ur in states:
            assert godunov_flux_local(ul, ur) == pytest.approx(
                godunov_oracle(ul, ur), abs=1e-9
            )


def test_godunov_flux_is_the_two_case_formula_bit_for_bit():
    # min(f(ul), f(ur)) for ul <= ur and f at the point of [ur, ul] nearest
    # 1/2 otherwise, each case as its own arithmetic; states outside [0, 1]
    # and NaN included
    f = lambda v: v * (1.0 - v)
    states = np.concatenate((np.linspace(-0.5, 1.5, 41), [0.5 - 2**-53, 0.5 + 2**-53, np.nan]))
    ul, ur = (a.ravel() for a in np.meshgrid(states, states))
    two_cases = np.where(ul <= ur, np.minimum(f(ul), f(ur)), f(np.clip(0.5, ur, ul)))
    assert godunov_flux_local(ul, ur).tobytes() == two_cases.tobytes()


def test_godunov_flux_vectorizes():
    ul = np.array([0.0, 1.0, 0.4])
    ur = np.array([1.0, 0.0, 0.4])
    np.testing.assert_allclose(godunov_flux_local(ul, ur), [0.0, 0.25, 0.24], atol=1e-15)


# --- configuration validation ------------------------------------------------------


def test_solver_config_validation():
    g = Grid1D(-1.0, 1.0, 64)
    ok = dict(grid=g, epsilon=4 * g.dx, datum=constant(0.0), t_final=0.1)
    SolverConfig(**ok)
    with pytest.raises(ConfigurationError):
        SolverConfig(**{**ok, "epsilon": 3.7 * g.dx})
    with pytest.raises(ConfigurationError):
        SolverConfig(**{**ok, "scheme": "weno"})
    with pytest.raises(ConfigurationError):
        SolverConfig(**{**ok, "cfl": 0.0})
    with pytest.raises(ConfigurationError):
        SolverConfig(**{**ok, "cfl": 1.5})
    with pytest.raises(ConfigurationError):
        SolverConfig(**{**ok, "t_final": 0.0})
    with pytest.raises(ConfigurationError):
        SolverConfig(**{**ok, "output_times": (0.05, 0.2)})  # beyond t_final
    SolverConfig(**{**ok, "output_times": (0.05, 0.1)})  # t_final itself is fine
    with pytest.raises(ConfigurationError):  # one ulp beyond t_final
        SolverConfig(**{**ok, "output_times": (np.nextafter(0.1, 1.0),)})
    with pytest.raises(ConfigurationError):
        SolverConfig(**{**ok, "output_times": (0.05, 0.05)})
    with pytest.raises(ConfigurationError, match="nonnegative"):
        SolverConfig(**{**ok, "output_times": (float("nan"),)})


def test_solver_config_refuses_an_array_datum():
    g = Grid1D(-1.0, 1.0, 64)
    with pytest.raises(ConfigurationError, match="PiecewiseConstant1D"):
        SolverConfig(grid=g, epsilon=4 * g.dx, datum=np.zeros(64), t_final=0.1)


@pytest.mark.parametrize("scheme", ["upwind", "lax-friedrichs"])
def test_datum_outside_unit_interval_is_refused_before_the_march(tmp_path, scheme):
    g = Grid1D(-1.0, 1.0, 64)
    path = tmp_path / "datum.txt"
    path.write_text(piecewise_to_text(PiecewiseConstant1D(
        breakpoints=np.array([0.0]), values=np.array([]),
        left_extension=-0.5, right_extension=1.0)))
    too_dense = PiecewiseConstant1D(np.array([0.0]), np.array([]), 0.0, 1.5)
    for datum in (parse_datum(f"file:{path}", g.dx), too_dense, constant(1.5)):
        with pytest.raises(ConfigurationError, match=r"must lie in \[0, 1\]"):
            SolverConfig(grid=g, epsilon=4 * g.dx, datum=datum, t_final=0.1,
                         scheme=scheme)


@pytest.mark.parametrize("solve, scheme", [
    (solve_nonlocal, "upwind"), (solve_nonlocal, "lax-friedrichs"), (solve_local, "upwind")])
def test_file_datum_is_marched_against_its_own_tails(tmp_path, solve, scheme):
    g = Grid1D(-2.0, 2.0, 128)
    path = tmp_path / "datum.txt"
    path.write_text(piecewise_to_text(PiecewiseConstant1D(
        breakpoints=np.array([-0.25, 0.25]), values=np.array([0.6]),
        left_extension=0.3, right_extension=0.3)))
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=parse_datum(f"file:{path}", g.dx),
                       t_final=0.2, scheme=scheme)
    u = solve(cfg).snapshots[0.2]
    # in its 8 steps the bump reaches at most one window (4 cells) plus one
    # cell a step upstream and one cell a step downstream, so the outer 16
    # cells on each side see only the tails
    np.testing.assert_allclose(u[:16], 0.3, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u[-16:], 0.3, rtol=0, atol=1e-12)


def test_non_finite_datum_aborts_with_location():
    # A profile cannot hold NaN, so the step plants one in cell 17.
    g = Grid1D(-1.0, 1.0, 64)
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=constant(0.0), t_final=0.1)

    def advance(u, t0, dt):
        u = u.copy()
        u[17] = np.nan
        return u, None

    with pytest.raises(SolverError, match="cell 17"):
        _march(cfg, np.zeros(64), advance, _clock(cfg, 0.9 * g.dx), scheme="upwind",
               epsilon=cfg.epsilon, window=(0, 64))


def test_march_checks_finiteness_by_one_sum():
    # Two cells of 1e308 overflow the sum to inf yet are finite: the scan
    # finds no bad cell and the march goes on.  +inf and -inf sum to NaN, and
    # the scan names the first of them.  The sum takes in the last cell.
    g = Grid1D(-1.0, 1.0, 64)
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=constant(0.0), t_final=0.1)

    def planting(cells):
        def advance(u, t0, dt):
            u = np.zeros(64)
            for i, v in cells.items():
                u[i] = v
            return u, None
        return advance

    def march(cells):
        return _march(cfg, np.zeros(64), planting(cells), _clock(cfg, 0.9 * g.dx),
                      scheme="upwind", epsilon=cfg.epsilon, window=(0, 64))

    # numpy warns about neither the overflow nor the inf - inf of the sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = march({20: 1e308, 30: 1e308})
        assert rec.snapshots[0.1][20] == 1e308
        assert rec.info == {"scheme": "upwind", "steps": 4} and rec.epsilon == cfg.epsilon
        with pytest.raises(
            SolverError,
            match=rf"^non-finite value in cell 23 \(x={g.centers[23]:.6g}\) at t=0.028125 after 1 steps$",
        ):
            march({23: np.inf, 40: -np.inf})
        with pytest.raises(SolverError, match="^non-finite value in cell 63 "):
            march({63: np.nan})


# --- marching properties -------------------------------------------------------------


def _blowup_cfg(scheme, cfl=0.9, eps=2.0**-3, n=160, t_final=0.2):
    g = Grid1D(-1.5, 1.0, n)
    return SolverConfig(
        grid=g,
        epsilon=eps,
        datum=build_u0(4),
        t_final=t_final,
        cfl=cfl,
        scheme=scheme,
        output_times=(t_final / 2,),
    )


@pytest.mark.parametrize("scheme", ["upwind", "lax-friedrichs"])
@pytest.mark.parametrize("cfl", [0.5, 0.9, 1.0])
def test_range_preserved_on_oscillatory_datum(scheme, cfl):
    rec = solve_nonlocal(_blowup_cfg(scheme, cfl=cfl))
    for t in rec.times:
        v = rec.snapshot(t).values
        assert v.min() >= -1e-12
        assert v.max() <= 1.0 + 1e-12


def test_range_preserved_on_the_j7_sweep_grid():
    # 40,960 cells and 128-cell windows: the carried row's roundoff must
    # stay within the verify suite's 1e-12 over the sweep's longest march
    _, _, dx = sweep_resolution(7)
    g = make_grid((-1.5, 1.0), dx)
    cfg = SolverConfig(grid=g, epsilon=2.0**-7, datum=build_u0(default_truncation(dx)),
                       t_final=0.2, output_times=(0.1,))
    rec = solve_nonlocal(cfg)
    assert g.n_cells == 40960 and rec.times == [0.0, 0.1, 0.2]
    for t in rec.times:
        v = rec.snapshots[t]
        assert v.min() >= 0.0
        assert v.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("scheme", ["upwind", "lax-friedrichs"])
@pytest.mark.parametrize("datum_spec", ["step", "riemann:0.2,0.8", "riemann:0.9,0.1"])
def test_monotone_data_stay_monotone(scheme, datum_spec):
    g = Grid1D(-1.0, 1.0, 128)
    datum = parse_datum(datum_spec, g.dx)
    sign = 1.0 if datum(1.0) >= datum(-1.0) else -1.0
    cfg = SolverConfig(
        grid=g,
        epsilon=2.0**-3,
        datum=datum,
        t_final=0.25,
        scheme=scheme,
    )
    rec = solve_nonlocal(cfg)
    for t in rec.times:
        diffs = sign * np.diff(rec.snapshot(t).values)
        assert diffs.min() >= -1e-10


@pytest.mark.parametrize("scheme", ["upwind", "lax-friedrichs"])
def test_monotone_data_tv_never_grows(scheme):
    from nltraffic import total_variation

    g = Grid1D(-1.0, 1.0, 128)
    cfg = SolverConfig(
        grid=g,
        epsilon=2.0**-3,
        datum=parse_datum("step", g.dx),
        t_final=0.3,
        scheme=scheme,
        output_times=(0.1, 0.2),
    )
    rec = solve_nonlocal(cfg)
    tvs = [total_variation(rec.snapshot(t)) for t in rec.times]
    assert all(b <= a + 1e-12 for a, b in zip(tvs[:-1], tvs[1:]))


@pytest.mark.parametrize("scheme", ["upwind", "lax-friedrichs"])
def test_interior_bump_conserves_mass(scheme):
    g = Grid1D(-1.0, 1.0, 100)
    # 0.8 on the cells between the edges at -0.6 and -0.2, vacuum elsewhere
    bump = PiecewiseConstant1D(g.edges[[20, 40]], np.array([0.8]))
    cfg = SolverConfig(
        grid=g,
        epsilon=5 * g.dx,
        datum=bump,
        t_final=0.3,
        scheme=scheme,
    )
    rec = solve_nonlocal(cfg)
    m0 = np.sum(rec.snapshots[0.0]) * g.dx
    assert abs(np.sum(rec.snapshots[0.3]) * g.dx - m0) <= 1e-10


def test_jam_side_is_bit_exact_under_upwind():
    rec = solve_nonlocal(_blowup_cfg("upwind"))
    sel = rec.grid.centers >= 0.0
    for t in rec.times:
        assert np.all(rec.snapshot(t).values[sel] == 1.0)


def test_snapshots_land_exactly_on_requested_times():
    g = Grid1D(-1.0, 1.0, 64)
    cfg = SolverConfig(
        grid=g,
        epsilon=4 * g.dx,
        datum=parse_datum("step", g.dx),
        t_final=0.25,
        output_times=(0.1, 0.17),
    )
    log = _StepLog()
    rec = solve_nonlocal(cfg, observers=[log])
    assert sorted(rec.snapshots) == [0.0, 0.1, 0.17, 0.25]
    steps = log.steps()
    assert rec.info["steps"] == len(steps)
    assert all(s[3].shape == (g.n_cells + 1,) for s in steps)


def test_observers_see_the_history_that_is_not_stored():
    g = Grid1D(-1.0, 1.0, 64)
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=parse_datum("step", g.dx),
                       t_final=0.25, output_times=(0.1, 0.17))
    bare = solve_nonlocal(cfg)
    log = _StepLog()
    live = solve_nonlocal(cfg, observers=[log])
    for rec in (bare, live):
        assert rec.w_fields.size == 0
    assert live.info["steps"] == bare.info["steps"]
    for t in bare.snapshots:
        np.testing.assert_array_equal(live.snapshots[t], bare.snapshots[t])
    assert live.snapshot_steps == bare.snapshot_steps
    snaps = [n[1:] for n in log.notices if n[0] == "snapshot"]
    assert snaps == [(bare.snapshot_steps[t], t) for t in bare.times]
    steps = log.steps()
    assert [s[0] for s in steps] == list(range(bare.info["steps"]))
    # each step starts where the previous one ended
    assert [s[1] for s in steps] == [0.0] + [s[2] for s in steps[:-1]]
    # the step taken from a snapshot averages that snapshot
    for t, k in bare.snapshot_steps.items():
        if k < len(steps):
            np.testing.assert_array_equal(
                steps[k][3], compute_w(bare.snapshots[t], cfg.epsilon, g.dx,
                                       cfg.datum.right_extension))
    # each snapshot is announced before the step that leaves it
    order = [(n[1], n[0] == "step") for n in log.notices]
    assert order == sorted(order)


def test_a_short_clock_takes_a_landing_step():
    # 400 steps of dx = 0.0025 add up to about 1e-14 short of 1.0, so the
    # march takes a 401st step of that size, which ends exactly on t_final
    g = Grid1D(-1.5, 1.0, 1000)
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=parse_datum("step", g.dx),
                       t_final=1.0, cfl=1.0)
    log = _StepLog()
    rec = solve_nonlocal(cfg, observers=[log])
    steps = log.steps()
    assert rec.info["steps"] == len(steps) == 401
    assert steps[-1][1] < 1.0 - 1e-14
    assert steps[-1][2] == 1.0


def _whole_grid_march(cfg):
    """Snapshots and rows of a march that steps every cell with fresh arrays.

    Upwind sums the row on the step that leaves each snapshot and on every
    m-th step after that, and in between carries it by the previous step's
    interface fluxes, held past the last interface at the flux there.
    """
    g, datum = cfg.grid, cfg.datum
    left, right = datum.left_extension, datum.right_extension
    m = cfg.lookahead_cells
    factor = 1.0 if cfg.scheme == "upwind" else 2.0 * m / (2.0 * m + 1.0)
    dt_max = cfg.cfl * g.dx * factor
    u = cell_averages(datum, g.edges)
    snaps, rows, t = {0.0: u.copy()}, [], 0.0
    for target in sorted(set(cfg.output_times) | {cfg.t_final}):
        k = 0
        while t < target:
            room = target - t
            dt = min(dt_max, room)
            if cfg.scheme == "upwind" and k % m:
                padded = np.concatenate((flux, np.full(m, flux[-1])))
                w = w - dt_before / (m * g.dx) * (padded[m:] - flux)
            else:
                w = compute_w(u, cfg.epsilon, g.dx, right)
            if cfg.scheme == "upwind":
                flux = np.concatenate(([left], u)) * (1.0 - w)
                u = step_upwind(u, w, dt, g.dx, left)
            else:
                u = step_lax_friedrichs(u, w, dt, g.dx, left, right)
            rows.append(w)
            t = target if dt == room else t + dt
            k, dt_before = k + 1, dt
        snaps[target] = u.copy()
    return snaps, rows


@pytest.mark.parametrize("scheme, spec", [
    *(("upwind", spec) for spec in (
        "blowup", "bar_u:0.1", "step", "riemann:0,1", "riemann:1,1", "riemann:0,0.5",
        "riemann:0.5,1", "riemann:0.2,0.8")),
    ("lax-friedrichs", "blowup"),
])
def test_march_equals_the_whole_grid_march_bit_for_bit(scheme, spec):
    # 32-cell windows, so the frozen tails span several blocks
    g = Grid1D(-1.5, 1.0, 640)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=parse_datum(spec, g.dx), t_final=0.2,
                       scheme=scheme, output_times=(0.1,))
    log = _StepLog()
    rec = solve_nonlocal(cfg, observers=[log])
    snaps, rows = _whole_grid_march(cfg)
    assert sorted(rec.snapshots) == sorted(snaps)
    for t, u in snaps.items():
        assert rec.snapshots[t].tobytes() == u.tobytes()
    steps = log.steps()
    assert len(steps) == len(rows)
    for (_, _, _, w), row in zip(steps, rows):
        assert w.tobytes() == row.tobytes()


@pytest.mark.parametrize("spec, taus", [("blowup", (0.1, 0.3)), ("riemann:0.2,0.8", (0.1,))])
def test_upwind_row_is_summed_at_resums_and_carried_between(monkeypatch, spec, taus):
    # The canned upwind marches (dx = 4^-4, 16-cell windows, t_final 0.5);
    # riemann:0.2,0.8 has no jam, so its fluxes leave the grid.
    cfg = build_solver_config(RunConfig(datum=spec, dyadic_j=4, output_times=taus))
    g, m, right = cfg.grid, cfg.lookahead_cells, cfg.datum.right_extension
    states, sums = [], []

    def spy_step(u, *args, **kwargs):
        states.append(u.copy())
        return step_upwind(u, *args, **kwargs)

    def spy_sum(*args, **kwargs):
        sums.append(len(states))
        return compute_w(*args, **kwargs)

    monkeypatch.setattr(fv, "step_upwind", spy_step)
    monkeypatch.setattr(fv, "compute_w", spy_sum)
    log = _StepLog()
    rec = solve_nonlocal(cfg, observers=[log])
    # re-sums on the step leaving each snapshot (t = 0 included) and every
    # m-th step after it; every other step carries the row
    marks = [rec.snapshot_steps[t] for t in rec.times]
    resums = [k for a, b in zip(marks, marks[1:]) for k in range(a, b, m)]
    assert sums == resums and len(resums) < len(states) // 4
    u = rec.snapshots[0.0].copy()
    lo, hi = fv._moving_cells(u, cfg.datum, m)
    worst = 0.0
    for k, ((_, _, _, w), moving) in enumerate(zip(log.steps(), states, strict=True)):
        u[lo:hi] = moving
        summed = compute_w(u, cfg.epsilon, g.dx, right)
        if k in resums:
            assert w.tobytes() == summed.tobytes()
        worst = max(worst, float(np.max(np.abs(w - summed))))
    assert worst <= 4 * m * 2.0**-52


def test_upwind_steps_only_the_cells_between_the_frozen_tails(monkeypatch):
    # The sweep grid of j = 4: vacuum up to the first block at -1 and the
    # jam from 0 on hold still, so 1088 of the 2560 cells move.
    _, _, dx = sweep_resolution(4)
    g = make_grid((-1.5, 1.0), dx)
    cfg = SolverConfig(grid=g, epsilon=2.0**-4, datum=build_u0(default_truncation(dx)),
                       t_final=0.01)
    stepped = []

    def spy(u, *args, **kwargs):
        stepped.append(len(u))
        return step_upwind(u, *args, **kwargs)

    monkeypatch.setattr(fv, "step_upwind", spy)
    rec = solve_nonlocal(cfg)
    assert g.n_cells == 2560
    assert stepped and set(stepped) == {1088}
    assert len(stepped) == rec.info["steps"]


def test_a_nan_inside_the_upwind_window_names_its_grid_cell(monkeypatch):
    # The j = 4 sweep grid again: the window is cells [448, 1536), so cell
    # 100 of the stepped slice is cell 548 of the grid.
    _, _, dx = sweep_resolution(4)
    g = make_grid((-1.5, 1.0), dx)
    cfg = SolverConfig(grid=g, epsilon=2.0**-4, datum=build_u0(default_truncation(dx)),
                       t_final=0.01)
    stepped = []

    def spoil(u, *args, **kwargs):
        out = step_upwind(u, *args, **kwargs)
        stepped.append(len(u))
        if len(stepped) == 3:
            out[100] = np.nan
        return out

    monkeypatch.setattr(fv, "step_upwind", spoil)
    with pytest.raises(SolverError, match=rf"cell 548 \(x={g.centers[548]:.6g}\) .* after 3 steps"):
        solve_nonlocal(cfg)
    assert stepped == [1088] * 3


def test_an_observer_cannot_write_into_the_row():
    g = Grid1D(-1.0, 1.0, 64)
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=parse_datum("step", g.dx), t_final=0.1)

    class Scribbler:
        def snapshot(self, step, t, u):
            pass

        def step(self, step, t0, t1, w):
            w[0] = 0.5

    with pytest.raises(ValueError, match="read-only"):
        solve_nonlocal(cfg, observers=[Scribbler()])


# --- sharp-interaction limit ---------------------------------------------------------


def _whole_grid_godunov(cfg):
    """Snapshots of a Godunov march that steps every cell with fresh arrays."""
    g, datum = cfg.grid, cfg.datum
    dt_max = cfg.cfl * g.dx
    u = cell_averages(datum, g.edges)
    snaps, t = {0.0: u.copy()}, 0.0
    for target in sorted(set(cfg.output_times) | {cfg.t_final}):
        while t < target:
            room = target - t
            dt = min(dt_max, room)
            u_ext = np.concatenate(([datum.left_extension], u, [datum.right_extension]))
            flux = godunov_flux_local(u_ext[:-1], u_ext[1:])
            u = u - dt / g.dx * (flux[1:] - flux[:-1])
            t = target if dt == room else t + dt
        snaps[target] = u.copy()
    return snaps


@pytest.mark.parametrize("n, spec", [
    (640, "blowup"), (300, "blowup"),
    (640, "riemann:0,0.5"), (640, "riemann:0.5,1"), (640, "riemann:0,1"),
])
def test_local_march_equals_the_whole_grid_march_bit_for_bit(monkeypatch, n, spec):
    # dx = 2^-8 and the non-dyadic dx = 1/120; the Riemann data have a
    # vacuum tail only, a jam tail only, and tails that meet
    g = Grid1D(-1.5, 1.0, n)
    cfg = SolverConfig(grid=g, epsilon=g.dx, datum=parse_datum(spec, g.dx), t_final=0.3,
                       output_times=(0.1,))
    u0 = cell_averages(cfg.datum, g.edges)
    lo, hi = fv._moving_cells(u0, cfg.datum, 1)
    assert hi - lo < n
    stepped = []

    def spy(ul, ur, **kwargs):
        stepped.append(ul.size)
        return godunov_flux_local(ul, ur, **kwargs)

    monkeypatch.setattr(fv, "godunov_flux_local", spy)
    rec = solve_local(cfg)
    assert set(stepped) == {hi - lo + 1}
    monkeypatch.undo()
    snaps = _whole_grid_godunov(cfg)
    assert sorted(rec.snapshots) == sorted(snaps)
    for t, u in snaps.items():
        assert rec.snapshots[t].tobytes() == u.tobytes()


# --- seeded random marches against the whole-grid marches -------------------------


def random_config(seed):
    """The random configuration number ``seed``, the same on every machine.

    40-400 cells on [-1, 1], windows of 1-11 cells, and 1-7 pieces whose
    breakpoints fall on cell edges half the time.  A level is 0 or 1 (three
    tenths each), uniform in [0, 1) (three tenths), 2^-1074 or 1 - 2^-52;
    a tail is drawn the same way, or one time in four is one of the pieces'
    levels.  The cfl lies in (0.1, 1], ``t_final`` in [0.02, 0.2), there
    are 0-2 output times, and one configuration in five is Lax-Friedrichs.
    """
    rng = np.random.default_rng(seed)
    n, m, pieces = int(rng.integers(40, 401)), int(rng.integers(1, 12)), int(rng.integers(1, 8))
    g = Grid1D(-1.0, 1.0, n)
    if rng.random() < 0.5:
        breakpoints = np.sort(rng.choice(g.edges, pieces + 1, replace=False))
    else:
        breakpoints = np.sort(rng.uniform(-1.0, 1.0, pieces + 1))
    kinds = rng.choice(5, size=pieces + 2, p=[0.3, 0.3, 0.3, 0.05, 0.05])
    levels = np.select([kinds == 0, kinds == 1, kinds == 3, kinds == 4],
                       [0.0, 1.0, 2.0**-1074, 1.0 - 2.0**-52], rng.random(pieces + 2))
    values, (left, right) = levels[1:-1], levels[[0, -1]]
    if rng.random() < 0.25:
        left = rng.choice(values)
    if rng.random() < 0.25:
        right = rng.choice(values)
    t_final = float(rng.uniform(0.02, 0.2))
    return SolverConfig(
        grid=g,
        epsilon=m * g.dx,
        datum=PiecewiseConstant1D(breakpoints, values, float(left), float(right)),
        t_final=t_final,
        cfl=1.0 - 0.9 * float(rng.random()),
        scheme="lax-friedrichs" if rng.random() < 0.2 else "upwind",
        output_times=tuple(np.sort(rng.uniform(0.0, t_final, rng.integers(3)))),
    )


def random_march_differences(seed):
    """How the fast marches of ``random_config(seed)`` differ from the whole-grid ones.

    One line for each snapshot of :func:`solve_nonlocal` that differs from
    :func:`_whole_grid_march` in any bit, for the first lookahead row that
    does, and for each snapshot of :func:`solve_local` that differs from
    :func:`_whole_grid_godunov`; an empty list when all agree byte for byte.
    """
    cfg = random_config(seed)
    found = []
    log = _StepLog()
    snaps, rows = _whole_grid_march(cfg)
    marches = (
        ("nonlocal", solve_nonlocal(cfg, observers=[log]).snapshots, snaps),
        ("local", solve_local(cfg).snapshots, _whole_grid_godunov(cfg)),
    )
    for name, fast, whole in marches:
        for t in sorted(set(fast) | set(whole)):
            if t not in fast or t not in whole or fast[t].tobytes() != whole[t].tobytes():
                found.append(f"seed {seed}: {name} snapshot at t={t!r} differs")
    steps = log.steps()
    if len(steps) != len(rows):
        found.append(f"seed {seed}: {len(steps)} nonlocal steps, {len(rows)} whole-grid steps")
    for k, ((_, _, _, w), row) in enumerate(zip(steps, rows)):
        if w.tobytes() != row.tobytes():
            found.append(f"seed {seed}: lookahead row of step {k} differs")
            break
    return found


@pytest.mark.parametrize("seed", range(64))
def test_random_marches_equal_the_whole_grid_marches_bit_for_bit(seed):
    assert random_march_differences(seed) == []


def test_solver_config_refuses_a_grid_that_cannot_fit(monkeypatch):
    g = Grid1D(-1.0, 1.0, 64)
    ok = dict(grid=g, epsilon=4 * g.dx, datum=constant(0.0), t_final=0.1)
    # seven rows of 64 floats (the state, its row, two rows of work, the
    # edges, and the snapshots at 0 and t_final), and one per output time
    monkeypatch.setattr(fv, "_PHYSICAL_MEMORY", 8 * 64 * 7)
    SolverConfig(**ok)
    with pytest.raises(ConfigurationError, match="a march on 64 cells needs at least"):
        SolverConfig(**ok, output_times=(0.05,))


def test_local_solver_keeps_constants_and_marks_record():
    g = Grid1D(-1.0, 1.0, 50)
    cfg = SolverConfig(grid=g, epsilon=g.dx, datum=constant(0.6), t_final=0.2)
    rec = solve_local(cfg)
    np.testing.assert_array_equal(rec.snapshot(0.2).values, np.full(50, 0.6))
    assert rec.epsilon == 0.0
    assert rec.w_fields.size == 0
    assert rec.info["scheme"] == "godunov-local"


def test_local_riemann_up_jump_is_stationary():
    g = Grid1D(-1.0, 1.0, 256)
    cfg = SolverConfig(
        grid=g, epsilon=g.dx, datum=parse_datum("riemann:0,1", g.dx), t_final=0.5
    )
    rec = solve_local(cfg)
    np.testing.assert_array_equal(
        rec.snapshot(0.5).values, rec.snapshot(0.0).values
    )


def test_local_riemann_down_jump_opens_fan():
    g = Grid1D(-1.0, 1.0, 256)
    cfg = SolverConfig(
        grid=g, epsilon=g.dx, datum=parse_datum("riemann:1,0", g.dx), t_final=0.5
    )
    rec = solve_local(cfg)
    v = rec.snapshot(0.5).values
    assert abs(v[g.cell_of(0.0)] - 0.5) <= 2 * g.dx
    # fan edges move at speeds -1 and +1
    assert v[g.cell_of(-0.75)] == 1.0
    assert v[g.cell_of(0.75)] == 0.0
