"""Path tracing, the growth law along paths, and the fixed-point solver.

The logistic closed form is checked against a reference integration written
here from scratch (classical RK4 with steps far below anything the package
uses), so the formula and the package's own integrator cannot share a bug.
"""

from types import SimpleNamespace
import tracemalloc

import numpy as np
import pytest

from nltraffic import characteristics, fv
from nltraffic import (
    ConfigurationError,
    Grid1D,
    PathTracer,
    PiecewiseConstant1D,
    RunConfig,
    SolverConfig,
    SolverError,
    build_u0,
    cell_averages,
    compute_w,
    logistic_value,
    material_rhs,
    parse_datum,
    solve_local,
    solve_nonlocal,
    solve_picard,
    trace_many,
)
from nltraffic.harness import build_solver_config


def constant(c):
    """The profile that holds ``c`` on the whole line."""
    return PiecewiseConstant1D(np.array([0.0]), np.array([]), c, c)


def pad(values, left, right):
    """``values`` with ``left`` before and ``right`` after, as ``_sample_cells`` reads them."""
    return np.concatenate(([left], values, [right]))


def integrate_growth_ode(u0, t, epsilon, n_steps=20000):
    """Reference RK4 for du/dt = u (1 - u) / epsilon, independent of the package."""
    h = t / n_steps
    f = lambda u: u * (1.0 - u) / epsilon
    u = u0
    for _ in range(n_steps):
        k1 = f(u)
        k2 = f(u + 0.5 * h * k1)
        k3 = f(u + 0.5 * h * k2)
        k4 = f(u + h * k3)
        u += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


# --- closed-form growth law -----------------------------------------------------


def test_logistic_matches_reference_integration():
    for u0 in (0.05, 0.25, 0.5, 0.9):
        for eps in (0.0625, 0.25, 1.0):
            for t in (0.01, 0.2, 1.0):
                assert logistic_value(u0, t, eps) == pytest.approx(
                    integrate_growth_ode(u0, t, eps), abs=1e-10
                )


def test_logistic_frozen_points():
    eps = 0.25
    assert logistic_value(0.5, eps * np.log(2.0), eps) == pytest.approx(2 / 3, abs=1e-15)
    for t in (0.0, 0.5, 3.0):
        assert logistic_value(1.0, t, 0.1) == 1.0
        assert logistic_value(0.0, t, 0.1) == 0.0
    assert logistic_value(0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-15)


def test_logistic_monotone_in_time_and_bounded():
    ts = np.linspace(0.0, 3.0, 31)
    for u0 in (0.01, 0.5, 0.99):
        vals = [logistic_value(u0, float(t), 0.2) for t in ts]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_logistic_validates_arguments():
    with pytest.raises(ValueError):
        logistic_value(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        logistic_value(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        logistic_value(0.5, -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        logistic_value(0.5, float("nan"), 0.1)
    with pytest.raises(ValueError):
        logistic_value(0.5, 1.0, 0.0)
    with pytest.raises(ConfigurationError, match="epsilon must be positive and finite, got inf"):
        logistic_value(0.5, 0.1, float("inf"))


def test_material_rhs_values():
    assert material_rhs(0.4, 0.4, 0.1) == 0.0
    assert material_rhs(0.0, 1.0, 0.1) == 0.0
    eps = 0.125
    assert material_rhs(0.5, 1.0, eps) == pytest.approx(1.0 / (4 * eps), abs=0)
    with pytest.raises(ValueError):
        material_rhs(0.5, 1.0, 0.0)


# --- tracing --------------------------------------------------------------------


def _record(datum, eps=2.0**-3, n=320, t_final=0.3, **kw):
    g = Grid1D(-1.5, 1.0, n)
    cfg = SolverConfig(grid=g, epsilon=eps, datum=datum, t_final=t_final, **kw)
    return solve_nonlocal(cfg)


def test_trace_through_constant_field_is_a_straight_line():
    c = 0.25
    rec = _record(constant(c), output_times=(0.15,))
    path = trace_many(rec, [-0.8])[0]
    np.testing.assert_allclose(
        path.positions, -0.8 + (1 - c) * path.times, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(path.transported, c, rtol=0, atol=1e-12)
    sampled = [rec.snapshots[t][rec.grid.cell_of(path.positions[k])]
               for t, k in rec.snapshot_steps.items()]
    np.testing.assert_allclose(sampled, c, rtol=0, atol=1e-12)
    assert path.epsilon == rec.epsilon


def test_trace_through_jam_never_moves():
    rec = _record(constant(1.0))
    path = trace_many(rec, [-0.5])[0]
    assert np.all(path.positions == -0.5)
    assert np.all(path.transported == 1.0)


def test_origin_stays_pinned_on_oscillatory_datum():
    rec = _record(build_u0(4))
    path = trace_many(rec, [0.0])[0]
    assert np.max(np.abs(path.positions)) <= 1e-6


def test_paths_near_origin_stay_confined():
    eps = 2.0**-3
    rec = _record(build_u0(4), eps=eps)
    for path in trace_many(rec, np.linspace(-eps, 0.0, 20)):
        assert path.positions.min() >= path.start - 1e-8
        assert path.positions.max() <= 1e-8


def test_ordered_starts_never_cross():
    rec = _record(build_u0(4))
    paths = trace_many(rec, np.linspace(-1.2, -0.01, 20))
    pos = np.array([p.positions for p in paths])
    assert np.diff(pos, axis=0).min() >= -1e-8


def test_transported_value_follows_growth_law_on_plateau():
    # start mid-plateau of the second block, with the lookahead equal to the
    # block's distance scale: the point one lookahead ahead of the path then
    # sits inside the jam for all time and growth is exactly logistic
    eps = 2.0**-4
    rec = _record(build_u0(4), eps=eps, n=2560, t_final=0.25)
    path = trace_many(rec, [-0.046875])[0]
    want = logistic_value(0.25, 0.25, eps)
    assert path.transported[-1] == pytest.approx(want, rel=1e-9)


def test_trace_respects_t_end():
    rec = _record(build_u0(3))
    path = trace_many(rec, [-0.3], t_end=0.1)[0]
    assert path.times[-1] == pytest.approx(0.1, abs=1e-12)
    assert path.times[0] == 0.0


def _snapshot_rows(path, rec):
    """The rows of ``path`` that sit at a snapshot time, by the row's own time."""
    return [k for t, k in rec.snapshot_steps.items()
            if k < path.times.size and path.times[k] == t]


def test_trace_samples_snapshots_at_their_steps():
    rec = _record(build_u0(3), output_times=(0.1, 0.17))
    steps = rec.snapshot_steps
    path = trace_many(rec, [-0.3])[0]
    assert _snapshot_rows(path, rec) == sorted(steps.values())
    # the growth law starts from the datum's cell value under the start
    assert path.transported[0] == rec.snapshots[0.0][rec.grid.cell_of(path.positions[0])]

    at_snapshot = trace_many(rec, [-0.3], t_end=0.1)[0]
    assert at_snapshot.positions.size == steps[0.1] + 1
    assert _snapshot_rows(at_snapshot, rec) == [0, steps[0.1]]

    between = trace_many(rec, [-0.3], t_end=0.2)[0]
    assert _snapshot_rows(between, rec) == [0, steps[0.1], steps[0.17]]
    assert between.times[-1] == 0.2

    # t_end inside the step that lands on 0.1: that row is short of the snapshot
    short = trace_many(rec, [-0.3], t_end=0.0999)[0]
    assert short.positions.size == steps[0.1] + 1
    assert _snapshot_rows(short, rec) == [0]


@pytest.mark.parametrize("outputs", [(0.08, 0.21), (0.104, 0.23)])
def test_trace_to_a_landing_snapshot_stops_on_it(outputs):
    # On this coarse grid the step landing on the second output time starts
    # below half of it, so t0 + (t - t0) misses t by an ulp (over it for
    # 0.21, under it for 0.23); the march ends that step on t all the same.
    g = Grid1D(-1.5, 1.0, 10)
    cfg = SolverConfig(grid=g, epsilon=g.dx, datum=build_u0(0), t_final=0.5,
                       output_times=outputs)
    step_ends = []
    clock = SimpleNamespace(step=lambda t0, t1, w, u: step_ends.append(t1))
    rec = solve_nonlocal(cfg, observers=[clock])
    t = outputs[1]
    k = rec.snapshot_steps[t]
    assert step_ends[k - 1] == t
    path = trace_many(rec, [-0.75], t_end=t)[0]
    assert path.positions.size == k + 1
    assert path.times[-1] == t


@pytest.mark.parametrize("t_end", [None, 0.1, 0.2, 0.0999])
def test_live_tracing_equals_trace_many(t_end):
    g = Grid1D(-1.5, 1.0, 320)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.3,
                       output_times=(0.1, 0.17))
    starts = np.linspace(-1.2, 0.0, 9)
    replayed = trace_many(solve_nonlocal(cfg), starts, t_end)
    tracer = PathTracer(cfg, starts, t_end)
    record = solve_nonlocal(cfg, observers=[tracer])
    assert record.w_fields.size == 0
    live = tracer.paths()
    assert len(live) == len(replayed)
    for a, b in zip(live, replayed):
        assert a.start == b.start and a.epsilon == b.epsilon
        for name in ("times", "positions", "transported"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_path_tracer_validates_before_the_march():
    g = Grid1D(-1.5, 1.0, 320)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.3)
    with pytest.raises(ConfigurationError):
        PathTracer(cfg, [7.0])
    with pytest.raises(ConfigurationError):
        PathTracer(cfg, [-0.3], t_end=0.5)
    PathTracer(cfg, [-0.3], t_end=0.3)
    with pytest.raises(ConfigurationError):  # one ulp beyond t_final
        PathTracer(cfg, [-0.3], t_end=np.nextafter(0.3, 1.0))
    with pytest.raises(ConfigurationError):
        PathTracer(cfg, [-0.3]).paths()  # nothing observed yet


def test_picard_snapshots_sit_at_their_nodes():
    g = Grid1D(-1.5, 1.0, 320)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.2,
                       output_times=(0.1, 0.17))
    rec = solve_picard(cfg)
    nodes = characteristics._picard_nodes(cfg)
    assert rec.times == [0.0, 0.1, 0.17, 0.2]
    for t, step in rec.snapshot_steps.items():
        assert nodes[step] == t
    assert rec.info["steps"] == nodes.size - 1


def test_picard_keeps_an_output_time_next_to_a_node():
    # 1e-13 past a node of the Picard time grid: the output time is a node of
    # its own, and its snapshot sits there
    g = Grid1D(-1.5, 1.0, 320)
    n_sub = 29  # ceil(t_final / (0.9 * dx))
    t = np.linspace(0.0, 0.2, n_sub + 1)[10] + 1e-13
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.2,
                       output_times=(t,))
    rec = solve_picard(cfg)
    nodes = characteristics._picard_nodes(cfg)
    assert nodes.size == n_sub + 2
    assert nodes[rec.snapshot_steps[t]] == t


def test_trace_rejects_bad_inputs():
    rec = _record(build_u0(3))
    with pytest.raises(ConfigurationError):
        trace_many(rec, [7.0])  # outside the domain
    with pytest.raises(ConfigurationError):
        trace_many(rec, [-0.3], t_end=1.0)  # beyond the run's t_final
    g = Grid1D(-1.0, 1.0, 64)
    local = solve_local(
        SolverConfig(grid=g, epsilon=g.dx, datum=parse_datum("step", g.dx), t_final=0.1)
    )
    with pytest.raises(ConfigurationError):
        trace_many(local, [-0.3])  # the local limit has no lookahead field
    picard = solve_picard(SolverConfig(grid=g, epsilon=4 * g.dx, datum=build_u0(3),
                                       t_final=0.1))
    with pytest.raises(ConfigurationError, match="'picard'"):
        trace_many(picard, [-0.3])  # tracing follows the marcher's clock only


class ReferenceTracer:
    """The path tracer as first written, kept as the oracle for its tables.

    It interpolates each step's whole row, looks up the cells of the state
    each step starts from with two ``np.where`` passes for the outside
    states and appends one row per step to lists; its Runge-Kutta step
    spells out the package's arithmetic.
    """

    def __init__(self, config, starts, t_end=None):
        self.config = config
        self.t_end = np.inf if t_end is None else t_end
        self.X = np.asarray(starts, dtype=float).copy()
        self.V = None
        self.times, self.positions, self.transported = [0.0], [self.X.copy()], []

    def sample(self, u, x):
        g, datum = self.config.grid, self.config.datum
        idx = np.floor((x - g.x_left) / g.dx).astype(int)
        inner = u[np.clip(idx, 0, g.n_cells - 1)]
        return np.where(idx < 0, datum.left_extension,
                        np.where(idx >= g.n_cells, datum.right_extension, inner))

    def step(self, t0, t1, w, u):
        if self.V is None:
            self.V = self.sample(u, self.X)
            self.transported.append(self.V.copy())
        if not t0 < self.t_end:
            return
        edges, eps, ahead, row = self.config.grid.edges, self.config.epsilon, np.array(u), np.array(w)
        fx = lambda x: 1.0 - np.interp(x, edges, row)
        fv = lambda x, v: material_rhs(v, self.sample(ahead, x + eps), eps)
        end = min(t1, self.t_end)
        h, X, V = end - t0, self.X, self.V
        k1x, k1v = fx(X), fv(X, V)
        X2, V2 = X + 0.5 * h * k1x, V + 0.5 * h * k1v
        k2x, k2v = fx(X2), fv(X2, V2)
        X3, V3 = X + 0.5 * h * k2x, V + 0.5 * h * k2v
        k3x, k3v = fx(X3), fv(X3, V3)
        X4, V4 = X + h * k3x, V + h * k3v
        k4x, k4v = fx(X4), fv(X4, V4)
        self.X = X + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        self.V = V + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        self.times.append(end)
        self.positions.append(self.X.copy())
        self.transported.append(self.V.copy())

    def assert_same_paths(self, paths):
        positions, transported = np.asarray(self.positions), np.asarray(self.transported)
        assert len(paths) == positions.shape[1]
        for c, path in enumerate(paths):
            assert path.epsilon == self.config.epsilon
            assert path.times.tobytes() == np.asarray(self.times).tobytes()
            assert path.positions.tobytes() == positions[:, c].tobytes()
            assert path.transported.tobytes() == transported[:, c].tobytes()


def test_cell_lookup_reads_the_outside_states():
    g = Grid1D(-1.0, 1.0, 8)
    cfg = SolverConfig(grid=g, epsilon=g.dx, datum=parse_datum("riemann:0.2,0.8", g.dx),
                       t_final=0.1)
    values = np.linspace(0.3, 0.65, 8)
    x = np.concatenate((g.edges, g.centers, [-1.0 - 1e-12, 1.0 + 1e-12, -7.0, 7.0]))
    got = characteristics._sample_cells(pad(values, 0.2, 0.8), g, x)
    np.testing.assert_array_equal(got, ReferenceTracer(cfg, []).sample(values, x))
    # a NaN position reads the left state, and no position indexes out of range
    far = [np.nan, -np.inf, np.inf, -1e300, 1e300]
    got = characteristics._sample_cells(pad(values, 0.2, 0.8), g, far)
    np.testing.assert_array_equal(got, [0.2, 0.2, 0.8, 0.2, 0.8])

    # the one-point lookups of small batches read what the array lookups read,
    # also one ulp either side of every edge; on 13 cells the cell estimate of
    # two edges falls one cell short
    for g in (g, Grid1D(-1.5, 1.0, 13)):
        cfg = SolverConfig(grid=g, epsilon=g.dx, datum=parse_datum("riemann:0.2,0.8", g.dx),
                           t_final=0.1)
        values = np.sin(np.arange(g.n_cells) + 0.5) ** 2
        padded = pad(values, 0.2, 0.8)
        e = g.edges
        x = np.concatenate((e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), g.centers,
                            [e[0] - 1e-12, e[-1] + 1e-12, -7.0, 7.0], far))
        # interpolating these rows up to the far edge of a cell rounds off
        # its value at the edges the estimate misses; the last row steers
        # np.interp into its fallbacks for a NaN
        k = np.arange(e.size)
        rows = (np.cos(1.7 * k) ** 2, np.sin(0.7 * k) ** 2,
                np.resize([0.0, np.inf, np.inf, -np.inf, 0.5, np.nan, 0.25], e.size))
        for w in rows:
            speed, cell = characteristics._scalar_lookups(g, memoryview(e), memoryview(w),
                                                          memoryview(values), 0.2, 0.8)
            got = np.array([speed(float(v)) for v in x])
            assert got.tobytes() == (1.0 - np.interp(x, e, w)).tobytes()
            got = np.array([cell(float(v)) for v in x])
            assert got.tobytes() == characteristics._sample_cells(padded, g, x).tobytes()
            inside = np.isfinite(x) & (np.abs(x) < 1e300)
            np.testing.assert_array_equal(
                got[inside], ReferenceTracer(cfg, []).sample(values, x[inside])
            )


_LANDING = dict(grid=Grid1D(-1.5, 1.0, 10), epsilon=0.25, datum=build_u0(0), t_final=0.5)


@pytest.mark.parametrize("cfg, starts, t_end", [
    *((SolverConfig(grid=Grid1D(-1.5, 1.0, 320), epsilon=2.0**-3, datum=build_u0(3),
                    t_final=0.3, output_times=(0.1, 0.17)), np.linspace(-1.2, 0.0, 9), t_end)
      for t_end in (None, 0.0999)),
    *((SolverConfig(**_LANDING, output_times=outputs), [-0.75, -0.3], outputs[1])
      for outputs in ((0.08, 0.21), (0.104, 0.23))),
    # paths from both ends and from near the right one, which leave the grid
    *((SolverConfig(grid=Grid1D(-1.5, 1.0, 160), epsilon=2.0**-3,
                    datum=parse_datum("riemann:0.2,0.8", 2.5 / 160), t_final=0.3,
                    output_times=(0.1,)), starts, None)
      for starts in ([-1.5, 0.99, 1.0], [0.99, 1.0])),
    (SolverConfig(grid=Grid1D(-1.5, 1.0, 320), epsilon=2.0**-3,
                  datum=parse_datum("step", 2.5 / 320), t_final=0.33, scheme="lax-friedrichs",
                  output_times=(0.1,)), [-1.5, -0.5, 0.0, 0.9], 0.2),
    # the largest batch traced one path at a time, and the smallest traced in arrays
    *((SolverConfig(grid=Grid1D(-1.5, 1.0, 320), epsilon=2.0**-3, datum=build_u0(3),
                    t_final=0.3, output_times=(0.1, 0.17)), np.linspace(-1.2, 0.0, n), None)
      for n in (characteristics._SCALAR_PATHS, characteristics._SCALAR_PATHS + 1)),
])
def test_tracer_equals_the_reference_tracer_bit_for_bit(cfg, starts, t_end):
    tracer, reference = PathTracer(cfg, starts, t_end), ReferenceTracer(cfg, starts, t_end)
    solve_nonlocal(cfg, observers=[tracer, reference])
    reference.assert_same_paths(tracer.paths())


def test_transported_values_do_not_depend_on_the_snapshot_times():
    # The growth law reads the road ahead from the state each step starts
    # from; read from the latest snapshot instead, the final values of these
    # two paths ranged over 1.000 / 0.857 / 0.681 and 0.155 / 0.363 / 0.923.
    # What spread is left comes from the steps that land on the output times.
    finals = []
    for taus in ((), (0.1,), (0.05, 0.1, 0.2, 0.3, 0.4)):
        cfg = build_solver_config(RunConfig(dyadic_j=4, output_times=taus))
        tracer = PathTracer(cfg, [-0.75, -0.25])
        solve_nonlocal(cfg, observers=[tracer])
        finals.append([path.transported[-1] for path in tracer.paths()])
    finals = np.array(finals)
    assert np.ptp(finals, axis=0).max() <= 1e-3


@pytest.mark.parametrize("t_end", [None, 0.0999, 0.17])
def test_tracer_reserves_one_row_per_step_before_t_end(t_end):
    g = Grid1D(-1.5, 1.0, 320)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.3,
                       output_times=(0.1, 0.17))
    step_starts = []
    clock = SimpleNamespace(step=lambda t0, t1, w, u: step_starts.append(t0))
    tracer = PathTracer(cfg, [-0.3, -0.1], t_end)
    rec = solve_nonlocal(cfg, observers=[tracer, clock])
    rows = rec.info["steps"] + 1 if t_end is None else sum(t0 < t_end for t0 in step_starts) + 1
    for path in tracer.paths():
        assert path.times.size == rows
        for name in ("positions", "transported"):
            assert getattr(path, name).base.shape == (rows, 2)
    tables = [a for a in vars(tracer).values() if isinstance(a, np.ndarray) and a.ndim == 2]
    assert len(tables) == 2


def test_tracer_refuses_steps_beyond_its_tables():
    g = Grid1D(-1.5, 1.0, 320)
    short = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.1)
    steps = solve_nonlocal(short).info["steps"]
    longer = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.2)
    with pytest.raises(ConfigurationError, match=f"for {steps} steps .* step {steps + 1}$"):
        solve_nonlocal(longer, observers=[PathTracer(short, [-0.3])])


def test_paths_are_read_only_views_of_the_tables():
    g = Grid1D(-1.5, 1.0, 320)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.3,
                       output_times=(0.1,))
    tracer = PathTracer(cfg, [-0.6, -0.3])
    solve_nonlocal(cfg, observers=[tracer])
    first, again = tracer.paths(), tracer.paths()
    for a, b in zip(first, again):
        for name in ("times", "positions", "transported"):
            x, y = getattr(a, name), getattr(b, name)
            np.testing.assert_array_equal(x, y)
            assert np.shares_memory(x, y)
            assert not x.flags.writeable
    assert first[0].positions.base is first[1].positions.base is again[0].positions.base


# --- fixed-point solver -----------------------------------------------------------


def test_picard_constant_datum_converges_first_try():
    g = Grid1D(-1.0, 1.0, 128)
    cfg = SolverConfig(grid=g, epsilon=0.125, datum=constant(0.3), t_final=0.2)
    rec = solve_picard(cfg)
    assert rec.info["iterations"] == 1
    assert np.abs(rec.snapshot(0.2).values - 0.3).max() <= 1e-12
    assert rec.info["scheme"] == "picard"


def test_picard_jam_datum_converges_first_try():
    g = Grid1D(-1.0, 1.0, 128)
    cfg = SolverConfig(grid=g, epsilon=0.125, datum=constant(1.0), t_final=0.2)
    rec = solve_picard(cfg)
    assert rec.info["iterations"] == 1
    assert np.abs(rec.snapshot(0.2).values - 1.0).max() <= 1e-12


def test_picard_tracks_the_marcher():
    g = Grid1D(-1.5, 1.0, 640)
    cfg = SolverConfig(grid=g, epsilon=2.0**-4, datum=build_u0(4), t_final=0.1,
                       output_times=(0.05,))
    fv = solve_nonlocal(cfg)
    pi = solve_picard(cfg)
    for t in (0.05, 0.1):
        gap = np.abs(fv.snapshot(t).values - pi.snapshot(t).values).sum() * g.dx
        assert gap <= 5 * g.dx
    assert sorted(pi.snapshots) == [0.0, 0.05, 0.1]


def test_picard_stops_at_the_first_non_finite_cell(monkeypatch):
    # the remap of the fourth interval plants a NaN in cell 100 of the grid,
    # cell 100 - lo of the window it remaps; the march refuses that step
    # instead of transporting the NaN on
    g = Grid1D(-1.5, 1.0, 320)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.1)
    lo, _ = fv._moving_cells(cell_averages(cfg.datum, g.edges), cfg.datum, cfg.lookahead_cells)
    assert 0 < lo < 100
    resample = characteristics._resample_markers
    calls = []

    def planting(*args):
        out = resample(*args)
        calls.append(None)
        if len(calls) == 4:
            out[100 - lo] = np.nan
        return out

    monkeypatch.setattr(characteristics, "_resample_markers", planting)
    t = characteristics._picard_nodes(cfg)[4]
    with pytest.raises(SolverError, match=f"cell 100 .* at t={t:.6g} after 4 steps$"):
        solve_picard(cfg)
    assert len(calls) == 4


def test_picard_keeps_no_history():
    # 87 node intervals on 640 cells: the run's peak allocation stays below
    # 50 rows of the lookahead field, where a table of every node's state or
    # row would take 87
    g = Grid1D(-1.5, 1.0, 640)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.3,
                       output_times=(0.1,))
    assert characteristics._picard_nodes(cfg).size == 88
    solve_picard(cfg)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        solve_picard(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * (g.n_cells + 1) * 8


def jacobi_picard(config, tol=1e-14, max_passes=60):
    """The fixed point by the Jacobi order: every row held for a whole pass.

    Each pass transports every node interval on the rows of the previous
    pass, then recomputes all rows from the transported states, until the
    rows change by at most ``tol``.  Returns the states at the nodes.
    """
    g, eps, datum = config.grid, config.epsilon, config.datum
    edges = g.edges
    u0 = cell_averages(datum, edges)
    n_sub = max(1, int(np.ceil(config.t_final / (0.9 * g.dx))))
    nodes = np.unique(np.concatenate((np.linspace(0.0, config.t_final, n_sub + 1),
                                      np.asarray(config.output_times, dtype=float))))
    w_rows = np.tile(compute_w(u0, eps, g.dx, datum.right_extension), (nodes.size - 1, 1))
    for _ in range(max_passes):
        u = np.empty((nodes.size, g.n_cells))
        u[0] = u0
        for i, row in enumerate(w_rows):
            slopes = pad(np.diff(row) / g.dx, 0.0, 0.0)
            E, v = characteristics._rk4(
                lambda x: 1.0 - np.interp(x, edges, row),
                lambda x, v: v * characteristics._sample_cells(slopes, g, 0.5 * (x[:-1] + x[1:])),
                edges, u[i], nodes[i + 1] - nodes[i],
            )
            u[i + 1] = characteristics._resample_markers(
                E, v, edges, g.dx, datum.left_extension, datum.right_extension)
        fresh = np.array([compute_w(u[i], eps, g.dx, datum.right_extension) for i in range(len(w_rows))])
        res = np.abs(fresh - w_rows).max()
        w_rows = fresh
        if res <= tol:
            return nodes, u
    raise AssertionError(f"Jacobi reference stalled at residual {res:.3e}")


def test_picard_in_time_order_reaches_the_jacobi_fixed_point():
    # one pass solves the lower-triangular equations w_i = W(u_i); the second
    # recomputes the same rows from the same states and changes nothing
    g = Grid1D(-1.5, 1.0, 320)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.2,
                       output_times=(0.1, 0.17))
    rec = solve_picard(cfg)
    assert rec.info["iterations"] == 1
    assert rec.info["residuals"][-1] == 0.0
    nodes, u = jacobi_picard(cfg)
    np.testing.assert_array_equal(characteristics._picard_nodes(cfg), nodes)
    for t, values in rec.snapshots.items():
        assert np.abs(values - u[rec.snapshot_steps[t]]).max() <= 1e-13


def test_picard_rows_are_the_lookahead_of_their_snapshots(monkeypatch):
    g = Grid1D(-1.5, 1.0, 320)
    cfg = SolverConfig(grid=g, epsilon=2.0**-3, datum=build_u0(3), t_final=0.2,
                       output_times=(0.1, 0.17))
    states, rows = [], []

    def spy(u, *args, **kwargs):
        states.append(np.array(u, copy=True))
        rows.append(compute_w(u, *args, **kwargs))
        return rows[-1]

    monkeypatch.setattr(characteristics, "compute_w", spy)
    rec = solve_picard(cfg)
    # one row per node interval, each summed from the state at its start;
    # the pass steps the window between the frozen tails, whose rows are
    # those of the whole grid
    lo, hi = fv._moving_cells(rec.snapshots[0.0], cfg.datum, cfg.lookahead_cells)
    assert 0 < lo < hi < g.n_cells
    assert len(rows) == rec.info["steps"]
    before_end = [t for t in rec.snapshots if t < cfg.t_final]
    assert before_end == [0.0, 0.1, 0.17]
    for t in before_end:
        k = rec.snapshot_steps[t]
        np.testing.assert_array_equal(states[k], rec.snapshots[t][lo:hi])
        row = compute_w(rec.snapshots[t], cfg.epsilon, g.dx, cfg.datum.right_extension)
        np.testing.assert_array_equal(rows[k], row[lo : hi + 1])


def test_picard_keeps_the_jam_exact_off_dyadic_grids():
    # dx = 0.0025 is not dyadic, so remapping the jam would move its cells
    # by roundoff; the pass holds them outside its window at exactly 1
    g = Grid1D(-1.5, 1.0, 1000)
    cfg = SolverConfig(grid=g, epsilon=0.1, datum=build_u0(4), t_final=0.3,
                       output_times=(0.1, 0.2))
    assert cfg.lookahead_cells == 40
    rec = solve_picard(cfg)
    jam = g.cell_of(0.0)
    assert np.all(rec.snapshots[0.0][jam:] == 1.0)
    for t in (0.1, 0.2, 0.3):
        assert np.all(rec.snapshot(t).values[jam:] == 1.0)


def test_tracer_refuses_tables_that_cannot_fit(monkeypatch):
    # 100 paths over 37 steps need 37 * 201 * 8 bytes of tables, about 59 kB,
    # where the grid's march needs under 5 kB
    g = Grid1D(-1.0, 1.0, 64)
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=constant(0.3), t_final=1.0)
    monkeypatch.setattr(fv, "_PHYSICAL_MEMORY", 50_000)
    PathTracer(cfg, np.linspace(-1.0, 0.0, 10))
    with pytest.raises(ConfigurationError, match="tracing 100 paths over 36 steps"):
        PathTracer(cfg, np.linspace(-1.0, 0.0, 100))


def test_tracer_floor_counts_two_tables(monkeypatch):
    # 1024 paths over 36 steps: a floor of 37 rows of times, positions and
    # transported values fits; one more table of 1024 paths would not
    g = Grid1D(-1.0, 1.0, 64)
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=constant(0.3), t_final=1.0)
    two, three = (8 * 37 * (1 + tables * 1024) for tables in (2, 3))
    monkeypatch.setattr(fv, "_PHYSICAL_MEMORY", (two + three) // 2)
    tracer = PathTracer(cfg, np.linspace(-1.0, 0.0, 1024))
    solve_nonlocal(cfg, observers=[tracer])
    assert len(tracer.paths()) == 1024


def test_tracer_refuses_a_run_too_long_to_count(monkeypatch):
    # about 1e14 steps: refused at once, before the clock counts them one by one
    g = Grid1D(-1.0, 1.0, 64)
    cfg = SolverConfig(grid=g, epsilon=4 * g.dx, datum=constant(0.3), t_final=3e12)

    def no_clock(*args):
        raise AssertionError("the tracer counted the clock")

    monkeypatch.setattr(characteristics, "_clock", no_clock)
    with pytest.raises(ConfigurationError, match="physical memory"):
        PathTracer(cfg, [0.0])
