"""Characteristic-line machinery on top of solver runs.

Three pieces live here.  Path tracing integrates dX/dt = 1 - w(t, X) through
the lookahead fields of a finite-volume march, on the marcher's own clock,
either while the run marches or by marching it again, carrying along each
path the solution of the growth law (the material derivative of the model,
du/dt = u * (u(x + epsilon) - u) / epsilon) from the datum on, reading the
road ahead from the state each step starts from; a snapshot's value at a
path's position is read from the record itself.  The closed form of that
growth law for a constant state ahead is the logistic curve, exposed
separately.  Finally, a fixed-point solver, which nothing
traces through, rebuilds the solution interval by interval on the marchers'
own march loop: it freezes each interval's lookahead field, computed from
the state at the interval's start, transports that state along the field's
characteristics and remaps it to the grid.  One pass in time order reaches
the fixed point.  The remap is algebraically the upwind update, so the
solver tracks the finite-volume marcher by construction rather than
checking it independently.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigurationError
from .fv import (_CFL, Grid1D, SolutionRecord, SolverConfig, _clock, _dt_max, _march,
                 _moving_cells, _refuse_unless_it_fits, compute_w, solve_nonlocal)
from .model import _check_positive, cell_averages

__all__ = [
    "CharacteristicPath",
    "PathTracer",
    "logistic_value",
    "material_rhs",
    "trace_many",
    "solve_picard",
]

# Batches of at most this many paths are traced one path at a time in Python
# floats, larger ones in arrays.  On the j = 7 sweep grid a step costs about
# 7-10 us per path in floats and 70-120 us for the whole batch in arrays,
# nearly all of it numpy's cost per call, so the two cross near 10 paths.
_SCALAR_PATHS = 10


def _check_tau(tau: float) -> None:
    """Refuse a time that is not a finite nonnegative number (NaN included)."""
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigurationError(f"tau must be finite and nonnegative, got {tau}")


@dataclass(frozen=True, eq=False)
class CharacteristicPath:
    """One traced trajectory X(t) with the growth law carried along it.

    ``transported`` integrates the material growth law along the path from
    the datum on, whatever the run's snapshot times, which stays meaningful
    even after the underlying feature has compressed below the grid scale.
    The value at row ``k`` of a snapshot taken after ``k`` steps is
    ``record.snapshots[t][record.grid.cell_of(positions[k])]``.
    """

    start: float
    epsilon: float
    times: np.ndarray
    positions: np.ndarray
    transported: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.positions.shape:
            raise ConfigurationError("times and positions must have equal length")
        if self.times[0] != 0.0:
            raise ConfigurationError("paths must start at t = 0")


def logistic_value(u0y: float, t: float, epsilon: float) -> float:
    """Closed-form value along a confined path: u0 / ((1 - u0) e^(-t/eps) + u0).

    This solves du/dt = u (1 - u) / epsilon, the growth law when the road one
    lookahead distance ahead is fully jammed.  Both 0 and 1 are fixed points;
    the value 0 is taken as the continuous extension of the formula.
    """
    if not (0.0 <= u0y <= 1.0):
        raise ValueError(f"u0y must lie in [0, 1], got {u0y}")
    _check_tau(t)
    _check_positive(epsilon, "epsilon")
    if u0y == 0.0:
        return 0.0
    return u0y / ((1.0 - u0y) * math.exp(-t / epsilon) + u0y)


def material_rhs(u_here, u_ahead, epsilon: float):
    """Growth rate along a path: u * (u_ahead - u) / epsilon.

    ``u_ahead`` is the solution one lookahead distance downstream; a vacuum
    point (u = 0) never grows, a flat stretch does not change.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return u_here * (u_ahead - u_here) / epsilon


def _sample_cells(padded: np.ndarray, grid: Grid1D, x):
    """Piecewise-constant lookup of cell values padded with one state on each side.

    Points left of the grid read the left state and points right of it the
    right state.  The cell index is clamped while still a float, so a NaN
    position reads the left state and no position can index out of range.
    """
    pos = np.floor((np.asarray(x, dtype=float) - grid.x_left) / grid.dx)
    pos += 1.0
    # Not np.clip: on these few-element arrays its per-call set-up costs
    # three times the clamp itself.
    return padded[np.fmin(np.fmax(pos, 0.0), grid.n_cells + 1.0).astype(int)]


def _scalar_lookups(grid: Grid1D, edges, row, cells, left: float, right: float):
    """One-point forms of the array step's lookups, for floats.

    Returns ``speed(x)``, equal to ``1 - np.interp(x, edges, row)`` on the
    grid's ``edges``, and ``cell(x)``, equal to :func:`_sample_cells` of
    ``cells`` padded with ``left`` and ``right``, both computed with the
    same floating-point operations as numpy's, so a path traced through them
    is bit-identical to one traced in arrays.  The three sequences are read one entry at a time
    and never copied; memoryviews of the arrays read fastest.
    """
    x_left, dx, n = float(grid.x_left), float(grid.dx), int(grid.n_cells)
    first, last = edges[0], edges[n]

    def speed(x):
        if x != x:
            return 1.0 - x  # np.interp passes NaN through
        if x >= last:
            return 1.0 - row[n]
        if x < first:
            return 1.0 - row[0]
        # the cell estimate can be off by one at an edge; np.interp brackets
        # edges[j] <= x < edges[j + 1] on the stored edges
        j = min(int((x - x_left) / dx), n - 1)
        while x < edges[j]:
            j -= 1
        while x >= edges[j + 1]:
            j += 1
        e0, w0 = edges[j], row[j]
        if x == e0:
            return 1.0 - w0
        e1, w1 = edges[j + 1], row[j + 1]
        slope = (w1 - w0) / (e1 - e0)
        v = slope * (x - e0) + w0
        if v != v:  # as np.interp: try from the right node, then a flat pair
            v = slope * (x - e1) + w1
            if v != v and w0 == w1:
                v = w0
        return 1.0 - v

    def cell(x):
        # the clamp of _sample_cells, with math.floor only on finite values
        # inside the grid; NaN fails the first test and reads the left state
        pos = (x - x_left) / dx
        if pos >= 0.0:
            return right if pos >= n else cells[math.floor(pos)]
        return left

    return speed, cell


def _rk4(speed, rate, X, V, h):
    """One classical Runge-Kutta step of dX/dt = speed(X), dV/dt = rate(X, V)."""
    k1x = speed(X)
    k1v = rate(X, V)
    X2 = X + 0.5 * h * k1x
    V2 = V + 0.5 * h * k1v
    k2x = speed(X2)
    k2v = rate(X2, V2)
    X3 = X + 0.5 * h * k2x
    V3 = V + 0.5 * h * k2v
    k3x = speed(X3)
    k3v = rate(X3, V3)
    X4 = X + h * k3x
    V4 = V + h * k3v
    k4x = speed(X4)
    k4v = rate(X4, V4)
    return (
        X + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        V + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


class PathTracer:
    """March observer that traces a batch of characteristics step by step.

    Pass it to :func:`~nltraffic.fv.solve_nonlocal` (``observers=[tracer]``)
    to trace while the run marches, then read :meth:`paths`;
    :func:`trace_many` marches a finished record again with it.
    Each march step gets one Runge-Kutta step (fourth order), with the
    step's field linearly interpolated in space and frozen in time, matching
    how the marcher used it; steps that start at or after ``t_end`` are not
    traced and the one that crosses it is cut short there.  The growth law
    reads the state ahead from the state the step starts from, frozen over
    the step like the field, and starts from that state under the starts on
    the first step.  Row ``k`` of a path is the state after ``k`` steps.
    ``t_end=None`` traces the whole run.

    The tracer sizes its two tables (rows by paths, for the positions and
    the transported values) and its column of times once, when it is made:
    one row for the start and one per step that starts before ``t_end``, the
    steps counted on the clock of :func:`~nltraffic.fv.solve_nonlocal`, the
    only march it observes.  Tables that cannot fit in physical memory are
    refused with :class:`~nltraffic.errors.ConfigurationError` before the
    steps are counted.  Each step writes its row in place, and :meth:`paths` returns
    read-only column views of the tables.

    A batch of at most ``_SCALAR_PATHS`` paths (the one to three plateau
    paths of a sweep solve, say) is stepped one path at a time in Python
    floats, reading single entries of the row and the state: at that size
    numpy's cost per call, not the arithmetic, would set the time.  A larger
    batch is stepped in arrays, interpolating only the slice of the row
    around the paths and reading the state from a copy padded with the
    datum's tails, which each step loads only where its stages read.  Both
    do the same floating-point operations in the same order, so the paths
    do not depend on the batch size.
    """

    def __init__(self, config: SolverConfig, starts, t_end: float = None):
        grid = config.grid
        starts = np.asarray(starts, dtype=float).reshape(-1)
        for y in starts:
            if not (grid.x_left <= y <= grid.x_right):
                raise ConfigurationError(
                    f"start {y} outside domain [{grid.x_left}, {grid.x_right}]"
                )
        if t_end is not None and not (0.0 <= t_end <= config.t_final):
            raise ConfigurationError(
                f"t_end={t_end} outside the run's range [0, {config.t_final}]"
            )
        self.config = config
        self.starts = starts
        self.t_end = math.inf if t_end is None else t_end
        dt_max = _dt_max(config)
        # steps of at most dt_max cover [0, t_end]: a floor on the rows, known
        # before the clock is counted step by step
        floor = 1 + math.ceil(min(self.t_end, config.t_final) / dt_max)
        _refuse_unless_it_fits(8.0 * floor * (1 + 2 * starts.size),
                               f"tracing {starts.size} paths over {floor - 1} steps")
        rows = 1 + sum(1 for t0, _, _ in _clock(config, dt_max) if t0 < self.t_end)
        self._times = np.zeros(rows)
        self._positions = np.empty((rows, starts.size))
        self._positions[0] = starts
        self._transported = np.empty((rows, starts.size))
        self._filled = 0
        self._tails = config.datum.left_extension, config.datum.right_extension
        self._edges = grid.edges
        self._edge_view = memoryview(self._edges)
        self._row = np.empty(grid.n_cells + 1)
        self._ahead = None

    def step(self, t0: float, t1: float, w: np.ndarray, u: np.ndarray) -> None:
        """Notice of a march step over ``[t0, t1]`` with lookahead row ``w`` from state ``u``."""
        if self._filled == 0:
            _, cell = _scalar_lookups(self.config.grid, self._edge_view, memoryview(w),
                                      memoryview(u), *self._tails)
            self._transported[0] = [cell(x) for x in self.starts.tolist()]
            self._filled = 1
        if not t0 < self.t_end:
            return
        k = self._filled
        if k >= self._times.size:
            raise ConfigurationError(
                f"the tracer reserved rows for {self._times.size - 1} steps and was handed step {k}"
            )
        end = min(t1, self.t_end)
        self._times[k] = end
        stepper = self._step_each if self.starts.size <= _SCALAR_PATHS else self._step_batch
        stepper(k - 1, end - t0, w, u)
        self._filled = k + 1

    def _step_each(self, step: int, h: float, w: np.ndarray, u: np.ndarray) -> None:
        """Advance each path over ``h`` in Python floats."""
        eps = self.config.epsilon
        speed, cell = _scalar_lookups(self.config.grid, self._edge_view, memoryview(w),
                                      memoryview(u), *self._tails)

        def growth(x, v):
            return material_rhs(v, cell(x + eps), eps)

        X, V = self._positions, self._transported
        for c in range(self.starts.size):
            X[step + 1, c], V[step + 1, c] = _rk4(
                speed, growth, X.item(step, c), V.item(step, c), h
            )

    def _step_batch(self, step: int, h: float, w: np.ndarray, u: np.ndarray) -> None:
        """Advance all paths over ``h`` at once in arrays."""
        grid = self.config.grid
        eps = self.config.epsilon
        ahead = self._ahead
        X = self._positions[step]
        x_min, x_max = float(X.min()), float(X.max())
        # The speed 1 - w lies in [0, 1], so every stage stays in [X, X + h];
        # np.interp reads only the two nodes around a point, so the nodes
        # from two cells left of the paths to two cells right of X + h give
        # the whole row's values.  It would copy the read-only row on every
        # call: one copy of the slice serves all four stages.  The growth law
        # reads the state one lookahead ahead of the stages.
        lo = min(max(math.floor((x_min - grid.x_left) / grid.dx) - 2, 0), grid.n_cells - 1)
        hi = min(math.floor((x_max + h - grid.x_left) / grid.dx) + 3, grid.n_cells + 1)
        edges = self._edges[lo:hi]
        row = self._row[: hi - lo]
        row[:] = w[lo:hi]
        if ahead is None:  # the state padded with the datum's tails; unloaded cells read NaN
            ahead = self._ahead = np.full(u.size + 2, math.nan)
            ahead[[0, -1]] = self._tails
        # the stages read the state one lookahead ahead of [X, X + h]: load
        # those cells, and one more on each side for roundoff in the stages
        a = min(max(math.floor((x_min + eps - grid.x_left) / grid.dx) - 1, 0), grid.n_cells)
        b = min(max(math.floor((x_max + h + eps - grid.x_left) / grid.dx) + 2, a), grid.n_cells)
        ahead[a + 1 : b + 1] = u[a:b]

        def speed(x):
            return 1.0 - np.interp(x, edges, row)

        def growth(x, v):
            return material_rhs(v, _sample_cells(ahead, grid, x + eps), eps)

        self._positions[step + 1], self._transported[step + 1] = _rk4(
            speed, growth, X, self._transported[step], h
        )

    def paths(self) -> list:
        """The traced paths, one per start, in the order of the starts.

        The arrays of a path are read-only views of the tracer's tables, so
        calling this again copies nothing.
        """
        if self._filled == 0:
            raise ConfigurationError("the tracer has not observed a march")
        times, positions, transported = (
            table[: self._filled] for table in (self._times, self._positions, self._transported)
        )
        for view in (times, positions, transported):
            view.flags.writeable = False
        return [
            CharacteristicPath(
                start=float(y),
                epsilon=self.config.epsilon,
                times=times,
                positions=positions[:, c],
                transported=transported[:, c],
            )
            for c, y in enumerate(self.starts)
        ]


def trace_many(record: SolutionRecord, starts, t_end: float = None) -> list:
    """Trace a batch of characteristics through one marcher record's lookahead fields.

    The record's configuration is marched again by
    :func:`~nltraffic.fv.solve_nonlocal` with a :class:`PathTracer`
    observing; the march is deterministic, so the paths equal those traced
    while the record's own run marched.  Records of any other solver (the
    sharp-interaction limit, the fixed-point solver) are refused.
    """
    scheme = record.info.get("scheme")
    if scheme not in ("upwind", "lax-friedrichs"):
        raise ConfigurationError(
            f"only upwind and lax-friedrichs marches can be traced, not a {scheme!r} record"
        )
    tracer = PathTracer(record.config, starts, t_end)
    solve_nonlocal(record.config, observers=[tracer])
    return tracer.paths()


def _resample_markers(
    E: np.ndarray, v: np.ndarray, edges: np.ndarray, dx: float, left: float, right: float
) -> np.ndarray:
    """Cell averages of the transported piecewise-constant representation.

    ``E`` holds the transported cell edges (piece i carries value ``v[i]``),
    with the ``left`` value filling whatever the first edge has vacated and
    the ``right`` value continuing past the last edge; the averages are taken
    over the cells of width ``dx`` between the grid's ``edges``.  Goes
    through the cumulative mass function, which is exact for
    piecewise-constant data.
    """
    E = np.maximum.accumulate(E)  # guard against last-ulp edge inversions
    cum = np.concatenate(([0.0], np.cumsum(v * np.diff(E))))
    x = edges
    out = np.interp(x, E, cum)
    below = x < E[0]
    if np.any(below):
        out[below] = (x[below] - E[0]) * left
    above = x > E[-1]
    if np.any(above):
        out[above] = cum[-1] + (x[above] - E[-1]) * right
    return np.diff(out) / dx


def _picard_nodes(config: SolverConfig) -> np.ndarray:
    """The node times of :func:`solve_picard`, ``0`` and ``t_final`` included.

    An even grid with steps of at most ``0.9 * dx``, plus every output time,
    each a node of its own however close it falls to a grid node.
    """
    n_sub = max(1, math.ceil(config.t_final / (_CFL * config.grid.dx)))
    grid_nodes = np.linspace(0.0, config.t_final, n_sub + 1)
    return np.unique(np.concatenate((grid_nodes, np.asarray(config.output_times, dtype=float))))


def solve_picard(config: SolverConfig) -> SolutionRecord:
    """Fixed-point construction of the solution, as a cross-check solver.

    The unknowns are the lookahead rows, one per interval between the nodes
    of :func:`_picard_nodes`, and the equations are ``w_i = W(u_i)``: each
    row is the lookahead field of the solution at its interval's start.  The
    state at node i depends only on rows 0..i-1, so the equations are
    lower-triangular and one pass in time order solves them by forward
    substitution.  The pass runs on the march loop of the finite-volume
    solvers, one step per node interval, which

    (a) computes the row from the state at the interval's start;
    (b) freezes the row over the interval: the grid's cell edges move with
        dX/dt = 1 - w(t, X) and each cell's value obeys
        dv/dt = v * s(t, X_mid), where s is the per-cell slope of the
        piecewise-linear field;
    (c) averages the moved representation back onto the grid at the next
        node, where the next interval starts fresh from cell edges.

    Every snapshot sits at exactly its time, which is a node, and a step
    that leaves a non-finite value raises :class:`~nltraffic.errors.SolverError`
    naming the cell, as in the marchers.  ``info`` reports one iteration
    with a residual (the sup-norm change of the rows) of exactly 0, because
    each row is ``W`` of its own interval's start state.  For a front moving
    at constant speed the remap (c) is algebraically the upwind update, so
    the fixed point stays within a few cells of the marcher it
    cross-validates instead of drifting apart by each method's own
    truncation error: it tracks the marcher by construction rather than
    checking it independently.

    The pass steps only the cells between the datum's frozen tails
    (:func:`~nltraffic.fv._moving_cells`): no edge moves leftward, so the
    vacuum tail stays empty, and the jam tail's row is exactly 1, so its
    edges stand still and its values keep 1.  The window starts on a block
    of the :func:`~nltraffic.fv.compute_w` split, so its rows are the whole
    grid's rows bit for bit; it moves the grid's own edges and samples the
    slopes with the whole grid's cells.  Holding the jam outside the remap
    keeps it at exactly 1, where remapping the whole grid would let its
    cells drift by roundoff wherever the running mass is not exact.
    """
    grid = config.grid
    dx = grid.dx
    eps = config.epsilon
    left, right = config.datum.left_extension, config.datum.right_extension
    u0 = cell_averages(config.datum, grid.edges)
    lo, hi = _moving_cells(u0, config.datum, config.lookahead_cells)
    edges = grid.edges[lo : hi + 1]

    def advance(u, t0, dt, t1):
        moving = u[lo:hi]
        w_row = compute_w(moving, eps, dx, right)
        # Per-cell slopes of the row, padded for _sample_cells on the whole
        # grid; outside the window the whole grid's rows are flat.
        slopes = np.zeros(grid.n_cells + 2)
        slopes[lo + 1 : hi + 1] = np.diff(w_row) / dx

        def speed(x):
            return 1.0 - np.interp(x, edges, w_row)

        def value_rate(x_edges, vals):
            mid = 0.5 * (x_edges[:-1] + x_edges[1:])
            return vals * _sample_cells(slopes, grid, mid)

        E, v = _rk4(speed, value_rate, edges, moving, dt)
        u[lo:hi] = _resample_markers(E, v, edges, dx, left, right)
        return u

    nodes = _picard_nodes(config).tolist()
    clock = ((t0, t1 - t0, t1) for t0, t1 in zip(nodes, nodes[1:]))
    record = _march(config, u0, advance, clock, scheme="picard", epsilon=eps, window=(lo, hi))
    record.info.update(iterations=1, residuals=[0.0])  # perfbench reads both
    return record
