"""Finite-volume marchers for the averaged-lookahead traffic model.

The model is the scalar conservation law

    u_t + (u * (1 - w))_x = 0,
    w(t, x) = mean of u(t, .) over [x, x + epsilon],

solved on a uniform grid with an upwind or a Lax-Friedrichs flux.  Outside
the computational window the density is frozen at the datum's own tails, the
states the road holds beyond its last breakpoints; on the stock data these are
vacuum on the left and a jam on the right, where the solution is constant
near both ends of the domain.

The sharp-interaction limit (epsilon -> 0, flux u(1-u)) is handled by a
Godunov marcher so the two can be compared on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import os

import numpy as np

from .errors import ConfigurationError, SolverError
from .model import PiecewiseConstant1D, _check_positive, cell_averages

__all__ = [
    "Grid1D",
    "GridFunction",
    "SolverConfig",
    "SolutionRecord",
    "compute_w",
    "cfl_dt",
    "step_upwind",
    "step_lax_friedrichs",
    "solve_nonlocal",
    "godunov_flux_local",
    "solve_local",
]

# Every march steps at _CFL * dx: the transport speed is at most 1 for states in [0, 1].
_CFL = 0.9


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centred grid on ``[x_left, x_right]``."""

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self):
        if not (math.isfinite(self.x_left) and math.isfinite(self.x_right)):
            raise ConfigurationError("domain endpoints must be finite")
        if not self.x_left < self.x_right:
            raise ConfigurationError(f"empty domain [{self.x_left}, {self.x_right}]")
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 1:
            raise ConfigurationError(
                f"n_cells must be a positive integer, got {self.n_cells!r}"
            )

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.n_cells + 1)

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    def cell_of(self, x: float) -> int:
        """Index of the cell containing ``x`` (cells are closed left, open right)."""
        if not (self.x_left <= x <= self.x_right):
            raise ConfigurationError(
                f"x={x} outside domain [{self.x_left}, {self.x_right}]"
            )
        i = int(np.floor((x - self.x_left) / self.dx))
        return min(i, self.n_cells - 1)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Cell averages attached to a grid at one instant."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ConfigurationError(
                f"values shape {vals.shape} does not match grid with {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("grid function values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """One complete run description for the marchers.

    ``epsilon`` must be a whole number of cells so the lookahead average is a
    plain window sum; anything else would smear the datum's jumps.  ``datum``
    is a piecewise-constant profile, projected to exact cell averages, whose
    tails are the states outside the grid; every level, tails included, must
    lie in [0, 1], because the marchers step at ``0.9 * dx``, which bounds the
    transport speed ``1 - w`` only while ``w`` stays in [0, 1].  ``scheme``
    names the marcher: ``upwind`` or ``lax-friedrichs`` for
    :func:`solve_nonlocal`, ``godunov-local`` for :func:`solve_local`.
    """

    grid: Grid1D
    epsilon: float
    datum: PiecewiseConstant1D
    t_final: float
    scheme: str = "upwind"
    output_times: tuple = ()

    def __post_init__(self):
        if self.scheme not in ("upwind", "lax-friedrichs", "godunov-local"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        _check_positive(self.epsilon, "epsilon")
        _whole_cells(self.epsilon, self.grid.dx, f"epsilon={self.epsilon}")
        _check_positive(self.t_final, "t_final")
        if not isinstance(self.datum, PiecewiseConstant1D):
            raise ConfigurationError(
                f"datum must be a PiecewiseConstant1D profile, got {type(self.datum).__name__}"
            )
        levels = self.datum.levels
        if np.any((levels < 0.0) | (levels > 1.0)):
            raise ConfigurationError(
                f"datum values must lie in [0, 1], got [{levels.min()}, {levels.max()}]"
            )
        times = tuple(float(t) for t in self.output_times)
        if not all(t >= 0.0 for t in times):
            raise ConfigurationError(f"output times must be nonnegative, got {times}")
        if list(times) != sorted(set(times)):
            raise ConfigurationError("output times must be strictly increasing")
        if any(t > self.t_final for t in times):
            raise ConfigurationError("output times must not exceed t_final")
        # the state, the lookahead row, the work buffer (two more rows) and
        # the grid's edges, plus one copy of the state per snapshot
        _refuse_unless_it_fits(8.0 * self.grid.n_cells * (7 + len(times)),
                               f"a march on {self.grid.n_cells} cells")
        object.__setattr__(self, "output_times", times)

    @property
    def lookahead_cells(self) -> int:
        return round(self.epsilon / self.grid.dx)


@dataclass
class SolutionRecord:
    """Everything a run produces: its snapshots.

    ``snapshots`` maps times to cell-average arrays, and ``snapshot_steps``
    maps the same times to the number of steps taken before each snapshot.
    No solver stores a field history (only :func:`solve_nonlocal` hands
    each step's lookahead row and state on, to its observers), so
    ``w_fields`` stays empty; it stays because ``perfbench/tracer.py`` reads
    its size.  Runs of the sharp-interaction limit set ``epsilon`` to 0.
    """

    config: SolverConfig
    epsilon: float
    snapshots: dict = field(default_factory=dict)
    snapshot_steps: dict = field(default_factory=dict)
    w_fields: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    info: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid1D:
        return self.config.grid

    @property
    def times(self) -> list:
        return sorted(self.snapshots)

    def snapshot(self, t: float) -> GridFunction:
        if t not in self.snapshots:
            raise KeyError(f"no snapshot at t={t}; stored times: {self.times}")
        return GridFunction(self.grid, self.snapshots[t])


# Bytes of physical memory, or None where the platform does not tell.
try:
    _PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):
    _PHYSICAL_MEMORY = None


def _refuse_unless_it_fits(nbytes: float, what: str) -> None:
    """Refuse with :class:`ConfigurationError` what needs more than physical memory.

    ``nbytes`` is a floor on what ``what`` will allocate, so a refusal is
    certain to be right; a run that passes may still fail for want of the
    memory other processes hold.
    """
    if _PHYSICAL_MEMORY is not None and nbytes > _PHYSICAL_MEMORY:
        raise ConfigurationError(
            f"{what} needs at least {nbytes / 2**30:.3g} GiB, more than the "
            f"{_PHYSICAL_MEMORY / 2**30:.3g} GiB of physical memory"
        )


def _whole_cells(length: float, dx: float, what: str) -> int:
    """Number of cells of size ``dx`` in ``length``, which must be whole."""
    _check_positive(dx, "dx")
    ratio = length / dx
    m = round(ratio) if math.isfinite(ratio) else 0
    if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, m):
        raise ConfigurationError(f"{what} is not a whole number of cells (dx={dx})")
    return m


def _blocks(n: int, m: int) -> int:
    """Blocks of ``m`` cells that :func:`compute_w` cuts ``n`` cells and the ghost into.

    Enough whole blocks for the last window, which ends at cell ``n + m - 1``.
    """
    return -(-n // m) + 1


def _buffer(buf, shape, what: str) -> np.ndarray:
    """``buf``, or a new array of ``shape`` if it is None: a given output must have the
    tuple ``shape``, and a given work buffer at least the ``int`` ``shape`` floats."""
    if buf is None:
        return np.empty(shape)
    if (buf.size < shape) if isinstance(shape, int) else (buf.shape != shape):
        raise ConfigurationError(f"need {shape} {what} slots, got {buf.shape}")
    return buf


def compute_w(u, epsilon: float, dx: float, right_ghost_value: float, *,
              out=None, work=None) -> np.ndarray:
    """Lookahead averages at every cell interface.

    For a field of ``n`` cells this returns ``n + 1`` values; entry ``i`` is
    the mean of the ``M = epsilon/dx`` cells starting at interface ``i``,
    cells beyond the right edge counting as ``right_ghost_value``, the
    datum's right tail, which has no default.  The values go into ``out``
    (``n + 1`` floats) when it is given, and the block split below works in
    ``work`` (at least ``2 * M * (ceil(n/M) + 1)`` floats) when that is
    given; otherwise both are allocated.  The upwind march of
    :func:`solve_nonlocal` calls this only at its re-sum points and carries
    the row by its fluxes in between.

    The window sums come from the block split of van Herk (*Pattern Recogn.
    Lett.* 13, 1992) and Gil & Werman (*IEEE TPAMI* 15, 1993), which costs
    O(n) whatever ``M``: the field, padded with the right ghost, is cut into
    blocks of ``M`` cells, and the window starting at offset ``r`` of a block
    is the sum of that block's cells from ``r`` on (a running sum of the
    reversed block) plus the next block's first ``r`` cells (a running sum of
    the block).  Each value therefore sums only the cells of its own window,
    so no roundoff drags from one end of the grid to the other the way a
    running sum over the whole grid would, and a window of jam cells sums to
    exactly ``M``.
    """
    u = np.asarray(u, dtype=float)
    m = _whole_cells(epsilon, dx, f"epsilon={epsilon}")
    n = u.size
    size = _blocks(n, m) * m
    out = _buffer(out, (n + 1,), "interface")
    work = _buffer(work, 2 * size, "work")
    ext = work[:size]
    ext[:n] = u
    ext[n:] = right_ghost_value
    blocks = ext.reshape(-1, m)
    suffix = work[size : 2 * size].reshape(-1, m)
    np.cumsum(blocks[:, ::-1], axis=1, out=suffix[:, ::-1])
    # Prefix sums in place; the last column would be a whole next block, but
    # a window starting on a block boundary takes nothing from the next one.
    np.cumsum(blocks, axis=1, out=blocks)
    blocks[:, -1] = 0.0
    np.add(suffix.ravel()[: n + 1], ext[m - 1 : n + m], out=out)
    out /= m
    return out


def cfl_dt(w: np.ndarray, dx: float, cfl: float) -> float:
    """Largest stable step for the upwind flux, capped at ``cfl * dx``.

    The transport speed is ``1 - w``, at most 1 for fields in [0, 1], so the
    cap is what binds in practice (:func:`solve_nonlocal` steps at the cap
    without calling this); the floor guards a jammed road where the speed
    degenerates to 0.
    """
    speed = float(np.max(1.0 - np.asarray(w)))
    return min(cfl * dx / max(speed, 1e-12), cfl * dx)


def step_upwind(
    u: np.ndarray,
    w: np.ndarray,
    dt: float,
    dx: float,
    left_ghost_value: float,
    *,
    out=None,
    work=None,
) -> np.ndarray:
    """One upwind step: interface flux ``u * (1 - w)`` with u taken from the left.

    The transport speed ``1 - w`` is nonnegative whenever the field stays in
    [0, 1], so the left cell is always the upwind one; left of the grid it
    is ``left_ghost_value``, the datum's left tail, which has no default.
    The new state goes into ``out`` when it is given (``out=u`` steps in
    place), and the fluxes and their differences into ``work`` (at least
    ``2n + 1`` floats) when that is given; otherwise both are allocated.  On return ``work[:n + 1]``
    holds the interface fluxes ``left_ghost_value * (1 - w[0])`` and
    ``u * (1 - w[1:])``, not yet scaled by ``dt / dx``; the upwind march
    carries its lookahead row by them.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    n = u.size
    if w.shape != (n + 1,):
        raise ConfigurationError(f"need {n + 1} interface values, got {w.shape}")
    out = _buffer(out, (n,), "cell")
    work = _buffer(work, 2 * n + 1, "work")
    lam = dt / dx
    flux = work[: n + 1]
    np.subtract(1.0, w, out=flux)
    if lam * float(flux.max()) > 1.0 + 1e-12:
        raise ConfigurationError(f"time step dt={dt} violates the CFL limit")
    flux[0] *= left_ghost_value
    flux[1:] *= u
    jump = work[n + 1 : 2 * n + 1]
    np.subtract(flux[1:], flux[:-1], out=jump)
    jump *= lam
    return np.subtract(u, jump, out=out)


def step_lax_friedrichs(
    u: np.ndarray,
    w: np.ndarray,
    dt: float,
    dx: float,
    left_ghost_value: float,
    right_ghost_value: float,
) -> np.ndarray:
    """One Lax-Friedrichs step with unit-speed numerical viscosity.

    The cells beside the grid hold the datum's tails, ``left_ghost_value``
    and ``right_ghost_value``, which have no defaults.  The interface flux
    averages the two neighbouring cell fluxes ``u_j * (1 - w)`` (each cell
    paired with the lookahead average at its right interface) and subtracts
    half the cell jump, the global bound on the wave speed ``|1 - w| <= 1``
    taking the place of the classic ``dx / dt`` coefficient.  The classic
    coefficient gives every cell zero weight in its own update, and the
    resulting odd-even mode is pushed out of order by the averaging window;
    with unit viscosity the self weight ``1 - dt/dx`` absorbs the window
    coupling as long as the step satisfies ``dt/dx <= 2M/(2M + 1)`` with
    ``M`` the window width in cells, which :func:`solve_nonlocal` enforces.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (u.size + 1,):
        raise ConfigurationError(f"need {u.size + 1} interface values, got {w.shape}")
    lam = dt / dx
    u_ext = np.concatenate(([left_ghost_value], u, [right_ghost_value]))
    w_cells = np.concatenate((w, [right_ghost_value]))
    f_ext = u_ext * (1.0 - w_cells)
    flux = 0.5 * (f_ext[:-1] + f_ext[1:]) - 0.5 * np.diff(u_ext)
    return u - lam * (flux[1:] - flux[:-1])


def _targets(config: SolverConfig) -> list:
    """The times a march must land on: positive output times and ``t_final``."""
    return [t for t in sorted(set(config.output_times) | {config.t_final}) if t > 0.0]


def _dt_max(config: SolverConfig) -> float:
    """The step of :func:`solve_nonlocal`: ``0.9 * dx``, times 2M/(2M+1) for Lax-Friedrichs.

    The Lax-Friedrichs update is a convex combination of neighbours only up
    to lambda = 2M/(2M+1), with M the window width in cells.
    """
    dt = _CFL * config.grid.dx
    if config.scheme != "lax-friedrichs":
        return dt
    m = config.lookahead_cells
    return dt * (2.0 * m / (2.0 * m + 1.0))


def _clock(config: SolverConfig, dt_max: float):
    """The steps of a march to ``t_final``: ``(t0, dt, t1)`` for each, in order.

    This is the one place the marchers pick their steps: ``dt`` is
    ``dt_max`` or the time left to the next target (the output times and
    ``t_final``), whichever is smaller, and a step that reaches its target
    ends exactly on it, so the clock never misses a target.
    """
    t = 0.0
    for target in _targets(config):
        while t < target:
            room = target - t
            dt = min(dt_max, room)
            t1 = target if dt == room else t + dt
            yield t, dt, t1
            t = t1


def _march(config: SolverConfig, u: np.ndarray, advance, clock, *, scheme: str,
           epsilon: float, window: tuple) -> SolutionRecord:
    """Carry ``u``, the datum's cell averages, to ``t_final``, snapshotting on the way.

    This is the one place a solver's record is made: the returned
    :class:`SolutionRecord` carries ``epsilon`` and ``info["scheme"]``, the
    snapshots and ``info["steps"]``.  The steps are those of ``clock``,
    ``(t0, dt, t1)`` for each in order
    (:func:`_clock` for the marchers, the node intervals for the fixed-point
    solver), and must land on every target: ``advance(u, t0, dt, t1)``
    returns the state one step of ``dt`` from ``t0`` on, which ends at
    ``t1`` (``u`` itself if it stepped in place), and a snapshot is taken at
    each target once the clock reaches it.
    ``window = (lo, hi)`` names the cells a step can change; only those are
    checked for non-finite values, by one sum over them that any NaN or
    infinity makes non-finite (numpy's warnings on that sum are silenced),
    and only a non-finite sum is scanned for the first bad cell.  Each
    snapshot is stored with the number of steps taken before it.
    """
    record = SolutionRecord(config=config, epsilon=epsilon, info={"scheme": scheme})
    lo, hi = window
    step = 0

    def snapshot(t):
        record.snapshots[t] = u.copy()
        record.snapshot_steps[t] = step

    snapshot(0.0)
    targets = _targets(config)
    for t0, dt, t1 in clock:
        u = advance(u, t0, dt, t1)
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(u[lo:hi])
        if not math.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(u[lo:hi]))
            if bad.size:  # else finite values whose sum overflowed
                cell = lo + int(bad[0])
                raise SolverError(
                    f"non-finite value in cell {cell} (x={config.grid.centers[cell]:.6g}) "
                    f"at t={t1:.6g} after {step + 1} steps"
                )
        step += 1
        while targets and targets[0] <= t1:
            snapshot(targets.pop(0))
    record.info["steps"] = step
    return record


def _moving_cells(u0: np.ndarray, datum: PiecewiseConstant1D, m: int) -> tuple:
    """The cells ``[lo, hi)`` a march from ``u0`` can change, for windows of ``m`` cells.

    The upwind march (window width ``m``), the Godunov march of the local
    limit (``m = 1``) and the fixed-point solver (``m`` again) step only
    these cells, with the datum's tails as the states beyond them.  Both
    tails are exact properties of the schemes while the states stay in
    [0, 1], so marching only these cells gives the whole grid's lookahead
    rows bit for bit, and its states too for the two marchers (the
    fixed-point solver's whole-grid remap lets a jam drift by roundoff,
    which the window does not):

    * vacuum tail: with vacuum on the left, a cell left of the first cell
      with mass never receives flux: the upwind flux takes the density of
      the empty cell to its left, the Godunov flux ``min(f(0), f(u))`` is
      exactly 0, and the fixed-point solver moves no mass leftward.  It
      stays exactly 0, and so does every window that ends before that first
      cell.  ``lo`` is the first cell with mass rounded down to a whole
      block of ``m`` cells, less one block, so every interface below it has
      an empty window and the block split of :func:`compute_w` starting at
      ``lo`` sums the same cells in the same order as it does on the whole
      grid;
    * jam tail: with a jam on the right, every window inside a trailing run
      of exact 1.0 sums to exactly ``m``, so ``w = 1`` and no flux enters or
      leaves the run; the Godunov flux ``min(f(u), f(1))`` into it is
      exactly 0 as well.  ``hi`` is where that run starts.
    """
    lo, hi = 0, u0.size
    if datum.left_extension == 0.0:
        mass = np.flatnonzero(u0)
        first = int(mass[0]) if mass.size else u0.size
        lo = max(0, (first // m - 1) * m)
    if datum.right_extension == 1.0:
        free = np.flatnonzero(u0 != 1.0)
        hi = int(free[-1]) + 1 if free.size else 0
    return lo, hi


def solve_nonlocal(config: SolverConfig, observers=()) -> SolutionRecord:
    """March the lookahead model to ``t_final``, snapshotting on the way.

    Snapshots are taken at ``config.output_times`` and at ``t_final``, hitting
    each time exactly by shortening the step.  Each step over ``[t0, t1]``
    calls ``obs.step(t0, t1, w, u)`` on every observer (a
    :class:`~nltraffic.characteristics.PathTracer`, say) once its lookahead
    row ``w`` is summed or carried, before the state ``u`` it steps from
    changes.  Both are read-only views of the march's buffers, valid only
    during the call, and nothing is stored: the record keeps the snapshots.

    Every step is ``0.9 * dx`` (shrunk for Lax-Friedrichs), or shorter to
    land on a target: the transport speed ``1 - w`` is at most 1 for fields
    in [0, 1], and :func:`step_upwind` refuses a step that breaks the limit.

    The march owns one set of work buffers, sized to the cells it steps.
    Upwind steps only the cells between the datum's frozen tails (see
    :func:`_moving_cells`), in place; the lookahead row is 0 below them and
    1 above them throughout.  Lax-Friedrichs steps the whole grid, because
    its viscosity moves mass into both tails, and sums its row with
    :func:`compute_w` on every step.

    Upwind sums the row with :func:`compute_w` only on the step that leaves
    a snapshot, one that starts at t = 0 or at an output time, and on every
    ``m``-th step after that, ``m`` being the window width in cells.  In
    between it carries the row by the fluxes ``F`` of the step before,
    ``w[i] -= dt / (m * dx) * (F[i + m] - F[i])``: a window's sum changes by
    the flux into its left end less the flux out of its right end.  Past
    the last interface the cells hold still, so ``F`` is held there at the
    last interface's flux.  The carry is the step's own arithmetic, so it
    differs from a fresh sum only by roundoff, a few ulps of 1 per carried
    step, which each re-sum clears.  The frozen tails stay exact, because
    their fluxes are exactly 0.  A ``godunov-local`` configuration is
    refused: :func:`solve_local` marches it.
    """
    if config.scheme == "godunov-local":
        raise ConfigurationError("the godunov-local scheme marches the local limit, "
                                 "which has no lookahead field to march")
    dx = config.grid.dx
    left = config.datum.left_extension
    right = config.datum.right_extension
    m = config.lookahead_cells
    u0 = cell_averages(config.datum, config.grid.edges)
    upwind = config.scheme == "upwind"
    lo, hi = _moving_cells(u0, config.datum, m) if upwind else (0, u0.size)
    n = hi - lo
    w = np.empty(u0.size + 1)
    w[:lo] = 0.0
    w[hi + 1 :] = 1.0
    w_moving = w[lo : hi + 1]
    # One buffer serves compute_w's block split and the upwind step, which
    # leaves its fluxes in work[:n + 1]; the carry pads them with m copies
    # of the edge flux and writes their window differences behind that.
    work = np.empty(max(2 * _blocks(n, m) * m, 2 * n + 2 + m))
    flux = work[: n + 1 + m]
    drift = work[n + 1 + m : 2 * n + 2 + m]
    row = w.view()
    row.flags.writeable = False
    last_dt = 0.0
    carried = 0  # steps since the row was last summed

    def notify(t0, t1, u):
        state = u.view()
        state.flags.writeable = False
        for obs in observers:
            obs.step(t0, t1, row, state)

    def advance(u, t0, dt, t1):
        nonlocal last_dt, carried
        moving = u[lo:hi]
        if not upwind:
            compute_w(moving, config.epsilon, dx, right, out=w_moving, work=work)
            notify(t0, t1, u)
            return step_lax_friedrichs(u, w, dt, dx, left, right)
        if t0 == 0.0 or t0 in config.output_times or carried == m:
            compute_w(moving, config.epsilon, dx, right, out=w_moving, work=work)
            carried = 0
        else:
            flux[n + 1 :] = flux[n]
            np.subtract(flux[m:], flux[: n + 1], out=drift)
            np.multiply(drift, last_dt / (m * dx), out=drift)
            np.subtract(w_moving, drift, out=w_moving)
        notify(t0, t1, u)
        step_upwind(moving, w_moving, dt, dx, left, out=moving, work=work)
        last_dt = dt
        carried += 1
        return u

    return _march(config, u0, advance, _clock(config, _dt_max(config)), scheme=config.scheme,
                  epsilon=config.epsilon, window=(lo, hi))


def godunov_flux_local(ul, ur, *, out=None, work=None):
    """Godunov flux for the sharp-interaction law ``f(u) = u (1 - u)``.

    The flux is concave with its maximum at 1/2, so the exact single-jump
    flux is ``min(f(ul), f(ur))`` when ``ul <= ur``, and ``f`` at the point of
    ``[ur, ul]`` closest to 1/2 otherwise.  Both cases are one formula: with
    ``c = min(max(ur, 1/2), ul)``, which is ``ul`` when ``ul <= ur`` and the
    point closest to 1/2 otherwise, the flux is ``min(f(c), f(max(ur, c)))``.
    The values go into ``out`` when it is given, and the formula works in
    ``work`` (at least twice the size) when that is given; otherwise both
    are allocated.
    """
    ul = np.asarray(ul, dtype=float)
    ur = np.asarray(ur, dtype=float)
    shape = np.broadcast_shapes(ul.shape, ur.shape)
    size = math.prod(shape)
    out = _buffer(out, shape, "flux")
    work = _buffer(work, 2 * size, "work")
    c = work[:size].reshape(shape)
    fc = work[size : 2 * size].reshape(shape)
    np.maximum(ur, 0.5, out=c)
    np.minimum(c, ul, out=c)
    np.subtract(1.0, c, out=fc)
    fc *= c
    np.maximum(ur, c, out=out)
    np.subtract(1.0, out, out=c)
    out *= c
    return np.minimum(fc, out, out=out)


def solve_local(config: SolverConfig) -> SolutionRecord:
    """Godunov marcher for the sharp-interaction limit ``u_t + (u(1-u))_x = 0``.

    ``config.epsilon`` and ``config.scheme`` are ignored (the harness names
    ``"godunov-local"`` and passes ``grid.dx`` to satisfy validation); the
    returned record carries ``epsilon = 0`` and the scheme
    ``"godunov-local"``, by which :func:`~nltraffic.characteristics.trace_many`
    refuses it.

    The march steps only the cells between the datum's frozen tails
    (:func:`_moving_cells` with windows of one cell), in place and in
    buffers allocated once, with the datum's tails as the states beside
    them: the Godunov flux into a vacuum tail or a jam tail is exactly 0, so
    the snapshots equal the whole grid's bit for bit.
    """
    dx = config.grid.dx
    dt_max = _CFL * dx  # |f'(u)| = |1 - 2u| <= 1 on [0, 1]
    u0 = cell_averages(config.datum, config.grid.edges)
    lo, hi = _moving_cells(u0, config.datum, 1)
    n = hi - lo
    # The cells padded with the datum's tails, so that the moving cells and
    # the states on either side of them are one slice of it.
    padded = np.concatenate(([config.datum.left_extension], u0,
                             [config.datum.right_extension]))
    framed = padded[lo : hi + 2]
    moving = framed[1:-1]
    flux = np.empty(n + 1)
    work = np.empty(2 * n + 2)
    jump = work[:n]

    def advance(u, t0, dt, t1):
        godunov_flux_local(framed[:-1], framed[1:], out=flux, work=work)
        np.subtract(flux[1:], flux[:-1], out=jump)
        np.multiply(jump, dt / dx, out=jump)
        np.subtract(moving, jump, out=moving)
        return u

    return _march(config, padded[1:-1], advance, _clock(config, dt_max),
                  scheme="godunov-local", epsilon=0.0, window=(lo, hi))
