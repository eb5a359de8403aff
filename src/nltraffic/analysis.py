"""Total variation, analytic lower bounds, and solution property checks.

The lower bounds all quantify the same mechanism: oscillation blocks of the
stock datum that fit inside one lookahead distance get squeezed against the
origin while their values grow along the logistic curve, so the variation at
time tau is at least twice the sum of the grown plateau values.  The series
bound keeps every term, the count bound keeps only the terms that have grown
past 1/2, and the dyadic bound specialises the count to epsilon = 2^-j where
it becomes a bare integer interval length that is unbounded in j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
import math

import numpy as np

from .errors import ConfigurationError
from .characteristics import _check_tau, _rk4, material_rhs
from .fv import GridFunction, SolutionRecord, SolverConfig, _clock, _dt_max
from .model import _MAX_TRUNCATION, PiecewiseConstant1D, _check_nonnegative_integer, build_u0

__all__ = [
    "BoundReport",
    "VerifyReport",
    "BlockTrace",
    "TVReconstruction",
    "total_variation",
    "tv_lower_bound_series",
    "tv_lower_bound_count",
    "tv_lower_bound_dyadic",
    "term_threshold_check",
    "evaluate_bounds",
    "reconstruct_tv_from_characteristics",
    "check_max_principle",
    "check_monotonicity",
    "check_plateau",
]

_LN2 = math.log(2.0)
# The series bound stops summing once a term falls below this.
_TAIL_TOL = 1e-15


def _first_confined_block(epsilon: float) -> int:
    """Index of the widest datum block that fits in one lookahead distance.

    Block k starts at -4^-k, so it lies in [-epsilon, 0] from
    k = ceil(-log2(epsilon) / 2) on; the dyadic epsilons have exact logs.
    """
    return max(0, math.ceil(-math.log2(epsilon) / 2.0))


def _check_epsilon(epsilon: float) -> None:
    """Refuse a lookahead outside (0, 1], the range every bound covers."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")


def total_variation(u) -> float:
    """Sum of absolute jumps of a profile, or of adjacent cell differences.

    For piecewise-constant data the tail values count as the outermost
    states, so a single step carries variation equal to its jump.
    """
    if isinstance(u, PiecewiseConstant1D):
        return float(np.sum(np.abs(np.diff(u.levels))))
    vals = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
    return float(np.sum(np.abs(np.diff(vals))))


def tv_lower_bound_series(tau: float, epsilon: float) -> float:
    """Series lower bound: 2 * sum of grown block values over confined blocks.

    Sums 2 * 2^-k / ((1 - 2^-k) e^(-tau/eps) + 2^-k) for k from the first
    block narrower than the lookahead distance, stopping once a term drops
    below ``_TAIL_TOL`` and adding a geometric majorant of the dropped tail
    (at most 8 * ``_TAIL_TOL``), so the result overshoots the infinite
    series by that much at worst.
    """
    _check_epsilon(epsilon)
    _check_tau(tau)
    x = tau / epsilon
    if x > 700.0:
        raise ValueError(
            f"tau/epsilon = {x:.3g} exceeds 700; the term recursion hits the "
            "floating-point floor before the tail can be certified (the count "
            "and dyadic bounds remain available)"
        )
    decay = math.exp(-x)
    k = _first_confined_block(epsilon)
    total = 0.0
    while True:
        p = 2.0 ** -k
        term = 2.0 * p / ((1.0 - p) * decay + p)
        if term < _TAIL_TOL:
            # Each dropped term is at most 4 * 2^-k * e^(tau/eps) for k >= 1,
            # so the dropped tail sums to at most 8 * 2^-k * e^(tau/eps);
            # evaluated in log form since e^(tau/eps) alone may overflow.
            tail = 8.0 * math.exp(x - k * _LN2)
            return total + tail
        total += term
        k += 1


def _count_upper_limit(x: float) -> float:
    """Largest real k with grown value >= 1/2, for x = tau/epsilon.

    This is -log2(e^-x / (1 + e^-x)) = x/ln 2 + log2(1 + e^-x), written so
    that neither factor overflows for large x.
    """
    return x / _LN2 + math.log1p(math.exp(-x)) / _LN2


def tv_lower_bound_count(tau: float, epsilon: float) -> int:
    """Count of confined blocks whose value has grown to at least 1/2."""
    _check_epsilon(epsilon)
    _check_tau(tau)
    k_min = _first_confined_block(epsilon)
    k_max = math.floor(_count_upper_limit(tau / epsilon))
    return max(0, k_max - k_min + 1)


def tv_lower_bound_dyadic(tau: float, j: int) -> int:
    """Count bound specialised to epsilon = 2^-j: integers in [j/2, 2^j tau log2 e].

    For fixed tau > 0 the interval length grows like 2^j tau, which is the
    desk-scale face of the unbounded-variation statement.
    """
    _check_tau(tau)
    _check_nonnegative_integer(j, "j")
    hi = (tau * 2.0 ** j) / _LN2
    k_min = _first_confined_block(2.0 ** -j)
    k_max = math.floor(hi)
    return max(0, k_max - k_min + 1)


def term_threshold_check(k: int, tau: float, epsilon: float) -> bool:
    """Whether block k's grown value is at least 1/2 at time tau.

    Equivalent to k <= -log2(e^(-tau/eps) / (1 + e^(-tau/eps))); the test
    suite checks that equivalence over a large parameter lattice.
    """
    _check_nonnegative_integer(k, "k")
    _check_epsilon(epsilon)
    _check_tau(tau)
    decay = math.exp(-tau / epsilon)
    p = 2.0 ** -k
    return p / ((1.0 - p) * decay + p) >= 0.5


@dataclass(frozen=True)
class BoundReport:
    """One (tau, epsilon) row of analytic bounds and measured quantities."""

    tau: float
    epsilon: float
    j: int = None
    series_bound: float = math.nan
    count_bound: int = 0
    dyadic_bound: int = None
    measured_tv: float = None
    reconstructed_tv: float = None


def _lookahead(epsilon: float, j: int) -> float:
    """The lookahead distance given as exactly one of ``epsilon`` and index ``j``."""
    if (epsilon is None) == (j is None):
        raise ConfigurationError("give exactly one of epsilon and dyadic-j")
    if j is not None:
        _check_nonnegative_integer(j, "j")
        return 2.0 ** -j
    return float(epsilon)


def evaluate_bounds(tau: float, epsilon: float = None, j: int = None) -> BoundReport:
    """All analytic bounds for one (tau, epsilon) pair.

    Give ``j`` for a dyadic lookahead (epsilon = 2^-j, enabling the dyadic
    bound) or ``epsilon`` directly for the other two.
    """
    epsilon = _lookahead(epsilon, j)
    return BoundReport(
        tau=tau,
        epsilon=epsilon,
        j=j,
        series_bound=tv_lower_bound_series(tau, epsilon),
        count_bound=tv_lower_bound_count(tau, epsilon),
        dyadic_bound=None if j is None else tv_lower_bound_dyadic(tau, j),
    )


@dataclass(frozen=True)
class BlockTrace:
    """The value grown along the plateau path of one oscillation block."""

    k: int
    plateau_start: float
    plateau_value: float
    contribution: float


@dataclass(frozen=True)
class TVReconstruction:
    """Oscillation sum rebuilt from the growth law along the plateau paths.

    ``total`` is twice the sum of grown plateau values over the blocks that
    are both confined within one lookahead distance and resolved by the grid;
    ``skipped`` lists confined blocks the grid cannot resolve (reported, never
    silently included).
    """

    tau: float
    epsilon: float
    blocks: tuple
    skipped: tuple
    total: float


def _plateau_blocks(config: SolverConfig):
    """The confined blocks of the oscillatory datum that the grid resolves, and the rest.

    The truncation K comes from the count of breakpoints, two per block and
    one at the origin; :func:`reconstruct_tv_from_characteristics` checks
    that the datum is ``build_u0(K)``.  A block is resolved when the gap
    beside it spans at least one cell.
    """
    K = (config.datum.breakpoints.size - 3) // 2
    confined = range(_first_confined_block(config.epsilon), K + 1)
    resolved = [k for k in confined if 2.0 ** (-2 * k - 2) >= config.grid.dx]
    return resolved, tuple(k for k in confined if k not in resolved)


def reconstruct_tv_from_characteristics(record: SolutionRecord, tau: float) -> TVReconstruction:
    """Rebuild the oscillation sum at time tau from the plateau paths of an upwind march.

    For each confined, grid-resolved block k this carries the growth law
    from the datum's cell value at the plateau midpoint -0.75 * 4^-k and
    sums 2 * grown value; the vacuum gaps between plateaus never grow.  The
    carried values stay faithful after a block has been squeezed below the
    cell size, where snapshot cell averages show only a smeared remnant.

    No position needs tracing: a resolved confined block has
    ``start + epsilon >= epsilon/4 >= dx``, paths only move right, and the
    upwind march never touches its trailing run of exact 1.0
    (:func:`~nltraffic.fv._moving_cells`), so every stage of the path reads
    exactly 1 one lookahead ahead.  The value therefore follows
    du/dt = u (1 - u) / epsilon, one Runge-Kutta step per step of the
    march's clock (:func:`~nltraffic.fv._clock`), of size ``t1 - t0`` and in
    the arithmetic of :class:`~nltraffic.characteristics.PathTracer`, so it
    equals the traced value bit for bit after the
    ``record.snapshot_steps[tau]`` steps that end on tau.

    Only upwind records of the oscillatory datum ``build_u0(K)`` are
    covered; any other record (Lax-Friedrichs, whose viscosity erodes the
    jam, the fixed-point solver's, another datum) and a tau that is not a
    snapshot time are refused with
    :class:`~nltraffic.errors.ConfigurationError`.
    """
    config = record.config
    scheme = record.info["scheme"]
    if scheme != "upwind":
        raise ConfigurationError(f"only upwind records can be reconstructed, not a {scheme!r} record")
    datum = config.datum
    # more breakpoints than any build_u0 has: the largest one mismatches
    stock = build_u0(min(max(0, (datum.breakpoints.size - 3) // 2), _MAX_TRUNCATION))
    if not (np.array_equal(datum.breakpoints, stock.breakpoints)
            and np.array_equal(datum.levels, stock.levels)):
        raise ConfigurationError("the datum is not the oscillatory datum build_u0(K)")
    if tau not in record.snapshots:
        raise ConfigurationError(
            f"tau={tau} is not among the record's snapshot times {record.times}"
        )
    eps = config.epsilon
    resolved, skipped = _plateau_blocks(config)
    starts = [-0.75 * 4.0 ** -k for k in resolved]
    u0 = record.snapshots[0.0]
    grown = [float(u0[config.grid.cell_of(y)]) for y in starts]

    def still(x):
        return 0.0

    def growth(x, v):
        return material_rhs(v, 1.0, eps)

    for t0, _, t1 in islice(_clock(config, _dt_max(config)), record.snapshot_steps[tau]):
        grown = [_rk4(still, growth, 0.0, v, t1 - t0)[1] for v in grown]
    blocks = []
    total = 0.0
    for k, y, v in zip(resolved, starts, grown):
        blocks.append(BlockTrace(k=k, plateau_start=y, plateau_value=v, contribution=2.0 * v))
        total += 2.0 * v
    return TVReconstruction(tau=tau, epsilon=eps, blocks=tuple(blocks), skipped=skipped,
                            total=total)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one property check: worst violation against a tolerance."""

    name: str
    worst: float
    tolerance: float
    location: str = ""

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        where = f"  [{self.location}]" if self.location else ""
        return f"{verdict}  {self.name}: worst {self.worst:.3e} vs tol {self.tolerance:.1e}{where}"


def _worst_over_snapshots(name, tol, record, deviation, centers=None) -> VerifyReport:
    """Report the largest ``deviation(u)`` over all snapshots, and where it sits."""
    if centers is None:
        centers = record.grid.centers
    worst = 0.0
    where = ""
    for t in record.times:
        dev = deviation(record.snapshots[t])
        i = int(np.argmax(dev))
        if dev[i] > worst:
            worst = float(dev[i])
            where = f"t={t:g}, x={centers[i]:g}"
    return VerifyReport(name, worst, tol, where)


def check_max_principle(record: SolutionRecord) -> VerifyReport:
    """Every snapshot must stay within 1e-12 of the band between the least and
    the greatest of the datum's levels, tails included, where its cell averages start."""
    levels = record.config.datum.levels
    alpha, beta = levels.min(), levels.max()
    return _worst_over_snapshots(
        "max-principle", 1e-12, record, lambda u: np.maximum(alpha - u, u - beta)
    )


def check_monotonicity(record: SolutionRecord) -> VerifyReport:
    """Snapshots must stay monotone in the datum's direction (1e-10 per pair)."""
    u0 = record.snapshots[0.0]
    d0 = np.diff(u0)
    if np.all(d0 >= -1e-12):
        sign = 1.0
    elif np.all(d0 <= 1e-12):
        sign = -1.0
    else:
        raise ConfigurationError("initial snapshot is not monotone; nothing to preserve")
    return _worst_over_snapshots("monotonicity", 1e-10, record, lambda u: -sign * np.diff(u))


def check_plateau(record: SolutionRecord) -> VerifyReport:
    """Cells at x >= 0 must stay within 5e-3 of the jam value 1."""
    sel = record.grid.centers >= 0.0
    if not np.any(sel):
        raise ConfigurationError("grid has no cells at x >= 0; nothing to check")
    return _worst_over_snapshots(
        "plateau", 5e-3, record, lambda u: np.abs(u[sel] - 1.0), record.grid.centers[sel]
    )
