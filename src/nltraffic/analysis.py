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
import math

import numpy as np

from .errors import ConfigurationError
from .characteristics import PathTracer, trace_many
from .fv import GridFunction, SolutionRecord, SolverConfig
from .model import PiecewiseConstant1D, build_u0

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
    "reconstruction_tracer",
    "reconstruct_tv_from_characteristics",
    "check_max_principle",
    "check_monotonicity",
    "check_plateau",
]

_LN2 = math.log(2.0)


def _first_confined_block(epsilon: float) -> int:
    """Index of the widest datum block that fits in one lookahead distance.

    Block k starts at -4^-k, so it lies in [-epsilon, 0] from
    k = ceil(-log2(epsilon) / 2) on; the dyadic epsilons have exact logs.
    """
    return max(0, math.ceil(-math.log2(epsilon) / 2.0))


def total_variation(u) -> float:
    """Sum of absolute jumps of a profile, or of adjacent cell differences.

    For piecewise-constant data the tail values count as the outermost
    states, so a single step carries variation equal to its jump.
    """
    if isinstance(u, PiecewiseConstant1D):
        levels = np.concatenate(([u.left_extension], u.values, [u.right_extension]))
        return float(np.sum(np.abs(np.diff(levels))))
    vals = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
    return float(np.sum(np.abs(np.diff(vals))))


def tv_lower_bound_series(tau: float, epsilon: float, tail_tol: float = 1e-15) -> float:
    """Series lower bound: 2 * sum of grown block values over confined blocks.

    Sums 2 * 2^-k / ((1 - 2^-k) e^(-tau/eps) + 2^-k) for k from the first
    block narrower than the lookahead distance, stopping once a term drops
    below ``tail_tol`` and adding a geometric majorant of the dropped tail
    (at most 8 * tail_tol), so the result overshoots the infinite series by
    that much at worst.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not tail_tol > 0.0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")
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
        if term < tail_tol:
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
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    k_min = _first_confined_block(epsilon)
    k_max = math.floor(_count_upper_limit(tau / epsilon))
    return max(0, k_max - k_min + 1)


def tv_lower_bound_dyadic(tau: float, j: int) -> int:
    """Count bound specialised to epsilon = 2^-j: integers in [j/2, 2^j tau log2 e].

    For fixed tau > 0 the interval length grows like 2^j tau, which is the
    desk-scale face of the unbounded-variation statement.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not isinstance(j, (int, np.integer)) or j < 0:
        raise ValueError(f"j must be a nonnegative integer, got {j!r}")
    hi = (tau * 2.0 ** j) / _LN2
    k_min = _first_confined_block(2.0 ** -j)
    k_max = math.floor(hi)
    return max(0, k_max - k_min + 1)


def term_threshold_check(k: int, tau: float, epsilon: float) -> bool:
    """Whether block k's grown value is at least 1/2 at time tau.

    Equivalent to k <= -log2(e^(-tau/eps) / (1 + e^(-tau/eps))); the test
    suite checks that equivalence over a large parameter lattice.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
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


def evaluate_bounds(tau: float, epsilon: float = None, j: int = None) -> BoundReport:
    """All analytic bounds for one (tau, epsilon) pair.

    Give ``j`` for a dyadic lookahead (epsilon = 2^-j, enabling the dyadic
    bound) or ``epsilon`` directly for the other two.
    """
    if (epsilon is None) == (j is None):
        raise ConfigurationError("give exactly one of epsilon and j")
    if j is not None:
        epsilon = 2.0 ** -j
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
    """Traced plateau/gap pair for one oscillation block."""

    k: int
    plateau_start: float
    gap_start: float
    plateau_value: float
    gap_value: float
    contribution: float


@dataclass(frozen=True)
class TVReconstruction:
    """Oscillation sum rebuilt from characteristic traces.

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

    def __float__(self) -> float:
        return self.total


def _match_stock_datum(datum) -> int:
    """Return the truncation index K if ``datum`` is the oscillatory datum."""
    if not isinstance(datum, PiecewiseConstant1D):
        raise ConfigurationError(
            "reconstruction needs a record produced from the oscillatory datum"
        )
    n_bp = datum.breakpoints.size
    if n_bp < 3 or (n_bp - 3) % 2:
        raise ConfigurationError("record datum does not look like the oscillatory datum")
    K = (n_bp - 3) // 2
    expected = build_u0(K)
    if (
        not np.array_equal(datum.breakpoints, expected.breakpoints)
        or not np.array_equal(datum.values, expected.values)
        or datum.left_extension != 0.0
        or datum.right_extension != 1.0
    ):
        raise ConfigurationError("record datum does not match the oscillatory datum")
    return K


def _reconstruction_starts(datum, epsilon: float, dx: float):
    """Resolved and skipped blocks, and the plateau-then-gap path starts."""
    K = _match_stock_datum(datum)
    k_min = _first_confined_block(epsilon)
    resolved = [
        k for k in range(k_min, K + 1) if 2.0 ** (-2 * k - 2) >= dx  # gap >= one cell
    ]
    skipped = tuple(k for k in range(k_min, K + 1) if k not in resolved)
    starts = [-0.75 * 4.0 ** -k for k in resolved] + [-0.375 * 4.0 ** -k for k in resolved]
    return resolved, skipped, starts


def reconstruction_tracer(config: SolverConfig, tau: float) -> PathTracer:
    """A path tracer for the reconstruction at ``tau``, to march with ``config``.

    Pass it to ``solve_nonlocal(config, observers=[...])`` and then to
    :func:`reconstruct_tv_from_characteristics` with the returned record, so
    the paths are traced during the march and no history is stored.
    """
    _, _, starts = _reconstruction_starts(config.datum, config.epsilon, config.grid.dx)
    return PathTracer(config, starts, t_end=tau)


def reconstruct_tv_from_characteristics(
    record: SolutionRecord, tau: float, tracer: PathTracer = None
) -> TVReconstruction:
    """Rebuild the oscillation sum at time tau from characteristic traces.

    For each confined, grid-resolved block this traces one path from the
    plateau midpoint and one from the adjacent gap midpoint, reads off the
    grown values carried along the paths, and sums 2 * plateau value.  The
    carried values integrate the material growth law, so the sum stays
    faithful even after a block has been squeezed below the cell size (where
    snapshot cell averages would only show a smeared remnant).  The paths
    come from ``tracer`` (made by :func:`reconstruction_tracer` and marched
    with the run) or, without one, from :func:`trace_many`.
    """
    resolved, skipped, starts = _reconstruction_starts(
        record.config.datum, record.epsilon, record.grid.dx
    )
    if tau not in record.snapshots:
        raise ConfigurationError(
            f"tau={tau} is not among the record's snapshot times {record.times}"
        )
    if tracer is not None and (tracer.t_end != tau or tracer.starts.tolist() != starts):
        raise ConfigurationError("tracer was not made by reconstruction_tracer for this tau")

    blocks = []
    total = 0.0
    if resolved:
        if tracer is None:
            paths = trace_many(record, starts, t_end=tau)
        else:
            paths = tracer.paths()
        for i, k in enumerate(resolved):
            plateau_path = paths[i]
            gap_path = paths[len(resolved) + i]
            grown = float(plateau_path.transported[-1])
            blocks.append(
                BlockTrace(
                    k=k,
                    plateau_start=plateau_path.start,
                    gap_start=gap_path.start,
                    plateau_value=grown,
                    gap_value=float(gap_path.transported[-1]),
                    contribution=2.0 * grown,
                )
            )
            total += 2.0 * grown
    return TVReconstruction(
        tau=tau, epsilon=record.epsilon, blocks=tuple(blocks), skipped=skipped, total=total
    )


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


def check_max_principle(record: SolutionRecord, alpha: float, beta: float) -> VerifyReport:
    """Every snapshot must stay inside the initial band [alpha, beta]."""
    u0 = record.snapshots[0.0]
    if np.min(u0) < alpha or np.max(u0) > beta:
        raise ConfigurationError(
            f"initial snapshot leaves [{alpha}, {beta}]; the check presumes it starts inside"
        )
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


def check_plateau(record: SolutionRecord, tol: float = 5e-3) -> VerifyReport:
    """Cells at x >= 0 must stay within ``tol`` of the jam value 1."""
    sel = record.grid.centers >= 0.0
    if not np.any(sel):
        raise ConfigurationError("grid has no cells at x >= 0; nothing to check")
    return _worst_over_snapshots(
        "plateau", tol, record, lambda u: np.abs(u[sel] - 1.0), record.grid.centers[sel]
    )
