"""Exact piecewise-constant profiles, the stock data, and their text format.

Everything in this module is meant to be evaluated without quadrature error:
profiles are stored as breakpoint/value arrays, integrals are computed from
the exact cumulative function, and the stock data (the oscillatory datum, the
three-level platoon datum) use dyadic numbers that float arithmetic represents
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "PiecewiseConstant1D",
    "build_bar_u",
    "build_u0",
    "cell_averages",
    "piecewise_to_text",
    "piecewise_from_text",
    "save_piecewise",
    "load_piecewise",
]


@dataclass(frozen=True, eq=False)
class PiecewiseConstant1D:
    """Right-continuous piecewise-constant function on the whole line.

    The function equals ``values[i]`` on ``[breakpoints[i], breakpoints[i+1])``,
    ``left_extension`` on ``(-inf, breakpoints[0])`` and ``right_extension`` on
    ``[breakpoints[-1], +inf)``.  Intervals are closed on the left and open on
    the right, which pins down the value at every breakpoint.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    left_extension: float = 0.0
    right_extension: float = 0.0

    def __post_init__(self):
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if bp.ndim != 1 or bp.size < 1:
            raise ValueError("need at least one breakpoint")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if bp.size > 1 and not np.all(np.diff(bp) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if vals.size != bp.size - 1:
            raise ValueError(
                f"{bp.size} breakpoints require {bp.size - 1} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        for name in ("left_extension", "right_extension"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        """Evaluate at a scalar or an array of points."""
        xs = np.asarray(x, dtype=float)
        out = self.levels[np.searchsorted(self.breakpoints, xs, side="right")]
        if np.ndim(x) == 0:
            return float(out)
        return out

    @property
    def levels(self) -> np.ndarray:
        """Every value left to right, tails included: ``levels[i]`` holds on
        the stretch that ends at ``breakpoints[i]``, and ``levels[-1]`` past
        the last breakpoint."""
        return np.concatenate(([self.left_extension], self.values, [self.right_extension]))


def _window_mean(f: PiecewiseConstant1D, a: float, b: float) -> float:
    """Mean of ``f`` over ``[a, b]``, split exactly at interior breakpoints.

    A window that lies inside a single piece returns that piece's value
    bit for bit; this matters because the solvers rely on constant regions
    of the datum projecting to exactly constant cell values.
    """
    bp = f.breakpoints
    lookup = f.levels
    lo = int(np.searchsorted(bp, a, side="right"))
    hi = int(np.searchsorted(bp, b, side="left"))
    if lo >= hi:
        return float(lookup[lo])
    cuts = np.concatenate(([a], bp[lo:hi], [b]))
    return float(np.dot(lookup[lo : hi + 1], np.diff(cuts)) / (b - a))


def cell_averages(f: PiecewiseConstant1D, edges: np.ndarray) -> np.ndarray:
    """Exact means of ``f`` over the cells delimited by sorted ``edges``."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two cell edges")
    if not np.all(np.diff(edges) > 0.0):
        raise ValueError("cell edges must be strictly increasing")
    lo = np.searchsorted(f.breakpoints, edges[:-1], side="right")
    hi = np.searchsorted(f.breakpoints, edges[1:], side="left")
    out = f.levels[lo]
    for i in np.nonzero(hi > lo)[0]:
        out[i] = _window_mean(f, float(edges[i]), float(edges[i + 1]))
    return out


def build_bar_u(h: float) -> PiecewiseConstant1D:
    """Three-level platoon datum: 1/2 on [-h, -h/2), vacuum up to 0, jam on [0, oo).

    Total variation is 2 for every ``h > 0``.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigurationError(f"h must be positive and finite, got {h}")
    return PiecewiseConstant1D(
        breakpoints=np.array([-h, -h / 2.0, 0.0]),
        values=np.array([0.5, 0.0]),
        left_extension=0.0,
        right_extension=1.0,
    )


def _check_nonnegative_integer(value, name: str) -> None:
    """Refuse ``value`` with ``ConfigurationError`` unless it is a nonnegative integer."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigurationError(f"{name} must be a nonnegative integer, got {value!r}")


# The last block's right edge -2^-(2K+1) rounds to zero past this truncation.
_MAX_TRUNCATION = 536


def build_u0(K: int) -> PiecewiseConstant1D:
    """Oscillatory datum: jam on [0, oo) plus blocks of height 2^-k.

    Block ``k`` sits on ``[-4^-k, -4^-k / 2)`` for ``k = 0..K``; between
    consecutive blocks, and between the last block and the origin, the value
    is 0.  All edges and heights are dyadic, so the construction is exact and
    the total variation equals ``1 + 2 * sum_{k=0}^{K} 2^-k``.
    """
    _check_nonnegative_integer(K, "K")
    if K > _MAX_TRUNCATION:
        raise ValueError(
            f"K must be at most {_MAX_TRUNCATION}, beyond which the last block's "
            f"right edge -2^-(2K+1) rounds to zero; got {K}"
        )
    breakpoints = []
    values = []
    for k in range(K + 1):
        width = 2.0 ** (-2 * k)  # 4^-k
        breakpoints.extend([-width, -width / 2.0])
        values.extend([2.0 ** (-k), 0.0])
    breakpoints.append(0.0)
    return PiecewiseConstant1D(
        breakpoints=np.array(breakpoints),
        values=np.array(values),
        left_extension=0.0,
        right_extension=1.0,
    )


# --- plain-text serialization ------------------------------------------------
#
# Format: two header lines "left=<v>" and "right=<v>", then one "breakpoint
# value" line per bounded interval, and a final line with the last breakpoint
# alone (the right tail starts there and carries the header value).


def piecewise_to_text(f: PiecewiseConstant1D) -> str:
    lines = [f"left={float(f.left_extension)!r}", f"right={float(f.right_extension)!r}"]
    for b, v in zip(f.breakpoints[:-1], f.values):
        lines.append(f"{float(b)!r} {float(v)!r}")
    lines.append(f"{float(f.breakpoints[-1])!r}")
    return "\n".join(lines) + "\n"


def piecewise_from_text(text: str) -> PiecewiseConstant1D:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if len(rows) < 3:
        raise ValueError("piecewise text needs two headers and one breakpoint")
    ext = {}
    for ln in rows[:2]:
        key, _, val = ln.partition("=")
        key = key.strip()
        if key not in ("left", "right") or not val:
            raise ValueError(f"bad header line {ln!r}")
        ext[key] = float(val)
    if set(ext) != {"left", "right"}:
        raise ValueError("headers must be one left= and one right= line")
    breakpoints = []
    values = []
    for ln in rows[2:-1]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'breakpoint value', got {ln!r}")
        breakpoints.append(float(parts[0]))
        values.append(float(parts[1]))
    tail = rows[-1].split()
    if len(tail) != 1:
        raise ValueError(f"last line must hold the final breakpoint alone, got {rows[-1]!r}")
    breakpoints.append(float(tail[0]))
    return PiecewiseConstant1D(
        breakpoints=np.array(breakpoints),
        values=np.array(values),
        left_extension=ext["left"],
        right_extension=ext["right"],
    )


def save_piecewise(f: PiecewiseConstant1D, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(piecewise_to_text(f))


def load_piecewise(path) -> PiecewiseConstant1D:
    with open(path, "r", encoding="ascii") as fh:
        return piecewise_from_text(fh.read())
