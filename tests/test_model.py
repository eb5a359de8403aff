"""Profile construction, exact projection, and serialization round-trips.

The averaging oracle below recomputes every cell mean in exact rational
arithmetic, completely independently of the package's searchsorted-based
implementation, so the projection tests would catch a wrong interval
convention and not just a sloppy tolerance.
"""

from fractions import Fraction

import numpy as np
import pytest

from nltraffic import (
    PiecewiseConstant1D,
    build_bar_u,
    build_u0,
    cell_averages,
    load_piecewise,
    piecewise_from_text,
    piecewise_to_text,
    save_piecewise,
    total_variation,
)


def exact_mean(f, a, b):
    """Mean of a piecewise profile over [a, b] in rational arithmetic."""
    a, b = Fraction(a), Fraction(b)
    cuts = [a] + [Fraction(x) for x in f.breakpoints if a < Fraction(x) < b] + [b]
    levels = [Fraction(f.left_extension)] + [Fraction(v) for v in f.values]
    levels.append(Fraction(f.right_extension))
    total = Fraction(0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = (lo + hi) / 2
        idx = sum(1 for x in f.breakpoints if Fraction(x) <= mid)
        total += levels[idx] * (hi - lo)
    return total / (b - a)


def exact_tv(f):
    levels = [Fraction(f.left_extension)] + [Fraction(v) for v in f.values]
    levels.append(Fraction(f.right_extension))
    return sum(abs(hi - lo) for lo, hi in zip(levels[:-1], levels[1:]))


# --- oscillatory datum --------------------------------------------------------


@pytest.mark.parametrize("K", range(13))
def test_blowup_datum_total_variation_exact(K):
    expected = Fraction(1) + 2 * sum(Fraction(1, 2**k) for k in range(K + 1))
    u0 = build_u0(K)
    assert abs(total_variation(u0) - float(expected)) <= 1e-12
    assert exact_tv(u0) == expected


def test_blowup_datum_block_layout():
    u0 = build_u0(2)
    # block k occupies [-4^-k, -4^-k/2) at height 2^-k, gaps are 0, jam right of 0
    assert u0(-1.0) == 1.0
    assert u0(-0.75) == 1.0
    assert u0(-0.5) == 0.0
    assert u0(-0.25) == 0.5
    assert u0(-0.125) == 0.0
    assert u0(-0.0625) == 0.25
    assert u0(-0.03125) == 0.0
    assert u0(0.0) == 1.0
    assert u0(3.0) == 1.0
    assert u0(-2.0) == 0.0


def test_blowup_datum_breakpoint_membership_is_left_closed():
    u0 = build_u0(1)
    for b in u0.breakpoints:
        left = u0(float(b) - 1e-9)
        at = u0(float(b))
        right = u0(float(b) + 1e-9)
        assert at == right
        assert at != left or b in (u0.breakpoints[-1],)


def test_blowup_datum_rejects_bad_truncation():
    with pytest.raises(ValueError):
        build_u0(-1)
    with pytest.raises(ValueError):
        build_u0(2.5)
    # K = 536 puts the last block's right edge at -2^-1073, still a nonzero double
    assert build_u0(536).breakpoints[-2] == -(2.0 ** -1073)
    with pytest.raises(ValueError, match="536"):
        build_u0(537)


# --- platoon datum ------------------------------------------------------------


def test_platoon_datum_levels_and_jumps():
    f = build_bar_u(0.1)
    assert f(-0.2) == 0.0
    assert f(-0.1) == 0.5
    assert f(-0.075) == 0.5
    assert f(-0.05) == 0.0
    assert f(-0.01) == 0.0
    assert f(0.0) == 1.0
    assert total_variation(f) == 2.0
    assert f.levels.tolist() == [0.0, 0.5, 0.0, 1.0]  # tails included


def test_platoon_datum_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        build_bar_u(0.0)
    with pytest.raises(ValueError):
        build_bar_u(-0.3)


# --- evaluation and projection ------------------------------------------------


def test_eval_array_and_scalar_agree():
    f = build_u0(3)
    xs = np.linspace(-1.3, 0.2, 47)
    arr = f(xs)
    assert arr.shape == xs.shape
    for x, v in zip(xs, arr):
        assert f(float(x)) == v


def test_cell_average_matches_rational_oracle():
    f = build_u0(2)
    for a, b in [(-1.0, 0.0), (-0.7, -0.1), (-0.26, -0.24), (-2.0, 1.0), (0.5, 2.0)]:
        assert cell_averages(f, np.array([a, b]))[0] == pytest.approx(
            float(exact_mean(f, a, b)), abs=1e-15
        )


def test_cell_average_unit_window_left_of_origin():
    assert cell_averages(build_u0(0), np.array([-1.0, 0.0]))[0] == 0.5


def test_cell_averages_match_oracle_on_misaligned_grid():
    f = build_bar_u(0.3)
    edges = np.linspace(-0.63, 0.31, 48)  # edges avoid the breakpoints
    got = cell_averages(f, edges)
    want = [float(exact_mean(f, edges[i], edges[i + 1])) for i in range(47)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_cell_averages_exact_on_constant_pieces():
    f = build_u0(4)
    edges = np.arange(-256, 257) / 256.0
    vals = cell_averages(f, edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    inside = f(mids) == f(edges[:-1])  # cells that touch no jump
    # every breakpoint of the oscillatory datum is a jump
    assert np.all(np.diff(f.levels) != 0.0)
    whole = np.array(
        [f.breakpoints[(f.breakpoints > a) & (f.breakpoints < b)].size == 0
         for a, b in zip(edges[:-1], edges[1:])]
    )
    # a cell fully inside one piece must carry that piece's value bit for bit
    assert np.all(vals[whole] == f(edges[:-1][whole]))
    assert inside[whole].all()


def test_cell_averages_validates_edges():
    f = build_u0(0)
    with pytest.raises(ValueError):
        cell_averages(f, np.array([0.0]))
    with pytest.raises(ValueError):
        cell_averages(f, np.array([0.0, 0.0, 1.0]))


def test_piecewise_constructor_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant1D(np.array([0.0, -1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        PiecewiseConstant1D(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PiecewiseConstant1D(np.array([0.0, np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        PiecewiseConstant1D(np.array([0.0, 1.0]), np.array([np.inf]))


# --- serialization ------------------------------------------------------------


def test_text_round_trip_is_exact():
    f = build_u0(5)
    g = piecewise_from_text(piecewise_to_text(f))
    np.testing.assert_array_equal(g.breakpoints, f.breakpoints)
    np.testing.assert_array_equal(g.values, f.values)
    assert g.left_extension == f.left_extension
    assert g.right_extension == f.right_extension


def test_file_round_trip_and_comments(tmp_path):
    f = build_bar_u(0.125)
    p = tmp_path / "profile.txt"
    save_piecewise(f, p)
    text = p.read_text()
    assert text.startswith("left=0.0\nright=1.0\n")
    g = load_piecewise(p)
    np.testing.assert_array_equal(g.breakpoints, f.breakpoints)
    # comment lines and blank lines are ignored on load
    p.write_text("# platoon\n\n" + text)
    h = load_piecewise(p)
    np.testing.assert_array_equal(h.values, f.values)


@pytest.mark.parametrize(
    "text",
    [
        "left=0.0\nright=1.0\n",  # no breakpoints
        "left=0.0\n0.0 1.0\n1.0\n",  # missing right header
        "left=0.0\nright=1.0\n0.0 1.0\n1.0 2.0\n",  # final line not bare
        "left=0.0\nright=1.0\n0.0 1.0 2.0\n1.0\n",  # three columns
        "left=0.0\nright=1.0\nnope 1.0\n1.0\n",  # non-numeric
    ],
)
def test_malformed_text_is_rejected(text):
    with pytest.raises(ValueError):
        piecewise_from_text(text)
