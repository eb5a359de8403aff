"""Analytic variation bounds, trace-based reconstruction, and property checks.

Every bound is checked against a reference computation written here from
scratch: the series against brute-force summation of the grown block values,
the integer bounds against explicit enumeration over k.
"""

import math

import numpy as np
import pytest

from nltraffic import (
    ConfigurationError,
    Grid1D,
    GridFunction,
    PiecewiseConstant1D,
    SolverConfig,
    build_u0,
    check_max_principle,
    check_monotonicity,
    check_plateau,
    default_truncation,
    evaluate_bounds,
    parse_datum,
    reconstruct_tv_from_characteristics,
    solve_nonlocal,
    solve_picard,
    sweep_resolution,
    term_threshold_check,
    trace_many,
    total_variation,
    tv_lower_bound_count,
    tv_lower_bound_dyadic,
    tv_lower_bound_series,
)

LN2 = math.log(2.0)


def grown_value(k, tau, epsilon):
    """Block k's height after growing for time tau, from the closed form."""
    p = 2.0**-k
    return p / ((1.0 - p) * math.exp(-tau / epsilon) + p)


def series_oracle(tau, epsilon, n_terms=400):
    """Brute-force the series: twice the sum of grown values over confined blocks."""
    k_min = max(0, math.ceil(-math.log2(epsilon) / 2.0))
    return 2.0 * sum(grown_value(k, tau, epsilon) for k in range(k_min, k_min + n_terms))


def count_oracle(tau, epsilon, k_cap=4000):
    """Enumerate confined blocks whose grown value reaches one half."""
    k_min = max(0, math.ceil(-math.log2(epsilon) / 2.0))
    return sum(1 for k in range(k_min, k_cap) if grown_value(k, tau, epsilon) >= 0.5)


def dyadic_oracle(tau, j, k_cap=4000):
    """Enumerate integers k with k >= j/2 and k * ln 2 <= tau * 2^j."""
    lo = math.ceil(j / 2.0)
    return sum(1 for k in range(lo, k_cap) if k <= (tau * 2.0**j) / LN2)


# --- series bound ----------------------------------------------------------------


def test_series_at_time_zero_is_geometric_sum():
    # block 0 spans [-1, -1/2) and fits in no lookahead below 1, so the sum
    # starts at k = 1
    assert tv_lower_bound_series(0.0, 1.0 - 1e-12) == pytest.approx(2.0, abs=1e-9)
    assert tv_lower_bound_series(0.0, 0.25) == pytest.approx(2.0, abs=1e-12)


def test_series_matches_brute_force_summation():
    for eps in (0.5, 0.25, 0.1, 2.0**-6):
        for tau in (0.0, eps * LN2, 0.3, 1.5):
            got = tv_lower_bound_series(tau, eps)
            assert got == pytest.approx(series_oracle(tau, eps), abs=1e-12, rel=1e-12)


def test_series_grows_without_bound_as_lookahead_shrinks():
    # the bound can dip once when halving the lookahead drops the widest
    # confined block (j = 2 to 3 at this tau); past that it grows steadily
    tau = 0.2
    vals = [tv_lower_bound_series(tau, 2.0**-j) for j in range(3, 10)]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] > 100.0


def test_series_and_count_start_at_the_same_confined_block():
    # a lookahead a hair below 1/4 does not hold block 1, which starts at -1/4
    eps = 0.25 * (1.0 - 1e-10)
    got = tv_lower_bound_series(0.2, eps)
    assert got == pytest.approx(2.0 * sum(grown_value(k, 0.2, eps) for k in range(2, 400)),
                                abs=1e-12, rel=1e-12)
    assert got == pytest.approx(1.8640, abs=1e-4)
    assert tv_lower_bound_count(0.2, eps) == count_oracle(0.2, eps) == 0


def test_series_rejects_bad_arguments():
    # a lookahead of 1 is the top of the range every bound covers
    assert tv_lower_bound_series(0.1, 1.0) == pytest.approx(
        series_oracle(0.1, 1.0), abs=1e-12, rel=1e-12
    )
    with pytest.raises(ValueError):
        tv_lower_bound_series(0.1, 1.5)
    with pytest.raises(ValueError):
        tv_lower_bound_series(0.1, 0.0)
    with pytest.raises(ValueError):
        tv_lower_bound_series(-0.1, 0.5)


def test_bound_chain_holds_at_unit_lookahead():
    # epsilon = 2^0 = 1 confines block 0 too: the datum's block sum 2 * sum 2^-k
    assert tv_lower_bound_series(0.0, 1.0) == pytest.approx(4.0, abs=1e-14)
    for tau in (0.0, 0.2, 1.0, 5.0):
        report = evaluate_bounds(tau, j=0)
        assert report.series_bound >= report.count_bound >= report.dyadic_bound
        assert report.count_bound == count_oracle(tau, 1.0)


def test_series_refuses_overflow_regime_and_names_alternatives():
    with pytest.raises(ValueError, match="count"):
        tv_lower_bound_series(7.01, 0.01)


# --- count and dyadic bounds -----------------------------------------------------


def test_count_frozen_and_enumerated():
    assert tv_lower_bound_count(0.0, 1.0) == 2
    assert tv_lower_bound_count(1.0, 1.0 / 16.0) == 22
    for eps in (1.0, 0.5, 0.3, 1.0 / 16.0):
        for tau in (0.0, 0.05, 0.4, 1.0, 3.0):
            assert tv_lower_bound_count(tau, eps) == count_oracle(tau, eps)


def test_dyadic_frozen_and_enumerated():
    assert tv_lower_bound_dyadic(1.0, 4) == 22
    assert tv_lower_bound_dyadic(0.01, 4) == 0
    assert tv_lower_bound_dyadic(1.0, 0) == 2
    for j in range(0, 8):
        for tau in (0.0, 0.02, 0.2, 0.77, 1.5):
            assert tv_lower_bound_dyadic(tau, j) == dyadic_oracle(tau, j)


def test_dyadic_monotone_in_time_and_lookahead():
    for j in range(2, 7):
        counts = [tv_lower_bound_dyadic(0.15 * i, j) for i in range(11)]
        assert all(b >= a for a, b in zip(counts[:-1], counts[1:]))
    for tau in (0.1, 0.5, 1.0):
        counts = [tv_lower_bound_dyadic(tau, j) for j in range(2, 10)]
        assert counts[-1] > counts[0]


def test_count_dominates_dyadic_on_shared_lattice():
    taus = [0.02 + 0.16 * i for i in range(10)]
    for j in range(2, 7):
        for tau in taus:
            assert tv_lower_bound_count(tau, 2.0**-j) >= tv_lower_bound_dyadic(tau, j)


def test_integer_bounds_reject_bad_arguments():
    with pytest.raises(ValueError):
        tv_lower_bound_count(0.1, 1.5)
    with pytest.raises(ValueError):
        tv_lower_bound_count(-0.1, 0.5)
    with pytest.raises(ValueError):
        tv_lower_bound_dyadic(0.1, -1)
    with pytest.raises(ValueError):
        tv_lower_bound_dyadic(0.1, 2.5)


def test_threshold_check_agrees_with_count_window():
    hits = 0
    for k in range(0, 25):
        for i_tau in range(20):
            for i_eps in range(1, 21):
                tau = 0.05 * i_tau
                eps = 0.05 * i_eps
                if eps >= 1.0:
                    eps = 1.0
                x = tau / eps
                hi = x / LN2 + math.log1p(math.exp(-x)) / LN2
                want = k <= hi
                assert term_threshold_check(k, tau, eps) == want
                hits += 1
    assert hits == 25 * 20 * 20


def test_threshold_check_rejects_bad_arguments():
    with pytest.raises(ValueError):
        term_threshold_check(-1, 0.1, 0.5)
    with pytest.raises(ValueError):
        term_threshold_check(2, 0.1, 0.0)
    with pytest.raises(ValueError):
        term_threshold_check(2, -0.1, 0.5)


def test_every_bound_refuses_a_tau_that_is_not_finite_and_nonnegative():
    for tau in (-0.1, math.nan, math.inf):
        for bound in (
            lambda: evaluate_bounds(tau, j=4),
            lambda: tv_lower_bound_series(tau, 0.5),
            lambda: tv_lower_bound_count(tau, 0.5),
            lambda: tv_lower_bound_dyadic(tau, 4),
            lambda: term_threshold_check(2, tau, 0.5),
        ):
            with pytest.raises(ConfigurationError, match="tau must be finite"):
                bound()


def test_evaluate_bounds_requires_exactly_one_parameterisation():
    # the message a run configuration gives too
    with pytest.raises(ConfigurationError, match="give exactly one of epsilon and dyadic-j"):
        evaluate_bounds(0.2)
    with pytest.raises(ConfigurationError, match="give exactly one of epsilon and dyadic-j"):
        evaluate_bounds(0.2, epsilon=0.25, j=2)


def test_evaluate_bounds_rows():
    row = evaluate_bounds(0.2, j=4)
    assert row.epsilon == 2.0**-4
    assert row.series_bound == pytest.approx(series_oracle(0.2, 2.0**-4), rel=1e-12)
    assert row.count_bound == count_oracle(0.2, 2.0**-4)
    assert row.dyadic_bound == dyadic_oracle(0.2, 4)
    plain = evaluate_bounds(0.2, epsilon=0.3)
    assert plain.dyadic_bound is None
    assert plain.j is None


# --- total variation -------------------------------------------------------------


def test_total_variation_of_profiles_arrays_and_grid_functions():
    step = parse_datum("step", 0.1)
    assert total_variation(step) == 1.0
    assert total_variation(build_u0(3)) == pytest.approx(5.0 - 2.0**-2, abs=1e-15)
    assert total_variation(np.array([0.0, 1.0, 0.0])) == 2.0
    g = Grid1D(0.0, 1.0, 4)
    gf = GridFunction(grid=g, values=np.array([0.2, 0.7, 0.1, 0.1]))
    assert total_variation(gf) == pytest.approx(1.1, abs=1e-15)


# --- reconstruction from traces --------------------------------------------------


def _blowup_config(K=6, eps=2.0**-4, dx=2.0**-8, t_final=0.2, taus=(), **kw):
    g = Grid1D(-1.5, 1.0, round(2.5 / dx))
    return SolverConfig(
        grid=g, epsilon=eps, datum=build_u0(K), t_final=t_final, output_times=taus, **kw
    )


def _blowup_record(**kw):
    return solve_nonlocal(_blowup_config(**kw))


def test_reconstruction_at_time_zero_returns_resolved_block_sum():
    out = reconstruct_tv_from_characteristics(_blowup_record(), 0.0)
    # confined blocks are k >= 2; the grid resolves gaps down to k = 3
    assert [b.k for b in out.blocks] == [2, 3]
    assert out.skipped == (4, 5, 6)
    want = 2.0 * (2.0**-2 + 2.0**-3)
    assert out.total == pytest.approx(want, abs=1e-14)


def test_reconstruction_grows_with_time():
    rec = _blowup_record(taus=(0.1,))
    early = reconstruct_tv_from_characteristics(rec, 0.1)
    late = reconstruct_tv_from_characteristics(rec, 0.2)
    assert late.total > early.total > 2.0 * (2.0**-2 + 2.0**-3)
    for b in late.blocks:
        assert b.contribution == pytest.approx(2.0 * b.plateau_value, abs=0)
        assert b.plateau_value > 2.0**-b.k  # grew above its initial height


def test_reconstruction_equals_a_replay_of_the_plateau_paths():
    # the sweep grids of j = 2..5, where the blocks k_min..k_max are resolved,
    # and a grid that resolves two of the confined blocks 2..6
    cases = []
    for j in (2, 3, 4, 5):
        k_min, k_max, dx = sweep_resolution(j)
        cases.append((_blowup_config(K=default_truncation(dx), eps=2.0**-j, dx=dx,
                                     taus=(0.1,)), range(k_min, k_max + 1)))
    cases.append((_blowup_config(dx=2.5 / 640, taus=(0.1,)), (2, 3)))
    for cfg, ks in cases:
        record = solve_nonlocal(cfg)
        starts = [-0.75 * 4.0**-k for k in ks]
        paths = trace_many(record, starts)
        for tau in (0.0, 0.1, 0.2):
            recon = reconstruct_tv_from_characteristics(record, tau)
            assert [b.k for b in recon.blocks] == list(ks)
            assert [b.plateau_start for b in recon.blocks] == starts
            want = 0.0
            for path in paths:
                want += 2.0 * float(path.transported[record.snapshot_steps[tau]])
            assert recon.total == want  # bit for bit: the tracer's own arithmetic


def test_reconstruction_rejects_foreign_records_and_bad_times():
    g = Grid1D(-1.0, 1.0, 160)
    step = SolverConfig(
        grid=g, epsilon=2.0**-4, datum=parse_datum("step", g.dx), t_final=0.1
    )
    with pytest.raises(ConfigurationError, match="not the oscillatory datum"):
        reconstruct_tv_from_characteristics(solve_nonlocal(step), 0.1)
    for K in (3, 6):  # breakpoints of the right count, values of another datum
        datum = build_u0(K)
        odd = PiecewiseConstant1D(datum.breakpoints, datum.values * 0.5, 0.0, 1.0)
        cfg = SolverConfig(grid=g, epsilon=2.0**-4, datum=odd, t_final=0.1)
        with pytest.raises(ConfigurationError, match="not the oscillatory datum"):
            reconstruct_tv_from_characteristics(solve_nonlocal(cfg), 0.1)
    # the viscosity of Lax-Friedrichs erodes the jam the growth law reads
    lxf = _blowup_record(t_final=0.1, scheme="lax-friedrichs")
    with pytest.raises(ConfigurationError, match="not a 'lax-friedrichs' record"):
        reconstruct_tv_from_characteristics(lxf, 0.1)
    with pytest.raises(ConfigurationError, match="not a 'picard' record"):
        reconstruct_tv_from_characteristics(solve_picard(_blowup_config(t_final=0.1)), 0.1)
    blow = _blowup_record(t_final=0.1)
    with pytest.raises(ConfigurationError, match="not among the record's snapshot times"):
        reconstruct_tv_from_characteristics(blow, 0.07)


def test_reconstruction_refuses_more_breakpoints_than_any_stock_datum():
    # build_u0(536), the largest, has 1075 breakpoints; 1077 would ask for K = 537
    g = Grid1D(-1.0, 1.0, 160)
    many = PiecewiseConstant1D(np.linspace(-1.0, 0.0, 1077), np.full(1076, 0.5), 0.0, 1.0)
    cfg = SolverConfig(grid=g, epsilon=2.0**-4, datum=many, t_final=0.1)
    with pytest.raises(ConfigurationError, match="not the oscillatory datum"):
        reconstruct_tv_from_characteristics(solve_nonlocal(cfg), 0.1)


# --- property checks -------------------------------------------------------------


def _step_record(**kw):
    g = Grid1D(-1.0, 1.0, 160)
    cfg = SolverConfig(
        grid=g, epsilon=2.0**-3, datum=parse_datum("step", g.dx), t_final=0.3, **kw
    )
    return solve_nonlocal(cfg)


def test_max_principle_check_passes_and_fails():
    rec = _step_record()
    report = check_max_principle(rec)
    assert report.passed
    assert report.worst <= 1e-12
    rec.snapshots[rec.times[-1]][5] = 1.5
    bad = check_max_principle(rec)
    assert not bad.passed
    assert bad.worst == pytest.approx(0.5, abs=1e-12)
    assert "t=" in bad.location
    # the band is the datum's, tails included: [0.2, 0.8] here
    g = Grid1D(-1.0, 1.0, 160)
    inner = solve_nonlocal(SolverConfig(grid=g, epsilon=2.0**-3, t_final=0.1,
                                        datum=parse_datum("riemann:0.2,0.8", g.dx)))
    assert check_max_principle(inner).passed
    inner.snapshots[0.1][5] = 0.125
    assert check_max_principle(inner).worst == pytest.approx(0.075, abs=1e-12)


def test_monotonicity_check_passes_and_fails():
    rec = _step_record()
    report = check_monotonicity(rec)
    assert report.passed
    rec.snapshots[rec.times[-1]][40] = 1.0
    assert not check_monotonicity(rec).passed
    with pytest.raises(ConfigurationError):
        check_monotonicity(_blowup_record(t_final=0.05))


def test_plateau_check_passes_and_detects_erosion():
    good = check_plateau(_blowup_record(K=4, t_final=0.2))
    assert good.passed
    assert good.worst == 0.0
    # the jam ends at the domain's right edge, where vacuum follows it
    jam = build_u0(4)
    datum = PiecewiseConstant1D(np.append(jam.breakpoints, 1.0), np.append(jam.values, 1.0))
    g = Grid1D(-1.5, 1.0, 640)
    leaky = solve_nonlocal(SolverConfig(grid=g, epsilon=2.0**-4, datum=datum, t_final=1.0))
    assert not check_plateau(leaky).passed


def test_verify_report_summary_format():
    rec = _step_record()
    line = check_monotonicity(rec).summary()
    assert line.startswith("PASS")
    assert "monotonicity" in line and "worst" in line
