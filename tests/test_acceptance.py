"""Acceptance suite: one test per headline claim, one PASS line per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the printed
verdict lines.  Each test states its claim, the configuration it pins, and
the tolerance it must meet; shared solves live in module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from nltraffic import (
    Grid1D,
    SolverConfig,
    SweepSpec,
    build_u0,
    check_monotonicity,
    logistic_value,
    make_grid,
    parse_datum,
    run_mechanism_demo,
    run_sweep,
    solve_local,
    solve_nonlocal,
    solve_picard,
    sweep_resolution,
    term_threshold_check,
    total_variation,
    trace_many,
    tv_lower_bound_count,
    tv_lower_bound_dyadic,
    tv_lower_bound_series,
)

LN2 = math.log(2.0)


def grown_value(k, tau, epsilon):
    p = 2.0**-k
    return p / ((1.0 - p) * math.exp(-tau / epsilon) + p)


@pytest.fixture(scope="module")
def blowup_record():
    """Oscillatory datum, lookahead 2^-4, dx = 4^-4, marched to t = 0.5."""
    g = make_grid((-1.5, 1.0), 4.0**-4)
    cfg = SolverConfig(
        grid=g,
        epsilon=2.0**-4,
        datum=parse_datum("blowup", g.dx),
        t_final=0.5,
        output_times=(0.1, 0.2, 0.3, 0.4),
    )
    return solve_nonlocal(cfg)


@pytest.fixture(scope="module")
def fine_plateau_record():
    """Same datum at dx = 4^-6 for the growth-law comparison."""
    g = make_grid((-1.5, 1.0), 4.0**-6)
    cfg = SolverConfig(
        grid=g, epsilon=2.0**-4, datum=parse_datum("blowup", g.dx), t_final=0.2
    )
    return solve_nonlocal(cfg)


def test_criterion_01_datum_total_variation():
    for K in range(13):
        want = 1.0 + 2.0 * sum(2.0**-k for k in range(K + 1))
        got = total_variation(build_u0(K))
        assert abs(got - want) <= 1e-12
    assert abs((1.0 + 2.0 * sum(2.0**-k for k in range(13))) - 5.0) < 5e-4
    print("PASS criterion 1: datum total variation exact to 1e-12 for K = 0..12")


def test_criterion_02_maximum_principle(blowup_record):
    lo = min(float(np.min(u)) for u in blowup_record.snapshots.values())
    hi = max(float(np.max(u)) for u in blowup_record.snapshots.values())
    assert lo >= -1e-12
    assert hi <= 1.0 + 1e-12
    print(
        f"PASS criterion 2: range [{lo:.3e}, {hi:.17g}] inside [-1e-12, 1+1e-12] "
        "on the oscillatory datum"
    )


def test_criterion_03_monotonicity_preservation():
    worst = {}
    for scheme in ("upwind", "lax-friedrichs"):
        g = make_grid((-1.0, 1.0), 4.0**-4)
        cfg = SolverConfig(
            grid=g,
            epsilon=2.0**-4,
            datum=parse_datum("step", g.dx),
            t_final=0.5,
            scheme=scheme,
            output_times=(0.1, 0.25),
        )
        report = check_monotonicity(solve_nonlocal(cfg))
        worst[scheme] = report.worst
        assert report.worst <= 1e-10
    print(
        "PASS criterion 3: monotone step stays monotone, worst adjacent-pair "
        f"violation {max(worst.values()):.3e} <= 1e-10 (both schemes)"
    )


def test_criterion_04_jam_plateau_with_refinement():
    errs = []
    for dx in (4.0**-5, 4.0**-5 / 2.0):
        g = make_grid((-1.5, 1.0), dx)
        cfg = SolverConfig(
            grid=g,
            epsilon=2.0**-4,
            datum=build_u0(7),
            t_final=0.5,
            output_times=(0.125, 0.25, 0.375),
        )
        rec = solve_nonlocal(cfg)
        sel = g.centers >= 0.0
        err = max(float(np.max(np.abs(u[sel] - 1.0))) for u in rec.snapshots.values())
        errs.append(err)
    assert errs[0] <= 5e-3
    assert errs[1] <= max(0.6 * errs[0], 1e-14)
    print(
        f"PASS criterion 4: jam-side deviation {errs[0]:.3e} <= 5e-3 at dx=4^-5, "
        f"{errs[1]:.3e} after halving dx (ratio bound 0.6 honoured)"
    )


def test_criterion_05_growth_law_along_path(fine_plateau_record):
    eps = 2.0**-4
    tau = 0.2
    rec = fine_plateau_record
    path = trace_many(rec, [-0.046875])[0]
    want = logistic_value(0.25, tau, eps)
    got = float(rec.snapshots[tau][rec.grid.cell_of(path.positions[rec.snapshot_steps[tau]])])
    rel = abs(got - want) / want
    assert rel <= 0.02

    def rk4(u0, t, epsilon, n=200000):
        h = t / n
        f = lambda u: u * (1.0 - u) / epsilon
        u = u0
        for _ in range(n):
            k1 = f(u)
            k2 = f(u + 0.5 * h * k1)
            k3 = f(u + 0.5 * h * k2)
            k4 = f(u + h * k3)
            u += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return u

    assert abs(want - rk4(0.25, tau, eps)) <= 1e-10
    print(
        f"PASS criterion 5: solver value {got:.6f} vs closed form {want:.6f} "
        f"({100 * rel:.3f}% off, tol 2%); closed form matches RK4 to 1e-10"
    )


def test_criterion_06_characteristic_geometry(blowup_record):
    eps = blowup_record.epsilon
    pinned = trace_many(blowup_record, [0.0])[0]
    drift = float(np.max(np.abs(pinned.positions)))
    assert drift <= 1e-6

    confined = trace_many(blowup_record, np.linspace(-eps, 0.0, 20))
    for p in confined:
        assert p.positions.min() >= p.start - 1e-8
        assert p.positions.max() <= 1e-8

    ordered = trace_many(blowup_record, np.linspace(-1.2, -0.01, 20))
    gaps = np.diff(np.array([p.positions for p in ordered]), axis=0)
    assert float(gaps.min()) >= -1e-8
    print(
        f"PASS criterion 6: origin drift {drift:.1e} <= 1e-6; 20 paths confined; "
        "20 ordered paths never cross"
    )


def test_criterion_07_variation_growth_trend():
    rows, failures = run_sweep(SweepSpec())
    assert failures == []
    recon = [r.reconstructed_tv for r in rows]
    assert all(b > a for a, b in zip(recon[:-1], recon[1:]))
    assert recon[-1] > 5.0
    for r in rows:
        k_min, k_max, _ = sweep_resolution(r.j)
        partial = 2.0 * sum(grown_value(k, r.tau, r.epsilon) for k in range(k_min, k_max + 1))
        assert abs(r.reconstructed_tv - partial) / partial <= 0.05
    pretty = ", ".join(f"{v:.3f}" for v in recon)
    print(
        f"PASS criterion 7: reconstructed variation [{pretty}] strictly increasing "
        "across j = 2..6, exceeds the initial value 5, within 5% of the resolved "
        "partial sums"
    )


def test_criterion_08_bound_arithmetic():
    def dyadic_oracle(tau, j):
        lo = math.ceil(j / 2.0)
        return sum(1 for k in range(lo, 4000) if k <= (tau * 2.0**j) / LN2)

    assert tv_lower_bound_dyadic(1.0, 4) == dyadic_oracle(1.0, 4) == 22

    taus = [0.02 + 0.16 * i for i in range(10)]
    for j in range(2, 7):
        for tau in taus:
            eps = 2.0**-j
            series = tv_lower_bound_series(tau, eps)
            count = tv_lower_bound_count(tau, eps)
            dy = tv_lower_bound_dyadic(tau, j)
            assert series >= count >= dy

    checked = 0
    for k in range(0, 25):
        for i_tau in range(20):
            for i_eps in range(1, 21):
                tau, eps = 0.05 * i_tau, min(0.05 * i_eps, 1.0)
                x = tau / eps
                want = k <= x / LN2 + math.log1p(math.exp(-x)) / LN2
                assert term_threshold_check(k, tau, eps) == want
                checked += 1
    assert checked == 10000
    print(
        "PASS criterion 8: dyadic(1, 4) = 22 vs enumeration; series >= count >= "
        "dyadic on the 10x5 grid; threshold equivalence on 10^4 triples"
    )


def test_criterion_09_platoon_mechanism():
    report = run_mechanism_demo()
    assert report.tv_initial == 2.0
    assert report.tv_final > 2.0
    assert report.vacuum_max <= 1e-6
    assert report.slope_rel_error <= 0.10
    assert report.ok
    print(
        f"PASS criterion 9: variation grew 2 -> {report.tv_final:.5f}, vacuum "
        f"{report.vacuum_max:.2e} <= 1e-6, growth rate {report.slope_estimate:.4f} "
        f"within {100 * report.slope_rel_error:.2f}% of 1/(4 eps) = "
        f"{report.slope_expected}"
    )


def test_criterion_10_fixed_point_cross_validation():
    dx = 4.0**-5
    g = make_grid((-1.5, 1.0), dx)
    cfg = SolverConfig(
        grid=g, epsilon=2.0**-3, datum=parse_datum("blowup", dx), t_final=0.1
    )
    fv = solve_nonlocal(cfg)
    pic = solve_picard(cfg)
    gap = float(np.sum(np.abs(fv.snapshot(0.1).values - pic.snapshot(0.1).values)) * dx)
    assert gap <= 5.0 * dx
    print(
        f"PASS criterion 10: marcher vs fixed point L1 distance {gap:.3e} <= "
        f"5*dx = {5 * dx:.3e} ({pic.info['iterations']} iterations)"
    )


def test_criterion_11_local_limit_riemann():
    dx = 4.0**-4
    g = make_grid((-1.0, 1.0), dx)

    up = solve_local(
        SolverConfig(
            grid=g, epsilon=dx, datum=parse_datum("riemann:0,1", dx), t_final=0.5,
        )
    )
    jump = lambda u: g.edges[int(np.argmax(u >= 0.5))]
    drift = abs(jump(up.snapshot(0.5).values) - jump(up.snapshot(0.0).values))
    assert drift <= dx

    down = solve_local(
        SolverConfig(
            grid=g, epsilon=dx, datum=parse_datum("riemann:1,0", dx), t_final=0.5,
        )
    )
    mid = float(down.snapshot(0.5).values[g.cell_of(0.0)])
    err = abs(mid - 0.5)
    assert err <= 2.0 * dx
    print(
        f"PASS criterion 11: stationary shock drift {drift:g} <= dx; rarefaction "
        f"midpoint {mid:.5f} within {err:.2e} of 1/2 (tol 2*dx = {2 * dx:.2e})"
    )
