"""Experiment orchestration: named runs, sweeps, demos, and report files.

Everything that touches the filesystem lives here.  Reports are plain CSV
(floats written with ``repr`` so identical configs give byte-identical
files), and every run directory gets a ``manifest.txt`` listing parameters,
the package version, wall time, and a checksum for each written file.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace
import hashlib
import math
import time
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ConfigurationError, SolverError
from .model import (PiecewiseConstant1D, _check_nonnegative_integer, _check_positive,
                    build_bar_u, build_u0, load_piecewise)
from .fv import Grid1D, SolverConfig, _whole_cells, solve_local, solve_nonlocal
from .characteristics import PathTracer, _check_tau
from .analysis import (
    BoundReport,
    VerifyReport,
    _count_upper_limit,
    _first_confined_block,
    _lookahead,
    _worst_over_snapshots,
    check_max_principle,
    check_monotonicity,
    check_plateau,
    evaluate_bounds,
    reconstruct_tv_from_characteristics,
    term_threshold_check,
    total_variation,
    tv_lower_bound_dyadic,
)

__all__ = [
    "RunConfig",
    "SweepSpec",
    "MechanismReport",
    "default_truncation",
    "parse_datum",
    "make_grid",
    "sweep_resolution",
    "run_simulate",
    "run_characteristics",
    "run_sweep",
    "write_bounds",
    "run_mechanism_demo",
    "run_verify",
]

DEFAULT_DOMAIN = (-1.5, 1.0)
# The mechanism demo's vacuum cells may rise this far above 0 before it fails.
_VACUUM_TOL = 1e-6


def default_truncation(dx: float) -> int:
    """Datum truncation for cell size ``dx``: the first block that fits in one
    cell, plus two finer ones so that skipped oscillations are represented."""
    return _first_confined_block(dx) + 2


def parse_datum(spec: str, dx: float) -> PiecewiseConstant1D:
    """Build a datum from a selector string.

    Accepted forms: ``blowup`` or ``blowup:K`` (oscillatory datum, default
    truncation tied to the grid), ``bar_u:h`` (three-level platoon),
    ``step`` (0 to 1 at the origin), ``riemann:ul,ur`` (general single jump),
    ``file:path`` (serialized profile).
    """
    name, _, arg = spec.partition(":")
    if name == "step":
        name, arg = "riemann", "0,1"
    try:
        if name == "blowup":
            K = int(arg) if arg else default_truncation(dx)
            return build_u0(K)
        if name == "bar_u":
            if not arg:
                raise ConfigurationError("bar_u needs a width, e.g. bar_u:0.1")
            return build_bar_u(float(arg))
        if name == "riemann":
            ul, ur = (float(v) for v in arg.split(","))
            return PiecewiseConstant1D(
                breakpoints=np.array([0.0]), values=np.array([]),
                left_extension=ul, right_extension=ur,
            )
        if name == "file":
            return load_piecewise(arg)
    except (ValueError, OSError) as exc:
        raise ConfigurationError(f"bad datum spec {spec!r}: {exc}") from exc
    raise ConfigurationError(f"unknown datum selector {name!r}")


def make_grid(domain, dx: float) -> Grid1D:
    a, b = (float(v) for v in domain)
    return Grid1D(a, b, _whole_cells(b - a, dx, f"domain [{a}, {b}]"))


@dataclass(frozen=True)
class RunConfig:
    """Parsed parameters for a single simulate/characteristics run.

    ``scheme`` names the marcher; ``godunov-local`` marches the local limit,
    which has no lookahead and refuses ``epsilon`` and ``dyadic_j``.
    """

    datum: str = "blowup"
    domain: tuple = DEFAULT_DOMAIN
    dx: float = 4.0 ** -4
    epsilon: float = None
    dyadic_j: int = None
    t_final: float = 0.5
    output_times: tuple = ()
    scheme: str = "upwind"
    out: str = None


def build_solver_config(run: RunConfig) -> SolverConfig:
    grid = make_grid(run.domain, run.dx)
    local = run.scheme == "godunov-local"  # no lookahead: one cell passes validation
    if local and (run.epsilon is not None or run.dyadic_j is not None):
        raise ConfigurationError("the godunov-local scheme marches the local limit, "
                                 "which takes no lookahead")
    return SolverConfig(
        grid=grid,
        epsilon=grid.dx if local else _lookahead(run.epsilon, run.dyadic_j),
        datum=parse_datum(run.datum, grid.dx),
        t_final=run.t_final,
        scheme=run.scheme,
        output_times=run.output_times,
    )


# --- file plumbing -----------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def _refuse_shared_names(values, what: str) -> None:
    """Refuse two of ``values`` that print alike under ``:g``.

    File names carry a time or a start in that format, six significant
    digits, so two such values would write one file, the later overwriting
    the earlier.
    """
    seen = {}
    for v in values:
        key = f"{v:g}"
        if key in seen:
            raise ConfigurationError(
                f"{what} {seen[key]!r} and {v!r} would share the file named for {key}; "
                "give values that differ in their first six significant digits"
            )
        seen[key] = v


def _write_lines(path: Path, lines) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    return path


def _snapshot_lines(grid: Grid1D, values: np.ndarray):
    yield "x,u"
    for x, u in zip(grid.centers, values):
        yield f"{_fmt(x)},{_fmt(u)}"


def _write_snapshots(out_dir: Path, record) -> list:
    """One ``u_t{t}_eps{eps}.csv`` per snapshot of ``record``; returns the paths."""
    return [
        _write_lines(
            out_dir / f"u_t{t:g}_eps{record.epsilon:g}.csv",
            _snapshot_lines(record.grid, record.snapshots[t]),
        )
        for t in record.times
    ]


def _path_lines(path_obj):
    yield "t,x,u"
    for t, x, u in zip(path_obj.times, path_obj.positions, path_obj.transported):
        yield f"{_fmt(t)},{_fmt(x)},{_fmt(u)}"


def _bound_rows_lines(rows):
    yield "tau,epsilon,j,series,count,dyadic,measured_tv,reconstructed_tv"
    for r in rows:
        cells = [
            _fmt(r.tau),
            _fmt(r.epsilon),
            "" if r.j is None else str(r.j),
            _fmt(r.series_bound),
            str(r.count_bound),
            "" if r.dyadic_bound is None else str(r.dyadic_bound),
            "" if r.measured_tv is None else _fmt(r.measured_tv),
            "" if r.reconstructed_tv is None else _fmt(r.reconstructed_tv),
        ]
        yield ",".join(cells)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(out_dir: Path, params: dict, files, wall_s: float) -> Path:
    lines = [f"tool = nltraffic {__version__}"]
    for key in sorted(params):
        lines.append(f"{key} = {params[key]}")
    lines.append(f"wall_time_s = {wall_s:.3f}")
    lines.append("")
    for f in files:
        lines.append(f"{f.name}  sha256={_sha256(f)}  bytes={f.stat().st_size}")
    return _write_lines(out_dir / "manifest.txt", lines)


def _flat_params(run, extra: dict = None) -> dict:
    """Manifest parameters of a run dataclass; the output directory is not one of them."""
    params = {}
    for key, val in asdict(run).items():
        if key == "out":
            continue
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        params[key] = val
    params.update(extra or {})
    return params


# --- run entry points --------------------------------------------------------


def run_simulate(run: RunConfig) -> list:
    """Solve one configuration and write a snapshot CSV per output time."""
    t0 = time.perf_counter()
    cfg = build_solver_config(run)
    _refuse_shared_names(sorted({0.0, *cfg.output_times, cfg.t_final}), "snapshot times")
    local = cfg.scheme == "godunov-local"
    record = solve_local(cfg) if local else solve_nonlocal(cfg)
    out_dir = Path(run.out or "out")
    files = _write_snapshots(out_dir, record)
    extra = {
        "n_cells": cfg.grid.n_cells,
        "lookahead_cells": 0 if local else cfg.lookahead_cells,
        "steps": record.info.get("steps"),
    }
    _write_manifest(out_dir, _flat_params(run, extra), files, time.perf_counter() - t0)
    return files


def run_characteristics(run: RunConfig, starts, t_end: float = None) -> list:
    """Solve one configuration, trace paths, and write one CSV per start."""
    t0 = time.perf_counter()
    cfg = build_solver_config(run)
    _refuse_shared_names([float(y) for y in starts], "starts")
    tracer = PathTracer(cfg, starts, t_end)
    solve_nonlocal(cfg, observers=[tracer])
    out_dir = Path(run.out or "out")
    files = []
    for p in tracer.paths():
        name = f"char_y{p.start:g}_eps{cfg.epsilon:g}.csv"
        files.append(_write_lines(out_dir / name, _path_lines(p)))
    extra = {
        "starts": ",".join(str(float(s)) for s in starts),
        "n_cells": cfg.grid.n_cells,
        "t_end": t_end,
    }
    _write_manifest(out_dir, _flat_params(run, extra), files, time.perf_counter() - t0)
    return files


@dataclass(frozen=True)
class SweepSpec:
    """Lookahead sweep: one upwind solve per j, analysed at each tau.

    Each j marches the stock datum on ``DEFAULT_DOMAIN`` in steps of 0.9
    cells, on a grid that refines with j so that every block entering
    the analytic bounds is resolved: with blocks k_min(j)..k_max(j) selected,
    dx = 4^-(k_max+1) makes the narrowest selected gap exactly one cell wide.
    The marcher is always upwind, the one whose jam the reconstruction of
    :func:`~nltraffic.analysis.reconstruct_tv_from_characteristics` reads.
    """

    taus: tuple = (0.2,)
    js: tuple = (2, 3, 4, 5, 6)

    def __post_init__(self):
        taus = tuple(sorted(float(t) for t in self.taus))
        for tau in taus:
            _check_tau(tau)
        if not taus:
            raise ConfigurationError("sweep needs at least one tau")
        if taus[-1] == 0.0:
            raise ConfigurationError("sweep needs a positive tau to march to")
        if len(set(taus)) != len(taus):
            raise ConfigurationError("tau values must be distinct")
        for j in self.js:
            _check_nonnegative_integer(j, "j")
        js = tuple(int(j) for j in self.js)
        if not js:
            raise ConfigurationError("sweep needs at least one j")
        if len(set(js)) != len(js):
            raise ConfigurationError("j values must be distinct")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "js", tuple(sorted(js)))


def sweep_resolution(j: int):
    """Block range and cell size used for lookahead index j.

    Blocks narrower than the lookahead distance start at k_min = ceil(j/2);
    up to three of them are kept (fewer for small j, where fewer exist), and
    the grid is refined until the last kept gap spans a full cell.  Keeping
    the count bounded keeps the sweep grids small: j = 7 has 40,960 cells
    and j = 9 has 163,840.
    """
    k_min = _first_confined_block(2.0 ** -j)
    k_max = k_min + max(0, min(j - 2, 2))
    dx = 2.0 ** (-2 * (k_max + 1))
    return k_min, k_max, dx


def run_sweep(spec: SweepSpec, out: str = None):
    """Run the blow-up trend experiment; returns (rows, failures).

    Each j gets one solve of the stock datum, truncated for the grid of
    ``sweep_resolution(j)``, carried to max(tau) with snapshots at every tau;
    each (tau, j) row combines the analytic bounds with the measured grid
    total variation and the characteristic reconstruction, which carries the
    growth law on the solve's clock, so the march has no observer and no
    field history is stored.  Every row's bounds and every j's configuration
    are made before the first solve, so a row the bounds refuse fails the
    sweep at once, not after the marches before it.  A failed solve marks
    its rows with NaN measurements and is reported, not raised.
    """
    t0 = time.perf_counter()
    rows = []
    failures = []
    t_final = max(spec.taus)
    plan = []
    for j in spec.js:
        _, _, dx = sweep_resolution(j)
        cfg = build_solver_config(RunConfig(
            dx=dx,
            dyadic_j=j,
            t_final=t_final,
            output_times=tuple(t for t in spec.taus if t > 0.0),
        ))
        plan.append((j, cfg, [evaluate_bounds(tau, j=j) for tau in spec.taus]))
    for j, cfg, bases in plan:
        try:
            record = solve_nonlocal(cfg)
        except SolverError as exc:
            failures.append(f"j={j}: {exc}")
            rows.extend(replace(base, measured_tv=math.nan, reconstructed_tv=math.nan)
                        for base in bases)
            continue
        for base in bases:
            rows.append(
                replace(
                    base,
                    measured_tv=total_variation(record.snapshot(base.tau)),
                    reconstructed_tv=reconstruct_tv_from_characteristics(record, base.tau).total,
                )
            )
    rows.sort(key=lambda r: (r.j, r.tau))
    if out is not None:
        out_dir = Path(out)
        csv = _write_lines(out_dir / "sweep.csv", _bound_rows_lines(rows))
        _write_manifest(out_dir, _flat_params(spec, {"failures": len(failures)}), [csv],
                        time.perf_counter() - t0)
    return rows, failures


def write_bounds(rows, out: str) -> list:
    """Write analytic bound rows as bounds.csv plus a manifest; returns paths."""
    t0 = time.perf_counter()
    out_dir = Path(out)
    csv = _write_lines(out_dir / "bounds.csv", _bound_rows_lines(rows))
    params = {
        "taus": ",".join(str(r.tau) for r in rows),
        "epsilons": ",".join(str(r.epsilon) for r in rows),
        "js": ",".join(str(r.j) for r in rows),
        "rows": len(rows),
    }
    _write_manifest(out_dir, params, [csv], time.perf_counter() - t0)
    return [csv]


@dataclass(frozen=True)
class MechanismReport:
    """Numbers behind the variation-growth mechanism on the platoon datum."""

    h: float
    epsilon: float
    tau: float
    dx: float
    tv_initial: float
    tv_final: float
    vacuum_max: float
    plateau_max: float
    slope_estimate: float
    slope_expected: float

    @property
    def slope_rel_error(self) -> float:
        return abs(self.slope_estimate - self.slope_expected) / self.slope_expected

    @property
    def ok(self) -> bool:
        return (
            self.tv_final > self.tv_initial
            and self.vacuum_max <= _VACUUM_TOL
            and self.plateau_max <= 1e-12
            and self.slope_rel_error <= 0.10
        )

    def lines(self):
        yield f"platoon width h={self.h:g}, lookahead epsilon={self.epsilon:g}, horizon tau={self.tau:g}, dx={self.dx:g}"
        yield f"total variation: {self.tv_initial:g} initially -> {self.tv_final:.6g} at tau ({'grew' if self.tv_final > self.tv_initial else 'did not grow'})"
        yield f"vacuum cells stayed below {self.vacuum_max:.3e} (tol {_VACUUM_TOL:g})"
        yield f"jam side stayed within {self.plateau_max:.3e} of 1"
        yield (
            f"platoon growth rate {self.slope_estimate:.6g} vs 1/(4 epsilon) = "
            f"{self.slope_expected:.6g} ({100 * self.slope_rel_error:.2f}% off)"
        )
        yield "verdict: " + ("PASS" if self.ok else "FAIL")


def run_mechanism_demo(
    h: float = 0.1, epsilon: float = 0.4, tau: float = 0.05, out: str = None
) -> MechanismReport:
    """Quantify how a half-density platoon steepens against a jam.

    Requires ``epsilon > h`` so the whole platoon sees the jam through the
    lookahead window from the start; that is the regime where the growth
    rate at the platoon value 1/2 equals 1/(4 epsilon).  It also requires
    ``tau < epsilon ln 4``, the time at which the platoon's front
    -(h/2) exp(-tau/epsilon) enters the vacuum window [-h/8, 0).  The cell size is
    epsilon / ceil(32 epsilon / h): a whole number of cells per lookahead,
    and at most h/32, so the vacuum window [-h/8, 0) holds cell centres.
    """
    build_bar_u(h)  # refuses a width that is not positive and finite; dx divides by it
    _check_positive(epsilon, "epsilon")
    if not epsilon > h:
        raise ConfigurationError(
            f"the demo needs epsilon > h (platoon inside one lookahead), got "
            f"epsilon={epsilon}, h={h}"
        )
    _check_positive(tau, "tau")
    if not tau < epsilon * math.log(4.0):
        raise ConfigurationError(
            f"the demo needs tau < epsilon ln 4 = {epsilon * math.log(4):g}, when the "
            f"platoon enters the vacuum window [-h/8, 0); got tau={tau}")
    t0 = time.perf_counter()
    dx = epsilon / math.ceil(32.0 * epsilon / h)
    n_left = math.ceil(max(1.0, 4.0 * h) / dx)
    n_right = math.ceil(max(1.0, epsilon + 0.25) / dx)
    t_probe = tau / 5.0
    cfg = build_solver_config(RunConfig(
        datum=f"bar_u:{float(h)!r}", domain=(-n_left * dx, n_right * dx), dx=dx,
        epsilon=epsilon, t_final=tau, output_times=(t_probe,)))
    centers = cfg.grid.centers
    vacuum_sel = (centers >= -h / 8.0) & (centers < 0.0)

    tracer = PathTracer(cfg, [-0.75 * h], t_end=t_probe)
    record = solve_nonlocal(cfg, observers=[tracer])

    vacuum = _worst_over_snapshots(
        "vacuum", _VACUUM_TOL, record, lambda u: np.abs(u[vacuum_sel]), centers[vacuum_sel]
    )

    (probe,) = tracer.paths()
    probed = record.snapshots[t_probe][cfg.grid.cell_of(probe.positions[-1])]
    slope = (probed - probe.transported[0]) / t_probe

    report = MechanismReport(
        h=h,
        epsilon=epsilon,
        tau=tau,
        dx=dx,
        tv_initial=total_variation(cfg.datum),
        tv_final=total_variation(record.snapshot(tau)),
        vacuum_max=vacuum.worst,
        plateau_max=check_plateau(record).worst,
        slope_estimate=float(slope),
        slope_expected=1.0 / (4.0 * epsilon),
    )
    if out is not None:
        out_dir = Path(out)
        files = _write_snapshots(out_dir, record)
        params = {"h": h, "epsilon": epsilon, "tau": tau, "dx": dx, "verdict": report.ok}
        _write_manifest(out_dir, params, files, time.perf_counter() - t0)
    return report


# --- canned verification suites ----------------------------------------------


def _suite_max_principle():
    cfg = build_solver_config(RunConfig(dx=2.0 ** -8, dyadic_j=3, t_final=0.3,
                                        output_times=(0.1, 0.2)))
    record = solve_nonlocal(cfg)
    return [check_max_principle(record)]


def _suite_monotonicity():
    reports = []
    for scheme in ("upwind", "lax-friedrichs"):
        cfg = build_solver_config(RunConfig(datum="step", dx=2.0 ** -6, dyadic_j=3, t_final=0.5,
                                            output_times=(0.1, 0.25), scheme=scheme))
        report = check_monotonicity(solve_nonlocal(cfg))
        reports.append(replace(report, name=f"monotonicity-{scheme}"))
    return reports


def _suite_plateau():
    cfg = build_solver_config(RunConfig(dx=2.0 ** -8, dyadic_j=4, t_final=0.5,
                                        output_times=(0.25,)))
    record = solve_nonlocal(cfg)
    return [check_plateau(record)]


def _suite_characteristics():
    cfg = build_solver_config(RunConfig(dx=2.0 ** -8, dyadic_j=4, t_final=0.3))
    eps = cfg.epsilon
    tracer = PathTracer(cfg, np.concatenate(
        ([0.0], np.linspace(-eps, 0.0, 20), np.linspace(-1.2, -0.01, 20))))
    solve_nonlocal(cfg, observers=[tracer])
    paths = tracer.paths()
    origin, confined, ordered = paths[0], paths[1:21], paths[21:]
    reports = []

    reports.append(
        VerifyReport("origin-pinned", float(np.max(np.abs(origin.positions))), 1e-6)
    )

    worst = 0.0
    where = ""
    for p in confined:
        high = float(np.max(p.positions))
        low = float(np.max(p.start - p.positions))
        if max(high, low) > worst:
            worst = max(high, low)
            where = f"start {p.start:g}"
    reports.append(VerifyReport("confinement", worst, 1e-8, where))

    cross = 0.0
    for left, right in zip(ordered, ordered[1:]):
        cross = max(cross, float(np.max(left.positions - right.positions)))
    reports.append(VerifyReport("non-crossing", cross, 1e-8))
    return reports


def _suite_bounds():
    taus = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5)
    worst_chain = 0.0
    where = ""
    for j in range(2, 7):
        for tau in taus:
            report = evaluate_bounds(tau, j=j)
            gap = max(
                report.count_bound - report.series_bound,
                report.dyadic_bound - report.count_bound,
            )
            if gap > worst_chain:
                worst_chain = float(gap)
                where = f"tau={tau}, j={j}"
    reports = [VerifyReport("bound-chain", worst_chain, 0.0, where)]

    reports.append(
        VerifyReport("dyadic-count", float(abs(tv_lower_bound_dyadic(1.0, 4) - 22)), 0.0)
    )

    mismatches = 0
    spot = ""
    for k in range(25):
        for tau in [0.05 * i for i in range(20)]:
            for eps in [0.05 * i for i in range(1, 21)]:
                if term_threshold_check(k, tau, eps) != (k <= _count_upper_limit(tau / eps)):
                    mismatches += 1
                    spot = spot or f"k={k}, tau={tau}, eps={eps}"
    reports.append(VerifyReport("threshold-equivalence", float(mismatches), 0.0, spot))
    return reports


VERIFY_SUITES = {
    "max-principle": _suite_max_principle,
    "monotonicity": _suite_monotonicity,
    "plateau": _suite_plateau,
    "characteristics": _suite_characteristics,
    "bounds": _suite_bounds,
}


def run_verify(names=None) -> list:
    """Run named check suites on canned configurations, printing verdicts."""
    if not names:
        names = list(VERIFY_SUITES)
    unknown = [n for n in names if n not in VERIFY_SUITES]
    if unknown:
        raise ConfigurationError(
            f"unknown suite(s) {', '.join(unknown)}; available: {', '.join(VERIFY_SUITES)}"
        )
    reports = []
    for name in names:
        for report in VERIFY_SUITES[name]():
            print(report.summary())
            reports.append(report)
    return reports
