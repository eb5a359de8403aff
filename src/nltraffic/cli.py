"""Command-line front end.

Exit codes follow one contract everywhere: 0 all good, 1 a computation ran
but a verification or a sweep row failed, 2 the configuration was invalid.
Every flag can also come from a ``key = value`` config file (dashes in key
names, one pair per line, ``#`` comments); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import ConvergenceError, SolverError


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _domain(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"domain must be 'a,b', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_COERCE = {
    "epsilon": float,
    "dyadic_j": int,
    "dx": float,
    "domain": _domain,
    "t_final": float,
    "tau": _floats,
    "datum": str,
    "scheme": str,
    "cfl": float,
    "out": str,
    "local": _bool,
    "start": _floats,
    "t_end": float,
    "j": _ints,
    "h": float,
    "suites": lambda s: [v.strip() for v in s.split(",")],
}


def _read_config(path: str) -> dict:
    pairs = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                if not sep or not key.strip():
                    raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
                pairs[key.strip()] = val.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def _settle(args: argparse.Namespace) -> dict:
    """Flags first, then config-file values, for every option left unset."""
    ns = dict(vars(args))
    path = ns.pop("config", None)
    if path:
        for key, raw in _read_config(path).items():
            dest = key.replace("-", "_")
            if dest not in ns:
                raise ValueError(f"config key {key!r} does not apply to this command")
            # an absent positional list (verify's suites) parses as [], not None
            if ns[dest] is None or ns[dest] == []:
                ns[dest] = _COERCE[dest](raw)
    return ns


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value file; explicit flags override it")
    p.add_argument("--epsilon", type=float, help="lookahead distance")
    p.add_argument("--dyadic-j", type=int, dest="dyadic_j", help="lookahead 2^-j")
    p.add_argument("--dx", type=float, help="cell size (default 4^-4)")
    p.add_argument("--domain", type=_domain, help="'a,b' (default -1.5,1.0)")
    p.add_argument("--t-final", type=float, dest="t_final", help="horizon (default 0.5)")
    p.add_argument("--tau", type=_floats, help="comma list of snapshot times")
    p.add_argument("--datum", help="blowup[:K] | bar_u:h | step | riemann:ul,ur | file:path")
    p.add_argument("--scheme", choices=("upwind", "lax-friedrichs"))
    p.add_argument("--cfl", type=float, help="CFL number in (0, 1] (default 0.9)")
    p.add_argument("--out", help="output directory (default ./out)")
    p.add_argument(
        "--local",
        action="store_const",
        const=True,
        help="solve the sharp-interaction limit instead (Godunov)",
    )


def _run_config(ns: dict) -> harness.RunConfig:
    return harness.RunConfig(
        datum=ns["datum"] if ns["datum"] is not None else "blowup",
        domain=ns["domain"] if ns["domain"] is not None else harness.DEFAULT_DOMAIN,
        dx=ns["dx"] if ns["dx"] is not None else 4.0 ** -4,
        epsilon=ns["epsilon"],
        dyadic_j=ns["dyadic_j"],
        t_final=ns["t_final"] if ns["t_final"] is not None else 0.5,
        output_times=ns["tau"] if ns["tau"] is not None else (),
        scheme=ns["scheme"] if ns["scheme"] is not None else "upwind",
        cfl=ns["cfl"] if ns["cfl"] is not None else 0.9,
        local=bool(ns["local"]),
        out=ns["out"],
    )


def _cmd_simulate(ns: dict) -> int:
    files = harness.run_simulate(_run_config(ns))
    print(f"wrote {len(files)} snapshot files and manifest.txt to {files[0].parent}")
    return 0


def _cmd_characteristics(ns: dict) -> int:
    if ns["start"] is None:
        raise ValueError("--start is required (comma list of launch points)")
    files = harness.run_characteristics(_run_config(ns), ns["start"], ns["t_end"])
    print(f"wrote {len(files)} path files and manifest.txt to {files[0].parent}")
    return 0


def _cmd_sweep(ns: dict) -> int:
    spec = harness.SweepSpec(
        taus=ns["tau"] if ns["tau"] is not None else (0.2,),
        js=ns["j"] if ns["j"] is not None else (2, 3, 4, 5, 6),
        scheme=ns["scheme"] if ns["scheme"] is not None else "upwind",
        domain=ns["domain"] if ns["domain"] is not None else harness.DEFAULT_DOMAIN,
        cfl=ns["cfl"] if ns["cfl"] is not None else 0.9,
    )
    rows, failures = harness.run_sweep(spec, ns["out"])
    print("  j    tau   epsilon      series  count  dyadic  measured_tv  reconstructed_tv")
    for r in rows:
        print(
            f"{r.j:3d}  {r.tau:5g}  {r.epsilon:8g}  {r.series_bound:10.4f}  "
            f"{r.count_bound:5d}  {r.dyadic_bound:6d}  {r.measured_tv:11.4f}  "
            f"{r.reconstructed_tv:16.4f}"
        )
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_mechanism(ns: dict) -> int:
    tau = ns["tau"]
    if isinstance(tau, tuple):  # config files spell tau as a comma list
        if len(tau) != 1:
            raise ValueError(f"mechanism takes a single tau, got {len(tau)}")
        (tau,) = tau
    report = harness.run_mechanism_demo(
        h=ns["h"] if ns["h"] is not None else 0.1,
        epsilon=ns["epsilon"] if ns["epsilon"] is not None else 0.4,
        tau=tau if tau is not None else 0.05,
        dx=ns["dx"],
        out=ns["out"],
    )
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_bounds(ns: dict) -> int:
    taus = ns["tau"] if ns["tau"] is not None else (0.2,)
    rows = [
        harness.evaluate_bounds(tau, epsilon=ns["epsilon"], j=ns["dyadic_j"])
        for tau in sorted(taus)
    ]
    for r in rows:
        dyadic = "-" if r.dyadic_bound is None else str(r.dyadic_bound)
        print(
            f"tau={r.tau:g} epsilon={r.epsilon:g}: series={r.series_bound:.6g} "
            f"count={r.count_bound} dyadic={dyadic}"
        )
    if ns["out"] is not None:
        harness.write_bounds(rows, ns["out"])
    return 0


def _cmd_verify(ns: dict) -> int:
    reports = harness.run_verify(ns["suites"] or None)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nltraffic",
        description="Finite-volume and characteristic-line toolkit for a "
        "traffic model with downstream-averaged velocity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration, write snapshot CSVs")
    _add_run_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("characteristics", help="run, then trace paths from given starts")
    _add_run_flags(p)
    p.add_argument("--start", type=_floats, help="comma list of launch points")
    p.add_argument("--t-end", type=float, dest="t_end", help="stop tracing early")
    p.set_defaults(handler=_cmd_characteristics)

    p = sub.add_parser("sweep", help="variation-growth trend over lookahead indices j")
    p.add_argument("--config", help="key = value file; explicit flags override it")
    p.add_argument("--tau", type=_floats, help="snapshot times (default 0.2)")
    p.add_argument("--j", type=_ints, help="comma list of lookahead indices (default 2..6)")
    p.add_argument("--scheme", choices=("upwind", "lax-friedrichs"))
    p.add_argument("--domain", type=_domain)
    p.add_argument("--cfl", type=float)
    p.add_argument("--out", help="write sweep.csv and manifest here")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("mechanism", help="platoon-against-jam growth demo")
    p.add_argument("--config", help="key = value file; explicit flags override it")
    p.add_argument("--h", type=float, help="platoon width (default 0.1)")
    p.add_argument("--epsilon", type=float, help="lookahead distance (default 0.4)")
    p.add_argument("--tau", type=float, help="horizon (default 0.05)")
    p.add_argument("--dx", type=float, help="cell size (default epsilon/ceil(32 epsilon/h))")
    p.add_argument("--out", help="write snapshot CSVs here")
    p.set_defaults(handler=_cmd_mechanism)

    p = sub.add_parser("bounds", help="analytic lower bounds for given tau, epsilon")
    p.add_argument("--config", help="key = value file; explicit flags override it")
    p.add_argument("--tau", type=_floats, help="comma list (default 0.2)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--dyadic-j", type=int, dest="dyadic_j")
    p.add_argument("--out", help="write bounds.csv and manifest here")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", help="run property-check suites")
    p.add_argument(
        "suites",
        nargs="*",
        help=f"any of: {', '.join(harness.VERIFY_SUITES)} (default all)",
    )
    p.add_argument("--config", help="key = value file; explicit flags override it")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ns = _settle(args)
        return ns.pop("handler")(ns)
    except (SolverError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # includes ConfigurationError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
