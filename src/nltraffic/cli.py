"""Command-line front end.

Exit codes follow one contract everywhere: 0 all good, 1 a computation ran
but a verification or a sweep row failed, 2 the configuration was invalid.
Every flag can also come from a ``key = value`` config file (dashes in key
names, one pair per line, ``#`` comments); explicit flags win over the file.
A key is typed as its flag is; a key that is no flag of the command, or
that names an option the file already set, is refused.  Only the options
that were given are handed on, so every default lives in the library.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import SolverError


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _domain(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"domain must be 'a,b', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _read_config(path: str) -> list:
    pairs = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                if not sep or not key.strip():
                    raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
                pairs.append((key.strip(), val.strip()))
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def _flag(parser: argparse.ArgumentParser, key: str) -> argparse.Action:
    """The command's own flag (or positional) that a config key names."""
    flag = "--" + key.replace("_", "-")
    for action in parser._actions:
        spelled = action.option_strings or ["--" + action.dest]
        if flag in spelled and action.dest not in ("help", "config"):
            return action
    raise ValueError(f"config key {key!r} does not apply to this command")


def _typed(action: argparse.Action, raw: str):
    """A config value converted as its flag converts it on the command line."""
    if action.nargs == "*":  # verify's suites
        return [v.strip() for v in raw.split(",")]
    return action.type(raw) if action.type else raw


def _settle(args: argparse.Namespace) -> dict:
    """The options that were given: by flag, else by config file."""
    given = dict(vars(args))
    for key in ("command", "handler", "parser"):
        del given[key]
    path = given.pop("config", None)
    if path:
        filed = set()
        for key, raw in _read_config(path):
            action = _flag(args.parser, key)
            if action.dest in filed:
                raise ValueError(f"config file {path} names option {key!r} twice")
            filed.add(action.dest)
            if action.dest not in given:
                given[action.dest] = _typed(action, raw)
    return given


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--epsilon", type=float, help="lookahead distance")
    p.add_argument("--dyadic-j", type=int, help="lookahead 2^-j")
    p.add_argument("--dx", type=float, help="cell size (default 4^-4)")
    p.add_argument("--domain", type=_domain, help="'a,b' (default -1.5,1.0)")
    p.add_argument("--t-final", type=float, help="horizon, where runs and paths end (default 0.5)")
    p.add_argument(
        "--tau", type=_floats, dest="output_times", metavar="TAU",
        help="comma list of times the march lands on: simulate writes a snapshot at each; "
        "characteristics writes none, but its path rows fall on them",
    )
    p.add_argument("--datum", help="blowup[:K] | bar_u:h | step | riemann:ul,ur | file:path")
    p.add_argument(
        "--scheme", choices=("upwind", "lax-friedrichs", "godunov-local"),
        help="marcher (default upwind); godunov-local solves the sharp-interaction "
        "limit, which has no lookahead, so only simulate runs it",
    )
    p.add_argument("--out", help="output directory (default ./out)")


def _cmd_simulate(given: dict) -> int:
    files = harness.run_simulate(harness.RunConfig(**given))
    print(f"wrote {len(files)} snapshot files and manifest.txt to {files[0].parent}")
    return 0


def _cmd_characteristics(given: dict) -> int:
    starts = given.pop("starts", None)
    if starts is None:
        raise ValueError("--start is required (comma list of launch points)")
    files = harness.run_characteristics(harness.RunConfig(**given), starts)
    print(f"wrote {len(files)} path files and manifest.txt to {files[0].parent}")
    return 0


def _cmd_sweep(given: dict) -> int:
    out = given.pop("out", None)
    rows, failures = harness.run_sweep(harness.SweepSpec(**given), out)
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


def _cmd_mechanism(given: dict) -> int:
    report = harness.run_mechanism_demo(**given)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_bounds(given: dict) -> int:
    taus = given.pop("taus", (0.2,))
    out = given.pop("out", None)
    rows = [harness.evaluate_bounds(tau, **given) for tau in sorted(taus)]
    for r in rows:
        dyadic = "-" if r.dyadic_bound is None else str(r.dyadic_bound)
        print(
            f"tau={r.tau:g} epsilon={r.epsilon:g}: series={r.series_bound:.6g} "
            f"count={r.count_bound} dyadic={dyadic}"
        )
    if out is not None:
        harness.write_bounds(rows, out)
    return 0


def _cmd_verify(given: dict) -> int:
    reports = harness.run_verify(given.get("suites"))
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nltraffic",
        description="Finite-volume and characteristic-line toolkit for a "
        "traffic model with downstream-averaged velocity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Unset flags stay out of the namespace, so the library's defaults apply.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="key = value file; explicit flags override it")

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name, help=help, parents=[common], argument_default=argparse.SUPPRESS
        )
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("simulate", _cmd_simulate, "run one configuration, write snapshot CSVs")
    _add_run_flags(p)

    p = command("characteristics", _cmd_characteristics, "run, then trace paths from given starts")
    _add_run_flags(p)
    p.add_argument(
        "--start", type=_floats, dest="starts", metavar="START",
        help="comma list of launch points",
    )

    p = command("sweep", _cmd_sweep, "variation-growth trend over lookahead indices j")
    p.add_argument(
        "--tau", type=_floats, dest="taus", metavar="TAU", help="snapshot times (default 0.2)"
    )
    p.add_argument(
        "--j", type=_ints, dest="js", metavar="J",
        help="comma list of lookahead indices (default 2..6)",
    )
    p.add_argument("--out", help="write sweep.csv and manifest here")

    p = command("mechanism", _cmd_mechanism, "platoon-against-jam growth demo")
    p.add_argument(
        "--h", type=float,
        help="platoon width (default 0.1); cells are epsilon/ceil(32 epsilon/h) wide",
    )
    p.add_argument("--epsilon", type=float, help="lookahead distance (default 0.4)")
    p.add_argument("--tau", type=float, help="horizon (default 0.05)")
    p.add_argument("--out", help="write snapshot CSVs here")

    p = command("bounds", _cmd_bounds, "analytic lower bounds for given tau, epsilon")
    p.add_argument(
        "--tau", type=_floats, dest="taus", metavar="TAU", help="comma list (default 0.2)"
    )
    p.add_argument("--epsilon", type=float)
    p.add_argument("--dyadic-j", type=int, dest="j", metavar="DYADIC_J")
    p.add_argument("--out", help="write bounds.csv and manifest here")

    p = command("verify", _cmd_verify, "run property-check suites")
    p.add_argument(
        "suites",
        nargs="*",
        help=f"any of: {', '.join(harness.VERIFY_SUITES)} (default all)",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(_settle(args))
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # includes ConfigurationError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
