#!/usr/bin/env python3
"""Compare two trees written by ``tools/canned.sh``.

    tools/cmpcanned.py A B

For every CSV the trees share, print ``identical`` or the largest absolute
and relative deviation over its numeric cells, with the row and column where
each occurs.  Every other file is text and must match line for line, except
``wall_time_s`` lines and, in ``manifest.txt``, the ``sha256=`` and ``bytes=``
fields of the file lines, which follow the CSVs.

Exit status 0 when the trees differ at most in numeric CSV cells, and 1 on
any structural difference, each of which is printed: a file in one tree
only, a different CSV header or row count, a differing non-numeric cell, or
a text difference outside the fields above.  Uses the standard library only.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path


def _number(cell: str):
    """The finite float a cell holds, or None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare_csv(a: Path, b: Path, name: str, problems: list) -> str:
    """One report line for a CSV pair; structural differences go to ``problems``."""
    rows_a = a.read_text().splitlines()
    rows_b = b.read_text().splitlines()
    if rows_a[:1] != rows_b[:1]:
        problems.append(f"{name}: header {rows_a[:1]} vs {rows_b[:1]}")
        return f"{name}: header differs"
    if len(rows_a) != len(rows_b):
        problems.append(f"{name}: {len(rows_a) - 1} vs {len(rows_b) - 1} rows")
        return f"{name}: row count differs"
    header = rows_a[0].split(",") if rows_a else []
    # below any deviation, so a cell that differs only in its text still shows
    worst_abs, worst_rel = (-1.0, None), (-1.0, None)
    for row, (line_a, line_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        if len(cells_a) != len(cells_b):
            problems.append(f"{name}: row {row} has {len(cells_a)} vs {len(cells_b)} cells")
            continue
        for col, (x, y) in enumerate(zip(cells_a, cells_b)):
            if x == y:
                continue
            u, v = _number(x), _number(y)
            if u is None or v is None:
                problems.append(f"{name}: row {row} column {col}: {x!r} vs {y!r}")
                continue
            where = (row, header[col] if col < len(header) else str(col))
            gap = abs(u - v)
            rel = gap / max(abs(u), abs(v)) if gap else 0.0
            if gap > worst_abs[0]:
                worst_abs = (gap, where)
            if rel > worst_rel[0]:
                worst_rel = (rel, where)
    if worst_abs[1] is None:
        return f"{name}: identical"
    (gap, (r1, c1)), (rel, (r2, c2)) = worst_abs, worst_rel
    return (f"{name}: max abs {gap:.3g} (row {r1}, {c1}), "
            f"max rel {rel:.3g} (row {r2}, {c2})")


def _text_lines(path: Path) -> list:
    """The lines of a text file that two agreeing trees must share."""
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("wall_time_s"):
            continue
        if path.name == "manifest.txt" and "  sha256=" in line:
            line = line.split("  sha256=")[0]
        lines.append(line)
    return lines


def compare_text(a: Path, b: Path, name: str, problems: list) -> None:
    lines_a, lines_b = _text_lines(a), _text_lines(b)
    if lines_a == lines_b:
        return
    only_a = [ln for ln in lines_a if ln not in lines_b]
    only_b = [ln for ln in lines_b if ln not in lines_a]
    if not only_a and not only_b:
        problems.append(f"{name}: the same lines in another order")
    for line in only_a:
        problems.append(f"{name}: only in A: {line}")
    for line in only_b:
        problems.append(f"{name}: only in B: {line}")


def compare_trees(a: Path, b: Path) -> tuple:
    """(report lines, structural differences) of two canned trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"{f}: only in A" for f in sorted(files_a - files_b)]
    problems += [f"{f}: only in B" for f in sorted(files_b - files_a)]
    report = []
    for rel in sorted(files_a & files_b):
        if rel.suffix == ".csv":
            report.append(compare_csv(a / rel, b / rel, str(rel), problems))
        else:
            compare_text(a / rel, b / rel, str(rel), problems)
    return report, problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print("usage: cmpcanned.py A B   (two trees written by tools/canned.sh)",
              file=sys.stderr)
        return 2
    report, problems = compare_trees(Path(args[0]), Path(args[1]))
    for line in report:
        print(line)
    for line in problems:
        print(f"STRUCTURE {line}")
    print(f"{len(report)} CSVs compared, {len(problems)} structural differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
