#!/usr/bin/env python3
"""Compare the fast marches with whole-grid marches on seeded random configurations.

    PYTHONPATH=src tools/fuzzmarch.py N [FIRST]

Runs seeds FIRST .. FIRST + N - 1 (FIRST defaults to 0) through
``random_march_differences`` of ``tests/test_fv.py``, the generator the
test suite runs on its fixed seeds: each seed's ``solve_nonlocal``
snapshots and lookahead rows, and its ``solve_local`` snapshots, must equal
the whole-grid marches byte for byte.  Prints every difference, then the
seed count, the difference count and the wall time; exits 1 on any
difference.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "test_fv", Path(__file__).resolve().parents[1] / "tests" / "test_fv.py"
)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print("usage: tools/fuzzmarch.py N [FIRST]", file=sys.stderr)
        return 2
    count, first = int(args[0]), int(args[1]) if len(args) == 2 else 0
    test_fv = importlib.util.module_from_spec(_SPEC)
    _SPEC.loader.exec_module(test_fv)
    started = time.perf_counter()
    differences = 0
    for seed in range(first, first + count):
        for line in test_fv.random_march_differences(seed):
            print(line)
            differences += 1
    print(f"{count} seeds from {first}, {differences} differences, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
