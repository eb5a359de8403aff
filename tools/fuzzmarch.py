#!/usr/bin/env python3
"""Compare the fast marches and the path tracer with their references on seeded random configurations.

    PYTHONPATH=src tools/fuzzmarch.py N [FIRST]

Runs seeds FIRST .. FIRST + N - 1 (FIRST defaults to 0) through the
generators the test suite runs on its fixed seeds:
``random_march_differences`` of ``tests/test_fv.py``, where each seed's
``solve_nonlocal`` snapshots and lookahead rows, and its ``solve_local``
snapshots, must equal the whole-grid marches byte for byte; and
``random_trace_differences`` of ``tests/test_characteristics.py``, where a
random batch of paths traced through the same configuration, on half the
seeds marched to a random earlier horizon instead, must equal the reference
tracer's byte for byte.  Prints every difference, then the seed
count, the difference count and the wall time; exits 1 on any difference.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

_TESTS = str(Path(__file__).resolve().parents[1] / "tests")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print("usage: tools/fuzzmarch.py N [FIRST]", file=sys.stderr)
        return 2
    count, first = int(args[0]), int(args[1]) if len(args) == 2 else 0
    if _TESTS not in sys.path:
        sys.path.insert(0, _TESTS)
    generators = (importlib.import_module("test_fv").random_march_differences,
                  importlib.import_module("test_characteristics").random_trace_differences)
    started = time.perf_counter()
    differences = 0
    for seed in range(first, first + count):
        for generator in generators:
            for line in generator(seed):
                print(line)
                differences += 1
    print(f"{count} seeds from {first}, {differences} differences, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
