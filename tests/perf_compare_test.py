#!/usr/bin/env python3
"""Unit check of scripts/perf_compare.py's verdict rule (registered via ctest).

Covers each verdict, the exception that resolves a wide spread when every
head run beats every base run, and the zero-base-median cases.

Usage: perf_compare_test.py <repo-root>
"""

import importlib.util
import pathlib
import sys


def load(root: pathlib.Path):
    spec = importlib.util.spec_from_file_location(
        "perf_compare", root / "scripts" / "perf_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    verdict = load(pathlib.Path(sys.argv[1])).verdict
    cases = [
        # (base, head, better, bound, expected)
        ([100, 101, 99, 100], [100, 102, 98, 101], "higher", 0.25, "same"),
        ([100, 101, 99, 100], [60, 61, 59, 60], "higher", 0.25, "worse"),
        ([100, 101, 99, 100], [140, 141, 139, 140], "higher", 0.25, "better"),
        ([100, 101, 99, 100], [60, 61, 59, 60], "lower", 0.25, "better"),
        ([100, 101, 99, 100], [140, 141, 139, 140], "lower", 0.25, "worse"),
        # spread wider than the bound: the runs cannot tell ...
        ([40, 100, 160, 100], [60, 100, 140, 100], "higher", 0.25, "unresolved"),
        # ... unless every head run beats every base run
        ([50, 60, 150, 40], [151, 400, 160, 152], "higher", 0.25, "better"),
        ([50, 60, 150, 40], [30, 10, 39, 20], "lower", 0.25, "better"),
        # a zero base median
        ([0, 0, 0, 0], [0, 0, 0, 0], "lower", 0.25, "same"),
        ([0, 0, 0, 0], [2, 3, 2, 2], "lower", 0.25, "worse"),
        ([0, 0, 0, 0], [2, 3, 2, 2], "higher", 0.25, "better"),
        ([0, 0, 1, 0], [0, 2, 0, 0], "lower", 0.25, "same"),
        ([0, 0, 5, 0], [0, 2, 3, 4], "lower", 0.25, "unresolved"),
    ]
    failed = 0
    for base, head, better, bound, expected in cases:
        got = verdict(base, head, better, bound)
        if got != expected:
            failed += 1
            print(f"verdict({base}, {head}, {better!r}, {bound}) = {got!r}, "
                  f"expected {expected!r}")
    print(f"{len(cases) - failed}/{len(cases)} verdict cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
