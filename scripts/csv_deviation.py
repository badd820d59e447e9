#!/usr/bin/env python3
"""Report how far two sweep CSVs differ, column by column.

Usage: python scripts/csv_deviation.py A.csv B.csv

Both files must have the same header and row count.  For each column it
prints the largest |a - b| over the rows ("-" for a column whose cells are
not all numbers, such as ``channel``) and the number of rows whose text
differs.  It exits 0 after a report and 2 when the files do not line up.
"""

import argparse
import sys


def read_columns(path: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """Header and columns of a CSV written by ``ghzdyn`` (no quoting, bare newlines).

    Raises ValueError for an empty file or a row whose field count is not the header's.
    """
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    if not rows:
        raise ValueError(f"{path}: empty file, no header")
    for lineno, row in enumerate(rows[1:], 2):
        if len(row) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: {len(row)} fields, the header has {len(rows[0])}")
    return rows[0], list(zip(*rows[1:]))


def column_deviation(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[float | None, int]:
    """Largest |a - b| (None unless every cell is a number) and the count of changed cells."""
    changed = sum(x != y for x, y in zip(a, b))
    try:
        pairs = [(float(x), float(y)) for x, y in zip(a, b)]
    except ValueError:
        return None, changed
    return max((abs(x - y) for x, y in pairs), default=0.0), changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Per-column deviation between two sweep CSVs.")
    parser.add_argument("a", help="first CSV (for example the golden file)")
    parser.add_argument("b", help="second CSV")
    args = parser.parse_args(argv)

    try:
        header_a, columns_a = read_columns(args.a)
        header_b, columns_b = read_columns(args.b)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if header_a != header_b:
        print(f"headers differ: {header_a} vs {header_b}", file=sys.stderr)
        return 2
    rows_a = len(columns_a[0]) if columns_a else 0
    rows_b = len(columns_b[0]) if columns_b else 0
    if rows_a != rows_b:
        print(f"row counts differ: {rows_a} vs {rows_b}", file=sys.stderr)
        return 2

    width = max(len(name) for name in header_a)
    print(f"{'column':<{width}}  {'max |a - b|':>12}  changed rows of {rows_a}")
    for name, a, b in zip(header_a, columns_a, columns_b):
        worst, changed = column_deviation(a, b)
        text = "-" if worst is None else f"{worst:.3e}"
        print(f"{name:<{width}}  {text:>12}  {changed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
