#!/usr/bin/env python3
"""Sweep the graded quotient dimensions over m and ground fields.

Prints, per m from 0 up: the total dimension in each characteristic, the
wall time, and the graded table (degree rows, weight columns) in the first
listed characteristic (the rationals by default).  Exits 1 unless the
totals agree and equal 2^m and every slice of degree m+1 or m+2 vanishes;
a negative max_m, or a `--chars` entry that is not 0 or a prime, is a
usage error (exit 2).

Usage: python3 scripts/dimension_sweep.py [max_m] [--chars 0,2,3,5]
"""

import argparse
import sys
import time

from sl2weyl import CoeffRing, OracleSession
from sl2weyl.cli import _nonnegative_int


def rings(text: str) -> list:
    """The comma-separated characteristics as rings, 0 meaning the rationals."""
    try:
        return [CoeffRing(int(c)) for c in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("max_m", type=_nonnegative_int, nargs="?", default=5)
    ap.add_argument("--chars", type=rings, default="0,2,3,5")
    args = ap.parse_args()

    for m in range(args.max_m + 1):
        totals = {}
        tables = {}
        for ring in args.chars:
            t0 = time.monotonic()
            rep = OracleSession(m, ring, m + 2).dims()
            dt = time.monotonic() - t0
            totals[ring.char] = (rep.total, dt)
            tables[ring.char] = rep.dims
        line = "  ".join(
            f"char {c}: {tot} [{dt:.2f}s]" for c, (tot, dt) in totals.items()
        )
        print(f"m={m}  (2^m = {2**m})  {line}")
        if len({t for t, _ in totals.values()}) != 1:
            print("  !! totals disagree between characteristics")
            return 1
        if any(t != 2**m for t, _ in totals.values()):
            print(f"  !! totals differ from 2^m = {2**m}")
            return 1
        for c, dims in tables.items():
            high = sorted(k for k, q in dims.items() if k[0] > m and q)
            if high:
                print(f"  !! char {c}: slices above degree {m} do not vanish: {high}")
                return 1
        dims = tables[args.chars[0].char]
        max_w = max((w for (_, w), q in dims.items() if q), default=0)
        print("     weight:", " ".join(f"{w:>3}" for w in range(max_w + 1)))
        for d in range(m + 1):
            row = [dims.get((d, w), 0) for w in range(max_w + 1)]
            if any(row):
                print(f"  degree {d}:", " ".join(f"{q:>3}" for q in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
