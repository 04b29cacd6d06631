#!/usr/bin/env python3
"""Show the truncation chain for one m: basis sizes, oracle dimensions, and
the nesting of index sets as the truncation level N grows from 1 to m (to
1 at m = 0, where that level is the full basis).

Exits 1 when a level fails verification or its index set does not contain
the one before, and, with a `!!` line, when the full (revlex) basis or the
top level's oracle total differs from 2^m; exits 0 otherwise.  A negative m
is a usage error (exit 2).

Usage: python3 scripts/truncation_chain.py [m]
"""

import argparse
import sys

from sl2weyl import RATIONALS, truncated_basis, truncated_quotient
from sl2weyl.basis_enum import revlex_basis
from sl2weyl.cli import _nonnegative_int


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("m", type=_nonnegative_int, nargs="?", default=5)
    args = ap.parse_args()
    m = args.m

    full = revlex_basis(m)
    prev: frozenset = frozenset()
    print(f"m={m}: full basis size {len(full)}  (2^m = {2**m})")
    if len(full) != 2**m:
        print(f"  !! full basis size differs from 2^m = {2**m}")
        return 1
    # at m = 0 the one level N = 1 is the full basis
    for n in range(1, max(m, 1) + 1):
        bs = truncated_basis(m, n)
        nested = prev <= bs.monomials
        rep = truncated_quotient(m, n, RATIONALS, m + 2)
        status = "ok" if rep.passed else "MISMATCH"
        print(
            f"  N={n}: basis {len(bs):>4}  oracle dims {rep.total_quotient_dim:>4}  "
            f"nested={nested}  verified={status}"
        )
        if not rep.passed or not nested:
            return 1
        if n >= m and rep.total_quotient_dim != 2**m:
            print(f"  !! N={n} oracle total differs from 2^m = {2**m}")
            return 1
        prev = bs.monomials
    return 0


if __name__ == "__main__":
    sys.exit(main())
