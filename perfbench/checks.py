"""Expected answers for the benchmark's ops, computed without the program.

Everything here is written from the definitions, not from sl2weyl code, so a
fast path that breaks an answer cannot also break the check:

* the lex basis: exponent vectors whose top nonzero index s has prefix total
  a_0 + ... + a_s <= m - s; its per-slice counts are the quotient dimensions
  in every characteristic (and the quotient vanishes in degrees above m);
* divided-power products x^(a) x^(b) = prod_i C(a_i + b_i, a_i) x^(a + b);
* the CLI's text formats for monomials and reduction output.

The recorded answers (stdout digests, reduction tables) live in golden.json;
record_golden.py rewrites it from a trusted tree.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mono_key(a) -> str:
    return ",".join(map(str, a))


# ---------------------------------------------------------------------------
# monomials


def monomials(m: int, degree: int):
    """All exponent vectors of length m and the given degree."""
    for cut in itertools.combinations(range(degree + m - 1), m - 1):
        prev, out = -1, []
        for c in cut + (degree + m - 1,):
            out.append(c - prev - 1)
            prev = c
        yield tuple(out)


def degree(a) -> int:
    return sum(a)


def weight(a) -> int:
    return sum(i * e for i, e in enumerate(a))


def lex_basis(m: int) -> list[tuple]:
    out = []
    for d in range(m + 1):
        for a in monomials(m, d):
            nz = [i for i, e in enumerate(a) if e]
            if not nz or sum(a[: nz[-1] + 1]) <= m - nz[-1]:
                out.append(a)
    return out


def lex_slice_counts(m: int) -> dict[tuple[int, int], int]:
    """(degree, weight) -> lex-basis monomials in that slice; totals 2^m."""
    counts = Counter((degree(a), weight(a)) for a in lex_basis(m))
    if sum(counts.values()) != 2**m:
        raise AssertionError("lex basis reference does not have 2^m elements")
    return dict(counts)


def dp_product(a, b) -> tuple[int, tuple]:
    """x^(a) * x^(b) as (integer structure constant, exponent vector)."""
    c = 1
    for x, y in zip(a, b):
        c *= comb(x + y, x)
    return c, tuple(x + y for x, y in zip(a, b))


def ring_coeff(c, p: int):
    """Canonical coefficient: Fraction over Q, 0 <= c < p over F_p."""
    if p:
        c = Fraction(c)
        return c.numerator * pow(c.denominator, -1, p) % p
    return Fraction(c)


# ---------------------------------------------------------------------------
# CLI text


def format_monomial(a) -> str:
    bits = [f"x{i}" if e == 1 else f"x{i}^({e})" for i, e in enumerate(a) if e]
    return "*".join(bits) or "1"


def format_poly(terms: dict) -> str:
    """--poly text for a coefficient map (any order the parser accepts)."""
    out = []
    for a, c in sorted(terms.items()):
        mono = format_monomial(a)
        text = str(abs(c)) if mono == "1" else f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        out.append(text if not out and sign == "+" else f"{sign}{text}")
    return "".join(out) or "0"


def reduce_text(coords: dict) -> str:
    """`sl2weyl reduce` text stdout for a coordinate map."""
    lines = [f"{c}\t{format_monomial(a)}" for a, c in sorted(coords.items()) if c]
    return "\n".join(lines or ["0"]) + "\n"


def parse_keyvals(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def check_dim_text(text: str, m: int) -> str | None:
    """None when `sl2weyl dim` text gives 2^m and the lex count in every
    slice, else the reason it does not."""
    slices, total = {}, None
    for line in text.splitlines():
        if line.startswith("degree="):
            kv = dict(f.split("=") for f in line.split())
            slices[(int(kv["degree"]), int(kv["weight"]))] = int(kv["dim"])
        elif line.startswith("total="):
            total = int(line.split("=", 1)[1])
    if total != 2**m:
        return f"total {total} != 2^{m}"
    if slices != lex_slice_counts(m):
        return "slice dimensions differ from the lex-basis counts"
    return None


def check_verify_text(text: str, m: int) -> str | None:
    lines = text.splitlines()
    kv = parse_keyvals(text)
    if not lines or lines[-1] != "PASS":
        return "verification did not PASS"
    if not kv.get("total_quotient_dim") == kv.get("total_candidates") == str(2**m):
        return "quotient dimension and candidate count differ from 2^m"
    return None


def check_truncate_text(text: str) -> str | None:
    kv = parse_keyvals(text)
    if kv.get("passed") != "True":
        return "truncation did not pass"
    if kv.get("dims_total") != kv.get("basis_size"):
        return "dims_total differs from basis_size"
    return None


# ---------------------------------------------------------------------------
# reductions


class ReductionTable:
    """Coordinates of every monomial in a verified basis, as recorded in
    golden.json for monomials of degree <= m outside the basis.  Basis
    monomials map to themselves and monomials of degree > m to zero."""

    def __init__(self, m: int, p: int, basis, recorded: dict):
        self.m, self.p = m, p
        self.basis = set(basis)
        self.recorded = recorded

    def coords(self, a) -> dict:
        if a in self.basis:
            return {a: ring_coeff(1, self.p)}
        if degree(a) > self.m:
            return {}
        return {
            tuple(map(int, b.split(","))): ring_coeff(Fraction(c), self.p)
            for b, c in self.recorded[mono_key(a)]
        }

    def expected(self, terms: dict) -> dict:
        """Coordinates of sum c_a x^(a), by linearity."""
        out: dict = {}
        for a, c in terms.items():
            for b, v in self.coords(a).items():
                out[b] = out.get(b, 0) + ring_coeff(c, self.p) * v
        if self.p:
            out = {b: v % self.p for b, v in out.items()}
        return {b: v for b, v in out.items() if v}


def same_coords(got: dict, want: dict) -> bool:
    return {b: v for b, v in got.items() if v} == want
