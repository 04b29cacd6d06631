"""Symmetric-function data over the rationals: Kostka numbers, the signed
multiplicities relating the forgotten and monomial bases, and normal forms in
the coinvariant algebra.

Kostka numbers come two ways: one pair at a time from the literal strip
loop (`kostka`), the reference, which peels a horizontal strip per content
part from every shape reached so far, and one content at a time as a row of
all shapes by the Pieri rule (`kostka_row`), which the Schur family reads.
Each reads one process-wide strip table, of removed strips
(`_horizontal_substrips`) or of added ones (`_added_horizontal_strips`),
so each strip set is enumerated once and every row keys on the table's
shape tuples.  Both tables build their shapes row by row, and the
sub-multisets behind the forgotten numbers (`_sub_partitions`) are built one
part value at a time, each position's range read off the constraints that
bound it; no enumerator recurses.

The coinvariant computations use the complete homogeneous polynomials
h_{m-r+1}(t_1, ..., t_r), 1 <= r <= m, which form a Groebner basis of the
ideal of positive-degree symmetric polynomials for the lexicographic order
with t_1 < t_2 < ... < t_m; the leading monomial of the r-th one is
t_r^(m-r+1).  Everything is integral: the basis is monic, so division never
leaves the integers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial

from .partitions import Partition, dominates, enumerate_partitions


# ---------------------------------------------------------------------------
# transition numbers


def _kostka(lam: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Semistandard tableaux of shape lam and content `content`: one loop over
    the content from its last entry, in which every shape reached so far peels
    each horizontal strip of that entry's size; the empty shape's count."""
    counts = {lam: 1}
    for c in reversed(content):
        if c == 0:
            continue
        peeled = {}
        for shape, k in counts.items():
            for nu in _horizontal_substrips(shape, c):
                peeled[nu] = peeled.get(nu, 0) + k
        counts = peeled
    return counts.get((), 0)


@lru_cache(maxsize=None)
def _horizontal_substrips(lam: tuple[int, ...], size: int) -> tuple:
    """Shapes nu <= lam with lam/nu a horizontal strip of `size` cells, in
    decreasing lexicographic order, built row by row with lam_{i+1} <= nu_i <=
    lam_i: only the last row of a run of equal parts can shrink, and a partial
    strip that owes more than the lam_{i+1} cells below row i is dropped.
    Cached for the whole process by (lam, size), as `_kostka` peels the same
    strips again and again; read only."""
    partial, start = [((), size)], 0  # [(nu_0, ..., nu_i; cells still owed)]
    for i, (top, below) in enumerate(zip(lam, lam[1:] + (0,))):
        if top > below:
            run, start = lam[start:i], i + 1
            partial = [
                (nu + run + (nu_i,), left - top + nu_i)
                for nu, left in partial
                for nu_i in range(top, max(below, top - left) - 1, -1)
                if left - top + nu_i <= below
            ]
    return tuple(tuple(x for x in nu if x) for nu, left in partial if not left)


def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard Young tableaux of shape lam and content mu:
    0 unless lam dominates mu (partitions of one size), else the strip loop
    `_kostka`."""
    if not dominates(lam, mu):
        return 0
    return _kostka(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def kostka_row(content: tuple[int, ...], cap: int) -> dict:
    """{lam: K_{lam,content}} over the shapes lam with lam_1 <= cap whose
    Kostka number is nonzero, for `content` a descending tuple of positive
    parts, such as the mu of a slice, which is not padded to its degree.
    Pieri rule: each shape in the row of content[:-1] gains every horizontal
    strip of content[-1] cells that keeps it within cap columns; strips only
    widen a shape, so the cap loses no term.  The strips come from the shared
    strip table, and the row's keys are the table's shape tuples.  Cached for
    the whole process by (content, cap), so every degree, slice and ring
    reads one row per content; read only."""
    if not content:
        return {(): 1}
    row = {}
    size = content[-1]
    for nu, k in kostka_row(content[:-1], cap).items():
        for lam in _added_horizontal_strips(nu, size, cap):
            row[lam] = row.get(lam, 0) + k
    return row


@lru_cache(maxsize=None)
def _added_horizontal_strips(nu: tuple[int, ...], size: int, cap: int) -> tuple:
    """Shapes lam >= nu with lam/nu a horizontal strip of `size` cells and
    lam_1 <= cap, in increasing lexicographic order, built row by row with
    nu_i <= lam_i <= nu_{i-1} (lam_0 <= cap) and one new row of at most
    nu_last cells: only the first row of a run of equal parts can grow, so
    each run is appended whole, and a partial strip that owes more cells
    than the rows below can take (nu_i, below a run of parts nu_i) is
    dropped.  Cached for the whole process by
    (nu, size, cap): the Kostka rows of every content repeat most strip sets,
    and share the returned shape tuples; read only."""
    partial, above = [((), size)], cap  # [(lam_0, ..., lam_i; cells still owed)]
    for part, run in itertools.groupby(nu + (0,)):
        rest = tuple(run)[1:]  # the run's rows after its first, which cannot grow
        partial = [
            (lam + (part + a,) + rest, left - a)
            for lam, left in partial
            for a in range(max(0, left - part), min(above - part, left) + 1)
        ]
        above = part
    return tuple(lam if lam[-1] else lam[:-1] for lam, left in partial)


def _multiset_weight(eta: tuple[int, ...]) -> int:
    """l(eta)! / prod_j m_j(eta)! -- the number of orderings of the parts."""
    w = factorial(len(eta))
    for v in set(eta):
        w //= factorial(eta.count(v))
    return w


def _sub_partitions(counts: dict[int, int], target: int) -> list[dict[int, int]]:
    """Distinct sub-multisets of the given part multiset summing to target,
    as dicts value -> chosen count, built one part value at a time from the
    largest down, each taking from the most copies that fit down to none."""
    partial = [({}, target)]  # [(chosen so far, still to reach)]
    for v in sorted(counts, reverse=True):
        partial = [
            ({**chosen, v: c} if c else chosen, left - c * v)
            for chosen, left in partial
            for c in range(min(counts[v], left // v), -1, -1)
        ]
    return [chosen for chosen, left in partial if not left]


def forgotten_coeff(lam: Partition, mu: Partition) -> int:
    """Signed multiplicity of the monomial basis element mu in the forgotten
    polynomial attached to lam:

        (-1)^(|mu| - l(lam)) * sum over sequences (eta^1, ..., eta^l(mu))
        with eta^i a partition of mu_i whose disjoint union is lam, of
        prod_i l(eta^i)! / prod_j m_j(eta^i)!

    The sum runs over the positive parts of mu alone: a zero part, as in the
    mu of a monomial x^(mu) padded to k parts, would take the empty eta^i
    and a factor 1.  Returns 0 when no sequence exists (in particular when
    |lam| != |mu|).
    """
    if lam.size != mu.size:
        return 0
    # {lam's parts still to place, as (value, count) pairs: weighted count}
    states = {tuple(Counter(lam.parts).items()): 1}
    for part in mu.parts:
        placed = {}
        for left, total in states.items():
            for chosen in _sub_partitions(dict(left), part):
                eta = tuple(v for v, c in chosen.items() for _ in range(c))
                rest = tuple((v, c - chosen.get(v, 0)) for v, c in left
                             if c > chosen.get(v, 0))
                placed[rest] = placed.get(rest, 0) + _multiset_weight(eta) * total
        states = placed
    sign = -1 if (mu.size - lam.length) % 2 else 1
    return sign * states.get((), 0)


# ---------------------------------------------------------------------------
# polynomials in t_1..t_r


class OPoly:
    """Sparse polynomial in t_1..t_r with exact integer coefficients."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict[tuple[int, ...], int] | None = None):
        self.r = r
        self.terms = {}
        for e, c in (terms or {}).items():
            if c:
                if len(e) != r:
                    raise ValueError("exponent length mismatch")
                self.terms[e] = c

    def is_zero(self) -> bool:
        return not self.terms

    def embed(self, r: int) -> "OPoly":
        if r < self.r:
            raise ValueError("cannot shrink variable count")
        pad = (0,) * (r - self.r)
        return OPoly(r, {e + pad: c for e, c in self.terms.items()})

    def __add__(self, other: "OPoly") -> "OPoly":
        if self.r != other.r:
            raise ValueError("variable count mismatch")
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return OPoly(self.r, t)

    def scale(self, c: int) -> "OPoly":
        return OPoly(self.r, {e: c * v for e, v in self.terms.items()})

    def __sub__(self, other: "OPoly") -> "OPoly":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, OPoly) and self.r == other.r and self.terms == other.terms

    def __hash__(self):
        return hash((self.r, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=_lex_key, reverse=True):
            mono = "*".join(
                f"t{i+1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            ) or "1"
            bits.append(f"{self.terms[e]}*{mono}")
        return " + ".join(bits)


def _lex_key(e: tuple[int, ...]) -> tuple[int, ...]:
    # lex with t_1 < t_2 < ... : the highest variable is most significant
    return tuple(reversed(e))


def _distinct_perms(vec):
    seen = set()
    for p in itertools.permutations(vec):
        if p not in seen:
            seen.add(p)
            yield p


def mono_sym(lam: Partition, r: int) -> OPoly:
    """Monomial symmetric polynomial of lam in r variables."""
    if r < 1:
        raise ValueError("need at least one variable")
    if lam.length > r:
        return OPoly(r)
    vec = lam.parts + (0,) * (r - lam.length)
    return OPoly(r, {p: 1 for p in _distinct_perms(vec)})


def complete_h(k: int, r: int) -> OPoly:
    """Complete homogeneous symmetric polynomial of degree k in r variables."""
    if r < 1:
        raise ValueError("need at least one variable")
    terms = {}
    for bars in itertools.combinations(range(k + r - 1), r - 1):
        prev, e = -1, []
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(k + r - 2 - prev)
        terms[tuple(e)] = 1
    return OPoly(r, terms)


def schur_poly(lam: Partition, r: int) -> OPoly:
    """Schur polynomial in r variables: sum of K_{lam,mu} M_mu over mu
    dominated by lam (terms with more than r parts vanish)."""
    if lam.length > r:
        raise ValueError("shape longer than the variable count")
    if lam.size == 0:
        return OPoly(r, {(0,) * r: 1})
    out = OPoly(r)
    for mu in enumerate_partitions(lam.size, lam.largest, r):
        if dominates(lam, mu):
            out = out + mono_sym(mu, r).scale(kostka(lam, mu))
    return out


# ---------------------------------------------------------------------------
# coinvariant algebra


@lru_cache(maxsize=None)
def _coinvariant_basis(m: int):
    """[(r, lead exponent, h_{m-r+1}(t_1..t_r) embedded in m vars)]."""
    out = []
    for r in range(1, m + 1):
        h = complete_h(m - r + 1, r).embed(m)
        lead = max(h.terms, key=_lex_key)
        out.append((lead, h))
    return tuple(out)


def coinvariant_reduce(f: OPoly, m: int) -> OPoly:
    """Normal form of f modulo {h_{m-r+1}(t_1..t_r)} under lex, t_1 < ... < t_m.

    The result has no term divisible by any t_r^(m-r+1); it is zero exactly
    when f lies in the coinvariant ideal (the basis is a Groebner basis).
    """
    if f.r > m:
        raise ValueError("f uses more variables than the coinvariant algebra")
    work = dict(f.embed(m).terms)
    basis = _coinvariant_basis(m)
    while True:
        cand = None
        for e in work:
            for lead, h in basis:
                if all(e[i] >= lead[i] for i in range(m)):
                    if cand is None or _lex_key(e) > _lex_key(cand[0]):
                        cand = (e, lead, h)
                    break
        if cand is None:
            break
        e, lead, h = cand
        c = work[e]
        shift = tuple(e[i] - lead[i] for i in range(m))
        for he, hc in h.terms.items():
            key = tuple(shift[i] + he[i] for i in range(m))
            nv = work.get(key, 0) - c * hc
            if nv:
                work[key] = nv
            else:
                work.pop(key, None)
    return OPoly(m, work)


def schur_nonvanishing(lam: Partition, k: int, m: int) -> bool:
    """Whether the Schur polynomial of lam in k variables survives in the
    m-variable coinvariant algebra.  Under the stated hypotheses
    (lam_1 <= m-k and l(lam) <= k <= m) the answer is always True."""
    if not (lam.length <= k <= m):
        raise ValueError(f"need l(lam) <= k <= m, got l={lam.length}, k={k}, m={m}")
    if lam.largest > m - k:
        raise ValueError(f"need lam_1 <= m-k, got {lam.largest} > {m - k}")
    if k == 0:
        poly = OPoly(m, {(0,) * m: 1})  # the empty product
    else:
        poly = schur_poly(lam, k)
    return not coinvariant_reduce(poly, m).is_zero()
