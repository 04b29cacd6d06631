"""Generators of the defining ideal of the graded local Weyl module inside
the divided-power algebra, and the two derived generating families.

The defining family comes from a generating series in auxiliary variables
u_1..u_s: one series term per partition eta with all parts <= s and
|eta| <= m-1 (the empty partition included), with integer coefficient
(-1)^l(eta) * l(eta)! / prod_i m_i(eta)!, carrying the algebra variable
x_{|eta|} and the u-monomial prod u_i^(m_i(eta)).  Grouped by variable
the series is sum_v P_v(u) x_v with P_0 = 1, so its k-th divided power is
the sum over j_0 + ... + j_{m-1} = k of prod_v P_v(u)^(j_v) x_v^(j_v): the
coefficient of u^t x^(mu), mu padded to k parts, is the integer
c(mu, t) = [u^t] prod_i P_{mu_i}(u), valid in every characteristic.  A
generator is the coefficient of a u-monomial u^a in the k'-th divided
power, retained whenever k' + a_1 + ... + a_s >= m + 1.

Two builders compute c, one per access pattern.  The engine pulls few
coefficients from large slices, so `slice_series` builds the generators of
one slice (degree k', weight sum i*a_i) lazily, one per partition with
multiplicities a as the ascending stream `partitions.iter_partitions`
yields them; its kernel `_product_coeff` reads and fills one table keyed
by (mu, t) that lives for the whole process, like the slice tables.  The
eager families need every coefficient of every slice, so
`_slice_table` builds a whole slice at once from the sparse u-products
prod_i P_{mu_i}(u), each the product of a shorter one kept in a memo for
one family build; `defining_generators` collects a box of slices that
way, and `forgotten_family` too, dropping every u-monomial of total degree
above m + 1, the largest l(lam) it keeps.  Both builders read the
monomials x^(mu) of a slice, and their mu, from the one cached table
`dpalgebra.slice_monomials` / `slice_partitions`.

Each such coefficient is, up to the sign (-1)^(weight), the "forgotten"
polynomial attached to the partition with multiplicities a, so the forgotten
element is that signed series coefficient.  The identity is checked against
the literal `symfunc.forgotten_coeff` rather than assumed anywhere.  The
Schur elements read their Kostka numbers from the process-wide row table
`symfunc.kostka_row`: one Pieri-built row {lam: K_{lam,mu}} per content mu
of the slice, capped at lam_1 <= m-1.  `schur_family` reads the rows of a
slice once and inverts them, so it visits only the nonzero numbers; the
literal `symfunc.kostka` stays the reference the tests compare them with.

Relations that a session adjoins to its family are a `GeneratorSet` too:
`truncation_relations` holds the variables x_N, ..., x_{m-1}.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from ._record import Record, _set
from .dpalgebra import (
    CoeffRing,
    DPoly,
    RATIONALS,
    column_index,
    mono_degree,
    mono_weight,
    slice_monomials,
    slice_partitions,
    unit_normalize,
)
from .partitions import Partition, dominates, enumerate_partitions, iter_partitions, transpose
from .symfunc import _multiset_weight, forgotten_coeff, kostka, kostka_row


class UnsupportedCharacteristicError(ValueError):
    """Raised when a family is only available in characteristic zero."""


class GeneratorEntry(Record):
    """A homogeneous generator with its bidegree, which the builder knows
    (power or k, and the weight or |lam|) and stores once, so sessions read
    it without scanning the polynomial."""

    # provenance: ("series", uexp, power, k) | ("schur"|"forgotten", lam, k)
    # | ("truncation", j)
    __slots__ = ("poly", "provenance", "degree", "weight")


class GeneratorSet(Record):
    """A generator family, or a session's relations, for one m and ring
    (`ring` is the one `CoeffRing` object of its characteristic), with the
    degree and weight bounds it covers; equal by its fields, not by its
    slice index or by `_rows`, a dict by slice that the sessions on the set
    fill (`quotient_oracle._kept`)."""

    # family: "defining" | "schur" | "forgotten" | "truncation"
    __slots__ = ("m", "ring", "family", "entries", "degree_bound", "weight_bound",
                 "_index", "_rows")

    def __init__(self, m, ring, family, entries, degree_bound, weight_bound):
        Record.__init__(self, m, ring, family, tuple(entries), degree_bound, weight_bound)
        _set(self, "_rows", {})

    def by_slice(self) -> dict:
        """The entries' polynomials grouped by (degree, weight), in entry
        order; built on the first call and kept for the sessions on this
        set, so read only.  Building it checks each entry once: a
        polynomial of another m or ring, or with a term outside the slice
        its entry declares, raises ValueError."""
        if self._index is None:
            index = {}
            for i, e in enumerate(self.entries):
                f, key = e.poly, (e.degree, e.weight)
                if f.m != self.m or f.ring is not self.ring or not _lies_in(f, key):
                    raise ValueError(
                        f"generator entry {i} {e.provenance} is not a polynomial of "
                        f"slice {key} for m = {self.m} over {self.ring}"
                    )
                index.setdefault(key, []).append(f)
            _set(self, "_index", index)
        return self._index


def _lies_in(f: DPoly, key: tuple) -> bool:
    """Whether every term of f has (degree, weight) = key: one term is
    tested, then every term is looked up in the slice's `column_index`,
    built only once a term of f is seen to lie in the slice."""
    if not f.terms:
        return True
    a = next(iter(f.terms))
    if (mono_degree(a), mono_weight(a)) != key:
        return False
    return f.terms.keys() <= column_index(f.m, *key).keys()


@lru_cache(maxsize=None)
def _series_terms(s: int, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The series terms carrying x_v, as (coefficient, u-exponents): one per
    eta |- v with parts <= s, coefficient (-1)^l(eta) l(eta)!/prod m_i(eta)!,
    u-exponents (m_1(eta), ..., m_s(eta)).  Summed, they are P_v(u)."""
    out = []
    for eta in enumerate_partitions(v, min(s, v), v):
        c = _multiset_weight(eta.parts)
        out.append((-c if eta.length % 2 else c, eta.multiplicities(s)))
    return tuple(out)


# c(mu, t) by (mu, t) for the whole process, filled only past the cheap zero
# tests of `_product_coeff`: caching the whole function would also store the
# zeros, which outnumber the values
_product_table: dict = {}


def _product_coeff(mu: tuple[int, ...], t: tuple[int, ...]) -> int:
    """c(mu, t) = [u^t] prod_i P_{mu_i}(u), with s = len(t) auxiliary
    variables: the signed ways to split the parts of the partition with
    multiplicities t into blocks eta^i |- mu_i.

    Peels the last (smallest) part of mu: each eta |- mu_l whose u-exponents
    fit under t leaves c(mu without mu_l, t - mult eta); small parts have
    few eta, so this branches least.  The value is 0 when l(mu) > sum(t)
    (every block takes a part), when t has a part larger than mu_1 or when
    its smallest part exceeds mu_l.  Other values are kept in
    `_product_table`.  The peeling runs on a stack, not by recursion: frames
    [mu, t, series terms left, sum so far, coefficient in the frame below]."""
    if not mu:
        return 0 if any(t) else 1
    if len(mu) > sum(t) or any(t[mu[0]:]) or not any(t[: mu[-1]]):
        return 0
    hit = _product_table.get((mu, t))
    if hit is not None:
        return hit
    stack = [[mu, t, iter(_series_terms(len(t), mu[-1])), 0, 0]]
    while True:
        frame = stack[-1]
        mu, t, terms = frame[0], frame[1], frame[2]
        rest = mu[:-1]
        for c, ue in terms:
            left = tuple(map(sub, t, ue))
            if min(left) < 0:
                continue
            # the tests above, for (rest, left)
            if not rest:
                hit = 0 if any(left) else 1
            elif len(rest) > sum(left) or any(left[rest[0]:]) or not any(left[: rest[-1]]):
                continue
            elif (hit := _product_table.get((rest, left))) is None:
                stack.append([rest, left, iter(_series_terms(len(left), rest[-1])), 0, c])
                break
            frame[3] += c * hit
        else:
            hit = _product_table[mu, t] = frame[3]
            stack.pop()
            if not stack:
                return hit
            stack[-1][3] += frame[4] * hit


def _series_power_coeff(k: int, uexp: tuple[int, ...], m: int):
    """Integral coefficient of u^uexp (s = len(uexp)) in the k-th divided
    power of the series, as (monomial, coefficient) pairs in ascending DPLEX
    order (the slice table read backwards): c(mu, uexp) at x^(mu) padded to
    k parts."""
    wt = sum((i + 1) * a for i, a in enumerate(uexp))
    pairs = []
    for mu, mono in zip(
        reversed(slice_partitions(m, k, wt)), reversed(slice_monomials(m, k, wt))
    ):
        c = _product_coeff(mu, uexp)
        if c:
            pairs.append((mono, c))
    return tuple(pairs)


def series_power_coefficient(k: int, uexp, m: int) -> DPoly:
    """Coefficient of u^uexp in the k-th divided power of the series, over
    the rationals, with s = len(uexp) auxiliary variables and variable
    indices capped at m-1."""
    uexp = tuple(uexp)
    if k < 0 or m < 1:
        raise ValueError("need k >= 0, m >= 1")
    if any(a < 0 for a in uexp):
        raise ValueError("u-exponents must be nonnegative")
    return DPoly(RATIONALS, m, dict(_series_power_coeff(k, uexp, m)))


def _series_exponents(m: int, d: int, w: int):
    """The u-exponents of the defining generators of slice (degree d, weight
    w): the multiplicities (m_1, ..., m_{m-1}) of each lam |- w with parts
    <= m-1 and l(lam) >= m+1-d, in increasing order of lam.parts."""
    if m < 1:
        return
    for lam in iter_partitions(w, m - 1, w):
        if len(lam) + d >= m + 1:
            yield tuple(map(lam.count, range(1, m)))


def _slice_table(m: int, k: int, w: int, cap: int, memo: dict) -> dict:
    """Every nonzero series coefficient of slice (k, w) with s = m-1 and
    sum(uexp) <= cap, in one pass: {uexp: pairs}, each pair list in
    ascending DPLEX order, as `_series_power_coeff(k, uexp, m)` returns it.

    The product prod_i P_{mu_i}(u) of each mu of the slice is a sparse map
    {t: c(mu, t)}: the product of mu without its last part times the terms
    of P_{mu_last}.  Every term of P_v, v >= 1, adds at least 1 to sum(t),
    so a product drops each t with sum(t) > cap.  `memo` keeps the
    products by mu across the slices of one family build, at one cap."""
    s = m - 1
    table = {}
    for mu, mono in zip(
        reversed(slice_partitions(m, k, w)), reversed(slice_monomials(m, k, w))
    ):
        prod = memo.get(mu)
        if prod is None:
            i = len(mu)
            while i and mu[:i] not in memo:
                i -= 1
            prod = memo[mu[:i]] if i else {(0,) * s: 1}
            for j in range(i, len(mu)):
                terms = _series_terms(s, mu[j])
                nxt = {}
                for t, c in prod.items():
                    room = cap - sum(t)
                    for e, ue in terms:
                        if sum(ue) <= room:
                            key = tuple(map(add, t, ue))
                            nxt[key] = nxt.get(key, 0) + c * e
                prod = memo[mu[: j + 1]] = {t: c for t, c in nxt.items() if c}
        for t, c in prod.items():
            table.setdefault(t, []).append((mono, c))
    return table


def slice_series(m: int, d: int, w: int):
    """Defining generators of slice (degree d, weight w), before dedup, built
    one at a time from the lazy kernel: (uexp, pairs) for each nonzero
    coefficient of u^uexp in the d-th divided power, uexp as
    `_series_exponents` yields them, each computed only when the one before
    it has been used."""
    for uexp in _series_exponents(m, d, w):
        pairs = _series_power_coeff(d, uexp, m)
        if pairs:
            yield uexp, pairs


def defining_generators(
    m: int, ring: CoeffRing, degree_bound: int, weight_bound: int
) -> GeneratorSet:
    """All nonzero series coefficients with power + sum(uexp) >= m+1 landing
    in the box degree <= degree_bound, weight <= weight_bound, in (power,
    weight, lam.parts) order, deduplicated up to a unit of the ring.
    Trailing-zero u-exponent vectors reproduce the lower-s coefficients, so s
    is fixed at m-1 without loss.

    Each slice is read from its `_slice_table`, whose u-products are kept
    for the whole build; the cap weight_bound bounds sum(uexp) <= weight
    anyway, so it drops nothing.  A coefficient is homogeneous of bidegree
    (power, weight), and so are its unit multiples, so the dedup set holds
    one slice at a time: the entries are those of a set kept over the whole
    box."""
    if degree_bound < m + 1:
        raise ValueError(f"degree_bound must be >= m+1 = {m + 1}")
    entries, memo = [], {}
    for power in range(1, degree_bound + 1):
        for w in range(min(weight_bound, power * (m - 1)) + 1):
            table = _slice_table(m, power, w, weight_bound, memo)
            seen = set()
            for uexp in _series_exponents(m, power, w):
                pairs = table.get(uexp)
                if pairs is None:
                    continue
                poly = DPoly(ring, m, dict(pairs))
                if poly.is_zero():
                    continue
                # the pairs ascend in DPLEX, so the last term leads
                lead = next(reversed(poly.terms))
                key = frozenset(unit_normalize(poly.terms, lead, ring.char).items())
                if key in seen:
                    continue
                seen.add(key)
                k = power + sum(uexp)
                entries.append(GeneratorEntry(poly, ("series", uexp, power, k), power, w))
    return GeneratorSet(m, ring, "defining", entries, degree_bound, weight_bound)


def truncation_relations(m: int, n_trunc: int, ring: CoeffRing) -> GeneratorSet:
    """The truncation ideal as session relations: the variables x_j of
    slice (1, j) for n_trunc <= j < m, none when n_trunc >= m."""
    if n_trunc < 1:
        raise ValueError("truncation level must be >= 1")
    entries = (
        GeneratorEntry(DPoly.variable(ring, m, j), ("truncation", j), 1, j)
        for j in range(n_trunc, m)
    )
    return GeneratorSet(m, ring, "truncation", entries, 1, max(m - 1, 0))


# ---------------------------------------------------------------------------
# the two families built from symmetric-function data


def schur_dpoly(lam: Partition, k: int, m: int) -> DPoly:
    """Schur-type element over the rationals: sum of K_{lam,mu} x^(mu) over the monomials of
    slice (k, |lam|), each mu zero-padded to k parts; K_{lam,mu} vanishes
    unless lam dominates mu.  K_{lam,mu} is read from the Kostka row of mu
    capped at m-1, which holds lam since lam_1 <= m-1."""
    if lam.length > k:
        raise ValueError(f"need l(lam) <= k, got {lam.length} > {k}")
    if lam.largest > m - 1:
        raise ValueError(f"need lam_1 <= m-1, got {lam.largest} > {m - 1}")
    pairs = zip(slice_partitions(m, k, lam.size), slice_monomials(m, k, lam.size))
    shape = lam.parts
    return DPoly(RATIONALS, m, {mono: kostka_row(mu, m - 1).get(shape, 0) for mu, mono in pairs})


def forgotten_dpoly(lam: Partition, k: int, m: int) -> DPoly:
    """Forgotten-type element over the rationals: sum of the signed multiplicities times x^(mu)
    over mu dominating lam with exactly k parts (zeros included) and parts
    <= m-1.  May be zero.  The multiplicity of mu is (-1)^|lam| c(mu, mult
    lam), nonzero only for mu merged from the parts of lam (so mu dominates
    lam): the element is (-1)^|lam| times the series coefficient of u^(mult
    lam) in the k-th divided power."""
    if lam.largest > m - 1:
        raise ValueError(f"need lam_1 <= m-1, got {lam.largest} > {m - 1}")
    return series_power_coefficient(k, lam.multiplicities(m - 1), m).scale(
        -1 if lam.size % 2 else 1
    )


def schur_family(m: int, ring: CoeffRing = RATIONALS) -> GeneratorSet:
    """Schur-type elements with lam_1 + k > m, l(lam) <= k <= m+1 and parts
    <= m-1.  Their DPLEX leading monomials realize the reducible-monomial
    census in every characteristic.

    Per slice (k, size) the Kostka rows of its contents mu are read once and
    inverted into {lam: {x^(mu): K_{lam,mu}}}, in slice order; a row holds
    only nonzero numbers, and every lam in it has l(lam) <= l(mu) <= k."""
    if m < 1:
        raise ValueError("m must be >= 1")
    entries = []
    for k in range(1, m + 2):
        for size in range((m - 1) * k + 1):
            by_shape = {}
            for mu, mono in zip(slice_partitions(m, k, size), slice_monomials(m, k, size)):
                for lam, c in kostka_row(mu, m - 1).items():
                    by_shape.setdefault(lam, {})[mono] = c
            for lam in iter_partitions(size, m - 1, k):
                if max(lam, default=0) + k > m:
                    poly = DPoly(ring, m, by_shape[lam])
                    entries.append(GeneratorEntry(poly, ("schur", lam, k), k, size))
    return GeneratorSet(m, ring, "schur", entries, m + 1, (m + 1) * (m - 1))


def forgotten_family(m: int, ring: CoeffRing = RATIONALS) -> GeneratorSet:
    """Forgotten-type elements with 2 <= k <= m+1 and m-k+1 <= l(lam) <=
    m+1; characteristic zero only (leading coefficients need not survive mod
    p), refused before anything is built.

    Each element is (-1)^|lam| times the series coefficient of u^(mult lam),
    read from the `_slice_table` of slice (k, |lam|) at the cap m+1 on
    l(lam) = sum(mult lam), with the u-products kept for the whole build."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if ring.char:
        raise UnsupportedCharacteristicError(
            "the revlex family is only available in characteristic 0"
        )
    entries, memo = [], {}
    for k in range(2, m + 2):
        for size in range((m - 1) * k + 1):
            table = _slice_table(m, k, size, m + 1, memo)
            sign = -1 if size % 2 else 1
            for lam in iter_partitions(size, m - 1, m + 1):
                if len(lam) >= m - k + 1:
                    pairs = table.get(tuple(map(lam.count, range(1, m))))
                    if pairs:
                        poly = DPoly(ring, m, {mono: sign * c for mono, c in pairs})
                        entries.append(GeneratorEntry(poly, ("forgotten", lam, k), k, size))
    return GeneratorSet(m, ring, "forgotten", entries, m + 1, (m + 1) * (m - 1))


# ---------------------------------------------------------------------------
# identity checks


def transition_identity_holds(lam: Partition, k: int, m: int) -> bool:
    """Schur element as the Kostka-weighted sum of forgotten elements of the
    conjugate's dominance-lower set, checked exactly over the rationals."""
    lhs = schur_dpoly(lam, k, m)
    rhs = DPoly.zero(RATIONALS, m)
    lamt = transpose(lam)
    for mu in enumerate_partitions(lam.size, lamt.largest, lam.size):
        if dominates(lamt, mu):
            kk = kostka(lamt, mu)
            if kk:
                rhs = rhs + forgotten_dpoly(mu, k, m).scale(kk)
    return lhs == rhs


def series_forgotten_identity_holds(lam: Partition, k: int, m: int) -> bool:
    """The series coefficient at u^(multiplicities of lam) in the k-th
    divided power equals (-1)^|lam| times the forgotten element, the latter
    summed from the literal `symfunc.forgotten_coeff` (not from the product
    kernel both `forgotten_dpoly` and the series share)."""
    coeff = series_power_coefficient(k, lam.multiplicities(lam.largest), m)
    sign = -1 if lam.size % 2 else 1
    terms = {
        mono: sign * forgotten_coeff(lam, Partition(mu))
        for mu, mono in zip(slice_partitions(m, k, lam.size), slice_monomials(m, k, lam.size))
    }
    return coeff == DPoly(RATIONALS, m, terms)
