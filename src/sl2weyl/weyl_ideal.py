"""Generators of the defining ideal of the graded local Weyl module inside
the divided-power algebra, and the two derived generating families.

The defining family comes from a generating series in auxiliary variables
u_1..u_s: one series term per partition eta with all parts <= s and
|eta| <= m-1 (the empty partition included), with integer coefficient
(-1)^l(eta) * l(eta)! / prod_i m_i(eta)!, carrying the algebra variable
x_{|eta|} and the u-monomial prod u_i^(m_i(eta)).  Divided powers of the
series are expanded by the multiset rule (T_1 + ... + T_N)^(k) =
sum over multiplicities summing to k of prod T_j^(i_j), which keeps every
intermediate coefficient integral, hence valid in every characteristic.
A generator is the coefficient of a u-monomial u^a in the k'-th divided
power, retained whenever k' + a_1 + ... + a_s >= m + 1.  `slice_series`
builds those of one slice (degree k', weight sum i*a_i); `defining_generators`
collects them over a box.

Each such coefficient is, up to the sign (-1)^(weight), the "forgotten"
polynomial attached to the partition with multiplicities a; that identity is
exposed as a checkable predicate rather than assumed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial

from .dpalgebra import (
    CoeffRing,
    DPoly,
    MonomialOrder,
    RATIONALS,
    mono_degree,
    mono_weight,
    unit_normalize,
)
from .partitions import Partition, dominates, enumerate_partitions, transpose
from .symfunc import forgotten_coeff, kostka


class UnsupportedCharacteristicError(ValueError):
    """Raised when a family is only available in characteristic zero."""


@dataclass(frozen=True)
class YSeriesSpec:
    """Series parameters: s auxiliary variables, divided power k, variable
    indices capped at m-1."""

    s: int
    m: int
    k: int

    def __post_init__(self):
        if self.s < 0 or self.k < 0 or self.m < 1:
            raise ValueError("need s >= 0, k >= 0, m >= 1")


@dataclass(frozen=True)
class GeneratorEntry:
    poly: DPoly
    provenance: tuple  # ("series", uexp, power, k) | ("schur"|"forgotten", lam, k)

    @property
    def degree(self) -> int:
        return mono_degree(next(iter(self.poly.terms)))

    @property
    def weight(self) -> int:
        return mono_weight(next(iter(self.poly.terms)))


@dataclass
class GeneratorSet:
    m: int
    ring: CoeffRing
    family: str  # "defining" | "schur" | "forgotten"
    entries: list[GeneratorEntry] = field(default_factory=list)
    degree_bound: int = 0
    weight_bound: int = 0


def lowering_series(spec: YSeriesSpec) -> list[tuple[int, int, tuple[int, ...]]]:
    """Terms (coefficient, variable index, u-exponents) of the series.

    One term per partition eta with parts <= s and |eta| <= m-1, empty
    partition included; coefficient (-1)^l(eta) l(eta)!/prod m_i(eta)!,
    variable x_{|eta|}, u-exponents (m_1(eta), ..., m_s(eta)).
    """
    out = []
    for n in range(spec.m):
        for eta in enumerate_partitions(n, min(spec.s, n) if n else 0, n):
            mults = eta.multiplicities(spec.s)
            c = factorial(eta.length)
            for v in set(eta.parts):
                c //= factorial(eta.parts.count(v))
            if eta.length % 2:
                c = -c
            out.append((c, n, mults))
    return out


@lru_cache(maxsize=None)
def _group_combos(s: int, v: int, kk: int):
    """Ways to assemble x_v to total divided power j <= kk from the series
    terms with variable x_v (partitions of v with parts <= s), bucketed by j:
    a tuple indexed by j of ((u-exponent delta, integer coefficient), ...).

    Combining several terms on the same variable telescopes the structure
    constants into a multinomial, built up here as C(j_prior + i, i) factors.
    """
    combos = {(0, (0,) * s): 1}
    for eta in enumerate_partitions(v, min(s, v), v):
        ue = eta.multiplicities(s)
        c = factorial(eta.length)
        for val in set(eta.parts):
            c //= factorial(eta.parts.count(val))
        if eta.length % 2:
            c = -c
        for (j, ud), cc in list(combos.items()):
            p = 1
            for i in range(1, kk - j + 1):
                p *= c
                key = (j + i, tuple(x + i * y for x, y in zip(ud, ue)))
                combos[key] = combos.get(key, 0) + cc * p * comb(j + i, i)
    buckets: list[list] = [[] for _ in range(kk + 1)]
    for (j, ud), cc in combos.items():
        if cc:
            buckets[j].append((ud, cc))
    return tuple(tuple(b) for b in buckets)


_SUFFIX_CACHE: dict = {}


def _suffix_expand(s: int, v: int, kk: int, target: tuple[int, ...]):
    """dict (j_1, ..., j_v) -> coefficient over ways the groups x_1..x_v can
    absorb exactly the u-exponents `target` using at most kk divided powers.

    Group x_w contributes u-weight exactly j_w * w, which bounds the x_v
    power two-sidedly: j*v <= wt(target) and the rest must fit below,
    wt(target) - j*v <= (kk - j)*(v - 1)."""
    wt = sum((i + 1) * t for i, t in enumerate(target))
    if wt == 0:
        return {(0,) * v: 1}
    if v == 0 or kk == 0 or wt > kk * v:
        return {}
    if any(target[i] for i in range(min(v, s), s)):
        return {}
    key = (s, v, kk, target)
    hit = _SUFFIX_CACHE.get(key)
    if hit is not None:
        return hit
    out: dict[tuple[int, ...], int] = {}
    buckets = _group_combos(s, v, kk)
    j_lo = max(0, wt - kk * (v - 1))
    j_hi = min(kk, wt // v)
    for j in range(j_lo, j_hi + 1):
        for ud, cc in buckets[j]:
            if any(u > t for u, t in zip(ud, target)):
                continue
            rest = tuple(t - u for t, u in zip(target, ud))
            for tail, c2 in _suffix_expand(s, v - 1, kk - j, rest).items():
                jv = tail + (j,)
                out[jv] = out.get(jv, 0) + cc * c2
    _SUFFIX_CACHE[key] = out
    return out


@lru_cache(maxsize=None)
def _series_power_coeff(s: int, k: int, uexp: tuple[int, ...], m: int):
    """Integral coefficient of u^uexp in the k-th divided power of the
    series, as a tuple of (monomial, coefficient) pairs.  The x_0 slack
    (powers of the empty-partition term) carries constant 1."""
    if len(uexp) != s:
        raise ValueError("u-exponent length must equal s")
    if m < 1:
        return ()
    result: dict[tuple[int, ...], int] = {}
    for jvec, c in _suffix_expand(s, m - 1, k, uexp).items():
        used = sum(jvec)
        mono = (k - used,) + jvec
        result[mono] = result.get(mono, 0) + c
    return tuple(sorted((a, c) for a, c in result.items() if c))


def series_power_coefficient(spec: YSeriesSpec, uexp, ring: CoeffRing = RATIONALS) -> DPoly:
    """Coefficient of u^uexp in the spec.k-th divided power of the series."""
    uexp = tuple(uexp)
    if any(a < 0 for a in uexp):
        raise ValueError("u-exponents must be nonnegative")
    pairs = _series_power_coeff(spec.s, spec.k, uexp, spec.m)
    return DPoly(ring, spec.m, dict(pairs))


def slice_series(m: int, d: int, w: int):
    """Defining generators of slice (degree d, weight w), before dedup, built
    one at a time: (uexp, pairs) for each nonzero coefficient of u^uexp in
    the d-th divided power, uexp the multiplicities of lam |- w with parts
    <= m-1 and l(lam) >= m+1-d, in lam.parts order."""
    if m < 1:
        return
    for lam in sorted(enumerate_partitions(w, m - 1, w), key=lambda p: p.parts):
        if lam.length + d < m + 1:
            continue
        uexp = lam.multiplicities(m - 1)
        pairs = _series_power_coeff(m - 1, d, uexp, m)
        if pairs:
            yield uexp, pairs


def defining_generators(
    m: int, ring: CoeffRing, degree_bound: int, weight_bound: int
) -> GeneratorSet:
    """All nonzero series coefficients with power + sum(uexp) >= m+1 landing
    in the box degree <= degree_bound, weight <= weight_bound, in (power,
    weight, lam.parts) order, deduplicated up to a unit of the ring.
    Trailing-zero u-exponent vectors reproduce the lower-s coefficients, so s
    is fixed at m-1 without loss."""
    if degree_bound < m + 1:
        raise ValueError(f"degree_bound must be >= m+1 = {m + 1}")
    gs = GeneratorSet(m, ring, "defining", [], degree_bound, weight_bound)
    seen = set()
    for power in range(1, degree_bound + 1):
        for w in range(min(weight_bound, power * (m - 1)) + 1):
            for uexp, pairs in slice_series(m, power, w):
                poly = DPoly(ring, m, dict(pairs))
                if poly.is_zero():
                    continue
                lead = poly.leading_monomial(MonomialOrder.DPLEX)
                key = frozenset(unit_normalize(poly.terms, lead, ring.char).items())
                if key in seen:
                    continue
                seen.add(key)
                k = power + sum(uexp)
                gs.entries.append(GeneratorEntry(poly, ("series", uexp, power, k)))
    return gs


# ---------------------------------------------------------------------------
# the two families built from symmetric-function data


def _padded_mono(mu: Partition, k: int, m: int) -> tuple[int, ...]:
    """Exponent vector of x^(mu) with mu zero-padded to k parts."""
    if mu.length > k:
        raise ValueError("partition longer than the padding length")
    exps = [0] * m
    exps[0] = k - mu.length
    for p in mu.parts:
        exps[p] += 1
    return tuple(exps)


def schur_dpoly(lam: Partition, k: int, m: int, ring: CoeffRing = RATIONALS) -> DPoly:
    """Schur-type element: sum of K_{lam,mu} x^(mu) over mu dominated by lam,
    each mu zero-padded to k parts."""
    lam = lam.strip_zeros()
    if lam.length > k:
        raise ValueError(f"need l(lam) <= k, got {lam.length} > {k}")
    if lam.largest > m - 1:
        raise ValueError(f"need lam_1 <= m-1, got {lam.largest} > {m - 1}")
    if lam.size == 0:
        return DPoly.monomial(ring, m, _padded_mono(lam, k, m))
    terms = {}
    for mu in enumerate_partitions(lam.size, lam.largest, k):
        if dominates(lam, mu):
            kk = kostka(lam, mu)
            if kk:
                terms[_padded_mono(mu, k, m)] = kk
    return DPoly(ring, m, terms)


def forgotten_dpoly(lam: Partition, k: int, m: int, ring: CoeffRing = RATIONALS) -> DPoly:
    """Forgotten-type element: sum of the signed multiplicities times x^(mu)
    over mu dominating lam with exactly k parts (zeros included) and parts
    <= m-1.  May be zero."""
    lam = lam.strip_zeros()
    if lam.largest > m - 1:
        raise ValueError(f"need lam_1 <= m-1, got {lam.largest} > {m - 1}")
    terms = {}
    if lam.size == 0:
        if k >= 0:
            terms[_padded_mono(lam, k, m)] = 1
        return DPoly(ring, m, terms)
    for mu in enumerate_partitions(lam.size, min(m - 1, lam.size), k):
        if dominates(mu, lam):
            d = forgotten_coeff(lam, mu)
            if d:
                terms[_padded_mono(mu, k, m)] = d
    return DPoly(ring, m, terms)


def schur_family(m: int, ring: CoeffRing = RATIONALS) -> GeneratorSet:
    """Schur-type elements with lam_1 + k > m, l(lam) <= k <= m+1 and parts
    <= m-1.  Their DPLEX leading monomials realize the reducible-monomial
    census in every characteristic."""
    if m < 1:
        raise ValueError("m must be >= 1")
    gs = GeneratorSet(m, ring, "schur", [], m + 1, (m + 1) * (m - 1))
    for k in range(1, m + 2):
        lams = []
        for size in range(0, (m - 1) * k + 1):
            for lam in enumerate_partitions(size, m - 1, k):
                if lam.largest + k > m:
                    lams.append(lam)
        lams.sort(key=lambda p: (p.size, p.parts))
        for lam in lams:
            gs.entries.append(
                GeneratorEntry(schur_dpoly(lam, k, m, ring), ("schur", lam.parts, k))
            )
    return gs


def forgotten_family(m: int, ring: CoeffRing = RATIONALS) -> GeneratorSet:
    """Forgotten-type elements with 2 <= k <= m+1 and l(lam) >= m-k+1;
    characteristic zero only (leading coefficients need not survive mod p)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if ring.char:
        raise UnsupportedCharacteristicError(
            "the revlex family is only available in characteristic 0"
        )
    gs = GeneratorSet(m, ring, "forgotten", [], m + 1, (m + 1) * (m - 1))
    for k in range(2, m + 2):
        lams = []
        for size in range(0, (m - 1) * k + 1):
            for lam in enumerate_partitions(size, m - 1, m + 1):
                if lam.length >= m - k + 1:
                    lams.append(lam)
        lams.sort(key=lambda p: (p.size, p.parts))
        for lam in lams:
            poly = forgotten_dpoly(lam, k, m, ring)
            if not poly.is_zero():
                gs.entries.append(GeneratorEntry(poly, ("forgotten", lam.parts, k)))
    return gs


# ---------------------------------------------------------------------------
# identity checks


def transition_identity_holds(lam: Partition, k: int, m: int) -> bool:
    """Schur element as the Kostka-weighted sum of forgotten elements of the
    conjugate's dominance-lower set, checked exactly over the rationals."""
    lam = lam.strip_zeros()
    lhs = schur_dpoly(lam, k, m, RATIONALS)
    rhs = DPoly.zero(RATIONALS, m)
    if lam.size == 0:
        return lhs == forgotten_dpoly(lam, k, m, RATIONALS)
    lamt = transpose(lam)
    for mu in enumerate_partitions(lam.size, lamt.largest, lam.size):
        if dominates(lamt, mu):
            kk = kostka(lamt, mu)
            if kk:
                rhs = rhs + forgotten_dpoly(mu, k, m, RATIONALS).scale(kk)
    return lhs == rhs


def series_forgotten_identity_holds(lam: Partition, k: int, m: int) -> bool:
    """The series coefficient at u^(multiplicities of lam) in the k-th
    divided power equals (-1)^|lam| times the forgotten element."""
    lam = lam.strip_zeros()
    spec = YSeriesSpec(lam.largest, m, k)
    coeff = series_power_coefficient(spec, lam.multiplicities(lam.largest))
    f = forgotten_dpoly(lam, k, m, RATIONALS)
    if lam.size % 2:
        f = -f
    return coeff == f
