"""Assumption-free verification of dimensions and candidate bases by exact
graded linear algebra.

For each bidegree (degree d, weight w) the slice of the ideal is the span of
all monomial multiples of generators landing there.  Two equivalent ways to
produce a spanning row set are used, and the engine skips the rows of the
slices it can show are full:

* `build_slice` materializes the defining rows literally: one row per pair
  (generator, multiplier monomial) with matching degree and weight, from an
  eager generator family such as `defining_generators`.  This is the
  reference construction.

* the engine builds slices bottom-up.  Writing any multiplier as
  u = x_i^(j) * u'' with u''_i = 0 splits off the full x_i-power of u, and
  the structure constant of that split is C(j, j) = 1 in every ring, so

      rowspace(d, w) = span( generators in the slice
                             + x_i^(j) * rowspace(d - j, w - i*j) )

  where it suffices to apply the shifts to an echelon basis of the lower
  slice.  Over the rationals j = 1 suffices (the constant C(e+1, 1) = e+1
  never vanishes); over F_p the shifts x_i^(p^e) are used, because every
  divided power factors through p-th-power divided powers up to units there.
  Generator rows enter only while the shifted rows leave the rank below the
  slice size, and series coefficients are built one at a time as needed
  (`weyl_ideal.slice_series`), so a slice the shifts fill builds none.  The
  two constructions span the same space; the tests cross-check their ranks.

* most slices of the degree box lie wholly in the ideal (they are *full*:
  every basis monomial has degree <= m), and many are known to be full
  before any row is built.  A slice is *covered* when every monomial b is
  x_i^(j) * x^(b - j e_i) with the lower slice (d - j, w - i*j) full, j one
  of the shift powers and C(b_i, j) nonzero in the ring.  A covered slice
  skips shifted rows, elimination and generators alike; extra generators
  only add rank, so the rule holds for any generator family.  Every full
  slice, covered or filled by elimination, keeps the unit pivots
  {c: {c: 1}}: its normal forms are 0, and the rows shifted up from it are
  single entries, so integer entries over the rationals do not grow from
  slice to slice.  A slice that is not covered starts from unit pivots at
  the columns its full lower slices reach (exactly their shifted rows) and
  echelonizes only the rows of its other lower slices and, while still
  short, generators.

Rank computations and normal forms are exact and fraction-free in both
rings: one echelon takes integer rows, keeping its pivot rows primitive over
the rationals and reduced mod p over prime fields, and returns a normal form
as an integer row together with the scale it carries.  Floating point never
appears.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .basis_enum import BasisSet, truncated_basis
from .dpalgebra import (
    CoeffRing,
    DPoly,
    MonomialOrder,
    mono_degree,
    mono_weight,
    ring_binom,
    unit_normalize,
)
from .partitions import enumerate_partitions
from .weyl_ideal import GeneratorSet, slice_series


class ConfigurationError(ValueError):
    """Generator bounds do not cover the requested slice."""


class MustVerifyFirstError(RuntimeError):
    """reduce_element called with a candidate basis that was not verified."""


@lru_cache(maxsize=None)
def slice_monomials(m: int, d: int, w: int) -> tuple:
    """Monomials of degree d and weight w, sorted descending in DPLEX.

    Exponent vectors correspond to partitions of w with parts <= m-1 and
    length <= d; the x_0 exponent absorbs the slack d - length.
    """
    if m == 0:
        return ((),) if d == 0 and w == 0 else ()
    out = []
    for lam in enumerate_partitions(w, m - 1, d):
        exps = [0] * m
        exps[0] = d - lam.length
        for p in lam.parts:
            exps[p] += 1
        out.append(tuple(exps))
    out.sort(key=MonomialOrder.DPLEX.key, reverse=True)
    return tuple(out)


# ---------------------------------------------------------------------------
# exact echelon forms (sparse rows: dict column -> coefficient)


class _Echelon:
    """Integer rows, fraction-free in both rings: over the rationals (p = 0)
    pivot rows are kept primitive with a positive lead; over F_p entries are
    reduced mod p and pivots lead with 1.  Only the cancel step and the pivot
    normalization depend on the ring."""

    def __init__(self, p, units=()):
        """Starts from the unit pivots {c: {c: 1}} at the columns `units`
        (all columns for a full slice: its normal forms are 0 and rows
        shifted up from it stay single entries)."""
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {c: {c: 1} for c in units}

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def _cancel(self):
        # looked up per call: a bound method stored on self would make every
        # echelon a reference cycle that outlives its session until the next
        # garbage collection
        return self._cancel_p if self.p else self._cancel_q

    @staticmethod
    def _cancel_q(row, piv, lead):
        """row * (a/g) - piv * (b/g), with a the pivot lead, b the row lead
        and g = gcd(a, b)."""
        a, b = piv[lead], row[lead]
        g = gcd(a, b)
        ca, cb = b // g, a // g
        new = {}
        for c, v in row.items():
            new[c] = v * cb
        for c, v in piv.items():
            nv = new.get(c, 0) - v * ca
            if nv:
                new[c] = nv
            else:
                new.pop(c, None)
        return new

    def _cancel_p(self, row, piv, lead):
        """row - b * piv mod p with b the row lead, in place (the pivot
        leads with 1)."""
        p = self.p
        f = row[lead]
        for c, v in piv.items():
            nv = (row.get(c, 0) - f * v) % p
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
        return row

    def add(self, row) -> bool:
        """Echelonize an integer row (nonzero entries nonzero mod p) against
        the pivots; True when it raises the rank."""
        row = dict(row)
        pivots, cancel = self.pivots, self._cancel
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = unit_normalize(row, lead, self.p)
                return True
            row = cancel(row, piv, lead)
        return False

    def residue(self, row):
        """Normal form against the pivot rows, fraction-free: returns
        (r, scale) with r = scale * normal form.  Every pivot-lead component
        is eliminated, so the normal form is unique and the map is linear.
        Rational entries are cleared of denominators on entry."""
        scale = 1
        for v in row.values():
            scale = lcm(scale, v.denominator)
        row = {c: int(v * scale) for c, v in row.items() if v}
        pivots, cancel = self.pivots, self._cancel
        while True:
            hits = [c for c in row if c in pivots]
            if not hits:
                return row, scale
            lead = min(hits)
            piv = pivots[lead]
            a = piv[lead]
            scale *= a // gcd(a, row[lead])
            row = cancel(row, piv, lead)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SliceReport:
    degree: int
    weight: int
    slice_dim: int
    quotient_dim: int
    candidate_count: int
    independent: bool
    spanning: bool

    @property
    def passed(self) -> bool:
        return self.independent and self.spanning


@dataclass
class DimReport:
    m: int
    char: int
    degree_bound: int
    dims: dict[tuple[int, int], int]
    total: int
    elapsed_seconds: float = 0.0


@dataclass
class VerificationReport:
    m: int
    char: int
    provenance: str
    degree_bound: int
    slices: list[SliceReport] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.slices)

    @property
    def total_quotient_dim(self) -> int:
        return sum(s.quotient_dim for s in self.slices)

    @property
    def total_candidates(self) -> int:
        return sum(s.candidate_count for s in self.slices)


@dataclass(frozen=True)
class GradedSlice:
    m: int
    ring: CoeffRing
    degree: int
    weight: int
    monomials: tuple
    ideal_rows: tuple  # rows as coefficient tuples in the monomial coordinates


# ---------------------------------------------------------------------------
# literal slice construction


def build_slice(m, ring, d, w, gens: GeneratorSet) -> GradedSlice:
    """Rows {u * g : g in gens, deg u + deg g = d, wt u + wt g = w} in the
    coordinates of the (d, w) monomials."""
    if d > gens.degree_bound or w > gens.weight_bound:
        raise ConfigurationError(
            f"slice ({d},{w}) outside generator bounds "
            f"({gens.degree_bound},{gens.weight_bound})"
        )
    monos = slice_monomials(m, d, w)
    index = {a: i for i, a in enumerate(monos)}
    rows = []
    for entry in gens.entries:
        gd, gw = entry.degree, entry.weight
        if gd > d or gw > w:
            continue
        for u in slice_monomials(m, d - gd, w - gw):
            prod = entry.poly.mono_shift(u)
            if prod.is_zero():
                continue
            vec = [0] * len(monos)
            for a, c in prod.terms.items():
                vec[index[a]] = c
            rows.append(tuple(vec))
    return GradedSlice(m, ring, d, w, monos, tuple(rows))


def slice_rank(sl: GradedSlice) -> int:
    ech = _Echelon(sl.ring.char)
    for vec in sl.ideal_rows:
        ech.add({i: c for i, c in enumerate(vec) if c})
    return ech.rank


# ---------------------------------------------------------------------------
# the cascading engine


class OracleSession:
    """Holds the echelonized ideal slices for one (m, ring, degree bound) and
    answers dimension, basis-verification, and reduction queries.

    A covered slice (see the module docstring) is stored full at once;
    other slices echelonize the shifted rows of their lower slices that are
    not full, and generator rows enter only where those fall short
    (`build_slice` remains the literal reference).  Full slices hold unit
    pivots.

    gens: a family covering the degree box, in place of the defining series
    coefficients.  extra_degree_one: indices j whose variables x_j are
    adjoined to the ideal (used for truncations).
    """

    def __init__(self, m, ring, degree_bound, gens=None, extra_degree_one=()):
        if degree_bound < m:
            raise ValueError(f"degree_bound must be >= m = {m}")
        self.m = m
        self.ring = ring
        self.degree_bound = degree_bound
        self.weight_bound = degree_bound * max(m - 1, 0)
        self.gens = gens
        if gens is not None and (
            gens.degree_bound < degree_bound or gens.weight_bound < self.weight_bound
        ):
            raise ConfigurationError("generator bounds do not cover the degree box")
        self.extra = tuple(sorted(set(extra_degree_one)))
        self._spaces: dict[tuple[int, int], object] = {}
        self._by_slice: dict[tuple[int, int], list] = {}
        if gens is not None:
            for e in gens.entries:
                self._by_slice.setdefault((e.degree, e.weight), []).append(e.poly)
        for j in self.extra:
            mono = tuple(1 if i == j else 0 for i in range(m))
            self._by_slice.setdefault((1, j), []).append(
                DPoly.monomial(ring, m, mono)
            )
        powers = [1]
        while ring.char and powers[-1] * ring.char <= degree_bound:
            powers.append(powers[-1] * ring.char)
        # structure constants of the shifts: x_i^(j) * x_i^(n-j) = C(n, j) x_i^(n)
        self._shift_binoms = {
            j: [ring_binom(ring, n, j) for n in range(degree_bound + 1)] for j in powers
        }
        self.verified: set[BasisSet] = set()

    # -- slice spaces ------------------------------------------------------

    def space(self, d, w):
        key = (d, w)
        if key in self._spaces:
            return self._spaces[key]
        m = self.m
        monos = slice_monomials(m, d, w)
        full, partial = [], []
        for j, binoms in self._shift_binoms.items():
            if j > d:
                break
            for i in range(m):
                if w - i * j < 0:
                    break
                lower = self.space(d - j, w - i * j)
                lmonos = slice_monomials(m, d - j, w - i * j)
                if lower.rank == len(lmonos):
                    full.append((i, binoms))
                else:
                    partial.append((i, j, lower, lmonos))
        covered = self._covered(monos, full)
        if len(covered) == len(monos):
            ech = _Echelon(self.ring.char, covered)
        else:
            ech = self._eliminate(d, w, monos, partial, covered)
        self._spaces[key] = ech
        return ech

    def _covered(self, monos, full):
        """Columns of the monomials b that are a shift x_i^(j) * x^a of a
        monomial a of a full lower slice with C(b_i, j) nonzero in the ring:
        the shifted unit row e_a is C(b_i, j) e_b, so e_b lies in the slice
        whatever the generators.  full: (i, [C(n, j) for n]) per full lower
        slice.  Over F_p the lowest nonzero base-p digit e of b_i gives
        C(b_i, p^e) != 0, so b is found whenever some x^(b - p^e e_i) lies in
        a full lower slice."""
        out = []
        for col, b in enumerate(monos):
            # C(b_i, j) = 0 also when b_i < j, where no shift lands on b
            for i, c in full:
                if c[b[i]]:
                    out.append(col)
                    break
        return out

    def _eliminate(self, d, w, monos, partial, covered):
        """Echelon of a slice that is not covered: unit pivots at the
        covered columns (all that the full lower slices shift up), then the
        shifted rows of the other lower slices, then generator rows while
        the rank stays below the slice size.  A slice this fills is stored
        with unit pivots."""
        p = self.ring.char
        index = {a: i for i, a in enumerate(monos)}
        ech = _Echelon(p, covered)
        rows = []
        for i, j, lower, lmonos in partial:
            binoms = self._shift_binoms[j]
            for piv in lower.pivots.values():
                row = {}
                for col, c in piv.items():
                    a = lmonos[col]
                    s = binoms[a[i] + j]
                    if s == 0:
                        continue
                    b = list(a)
                    b[i] += j
                    row[index[tuple(b)]] = c * s
                if row:
                    rows.append(row)
        rows.sort(key=lambda r: min(r))
        ncols = len(monos)
        for row in rows:
            if ech.rank == ncols:
                break
            ech.add(row)
        if ech.rank < ncols:
            for poly in self._generators(d, w):
                ech.add({index[a]: c for a, c in poly.terms.items()})
                if ech.rank == ncols:
                    break
        if ech.rank == ncols:
            return _Echelon(p, range(ncols))
        return ech

    def _generators(self, d, w):
        """Generator polynomials of slice (d, w), one at a time: the given
        ones and the truncation variables, then, when no generators were
        given, the defining series coefficients."""
        yield from self._by_slice.get((d, w), ())
        if self.gens is None:
            for _, pairs in slice_series(self.m, d, w):
                yield DPoly(self.ring, self.m, dict(pairs))

    def _slice_keys(self):
        for d in range(self.degree_bound + 1):
            for w in range(d * max(self.m - 1, 0) + 1):
                if slice_monomials(self.m, d, w):
                    yield (d, w)

    def _ensure_all(self):
        for d, w in self._slice_keys():
            self.space(d, w)

    # -- queries -----------------------------------------------------------

    def dims(self) -> DimReport:
        t0 = time.monotonic()
        self._ensure_all()
        dims = {}
        total = 0
        for d, w in self._slice_keys():
            q = len(slice_monomials(self.m, d, w)) - self.space(d, w).rank
            dims[(d, w)] = q
            total += q
        return DimReport(
            self.m, self.ring.char, self.degree_bound, dims, total,
            time.monotonic() - t0,
        )

    def verify_basis(self, candidate: BasisSet) -> VerificationReport:
        t0 = time.monotonic()
        if candidate.m != self.m:
            raise ValueError("candidate basis is for a different m")
        cand = candidate.by_slice()
        if any(d > self.degree_bound for d, _ in cand):
            raise ValueError("candidate monomials exceed the degree bound")
        self._ensure_all()
        report = VerificationReport(
            self.m, self.ring.char, candidate.provenance, self.degree_bound
        )
        for d, w in self._slice_keys():
            monos = slice_monomials(self.m, d, w)
            index = {a: i for i, a in enumerate(monos)}
            ech = self.space(d, w)
            cands = cand.get((d, w), [])
            overlay = _Echelon(self.ring.char)
            indep = True
            for a in cands:
                res, _ = ech.residue({index[a]: 1})
                if not res or not overlay.add(res):
                    indep = False
                    break
            q = len(monos) - ech.rank
            report.slices.append(
                SliceReport(d, w, len(monos), q, len(cands), indep, q == len(cands))
            )
        report.elapsed_seconds = time.monotonic() - t0
        if report.passed:
            self.verified.add(candidate)
        return report

    def reduce_element(self, f: DPoly, candidate: BasisSet):
        """Coordinates of the residue of f in the verified candidate basis.
        Only that very basis counts as verified, not others sharing its
        provenance label."""
        if candidate not in self.verified:
            raise MustVerifyFirstError(
                "verify_basis must pass for this candidate before reducing"
            )
        if f.m != self.m or f.ring != self.ring:
            raise ValueError("element does not match the session")
        cand = candidate.by_slice()
        coords: dict[tuple, object] = {}
        by_slice: dict[tuple[int, int], dict] = {}
        for a, c in f.terms.items():
            by_slice.setdefault((mono_degree(a), mono_weight(a)), {})[a] = c
        for (d, w), terms in sorted(by_slice.items()):
            if d > self.degree_bound:
                raise ValueError("element exceeds the session degree bound")
            monos = slice_monomials(self.m, d, w)
            index = {a: i for i, a in enumerate(monos)}
            ech = self.space(d, w)
            res_f, scale_f = ech.residue({index[a]: c for a, c in terms.items()})
            basis_monos = cand.get((d, w), [])
            # solve res_f = sum coords_b * residue(b) by eliminating with
            # augmented tags: row res_b + scale_b * e_t is scale_b times
            # (residue(b) + e_t), so the tags come out as -coords
            n = len(monos)
            p = self.ring.char
            solver = _Echelon(p)
            for t, b in enumerate(basis_monos):
                res_b, scale_b = ech.residue({index[b]: 1})
                res_b[n + t] = scale_b
                solver.add(res_b)
            rem, scale = solver.residue(res_f)
            if any(c < n for c in rem):
                raise ValueError("element does not reduce into the candidate span")
            scale *= scale_f
            for t, b in enumerate(basis_monos):
                v = rem.get(n + t, 0)
                if v:
                    coords[b] = (-v) % p if p else Fraction(-v, scale)
        return coords


# ---------------------------------------------------------------------------
# module-level one-shot wrappers


def quotient_dim(m, ring, degree_bound, gens=None) -> DimReport:
    """Per-slice quotient dimensions and their total for degrees up to the
    bound."""
    return OracleSession(m, ring, degree_bound, gens).dims()


def verify_basis(m, ring, candidate: BasisSet, degree_bound) -> VerificationReport:
    return OracleSession(m, ring, degree_bound).verify_basis(candidate)


@dataclass
class TruncationReport:
    m: int
    n_trunc: int
    char: int
    dims: DimReport
    basis_size: int
    verification: VerificationReport

    @property
    def passed(self) -> bool:
        return self.dims.total == self.basis_size and self.verification.passed


def truncated_quotient(m, n_trunc, ring, degree_bound) -> TruncationReport:
    """Quotient with the variables x_N..x_{m-1} adjoined to the ideal,
    compared against the truncated basis."""
    if n_trunc < 1:
        raise ValueError("truncation level must be >= 1")
    extra = tuple(range(min(n_trunc, m), m))
    session = OracleSession(m, ring, degree_bound, extra_degree_one=extra)
    dims = session.dims()
    basis = truncated_basis(m, n_trunc)
    verification = session.verify_basis(basis)
    return TruncationReport(m, n_trunc, ring.char, dims, len(basis), verification)


def reduce_element(f: DPoly, m, ring, candidate: BasisSet, degree_bound=None):
    """One-shot reduction; verifies the candidate first (and raises if that
    fails), then returns the coordinate dict."""
    if degree_bound is None:
        degree_bound = max(
            [m] + [mono_degree(a) for a in f.terms]
        )
    session = OracleSession(m, ring, degree_bound)
    report = session.verify_basis(candidate)
    if not report.passed:
        raise MustVerifyFirstError("candidate basis failed verification")
    return session.reduce_element(f, candidate)
