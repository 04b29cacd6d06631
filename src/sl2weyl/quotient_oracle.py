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
  only add rank, so the rule holds for any generator family.

* unit pivots e_c are one bitmask of columns per echelon, not rows.  A full
  slice, covered or filled by elimination, is the all-ones mask with no
  rows: its normal forms are 0, and the rows shifted up from it are single
  entries.  A slice that is not covered starts from the unit columns its
  full lower slices reach (exactly their shifted rows) and those that the
  unit columns of its other lower slices shift to with a nonzero constant.
  It echelonizes only the other rows of those lower slices, stripped of the
  unit columns, and, while still short, generators.  A row drops its unit
  columns on entry, so integer entries over the rationals do not grow from
  slice to slice.

* the pivot leads, unit columns and row leads alike, are the DPLEX leading
  monomials of the ideal slice (rows lead at their least column, and the
  columns run in descending DPLEX order); each echelon keeps them as one
  bitmask, its lead mask.  So candidates whose columns avoid every lead
  are their own normal forms and independent at once.  `verify_basis`
  reads the candidates once into one bitmask of columns per slice, and
  echelonizes residues only in a slice where that mask meets the lead mask
  (an overlay slice).  Its report keeps the per-slice results as plain
  tuples and builds the `SliceReport` records on the first read of
  `slices`.  A verified basis is exactly the set
  of non-lead columns outside its overlay slices, so there `reduce_element`
  reads the coordinates off the normal form of the element and solves only
  in the overlay slices.  The lex basis is exactly the set of non-lead
  columns of the ideal (the Groebner-Shirshov statement of the source
  paper), so verifying it computes no residue and reducing in it builds no
  solver.

* what a slice needs besides echelons depends only on (m, characteristic,
  d, w) and is cached for the whole process, each piece built on first
  use: the slice monomials (`dpalgebra.slice_monomials`, the one table the
  generator families read too) and their column index, the nonempty lower
  slices as plain tuples with the all-ones masks of their columns and, per
  shift, the bitmask of the columns it covers (`_lower_slices`, read where
  the lower slice is full), the column map of a shift (`_shift`, built only
  where the lower slice is not full), and the slices of a degree box with
  their sizes (`_box_slices`).  A given family is grouped by slice once per
  `GeneratorSet`; a session holds only the echelons of its slices, a full
  one being a single mask.  So sessions after the first on the same
  (m, ring) go straight to elimination.

Rank computations and normal forms are exact and fraction-free in both
rings: one echelon takes integer rows, keeping its pivot rows primitive over
the rationals and reduced mod p over prime fields, and returns a normal form
as an integer row together with the scale it carries.  Its one ring-specific
step is the cancellation of a row against a pivot, `_cancel_q` over the
rationals and `_cancel_p` over F_p.  Floating point never appears.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain, starmap
from math import gcd, lcm
from operator import mul

from ._record import Record, _set
from .basis_enum import BasisSet, truncated_basis
from .dpalgebra import (
    CoeffRing,
    DPoly,
    mono_degree,
    mono_weight,
    ring_binom,
    slice_monomials,
    unit_normalize,
)
from .weyl_ideal import GeneratorSet, slice_series


class ConfigurationError(ValueError):
    """Generator bounds do not cover the requested slice."""


class MustVerifyFirstError(RuntimeError):
    """reduce_element called with a candidate basis that was not verified."""


@lru_cache(maxsize=None)
def _column_index(m: int, d: int, w: int) -> dict:
    """Monomial -> column in slice (d, w), the position in `slice_monomials`.
    Shared by every caller, so read only."""
    return {a: i for i, a in enumerate(slice_monomials(m, d, w))}


@lru_cache(maxsize=None)
def _box_slices(m: int, degree_bound: int) -> tuple:
    """The nonempty slices of the degree box as (d, w, size), by degree,
    then weight."""
    return tuple(
        (d, w, size)
        for d in range(degree_bound + 1)
        for w in range(d * max(m - 1, 0) + 1)
        if (size := len(slice_monomials(m, d, w)))
    )


@lru_cache(maxsize=None)
def _nonzero_binoms(ring: CoeffRing, j: int, d: int) -> dict:
    """Translation table chr(e) -> "1" if C(e, j) is nonzero in the ring,
    else "0", for 0 <= e <= d."""
    return {e: "1" if ring_binom(ring, e, j) else "0" for e in range(d + 1)}


@lru_cache(maxsize=None)
def _lower_slices(m: int, ring: CoeffRing, d: int, w: int) -> tuple:
    """The nonempty lower slices of slice (d, w) as tuples
    (key, full, i, j, mask): the lower slice key = (d - j, w - i*j), the
    all-ones mask of its columns (its unit columns when it is full), and
    the shift x_i^(j) that carries it up, for the shift powers
    j <= d (j = 1 over the rationals; j = 1, p, p^2, ... over F_p), by j,
    then i.

    `mask` has bit c set for the columns b of slice (d, w) with C(b_i, j)
    nonzero in the ring (C(b_i, j) = 0 also when b_i < j): the shifted unit
    row e_a is C(b_i, j) e_b with a = b - j e_i, so a full lower slice puts
    e_b in the slice whatever the generators.  Over F_p the lowest nonzero
    base-p digit e of b_i gives C(b_i, p^e) != 0, so b is reached whenever
    some x^(b - p^e e_i) lies in a full lower slice."""
    monos = slice_monomials(m, d, w)
    if not monos:
        return ()
    # per variable x_i, the characters chr(b_i) of the columns, last column
    # first, so translating them to binary digits reads as the bitmask
    exps = ["".join(map(chr, reversed(col))) for col in zip(*monos)]
    out = []
    j = 1
    while j <= d:
        digits = _nonzero_binoms(ring, j, d)
        for i in range(m):
            lw = w - i * j
            if lw < 0:
                break
            size = len(slice_monomials(m, d - j, lw))
            if size:
                mask = int(exps[i].translate(digits), 2)
                out.append(((d - j, lw), (1 << size) - 1, i, j, mask))
        if not ring.char:
            break
        j *= ring.char
    return tuple(out)


@lru_cache(maxsize=None)
def _shift(m: int, ring: CoeffRing, d: int, w: int, i: int, j: int) -> tuple:
    """Column map of the shift x_i^(j) from the lower slice
    (d - j, w - i*j) into slice (d, w): per lower column a,
    (column of x_i^(j) * x^a, C(a_i + j, j)), or None where that constant
    vanishes in the ring.  Only the elimination of a slice that is not
    covered reads it, for its lower slices that are not full, so it is
    built on first use there."""
    index = _column_index(m, d, w)
    out = []
    for a in slice_monomials(m, d - j, w - i * j):
        s = ring_binom(ring, a[i] + j, j)
        if s:
            b = list(a)
            b[i] += j
            out.append((index[tuple(b)], s))
        else:
            out.append(None)
    return tuple(out)


# ---------------------------------------------------------------------------
# exact echelon forms (sparse rows: dict column -> coefficient)


def _cancel_q(row, piv, lead, p):
    """Over the rationals: row * (a/g) - piv * (b/g), with a the pivot lead,
    b the row lead and g = gcd(a, b), in place."""
    a, b = piv[lead], row[lead]
    g = gcd(a, b)
    ca, cb = b // g, a // g
    if cb != 1:
        for c, v in row.items():
            row[c] = v * cb
    for c, v in piv.items():
        nv = row.get(c, 0) - v * ca
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
    return row


def _cancel_p(row, piv, lead, p):
    """Over F_p: row - b * piv mod p with b the row lead, in place (the
    pivot leads with 1)."""
    f = row[lead]
    for c, v in piv.items():
        nv = (row.get(c, 0) - f * v) % p
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
    return row


class _Echelon:
    """Integer rows, fraction-free in both rings: over the rationals (p = 0)
    pivot rows are kept primitive with a positive lead; over F_p entries are
    reduced mod p and pivots lead with 1.  Only the cancel step (`_cancel_q`
    or `_cancel_p`, picked per call) and the pivot normalization depend on
    the ring.

    The unit pivots e_c are the bitmask `units` (bit c for column c);
    `pivots` holds the other rows by lead, and their entries avoid the unit
    columns.  `leads` is the bitmask of every pivot lead: the unit columns
    and the leads of the rows.  A full slice of n columns is
    units = leads = 2^n - 1 with no rows: every row reduces to 0 against
    it."""

    __slots__ = ("p", "units", "leads", "pivots", "__weakref__")

    def __init__(self, p, units=0):
        self.p = p
        self.units = self.leads = units
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self):
        return self.units.bit_count() + len(self.pivots)

    def add(self, row) -> bool:
        """Echelonize an integer row (nonzero entries nonzero mod p) against
        the pivots; True when it raises the rank.  Unit columns are dropped
        on entry, which is the cancellation against their unit pivots."""
        units = self.units
        return self._insert({c: v for c, v in row.items() if not units >> c & 1})

    def _insert(self, row) -> bool:
        """`add` for a row of its own that avoids the unit columns; the row
        is consumed."""
        pivots, p = self.pivots, self.p
        cancel = _cancel_p if p else _cancel_q
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = unit_normalize(row, lead, p)
                self.leads |= 1 << lead
                return True
            row = cancel(row, piv, lead, p)
        return False

    def residue(self, row):
        """Normal form against the pivot rows, fraction-free: returns
        (r, scale) with r = scale * normal form.  Every pivot-lead component
        is eliminated, so the normal form is unique and the map is linear.
        Rational entries are cleared of denominators on entry, and unit
        columns are dropped."""
        scale = 1
        for v in row.values():
            scale = lcm(scale, v.denominator)
        units = self.units
        row = {c: int(v * scale) for c, v in row.items() if v and not units >> c & 1}
        pivots, p = self.pivots, self.p
        cancel = _cancel_p if p else _cancel_q
        while True:
            hits = [c for c in row if c in pivots]
            if not hits:
                return row, scale
            lead = min(hits)
            piv = pivots[lead]
            a = piv[lead]
            scale *= a // gcd(a, row[lead])
            row = cancel(row, piv, lead, p)


# ---------------------------------------------------------------------------
# reports


class SliceReport(Record):
    __slots__ = (
        "degree", "weight", "slice_dim", "quotient_dim", "candidate_count",
        "independent", "spanning",
    )

    def __init__(
        self, degree: int, weight: int, slice_dim: int, quotient_dim: int,
        candidate_count: int, independent: bool, spanning: bool,
    ):
        _set(self, "degree", degree)
        _set(self, "weight", weight)
        _set(self, "slice_dim", slice_dim)
        _set(self, "quotient_dim", quotient_dim)
        _set(self, "candidate_count", candidate_count)
        _set(self, "independent", independent)
        _set(self, "spanning", spanning)

    @property
    def passed(self) -> bool:
        return self.independent and self.spanning


class DimReport(Record):
    __slots__ = ("m", "char", "degree_bound", "dims", "total", "elapsed_seconds")

    def __init__(
        self, m: int, char: int, degree_bound: int, dims: dict[tuple[int, int], int],
        total: int, elapsed_seconds: float,
    ):
        _set(self, "m", m)
        _set(self, "char", char)
        _set(self, "degree_bound", degree_bound)
        _set(self, "dims", dims)
        _set(self, "total", total)
        _set(self, "elapsed_seconds", elapsed_seconds)


class VerificationReport(Record):
    """The per-slice results are kept as plain tuples in `SliceReport` field
    order (`_rows`); `slices` builds their records on first read and keeps
    them, and the verdict and totals read the tuples."""

    __slots__ = (
        "m", "char", "provenance", "degree_bound", "elapsed_seconds", "_rows", "_slices",
    )
    _fields = ("m", "char", "provenance", "degree_bound", "slices", "elapsed_seconds")

    def __init__(
        self, m: int, char: int, provenance: str, degree_bound: int,
        slices, elapsed_seconds: float,
    ):
        slices = tuple(slices)
        self._fill(
            m, char, provenance, degree_bound, tuple(map(SliceReport._key, slices)),
            elapsed_seconds,
        )
        _set(self, "_slices", slices)

    @classmethod
    def _of_rows(cls, m, char, provenance, degree_bound, rows, elapsed_seconds):
        """A report on per-slice tuples in `SliceReport` field order."""
        report = cls.__new__(cls)
        report._fill(m, char, provenance, degree_bound, rows, elapsed_seconds)
        _set(report, "_slices", None)
        return report

    def _fill(self, m, char, provenance, degree_bound, rows, elapsed_seconds):
        _set(self, "m", m)
        _set(self, "char", char)
        _set(self, "provenance", provenance)
        _set(self, "degree_bound", degree_bound)
        _set(self, "_rows", rows)
        _set(self, "elapsed_seconds", elapsed_seconds)

    @property
    def slices(self) -> tuple:
        slices = self._slices
        if slices is None:
            slices = tuple(starmap(SliceReport, self._rows))
            _set(self, "_slices", slices)
        return slices

    @property
    def passed(self) -> bool:
        return all(independent and spanning for *_, independent, spanning in self._rows)

    @property
    def total_quotient_dim(self) -> int:
        return sum(r[3] for r in self._rows)  # quotient_dim

    @property
    def total_candidates(self) -> int:
        return sum(r[4] for r in self._rows)  # candidate_count


class GradedSlice(Record):
    """The literal rows of one slice; `ring` is the one `CoeffRing` object
    of its characteristic."""

    __slots__ = ("m", "ring", "degree", "weight", "monomials", "ideal_rows")

    def __init__(
        self, m: int, ring: CoeffRing, degree: int, weight: int, monomials: tuple,
        ideal_rows: tuple,
    ):
        _set(self, "m", m)
        _set(self, "ring", ring)
        _set(self, "degree", degree)
        _set(self, "weight", weight)
        _set(self, "monomials", monomials)
        # rows as coefficient tuples in the monomial coordinates
        _set(self, "ideal_rows", ideal_rows)


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
    index = _column_index(m, d, w)
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
    (`build_slice` remains the literal reference).  Unit pivots are a
    column bitmask, and a full slice is the all-ones mask with no rows.

    What a slice needs besides its echelon is cached at three levels.  Per
    (m, ring, d, w), for the whole process: the slice monomials, their
    column index, the nonempty lower slices with the all-ones masks of
    their columns and the bitmask of columns each shift covers
    (`_lower_slices`), and the column
    map of each shift that `_eliminate` reads (`_shift`), each built on
    first use; per (m, degree bound), the box slices with their sizes.  Per
    given family: its polynomials grouped by slice (`GeneratorSet.by_slice`).
    Per session: the echelon of each slice, a full one holding only its
    all-ones mask.

    gens: a family for the same m and ring covering the degree box, in place
    of the defining series coefficients.  extra_degree_one: indices j in
    0..m-1 whose variables x_j are adjoined to the ideal (used for
    truncations); any other index raises ValueError.
    """

    def __init__(self, m, ring, degree_bound, gens=None, extra_degree_one=()):
        if degree_bound < m:
            raise ValueError(f"degree_bound must be >= m = {m}")
        self.m = m
        self.ring = ring
        self.degree_bound = degree_bound
        self.weight_bound = degree_bound * max(m - 1, 0)
        self.gens = gens
        self._given = {}
        if gens is not None:
            if gens.m != m or gens.ring != ring:
                raise ConfigurationError(
                    f"generators are for m = {gens.m} over {gens.ring}, "
                    f"not m = {m} over {ring}"
                )
            if gens.degree_bound < degree_bound or gens.weight_bound < self.weight_bound:
                raise ConfigurationError("generator bounds do not cover the degree box")
            self._given = gens.by_slice()
        for j in extra_degree_one:
            if not 0 <= j < m:
                raise ValueError(f"extra_degree_one index {j} outside 0..{m - 1}")
        self._extra = {
            (1, j): [DPoly.monomial(ring, m, tuple(int(i == j) for i in range(m)))]
            for j in extra_degree_one
        }
        self._spaces: dict[tuple[int, int], _Echelon] = {}
        # each verified basis -> its overlay slices, where a candidate sits
        # on a pivot lead
        self.verified: dict[BasisSet, frozenset] = {}

    # -- slice spaces ------------------------------------------------------

    def space(self, d, w):
        ech = self._spaces.get((d, w))
        if ech is None:
            ech = self._spaces[d, w] = self._build(d, w)
        return ech

    def _build(self, d, w):
        """A covered slice is stored full at once; any other is eliminated."""
        ncols = len(slice_monomials(self.m, d, w))
        covered, partial = 0, []
        for key, lower_full, i, j, mask in _lower_slices(self.m, self.ring, d, w):
            lower = self._spaces.get(key)
            if lower is None:
                lower = self.space(*key)
            if lower.units == lower_full:
                covered |= mask
            else:
                partial.append((i, j, lower))
        full = (1 << ncols) - 1
        if covered == full:
            return _Echelon(self.ring.char, full)
        return self._eliminate(d, w, full, partial, covered)

    def _eliminate(self, d, w, full, partial, covered):
        """Echelon of a slice that is not covered: unit columns at the
        covered columns (all that the full lower slices shift up) and at the
        images of the unit columns of the other lower slices, then the
        shifted rows of those lower slices without the unit columns, then
        generator rows while the rank stays below the slice size.  A slice
        this fills is stored full."""
        p = self.ring.char
        shifts = []
        for i, j, lower in partial:
            shift = _shift(self.m, self.ring, d, w, i, j)
            shifts.append((shift, lower.pivots))
            # the shifted unit row e_a is C(a_i + j, j) e_b: a unit column
            # of this slice wherever the constant is nonzero
            units = lower.units
            while units:
                low = units & -units
                hit = shift[low.bit_length() - 1]
                if hit is not None:
                    covered |= 1 << hit[0]
                units ^= low
        if covered == full:
            return _Echelon(p, full)
        rows = []
        for shift, pivots in shifts:
            for piv in pivots.values():
                row = {}
                for col, c in piv.items():
                    hit = shift[col]
                    if hit is not None and not covered >> hit[0] & 1:
                        row[hit[0]] = c * hit[1]
                if row:
                    rows.append(row)
        rows.sort(key=min)
        ech = _Echelon(p, covered)
        pivots = ech.pivots
        target = (full ^ covered).bit_count()
        for row in rows:
            if len(pivots) == target:
                break
            ech._insert(row)
        if len(pivots) < target:
            index = _column_index(self.m, d, w)
            for poly in self._generators(d, w):
                ech.add({index[a]: c for a, c in poly.terms.items()})
                if len(pivots) == target:
                    break
        if len(pivots) == target:
            return _Echelon(p, full)
        return ech

    def _generators(self, d, w):
        """Generator polynomials of slice (d, w), one at a time: the given
        ones and the truncation variables, then, when no generators were
        given, the defining series coefficients."""
        yield from self._given.get((d, w), ())
        yield from self._extra.get((d, w), ())
        if self.gens is None:
            for _, pairs in slice_series(self.m, d, w):
                yield DPoly(self.ring, self.m, dict(pairs))

    # -- queries -----------------------------------------------------------

    def dims(self) -> DimReport:
        t0 = time.monotonic()
        dims = {}
        for d, w, size in _box_slices(self.m, self.degree_bound):
            dims[(d, w)] = size - self.space(d, w).rank
        return DimReport(
            self.m, self.ring.char, self.degree_bound, dims, sum(dims.values()),
            time.monotonic() - t0,
        )

    def verify_basis(self, candidate: BasisSet) -> VerificationReport:
        """The candidates of a slice are one bitmask of its columns.  A slice
        whose mask avoids every pivot lead passes independence at once:
        distinct non-lead columns are their own normal forms.  Otherwise (an
        overlay slice) the residues of the candidates are echelonized in an
        overlay, which decides.  A basis that passes is stored in `verified`
        with its overlay slices."""
        t0 = time.monotonic()
        m = self.m
        if candidate.m != m:
            raise ValueError("candidate basis is for a different m")
        # the slices would skip a negative or fractional exponent and find no
        # column for a monomial of another length; the check reads only the
        # distinct lengths and exponents, a few of each
        lengths = set(map(len, candidate.monomials))
        exponents = set(chain.from_iterable(candidate.monomials))
        if lengths - {m} or not all(isinstance(e, int) and e >= 0 for e in exponents):
            raise ValueError(f"candidate monomials must be {m} nonnegative integers each")
        masks: dict[tuple[int, int], int] = {}
        weights = range(m)
        for a in candidate.monomials:
            d = sum(a)
            if d > self.degree_bound:
                raise ValueError("candidate monomials exceed the degree bound")
            w = sum(map(mul, a, weights))
            masks[d, w] = masks.get((d, w), 0) | 1 << _column_index(m, d, w)[a]
        p = self.ring.char
        rows, overlays = [], []
        for d, w, size in _box_slices(m, self.degree_bound):
            ech = self.space(d, w)
            cands = masks.get((d, w), 0)
            indep = True
            if cands & ech.leads:
                overlays.append((d, w))
                overlay = _Echelon(p)
                left = cands
                while left:
                    low = left & -left
                    res, _ = ech.residue({low.bit_length() - 1: 1})
                    if not res or not overlay.add(res):
                        indep = False
                        break
                    left ^= low
            count = cands.bit_count()
            q = size - ech.rank
            rows.append((d, w, size, q, count, indep, q == count))
        report = VerificationReport._of_rows(
            m, p, candidate.provenance, self.degree_bound, tuple(rows),
            time.monotonic() - t0,
        )
        if report.passed:
            self.verified[candidate] = frozenset(overlays)
        return report

    def reduce_element(self, f: DPoly, candidate: BasisSet):
        """Coordinates of the residue of f in the verified candidate basis.
        Only that very basis counts as verified, not others sharing its
        provenance label.

        Outside the overlay slices of the basis its monomials are exactly
        the non-lead columns, where the normal form of f lives, so the
        coordinates are the entries of the residue (r, scale) of f divided
        by the scale; the lex basis has no overlay slice.  In an overlay
        slice the residues of the basis monomials are echelonized with
        tags, and the coordinates are solved for."""
        overlays = self.verified.get(candidate)
        if overlays is None:
            raise MustVerifyFirstError(
                "verify_basis must pass for this candidate before reducing"
            )
        if f.m != self.m or f.ring != self.ring:
            raise ValueError("element does not match the session")
        cand = candidate.by_slice() if overlays else None
        p = self.ring.char
        coords: dict[tuple, object] = {}
        by_slice: dict[tuple[int, int], dict] = {}
        for a, c in f.terms.items():
            by_slice.setdefault((mono_degree(a), mono_weight(a)), {})[a] = c
        for (d, w), terms in sorted(by_slice.items()):
            if d > self.degree_bound:
                raise ValueError("element exceeds the session degree bound")
            monos = slice_monomials(self.m, d, w)
            index = _column_index(self.m, d, w)
            ech = self.space(d, w)
            res_f, scale_f = ech.residue({index[a]: c for a, c in terms.items()})
            if (d, w) not in overlays:
                if p:
                    inv = pow(scale_f, -1, p)
                    for c, v in res_f.items():
                        coords[monos[c]] = v * inv % p
                else:
                    for c, v in res_f.items():
                        coords[monos[c]] = Fraction(v, scale_f)
                continue
            basis_monos = cand.get((d, w), [])
            # solve res_f = sum coords_b * residue(b) by eliminating with
            # augmented tags: row res_b + scale_b * e_t is scale_b times
            # (residue(b) + e_t), so the tags come out as -coords
            n = len(monos)
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


class TruncationReport(Record):
    __slots__ = ("m", "n_trunc", "char", "dims", "basis_size", "verification")

    def __init__(
        self, m: int, n_trunc: int, char: int, dims: DimReport, basis_size: int,
        verification: VerificationReport,
    ):
        _set(self, "m", m)
        _set(self, "n_trunc", n_trunc)
        _set(self, "char", char)
        _set(self, "dims", dims)
        _set(self, "basis_size", basis_size)
        _set(self, "verification", verification)

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


def reduce_element(f: DPoly, m, ring, candidate: BasisSet):
    """One-shot reduction over the degree box of f (at least m); verifies the
    candidate first (and raises if that fails), then returns the coordinate
    dict."""
    degree_bound = max([m] + [mono_degree(a) for a in f.terms])
    session = OracleSession(m, ring, degree_bound)
    report = session.verify_basis(candidate)
    if not report.passed:
        raise MustVerifyFirstError("candidate basis failed verification")
    return session.reduce_element(f, candidate)
