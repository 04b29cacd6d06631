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

* the engine builds the slices of a degree box bottom-up, all at once.
  Writing any multiplier as u = x_i^(j) * u'' with u''_i = 0 splits off
  the full x_i-power of u, and the structure constant of that split is
  C(j, j) = 1 in every ring, so

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
  The slices run in the order of the box's plan (`_plan`), every lower
  slice first, in one loop with no recursion: a session's first `space`
  call builds its whole box.

* most slices of the degree box lie wholly in the ideal (they are *full*:
  every basis monomial has degree <= m), and many are known to be full
  before any row is built.  A slice is *covered* when every monomial b is
  x_i^(j) * x^(b - j e_i) with the lower slice (d - j, w - i*j) full, j one
  of the shift powers and C(b_i, j) nonzero in the ring.  A covered slice
  skips shifted rows, elimination and generators alike; extra generators
  only add rank, so the rule holds for any generator family.  Coverage is
  decided without the slice's monomials.  A slice of degree >= 1 whose
  lower slices are all full is covered: for b in it take b_i >= 1 and a
  nonzero base-p digit of b_i at position k (k = 0 over the rationals);
  then C(b_i, p^k) is that digit mod p (Lucas), and the lower slice of the
  shift x_i^(p^k) holds b - p^k e_i.  A slice with some lower slices full
  is covered exactly when no monomial of it has every exponent b_i among
  those that all the full shifts x_i^(j) miss (C(b_i, j) = 0): a knapsack
  over (degree, weight) on those exponents, per variable (`_covered`).

* unit pivots e_c are one bitmask of columns per echelon, not rows.  A full
  slice, covered or filled by elimination, is the all-ones mask with no
  rows: its normal forms are 0, and the rows shifted up from it are single
  entries.  A slice that is not covered starts from the unit columns its
  full lower slices reach (exactly their shifted rows, the columns with
  C(b_i, j) nonzero, one bitmask per lower slice) and those that the
  unit columns of its other lower slices shift to with a nonzero constant.
  It echelonizes only the other rows of those lower slices, stripped of the
  unit columns, and, while still short, generators.  The first shifted row
  of each lead becomes a pivot with no cancel, and the others follow by
  lead; the row space, and so the rank, the leads, the normal forms and
  the generators pulled, do not depend on that order.  A row drops its unit
  columns on entry, so integer entries over the rationals do not grow from
  slice to slice.

* the pivot leads, unit columns and row leads alike, are the DPLEX leading
  monomials of the ideal slice (rows lead at their least column, and the
  columns run in descending DPLEX order); each echelon keeps them as one
  bitmask, its lead mask.  So candidates whose columns avoid every lead
  are their own normal forms and independent at once.  `verify_basis`
  reads the candidates as one bitmask of columns per slice, kept on the
  `BasisSet` from its first verification (`BasisSet.column_masks`, with the
  top degree that every session checks against its degree bound), and
  computes residues only in a slice where that mask meets the lead mask
  (an overlay slice).  Its report keeps the per-slice results as tuples,
  its `rows`, and builds `SliceReport` records only when `slices` is read.
  A verified basis is exactly the set of non-lead columns outside its
  overlay slices, so there `reduce_element` reads the coordinates off the
  normal form of the element.  The lex basis is exactly the set of
  non-lead columns of the ideal (the Groebner-Shirshov statement of the
  source paper), so verifying it computes no residue and reducing in it
  builds no solver.

* verification and reduction share one solver in an overlay slice of n
  columns (`_overlay`): the candidate columns c_0, c_1, ... each give the
  tagged row scale * (residue(e_c_t) + e_(n+t)), and these are
  echelonized.  A row leads at a tag column (>= n) exactly when the
  residues before it span its own, so `verify_basis` passes independence
  when no pivot leads at a tag, and `reduce_element` reduces the residue
  of the element against the solver and reads minus its coordinates, times
  the scale, at the tags.  Reduction rebuilds the solver on every call.

* one table serves every session of a box: its plan (`_plan`), cached per
  (m, characteristic, degree bound).  It lists the slices in box order as
  records (`_PlanSlice`) with their sizes, counted and not enumerated
  (`_box_slices`), full echelons, and per slice its lower slices, each as
  its plan position and its shift, with the coverage verdicts found so far,
  by the set of full lower slices, so a later session with the same full
  lower slices decides coverage with one lookup.  The plan enumerates a
  slice's monomials only when a session eliminates the slice.  It then keeps
  the masks of the columns the shifts cover and the shift column maps, each
  built the first time an elimination reads it.  Besides the plan an
  eliminated slice reads the slice monomials and their column index
  (`dpalgebra.slice_monomials`, `dpalgebra.column_index`), which the
  generator families and candidate bases read too.  A given family or
  relation set keeps, per slice, the column rows a session pulls
  (`GeneratorSet.slice_rows`, filled lazily), and a session makes echelons
  only for the slices it eliminates: every full slice of every session of
  the box is the plan's one full echelon of that slice, which nothing
  inserts into.  So sessions after the first on the same box go straight to
  elimination.  Generator rows reach the echelon in one form, column rows
  {column: integer}: those of the given sets, and the defining series
  coefficients read straight off their (monomial, coefficient) pairs.

Rank computations and normal forms are exact and fraction-free in every
ring, in one echelon class.  Over the rationals its rows are integer dicts
and pivot rows are kept primitive; over an odd F_p they are dicts reduced
mod p whose pivots lead with 1; over F_2 a row is an int, the bitmask of
its columns, that leads at its lowest set bit and cancels by xor.  The
echelon takes and returns column rows in every ring, converting at the
boundary, and returns a normal form as an integer row together with the
scale it carries.  Floating point never appears.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from math import gcd, lcm

from ._record import Record
from .basis_enum import BasisSet, truncated_basis
from .dpalgebra import (
    CoeffRing,
    DPoly,
    column_index,
    mono_degree,
    mono_weight,
    ring_binom,
    slice_monomials,
    unit_normalize,
)
from .weyl_ideal import GeneratorSet, slice_series, truncation_relations


class ConfigurationError(ValueError):
    """Generator bounds do not cover the requested slice."""


class MustVerifyFirstError(RuntimeError):
    """reduce_element called with a candidate basis that was not verified."""


def _box_slices(m: int, degree_bound: int) -> tuple:
    """The nonempty slices of the degree box as (d, w, size), by degree,
    then weight.  The sizes are counted, not enumerated: slice (d, w) has
    one monomial per exponent vector b with sum b = d and sum i*b_i = w,
    [q^w] of the Gaussian binomial [m-1+d choose d]_q.  One unbounded
    knapsack over the variables counts them all, in a table with entry
    d * stride + w; x_i moves an entry by one degree and i weights."""
    top = max(m - 1, 0)
    stride = degree_bound * top + 1
    counts = [1] + [0] * ((degree_bound + 1) * stride - 1)
    for i in range(m):
        # an entry read across a row end, at a weight w < i, is a weight
        # above the top of its degree, which stays 0
        step = stride + i
        for k in range(step, len(counts)):
            counts[k] += counts[k - step]
    return tuple(
        (d, w, size)
        for d in range(degree_bound + 1)
        for w in range(d * top + 1)
        if (size := counts[d * stride + w])
    )


class _PlanSlice(Record):
    """One slice of a box's `_plan`, its fields described there."""

    __slots__ = ("key", "size", "lower", "below", "filled", "verdicts", "masks", "shifts")


@lru_cache(maxsize=None)
def _plan(m: int, ring: CoeffRing, degree_bound: int) -> tuple:
    """The slices of the degree box in box order (`_box_slices`: by degree,
    so every lower slice comes first), as `_PlanSlice` records: `key`
    (d, w), `size` and what `_build_box` reads.  Nothing in it enumerates
    the monomials of a slice until a session eliminates that slice:

    * `lower`, its nonempty lower slices (d - j, w - i*j), by j, then i, as
      (plan position, i, j, hits) for the shift x_i^(j) that carries the
      lower slice up, j <= d a shift power (1 over the rationals; 1, p,
      p^2, ... over F_p), and `hits` the bitmask of the exponents e of the
      box with C(e, j) nonzero in the ring;
    * `below`, the bitmask of the lower plan positions;
    * `filled`, the echelon of the slice when it is full (units = leads =
      all its columns, no pivots), the one that every session of the box
      stores there; nothing inserts into it;
    * `verdicts`, whether the slice is covered, by the bitmask of its full
      lower positions: filled in as sessions ask (`_covered`), from the
      two known at once, none full (not covered) and all full (covered at
      degree >= 1, the module docstring);
    * `masks`, per lower slice the `_masks` mask of the columns its shift
      covers, and `shifts`, per lower slice the `_shift` column map into
      this slice, None until an elimination first reads them."""
    box = _box_slices(m, degree_bound)
    where = {(d, w): pos for pos, (d, w, _) in enumerate(box)}
    powers, j = [], 1
    while j <= degree_bound:
        hits = sum(1 << e for e in range(degree_bound + 1) if ring_binom(ring, e, j))
        powers.append((j, hits))
        if not ring.char:
            break
        j *= ring.char
    out = []
    for d, w, size in box:
        lower = []
        below = 0
        for j, hits in powers:
            if j > d:
                break
            for i in range(m):
                lw = w - i * j
                if lw < 0:
                    break
                pos = where.get((d - j, lw))
                if pos is not None:
                    lower.append((pos, i, j, hits))
                    below |= 1 << pos
        # at degree 0 below = 0 and the slice is not covered
        verdicts = {below: d > 0, 0: False}
        out.append(_PlanSlice(
            (d, w), size, tuple(lower), below, _Echelon(ring.char, (1 << size) - 1), verdicts,
            [None] * len(lower), [None] * len(lower),
        ))
    return tuple(out)


def _covered(m: int, d: int, w: int, lower: tuple, part: int) -> bool:
    """Whether slice (d, w), with lower slices `lower`, is covered when the
    lower slices at the plan positions of bitmask `part` are full, without
    its monomials: whether no monomial b of the slice has every exponent
    b_i among those that every full shift x_i^(j) misses (C(b_i, j) = 0).
    Those exponents are folded variable by variable into one bitset over
    (degree, weight), bit deg * stride + wt, as a knapsack: the slice is
    covered when bit (d, w) stays clear."""
    misses = [(1 << (d + 1)) - 1] * m
    for pos, i, _, hits in lower:
        if part >> pos & 1:
            misses[i] &= ~hits
    stride = d * max(m - 1, 0) + 1
    limit = (1 << ((d + 1) * stride)) - 1
    reach = 1
    for i, allowed in enumerate(misses):
        step, acc = stride + i, 0
        while allowed:
            low = allowed & -allowed
            acc |= reach << ((low.bit_length() - 1) * step)
            allowed ^= low
        reach = acc & limit
    return not reach >> (d * stride + w) & 1


def _masks(m: int, d: int, w: int, lower: tuple) -> list:
    """Per lower slice of slice (d, w), the bitmask of the columns b with
    C(b_i, j) nonzero in the ring for its shift x_i^(j) (C(b_i, j) = 0 also
    when b_i < j): the shifted unit row e_a is C(b_i, j) e_b with
    a = b - j e_i, so a full lower slice puts e_b in the slice whatever the
    generators."""
    # per variable x_i, the characters chr(b_i) of the columns, last column
    # first, so translating them to the binary digits of `hits` reads as
    # the bitmask
    exps = ["".join(map(chr, reversed(col))) for col in zip(*slice_monomials(m, d, w))]
    return [
        int(exps[i].translate({e: "01"[hits >> e & 1] for e in range(d + 1)}), 2)
        for _, i, _, hits in lower
    ]


def _shift(m: int, ring: CoeffRing, d: int, w: int, i: int, j: int) -> tuple:
    """Column map of the shift x_i^(j) from the lower slice
    (d - j, w - i*j) into slice (d, w): per lower column a,
    (column of x_i^(j) * x^a, C(a_i + j, j)), or None where that constant
    vanishes in the ring.  Only the elimination of a slice that is not
    covered reads it, for its lower slices that are not full, and stores it
    in the plan's `shifts`."""
    index = column_index(m, d, w)
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
# exact echelon forms (sparse rows: dict column -> coefficient, or over F_2
# a bitmask of columns)


def _pack(row):
    """A row over F_2 as the bitmask of its odd entries."""
    bits = 0
    for c, v in row.items():
        if v & 1:
            bits |= 1 << c
    return bits


def _unpack(bits):
    """A bitmask row over F_2 as a column row of ones."""
    row = {}
    while bits:
        low = bits & -bits
        row[low.bit_length() - 1] = 1
        bits ^= low
    return row


def _lowest(bits):
    """The lowest set bit of a bitmask row, the sort key of its lead."""
    return bits & -bits


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
    """Exact rows, fraction-free in every ring.  Over the rationals (p = 0)
    rows are integer dicts and pivot rows are kept primitive with a positive
    lead; over an odd F_p they are dicts, pivot entries are reduced mod p
    and pivots lead with 1; over F_2 a row is the int bitmask of its columns,
    its lead is its lowest set bit and a cancel is `^=`.  `add` and
    `residue` take and return column rows in every ring, converting at the
    boundary; `_insert` takes a row already in the ring's form.

    The unit pivots e_c are the bitmask `units` (bit c for column c);
    `pivots` holds the other rows by lead, and their entries avoid the unit
    columns.  `leads` is the bitmask of every pivot lead: the unit columns
    and the leads of the rows, and `rank` counts them.  A full slice of n
    columns is units = leads = 2^n - 1 with no rows: every row reduces to 0
    against it, and `add` changes nothing."""

    __slots__ = ("p", "units", "leads", "rank", "pivots", "__weakref__")

    def __init__(self, p, units=0):
        self.p = p
        self.units = self.leads = units
        self.rank = units.bit_count()
        self.pivots: dict = {}

    def add(self, row) -> bool:
        """Echelonize an integer column row (nonzero entries nonzero mod p)
        against the pivots; True when it raises the rank.  Unit columns are
        dropped on entry, which is the cancellation against their unit
        pivots; over F_2 the row is packed."""
        units, p = self.units, self.p
        if p == 2:
            return self._insert(_pack(row) & ~units)
        return self._insert({c: v for c, v in row.items() if not units >> c & 1})

    def _insert(self, row) -> bool:
        """`add` for a row of its own in the ring's form (a bitmask over
        F_2) that avoids the unit columns; the row is consumed."""
        pivots, p = self.pivots, self.p
        if p == 2:
            while row:
                low = row & -row
                lead = low.bit_length() - 1
                piv = pivots.get(lead)
                if piv is None:
                    pivots[lead] = row
                    self.leads |= low
                    self.rank += 1
                    return True
                row ^= piv
            return False
        cancel = _cancel_p if p else _cancel_q
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = unit_normalize(row, lead, p)
                self.leads |= 1 << lead
                self.rank += 1
                return True
            row = cancel(row, piv, lead, p)
        return False

    def residue(self, row):
        """Normal form against the pivot rows, fraction-free: returns
        (r, scale) with r = scale * normal form, a column row.  Every
        pivot-lead component is eliminated, so the normal form is unique and
        the map is linear.  Rational entries are cleared of denominators on
        entry, and unit columns are dropped."""
        scale = 1
        for v in row.values():
            scale = lcm(scale, v.denominator)
        units = self.units
        row = {c: int(v * scale) for c, v in row.items() if v and not units >> c & 1}
        pivots, p = self.pivots, self.p
        if p == 2:
            bits, heads = _pack(row), self.leads ^ units
            while hits := bits & heads:
                bits ^= pivots[(hits & -hits).bit_length() - 1]
            return _unpack(bits), scale
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


def _overlay(ech, cols, n):
    """The overlay solver of a slice of n columns with echelon `ech` (see
    the module docstring), in the ring of `ech`: the tagged rows
    scale * (residue(e_c) + e_(n+t)) of the columns c = cols[t],
    echelonized."""
    solver = _Echelon(ech.p)
    for t, c in enumerate(cols):
        row, scale = ech.residue({c: 1})
        row[n + t] = scale
        solver.add(row)
    return solver


# ---------------------------------------------------------------------------
# reports


class SliceReport(Record):
    __slots__ = (
        "degree", "weight", "slice_dim", "quotient_dim", "candidate_count",
        "independent", "spanning",
    )

    @property
    def passed(self) -> bool:
        return self.independent and self.spanning


class DimReport(Record):
    __slots__ = ("m", "char", "degree_bound", "dims", "elapsed_seconds")

    @property
    def total(self) -> int:
        return sum(self.dims.values())


class VerificationReport(Record):
    """`rows` holds the per-slice results as tuples in `SliceReport` field
    order; `slices` builds their records on each read."""

    __slots__ = ("m", "char", "provenance", "degree_bound", "rows", "elapsed_seconds")

    def __init__(self, m, char, provenance, degree_bound, rows, elapsed_seconds):
        Record.__init__(self, m, char, provenance, degree_bound, tuple(rows), elapsed_seconds)

    @property
    def slices(self) -> tuple:
        return tuple(starmap(SliceReport, self.rows))

    @property
    def passed(self) -> bool:
        return all(independent and spanning for *_, independent, spanning in self.rows)

    @property
    def total_quotient_dim(self) -> int:
        return sum(r[3] for r in self.rows)  # quotient_dim

    @property
    def total_candidates(self) -> int:
        return sum(r[4] for r in self.rows)  # candidate_count


class GradedSlice(Record):
    """The literal rows of one slice; `ring` is the one `CoeffRing` object
    of its characteristic."""

    # ideal_rows: rows as coefficient tuples in the monomial coordinates
    __slots__ = ("m", "ring", "degree", "weight", "monomials", "ideal_rows")


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
    index = column_index(m, d, w)
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

    The module docstring describes how slices are built, verified and
    reduced; `build_slice` remains the literal reference.

    The first `space` call builds every slice of the degree box in one
    ordered pass over the box's plan (`_build_box`); later calls read the
    stored echelons, and a slice outside the box raises ValueError.  The
    plan is shared by every session of the same box, with the echelon of
    each full slice; a given family keeps its column rows by slice
    (`GeneratorSet.slice_rows`) and a candidate basis its column masks
    (`BasisSet.column_masks`) for every session that reads them; the
    session makes only the echelons of the slices it eliminates that do
    not end full.

    gens: a family covering the degree box, in place of the defining series
    coefficients.  relations: a set adjoined to the ideal whichever the base
    (`weyl_ideal.truncation_relations` builds the truncations).  Both are
    `GeneratorSet`s of the session's m and ring, or a ConfigurationError
    is raised, and are checked and read the same way.
    """

    def __init__(self, m, ring, degree_bound, gens=None, relations=None):
        if degree_bound < m:
            raise ValueError(f"degree_bound must be >= m = {m}")
        self.m = m
        self.ring = ring
        self.degree_bound = degree_bound
        self.weight_bound = degree_bound * max(m - 1, 0)
        self.gens = gens
        self.relations = relations
        for given in (gens, relations):
            if given is None:
                continue
            if given.m != m or given.ring != ring:
                raise ConfigurationError(
                    f"{given.family} set is for m = {given.m} over {given.ring}, "
                    f"not m = {m} over {ring}"
                )
            # relations only adjoin rows, so need not cover the box
            if given is gens and (
                gens.degree_bound < degree_bound or gens.weight_bound < self.weight_bound
            ):
                raise ConfigurationError("generator bounds do not cover the degree box")
            given.by_slice()  # checks every entry once per set
        self._spaces: dict[tuple[int, int], _Echelon] = {}
        # each verified basis -> its overlay slices, where a candidate sits
        # on a pivot lead
        self.verified: dict[BasisSet, frozenset] = {}

    # -- slice spaces ------------------------------------------------------

    def space(self, d, w):
        """The echelon of slice (d, w) of the degree box; the first call
        builds the whole box (`_build_box`)."""
        ech = (self._spaces or self._build_box()).get((d, w))
        if ech is None:
            raise ValueError(
                f"slice ({d},{w}) is not a slice of the degree box "
                f"(m = {self.m}, degree bound {self.degree_bound})"
            )
        return ech

    def _build_box(self):
        """Every slice of the box in one pass over its `_plan`, lower slices
        first: a covered slice is stored full at once, any other is
        eliminated.  A full slice is the plan's `filled` echelon, shared by
        every session of the box.  The full slices so far are the bitmask
        `done` of their plan positions, so whether a slice is covered is
        one lookup in the plan's `verdicts`, by its full lower positions,
        and a `_covered` knapsack the first time a pattern comes up."""
        m = self.m
        echs, spaces, done = [], {}, 0
        for pos, sl in enumerate(_plan(m, self.ring, self.degree_bound)):
            part = done & sl.below
            covered = sl.verdicts.get(part)
            if covered is None:
                covered = sl.verdicts[part] = _covered(m, *sl.key, sl.lower, part)
            if covered or (ech := self._eliminate(sl, part, echs)) is None:
                ech = sl.filled
                done |= 1 << pos
            echs.append(ech)
            spaces[sl.key] = ech
        self._spaces = spaces
        return spaces

    def _eliminate(self, sl, part, echs):
        """Echelon of the plan slice `sl`, which is not covered, from the
        echelons `echs` of the plan positions before it, or None when the
        slice ends full.  The lower slices at the positions of bitmask
        `part` are full: unit columns go at the columns they cover (its
        plan `masks`) and at the images of the unit columns of the other
        lower slices, then come the shifted rows of those other slices
        without the unit columns, then generator rows while the rank stays
        below the slice size.  The first shifted row of each lead becomes a
        pivot with no cancel; the others follow by lead."""
        p = self.ring.char
        key, lower, masks, shifts = sl.key, sl.lower, sl.masks, sl.shifts
        if part and masks[0] is None:
            masks[:] = _masks(self.m, *key, lower)
        covered, maps = 0, []
        for k, (pos, i, j, _) in enumerate(lower):
            if part >> pos & 1:
                covered |= masks[k]
                continue
            ech = echs[pos]
            shift = shifts[k]
            if shift is None:
                shift = shifts[k] = _shift(self.m, self.ring, *key, i, j)
            maps.append((shift, ech.pivots))
            # the shifted unit row e_a is C(a_i + j, j) e_b: a unit column
            # of this slice wherever the constant is nonzero
            units = ech.units
            while units:
                low = units & -units
                hit = shift[low.bit_length() - 1]
                if hit is not None:
                    covered |= 1 << hit[0]
                units ^= low
        target = sl.size - covered.bit_count()
        if not target:
            return None
        heads, rest = {}, []
        for shift, pivots in maps:
            for piv in pivots.values():
                if p == 2:
                    # every nonzero constant is 1
                    row = 0
                    while piv:
                        low = piv & -piv
                        hit = shift[low.bit_length() - 1]
                        if hit is not None and not covered >> hit[0] & 1:
                            row |= 1 << hit[0]
                        piv ^= low
                    if not row:
                        continue
                    lead = (row & -row).bit_length() - 1
                else:
                    row = {}
                    for col, c in piv.items():
                        hit = shift[col]
                        if hit is not None and not covered >> hit[0] & 1:
                            row[hit[0]] = c * hit[1]
                    if not row:
                        continue
                    lead = min(row)
                if lead in heads:
                    rest.append(row)
                else:
                    heads[lead] = row
        if len(heads) == target:
            return None
        ech = _Echelon(p, covered)
        for lead in sorted(heads):
            ech._insert(heads[lead])
        pivots = ech.pivots
        rest.sort(key=_lowest if p == 2 else min)
        for row in rest:
            ech._insert(row)
            if len(pivots) == target:
                return None
        for row in self._generator_rows(*key):
            ech.add(row)
            if len(pivots) == target:
                return None
        return ech

    def _generator_rows(self, d, w):
        """Generator rows of slice (d, w), one at a time, as column rows
        with integer entries (nonzero mod p): those of the given family,
        then of the relations (`GeneratorSet.slice_rows`), then, when no
        family was given, the defining series coefficients, read straight
        off their (monomial, coefficient) pairs."""
        for given in (self.gens, self.relations):
            if given is not None:
                yield from given.slice_rows(d, w)
        if self.gens is None:
            index = column_index(self.m, d, w)
            p = self.ring.char
            for _, pairs in slice_series(self.m, d, w):
                if p:
                    yield {index[a]: v for a, c in pairs if (v := c % p)}
                else:
                    yield {index[a]: c for a, c in pairs}

    # -- queries -----------------------------------------------------------

    def dims(self) -> DimReport:
        t0 = time.monotonic()
        space = self.space
        dims = {
            sl.key: sl.size - space(*sl.key).rank
            for sl in _plan(self.m, self.ring, self.degree_bound)
        }
        return DimReport(self.m, self.ring.char, self.degree_bound, dims, time.monotonic() - t0)

    def verify_basis(self, candidate: BasisSet) -> VerificationReport:
        """The candidates of a slice are one bitmask of its columns, read
        once per `BasisSet` (`BasisSet.column_masks`); its top degree is
        checked against this session's degree bound.  A slice whose mask
        avoids every pivot lead passes independence at once: distinct
        non-lead columns are their own normal forms.  Otherwise (an overlay
        slice) the candidates are independent when no pivot of their
        `_overlay` solver leads at a tag.  A basis that passes is stored in
        `verified` with its overlay slices."""
        t0 = time.monotonic()
        m = self.m
        if candidate.m != m:
            raise ValueError("candidate basis is for a different m")
        top, masks = candidate.column_masks()
        if top > self.degree_bound:
            raise ValueError("candidate monomials exceed the degree bound")
        space, rows, overlays = self.space, [], []
        for sl in _plan(m, self.ring, self.degree_bound):
            ech = space(*sl.key)
            cands = masks.get(sl.key, 0)
            indep = True
            if cands & ech.leads:
                overlays.append(sl.key)
                cols = [c for c in range(cands.bit_length()) if cands >> c & 1]
                indep = not _overlay(ech, cols, sl.size).leads >> sl.size
            count = cands.bit_count()
            q = sl.size - ech.rank
            rows.append((*sl.key, sl.size, q, count, indep, q == count))
        report = VerificationReport(
            m, self.ring.char, candidate.provenance, self.degree_bound, rows,
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
        slice the residue of f is solved against the `_overlay` solver of
        the basis monomials there."""
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
            index = column_index(self.m, d, w)
            ech = self.space(d, w)
            res_f, scale_f = ech.residue({index[a]: c for a, c in terms.items()})
            if (d, w) not in overlays:
                # over F_p the scale is 1: every pivot leads with 1
                for c, v in res_f.items():
                    coords[monos[c]] = v if p else Fraction(v, scale_f)
                continue
            basis_monos = cand.get((d, w), [])
            n = len(monos)
            solver = _overlay(ech, [index[b] for b in basis_monos], n)
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


def truncated_quotient(m, n_trunc, ring, degree_bound) -> VerificationReport:
    """The truncated basis verified in the quotient by the variables
    x_N..x_{m-1} (`truncation_relations`)."""
    relations = truncation_relations(m, n_trunc, ring)
    session = OracleSession(m, ring, degree_bound, relations=relations)
    return session.verify_basis(truncated_basis(m, n_trunc))


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
