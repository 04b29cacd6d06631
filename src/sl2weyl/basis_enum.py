"""Closed-form enumeration of the monomial bases and the counting identities.

Everything here is inequality bookkeeping on exponent vectors; no algebra is
performed.  The three full bases all have cardinality 2^m:

* lex basis: monomials whose top nonzero index s satisfies
  a_0 + ... + a_s <= m - s (plus the empty monomial).
* revlex basis: the low half R1 (degree <= m/2 with the staircase
  inequalities) together with R2, the image of the degree-< m/2 part of R1
  under the x_0-shift f_0 -> f_0 + m - 2*deg.
* cv basis: the tuple system with j*i_k + (j+1)*i_{k+1} + 2*sum_{p>k+1} i_p
  <= m - k + j - 1 for 0 <= k <= m-1, 1 <= j <= k+1; the displayed bound
  m-k+j+1 in the source contradicts its own j = k+1 specialization (which
  forces <= m), so the consistent value m-k+j-1 is used and the equality with
  the revlex basis is the arbiter.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb
from operator import mul

from ._record import Record, _set
from .dpalgebra import column_index, mono_degree, mono_weight


class BasisSet(Record):
    """A candidate basis: the monomials of one construction for one m, as a
    frozen value, equal and hashed by its fields, not by its column masks."""

    # provenance: "lex" | "revlex" | "cv" | "truncated-N"
    __slots__ = ("m", "provenance", "monomials", "_masks")

    def __len__(self):
        return len(self.monomials)

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        return sorted(self.monomials, key=lambda a: (mono_degree(a), mono_weight(a), a))

    def by_slice(self) -> dict[tuple[int, int], list[tuple[int, ...]]]:
        out: dict[tuple[int, int], list] = {}
        for a in self.sorted_monomials():
            out.setdefault((mono_degree(a), mono_weight(a)), []).append(a)
        return out

    def column_masks(self) -> tuple[int, dict[tuple[int, int], int]]:
        """(top degree, masks): the largest degree of a monomial (0 for no
        monomials) and, per slice (d, w), the bitmask with bit c set for
        the monomial in column c (`column_index`).  Built on the first call
        and kept for every session that verifies this set, so read only.
        A monomial that is not m nonnegative integers raises ValueError, on
        every call, since nothing is kept then."""
        if self._masks is None:
            m = self.m
            # the slices would skip a negative or fractional exponent and
            # find no column for a monomial of another length; the check
            # reads only the distinct lengths and exponents, a few of each
            lengths = set(map(len, self.monomials))
            exponents = set(chain.from_iterable(self.monomials))
            if lengths - {m} or not all(isinstance(e, int) and e >= 0 for e in exponents):
                raise ValueError(f"candidate monomials must be {m} nonnegative integers each")
            masks: dict[tuple[int, int], int] = {}
            top, weights = 0, range(m)
            for a in self.monomials:
                d = sum(a)
                top = max(top, d)
                w = sum(map(mul, a, weights))
                masks[d, w] = masks.get((d, w), 0) | 1 << column_index(m, d, w)[a]
            _set(self, "_masks", (top, masks))
        return self._masks


def is_reduced_lex(a, m: int) -> bool:
    """Whether the monomial avoids every reducible pattern: for each s with
    a_s != 0 the prefix total a_0 + ... + a_s stays within m - s."""
    total = 0
    for s, e in enumerate(a):
        total += e
        if e and total > m - s:
            return False
    return True


def _bounded_tuples(slots: int, cap: int):
    """All nonnegative integer tuples of the given length with sum <= cap."""
    if slots == 0:
        yield ()
        return
    for e in range(cap + 1):
        for rest in _bounded_tuples(slots - 1, cap - e):
            yield (e,) + rest


@lru_cache(maxsize=None)
def lex_basis(m: int) -> BasisSet:
    """Monomials with top index s and prefix total <= m - s; 2^m of them.
    Kept per m, so its column masks are built once."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = {(0,) * m}
    for s in range(m):
        tail = (0,) * (m - s - 1)
        for prefix in _bounded_tuples(s, m - s):
            for e in range(1, m - s - sum(prefix) + 1):
                out.add(prefix + (e,) + tail)
    return BasisSet(m, "lex", frozenset(out))


@lru_cache(maxsize=None)
def _r1_vectors(m: int) -> frozenset:
    """The low half of the revlex basis: degree <= m/2 and, for
    1 <= i <= m-1 (with f_m := 0),
        (i-1) f_i + i f_{i+1} + 2 (f_i + ... + f_{m-1}) <= m.
    Enumerated from the top variable down so the suffix-sum constraints
    prune."""
    if m == 0:
        return frozenset({()})
    out = set()
    half = m // 2  # degree bound: 2*deg <= m

    def rec(i, suffix, f_next, acc):
        # acc = [f_{m-1}, ..., f_{i+1}]; suffix = sum(acc); f_next = f_{i+1}
        if i == 0:
            for e in range(half - suffix + 1):
                out.add((e,) + tuple(reversed(acc)))
            return
        e = 0
        # both constraints are monotone in e, so the first violation stops
        while suffix + e <= half and (i - 1) * e + i * f_next + 2 * (suffix + e) <= m:
            acc.append(e)
            rec(i - 1, suffix + e, e, acc)
            acc.pop()
            e += 1

    rec(m - 1, 0, 0, [])
    return frozenset(out)


def revlex_basis(m: int) -> BasisSet:
    """Union of the low half with its x_0-shifted mirror; 2^m monomials."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    r1 = _r1_vectors(m)
    out = set(r1)
    for f in r1:
        d = sum(f)
        if 2 * d < m:
            out.add((f[0] + m - 2 * d,) + f[1:])
    return BasisSet(m, "revlex", frozenset(out))


def cv_basis(m: int) -> BasisSet:
    """Tuples satisfying the degree-weighted staircase system; coincides with
    the revlex basis as a set."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = set()

    def ok(k, i_k, i_k1, suffix2):
        # all constraints indexed by this k: 1 <= j <= k+1
        for j in range(1, k + 2):
            if j * i_k + (j + 1) * i_k1 + 2 * suffix2 > m - k + j - 1:
                return False
        return True

    def rec(k, i_next, suffix2, acc):
        # acc holds i_{k+1}..i_{m-1} reversed; suffix2 = i_{k+2}+...+i_{m-1}
        if k < 0:
            out.add(tuple(acc[::-1]))
            return
        e = 0
        while True:
            if not ok(k, e, i_next, suffix2):
                break
            acc.append(e)
            rec(k - 1, e, suffix2 + i_next, acc)
            acc.pop()
            e += 1

    rec(m - 1, 0, 0, [])
    return BasisSet(m, "cv", frozenset(out))


def truncated_basis(m: int, n_trunc: int) -> BasisSet:
    """Revlex-basis monomials not involving x_N, ..., x_{m-1}; the full
    revlex basis when N >= m."""
    if n_trunc < 1:
        raise ValueError("truncation level must be >= 1")
    full = revlex_basis(m)
    keep = frozenset(a for a in full.monomials if not any(a[n_trunc:]))
    return BasisSet(m, f"truncated-{n_trunc}", keep)


# ---------------------------------------------------------------------------
# counting


@lru_cache(maxsize=None)
def count_g(t: int, ell: int, s: int, m: int) -> int:
    """Number of low-half revlex monomials of degree ell supported on
    x_t..x_{m-1} with x_t-degree exactly s, by the staircase recursion.

    The convention s = -1 means the (ell+1, 0) value.  Indices t outside
    [1, m] are rejected; other out-of-range values count zero monomials.
    """
    if m < 0 or not (1 <= t <= m) or s < -1:
        raise ValueError(f"indices out of range: t={t}, s={s}, m={m}")
    if s == -1:
        return count_g(t, ell + 1, 0, m)
    if ell < 0 or s > ell:
        return 0
    if t == m:
        return 1 if ell == 0 and s == 0 else 0
    if m - 2 * ell < (t - 1) * s:
        return 0
    return sum(
        count_g(t + 1, ell - s, j, m)
        for j in range(ell - s + 1)
        if m - 2 * ell - t * j - (t - 1) * s >= 0
    )


def count_B(m: int, ell: int) -> int:
    """Number of degree-ell, x_0-free monomials in the low half:
    C(m, ell) - C(m, ell-1), valid for 0 <= ell <= m/2."""
    if m < 0 or ell < 0 or 2 * ell > m:
        raise ValueError(f"need 0 <= ell <= m/2, got ell={ell}, m={m}")
    return comb(m, ell) - (comb(m, ell - 1) if ell >= 1 else 0)
