"""Integer partitions, their orders, and the stretch/level constructions
used to locate leading monomials.

A partition is its weakly decreasing tuple of positive parts and nothing
else.  The paper pads a partition mu to k parts only to name the monomial
x^(mu); the engine writes that monomial as an exponent vector whose x_0
entry counts the zero parts (`dpalgebra.slice_monomials`), so no pad count
is kept here.  `make_partition` and `parse_partition` drop zero entries, and
the orders below read a missing trailing part as zero.

Reverse lexicographic convention (pinned here once and for all): comparing
the part sequences front to back, a missing part counting as zero, the
partition with the SMALLER part at the first differing index is the greater
one.  This is the unique choice under which (a) dominance refines revlex the
right way round (mu dominating lam forces mu <= lam in revlex), (b) the
stretching algorithm below computes the revlex-least partition above its
input, and (c) comparing x^(lam) against x^(mu) in the graded reverse
lexicographic monomial order agrees with comparing lam against mu here.
"""

from __future__ import annotations

import functools
from itertools import zip_longest

from ._record import Record, _set


class Partition(Record):
    """Positive parts, weakly decreasing; a frozen value, equal and hashed
    by its parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        _set(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def largest(self) -> int:
        return self.parts[0] if self.parts else 0

    def multiplicities(self, upto: int) -> tuple[int, ...]:
        """(m_1, ..., m_upto) as a fixed-length vector."""
        out = [0] * upto
        for p in self.parts:
            if p <= upto:
                out[p - 1] += 1
        return tuple(out)

    def __str__(self) -> str:
        return format_partition(self)


EMPTY = Partition()


def make_partition(values) -> Partition:
    """Sort values decreasingly, dropping zero entries."""
    vals = list(values)
    if any(v < 0 for v in vals):
        raise ValueError(f"negative part in {vals!r}")
    return Partition(tuple(sorted((v for v in vals if v), reverse=True)))


def parse_partition(text: str) -> Partition:
    """Parse "3,1,1", dropping zero entries; "-" or "" is the empty
    partition."""
    text = text.strip()
    if text in ("", "-"):
        return EMPTY
    try:
        return make_partition(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition text {text!r}: {exc}") from None


def format_partition(p: Partition) -> str:
    return ",".join(map(str, p.parts)) or "-"


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (rows and columns of the Ferrers diagram swapped)."""
    if not lam.parts:
        return EMPTY
    cols = tuple(sum(1 for p in lam.parts if p > j) for j in range(lam.parts[0]))
    return Partition(cols)


def dominates(mu: Partition, lam: Partition) -> bool:
    """True iff mu >= lam in dominance order (prefix sums of mu at least
    those of lam).  Partitions of different sizes are never comparable."""
    if mu.size != lam.size:
        return False
    sa = sb = 0
    for a, b in zip_longest(mu.parts, lam.parts, fillvalue=0):
        sa += a
        sb += b
        if sa < sb:
            return False
    return True


def cmp_revlex(lam: Partition, mu: Partition) -> int:
    """-1, 0, or 1 as lam <, =, > mu in reverse lexicographic order.

    The smaller part at the first differing index wins.  Only defined for
    partitions of equal size, whose part sequences are equal or first
    differ within the shorter one, so no part is read as a zero.
    """
    if lam.size != mu.size:
        raise ValueError(f"revlex needs equal sizes, got {lam.size} != {mu.size}")
    for a, b in zip(lam.parts, mu.parts):
        if a != b:
            return 1 if a < b else -1
    return 0


revlex_key = functools.cmp_to_key(cmp_revlex)


def uplus(lam: Partition, mu: Partition) -> Partition:
    """Multiset union of parts, rearranged decreasingly."""
    return Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))


def iter_partitions(size: int, max_part: int, max_len: int):
    """Part tuples of the partitions of `size` with parts <= max_part and
    length <= max_len, yielded lazily in increasing lexicographic order (the
    most balanced first).  Every enumeration of partitions goes through
    here; the arguments are checked at the call, not at the first item."""
    if size < 0 or max_part < 0 or max_len < 0:
        raise ValueError("size, max_part, max_len must be nonnegative")
    return _ascending(size, max_part, max_len)


def _ascending(size, cap, slots):
    if size > cap * slots:
        return
    parts, rest = [], size
    while True:
        if rest:  # fill the free slots with the least tail: balanced parts
            n = min(slots - len(parts), rest)
            q, r = divmod(rest, n)
            parts += [q + 1] * r + [q] * (n - r)
        yield tuple(parts)
        # raise by one the last part that may grow (below its predecessor,
        # or the cap) and has parts after it; those become the new rest
        rest = 0
        for i in range(len(parts) - 1, -1, -1):
            if rest and parts[i] < (parts[i - 1] if i else cap):
                break
            rest += parts[i]
        else:
            return
        parts[i:] = [parts[i] + 1]
        rest -= 1


def enumerate_partitions(size: int, max_part: int, max_len: int) -> list[Partition]:
    """All partitions of `size` with parts <= max_part and length <= max_len,
    in decreasing lexicographic order of part sequences."""
    return [Partition(p) for p in iter_partitions(size, max_part, max_len)][::-1]


def eta_stretch(mu: Partition, m: int) -> Partition | None:
    """Least partition (revlex) of |mu| with length m - l(mu) + 1 lying at or
    above mu in revlex, or None when |mu| is too small for that length.

    Computed by the stretching algorithm: walk the parts of mu from the last
    one, converting each part into a column of ones while the budget
    r = m - 2*l(mu) + 1 allows, and splitting the first oversized part as
    (part - r) followed by r ones.  The split appends exactly r ones so that
    the size |mu| is preserved (appending one fewer would lose a box).
    """
    k = mu.length
    if not (2 <= k and 2 * k <= m):
        raise ValueError(f"need 2 <= l(mu) <= m/2, got l={k}, m={m}")
    if mu.largest > m - 1:
        raise ValueError(f"parts of mu must be <= m-1 = {m - 1}")
    target_len = m - k + 1
    if mu.size < target_len:
        return None
    r = m - 2 * k + 1
    eta = list(mu.parts)
    tail: list[int] = []
    for i in range(k - 1, -1, -1):
        if mu.parts[i] <= r:
            r = r - mu.parts[i] + 1
            tail.extend([1] * (mu.parts[i] - 1))
            eta[i] = 1
        else:
            eta[i] = mu.parts[i] - r
            tail.extend([1] * r)
            break
    result = Partition(tuple(sorted(eta + tail, reverse=True)))
    assert result.size == mu.size and result.length == target_len
    return result


def nu_greatest(eta: Partition, length: int) -> Partition:
    """Greatest partition (revlex) of |eta| with the given length that is
    <= eta in revlex.  Definitional search; desk-scale sizes only."""
    cands = [
        p
        for p in enumerate_partitions(eta.size, eta.size, length)
        if p.length == length and cmp_revlex(p, eta) <= 0
    ]
    if not cands:
        raise ValueError(f"no partition of {eta.size} with length {length} below eta")
    return max(cands, key=revlex_key)


def check_mu_equals_nu(mu: Partition, m: int) -> bool:
    """Whether mu equals the greatest length-l(mu) partition below its
    stretch, decided by the boxing criterion mu_{i*} - mu_{l(mu)} <= 1 where
    i* is the least index with eta_{i*} < mu_{i*}."""
    eta = eta_stretch(mu, m)
    if eta is None:
        raise ValueError("stretch of mu does not exist for this m")
    istar = next(i for i in range(mu.length) if eta.parts[i] < mu.parts[i])
    return mu.parts[istar] - mu.parts[mu.length - 1] <= 1
