"""Integer partitions, their orders, and the stretch/level constructions
used to locate leading monomials.

A partition is its weakly decreasing tuple of positive int parts and
nothing else: every function here, and every module that handles
partitions, takes and returns such plain tuples, so |lam| is `sum(lam)`,
l(lam) is `len(lam)` and lam_1 is `max(lam, default=0)`.  The paper pads a
partition mu to k parts only to name the monomial x^(mu); the engine writes
that monomial as an exponent vector whose x_0 entry counts the zero parts
(`dpalgebra.slice_monomials`), so no pad count is kept here.  Values from
outside the program become a partition through `make_partition` or
`parse_partition`, which check the parts and drop zero entries; the orders
below read a missing trailing part as zero.

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
from operator import index

EMPTY = ()


def make_partition(values) -> tuple[int, ...]:
    """Sort values decreasingly, dropping zero entries.  Each value is read
    through `operator.index`: an int or a bool (as its int) is taken, a
    float, str or Fraction raises TypeError."""
    vals = list(map(index, values))
    if any(v < 0 for v in vals):
        raise ValueError(f"negative part in {vals!r}")
    return tuple(sorted((v for v in vals if v), reverse=True))


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "3,1,1", dropping zero entries; "-" or "" is the empty
    partition.  Each part is ASCII digits alone: no sign, underscore or
    space, which `int` would accept."""
    text = text.strip()
    if text in ("", "-"):
        return EMPTY
    parts = text.split(",")
    if not all(tok.isascii() and tok.isdigit() for tok in parts):
        raise ValueError(f"bad partition text {text!r}: parts must be ASCII digits")
    return make_partition(map(int, parts))


def format_partition(p: tuple[int, ...]) -> str:
    return ",".join(map(str, p)) or "-"


def transpose(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition (rows and columns of the Ferrers diagram swapped)."""
    return tuple(sum(1 for p in lam if p > j) for j in range(max(lam, default=0)))


def dominates(mu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """True iff mu >= lam in dominance order (prefix sums of mu at least
    those of lam).  Partitions of different sizes are never comparable."""
    if sum(mu) != sum(lam):
        return False
    sa = sb = 0
    for a, b in zip_longest(mu, lam, fillvalue=0):
        sa += a
        sb += b
        if sa < sb:
            return False
    return True


def cmp_revlex(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """-1, 0, or 1 as lam <, =, > mu in reverse lexicographic order.

    The smaller part at the first differing index wins.  Only defined for
    partitions of equal size, whose part sequences are equal or first
    differ within the shorter one, so no part is read as a zero.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"revlex needs equal sizes, got {sum(lam)} != {sum(mu)}")
    for a, b in zip(lam, mu):
        if a != b:
            return 1 if a < b else -1
    return 0


revlex_key = functools.cmp_to_key(cmp_revlex)


def uplus(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
    """Multiset union of parts, rearranged decreasingly."""
    return tuple(sorted(lam + mu, reverse=True))


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


def enumerate_partitions(size: int, max_part: int, max_len: int) -> list[tuple[int, ...]]:
    """All partitions of `size` with parts <= max_part and length <= max_len,
    in decreasing lexicographic order of part sequences."""
    return list(iter_partitions(size, max_part, max_len))[::-1]


def eta_stretch(mu: tuple[int, ...], m: int) -> tuple[int, ...] | None:
    """Least partition (revlex) of |mu| with length m - l(mu) + 1 lying at or
    above mu in revlex, or None when |mu| is too small for that length.

    Computed by the stretching algorithm: walk the parts of mu from the last
    one, converting each part into a column of ones while the budget
    r = m - 2*l(mu) + 1 allows, and splitting the first oversized part as
    (part - r) followed by r ones.  The split appends exactly r ones so that
    the size |mu| is preserved (appending one fewer would lose a box).
    """
    k = len(mu)
    if not (2 <= k and 2 * k <= m):
        raise ValueError(f"need 2 <= l(mu) <= m/2, got l={k}, m={m}")
    if max(mu) > m - 1:
        raise ValueError(f"parts of mu must be <= m-1 = {m - 1}")
    target_len = m - k + 1
    if sum(mu) < target_len:
        return None
    r = m - 2 * k + 1
    eta = list(mu)
    tail: list[int] = []
    for i in range(k - 1, -1, -1):
        if mu[i] <= r:
            r = r - mu[i] + 1
            tail.extend([1] * (mu[i] - 1))
            eta[i] = 1
        else:
            eta[i] = mu[i] - r
            tail.extend([1] * r)
            break
    result = tuple(sorted(eta + tail, reverse=True))
    assert sum(result) == sum(mu) and len(result) == target_len
    return result


def nu_greatest(eta: tuple[int, ...], length: int) -> tuple[int, ...]:
    """Greatest partition (revlex) of |eta| with the given length that is
    <= eta in revlex.  Definitional search; desk-scale sizes only."""
    n = sum(eta)
    cands = [
        p
        for p in enumerate_partitions(n, n, length)
        if len(p) == length and cmp_revlex(p, eta) <= 0
    ]
    if not cands:
        raise ValueError(f"no partition of {n} with length {length} below eta")
    return max(cands, key=revlex_key)


def check_mu_equals_nu(mu: tuple[int, ...], m: int) -> bool:
    """Whether mu equals the greatest length-l(mu) partition below its
    stretch, decided by the boxing criterion mu_{i*} - mu_{l(mu)} <= 1 where
    i* is the least index with eta_{i*} < mu_{i*}."""
    eta = eta_stretch(mu, m)
    if eta is None:
        raise ValueError("stretch of mu does not exist for this m")
    istar = next(i for i in range(len(mu)) if eta[i] < mu[i])
    return mu[istar] - mu[-1] <= 1
