"""Divided-power polynomial algebra in m variables over the rationals or a
prime field.

Elements are kept in reduced exponent-vector form, so the defining relations
between divided powers of one variable hold by construction: multiplying two
monomials just adds exponent vectors and picks up the structure constant
prod_i C(a_i + b_i, a_i), which may vanish in positive characteristic.

Two monomial orders are provided.  DPLEX compares exponent vectors
lexicographically with x_0 the most significant variable (larger exponent at
the smallest differing index wins).  DPDEGREVLEX grades by total degree and
breaks ties so that the smaller exponent at the largest differing index wins.
Both are total, multiplicative well-orders with 1 minimal.

The monomials of one graded slice (degree d, weight w) are the x^(mu) for
the partitions mu of w, padded with zeros to d parts; `slice_monomials`
caches them for the whole process and is the one table that the generator
families (`weyl_ideal`), the candidate bases (`basis_enum`) and the slice
engine (`quotient_oracle`) read; `column_index` maps each monomial to its
position there, the column of a slice row.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from ._record import Record, _set
from .partitions import iter_partitions


# Miller-Rabin on the primes 2 ... 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether p is prime, exactly for p below `_PRIME_BOUND`."""
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class CoeffRing(Record):
    """char == 0 means the rationals, otherwise the prime field F_char.

    One object per characteristic: `CoeffRing(p)` returns the same instance
    on every call (and through pickle and deepcopy), so equality and hashing
    are by identity.  A characteristic at or above `_PRIME_BOUND`, where
    `_is_prime` is no longer exact, raises ValueError."""

    __slots__ = ("char",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    # `__new__` returns the interned object, already set
    __init__ = object.__init__
    _interned: dict = {}

    def __new__(cls, char: int = 0):
        ring = cls._interned.get(char)
        if ring is None:
            if char >= _PRIME_BOUND:
                raise ValueError(f"characteristic must be below {_PRIME_BOUND}, got {char}")
            if char and not _is_prime(char):
                raise ValueError(f"characteristic must be 0 or prime, got {char}")
            ring = object.__new__(cls)
            _set(ring, "char", char)
            ring = cls._interned.setdefault(char, ring)
        return ring

    def convert(self, c):
        """c as an element of this ring.  Only exact coefficients are taken,
        an int (bools included) or a Fraction; anything else, a float or a
        Decimal say, raises TypeError."""
        if type(c) is int:  # the common case, ahead of the ABC test below
            return c % self.char if self.char else c
        if isinstance(c, Fraction):
            if self.char:
                den = c.denominator % self.char
                if den == 0:
                    raise ZeroDivisionError("denominator not invertible mod p")
                return c.numerator * pow(den, -1, self.char) % self.char
            return c.numerator if c.denominator == 1 else c
        if isinstance(c, int):  # an int subclass, a bool say: as its plain int
            return self.convert(int(c))
        raise TypeError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")

    def inv(self, a):
        if self.char:
            return pow(a, -1, self.char)
        return Fraction(1, 1) / Fraction(a)

    def __str__(self):
        return f"F_{self.char}" if self.char else "QQ"


RATIONALS = CoeffRing(0)


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by base-p digits (Lucas)."""
    if k < 0 or k > n:
        return 0
    r = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        r = r * comb(nd, kd) % p
        n //= p
        k //= p
    return r


def ring_binom(ring: CoeffRing, n: int, k: int):
    return binom_mod_p(n, k, ring.char) if ring.char else comb(n, k)


def unit_normalize(terms: dict, at, p: int) -> dict:
    """Integer `terms` scaled by a unit so that unit multiples agree: mod p
    (p > 0) the coefficient at key `at` becomes 1; over the rationals (p = 0)
    the content becomes 1 with a positive coefficient at `at`."""
    if p:
        inv = pow(terms[at], -1, p)
        return {k: v * inv % p for k, v in terms.items()}
    g = 0
    for v in terms.values():
        g = gcd(g, v)
    if terms[at] < 0:
        g = -g
    return {k: v // g for k, v in terms.items()}


# ---------------------------------------------------------------------------
# monomials: plain exponent tuples

Mono = tuple  # tuple[int, ...]


def mono_degree(a: Mono) -> int:
    return sum(a)


def mono_weight(a: Mono) -> int:
    return sum(i * e for i, e in enumerate(a))


def mono_mul(a: Mono, b: Mono, ring: CoeffRing):
    """(structure constant, a+b).  The constant is prod_i C(a_i+b_i, a_i)."""
    if len(a) != len(b):
        raise ValueError("variable count mismatch")
    c = 1
    for x, y in zip(a, b):
        if x and y:
            c *= ring_binom(ring, x + y, x)
            if c == 0:
                break
    return ring.convert(c), tuple(x + y for x, y in zip(a, b))


def try_divide(target: Mono, divisor: Mono, ring: CoeffRing):
    """(target - divisor, c) with mono_mul(quotient, divisor) = (c, target),
    or None when divisor does not divide target with a unit-free nonzero
    constant prod_i C(target_i, divisor_i)."""
    if len(target) != len(divisor):
        raise ValueError("variable count mismatch")
    if any(t < d for t, d in zip(target, divisor)):
        return None
    c = 1
    for t, d in zip(target, divisor):
        if d:
            c *= ring_binom(ring, t, d)
            if c == 0:
                return None
    return tuple(t - d for t, d in zip(target, divisor)), ring.convert(c)


class MonomialOrder(enum.Enum):
    DPLEX = "dplex"
    DPDEGREVLEX = "dpdegrevlex"

    def key(self, a: Mono):
        if self is MonomialOrder.DPLEX:
            return a
        return (sum(a), tuple(-e for e in reversed(a)))


def _padded_mono(mu: tuple[int, ...], k: int, m: int) -> Mono:
    """Exponent vector of x^(mu), the part tuple mu zero-padded to k parts."""
    exps = [0] * m
    exps[0] = k - len(mu)
    for p in mu:
        exps[p] += 1
    return tuple(exps)


@lru_cache(maxsize=None)
def slice_monomials(m: int, d: int, w: int) -> tuple:
    """Monomials of degree d and weight w, descending in DPLEX: x^(mu) for
    mu |- w with parts <= m-1 and length <= d, zero-padded to d parts."""
    if m == 0:
        return ((),) if d == 0 and w == 0 else ()
    # DPLEX compares the exponent tuples themselves
    return tuple(sorted((_padded_mono(mu, d, m) for mu in iter_partitions(w, m - 1, d)),
                        reverse=True))


@lru_cache(maxsize=None)
def column_index(m: int, d: int, w: int) -> dict:
    """Monomial -> column in slice (d, w), its position in
    `slice_monomials`.  Shared by every caller, so read only."""
    return {a: i for i, a in enumerate(slice_monomials(m, d, w))}


@lru_cache(maxsize=None)
def slice_partitions(m: int, d: int, w: int) -> tuple:
    """The part tuple mu of each monomial x^(mu) of `slice_monomials(m, d, w)`,
    position by position.  Cached apart, for the slices whose partitions the
    series kernel or a family reads, so the engine's slices do not hold it."""
    return tuple(
        tuple(i for i in range(len(a) - 1, 0, -1) for _ in range(a[i]))
        for a in slice_monomials(m, d, w)
    )


# ---------------------------------------------------------------------------
# sparse polynomials


class DPoly:
    """Finitely supported map from divided-power monomials to coefficients."""

    __slots__ = ("ring", "m", "terms")

    def __init__(self, ring: CoeffRing, m: int, terms=None):
        self.ring = ring
        self.m = m
        self.terms = {}
        for mono, c in (terms or {}).items():
            if len(mono) != m:
                raise ValueError("monomial length mismatch")
            c = ring.convert(c)
            if c:
                self.terms[mono] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, m):
        return cls(ring, m)

    @classmethod
    def monomial(cls, ring, m, mono, coeff=1):
        return cls(ring, m, {tuple(mono): coeff})

    @classmethod
    def variable(cls, ring, m, i):
        if not 0 <= i < m:
            raise ValueError(f"variable x{i} is not among x0 ... x{m - 1} for m = {m}")
        mono = tuple(1 if j == i else 0 for j in range(m))
        return cls(ring, m, {mono: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def leading_monomial(self, order: MonomialOrder) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring or self.m != other.m:
            raise ValueError("ring or variable count mismatch")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for mono, c in other.terms.items():
            t[mono] = t.get(mono, 0) + c
        return DPoly(self.ring, self.m, t)

    def __neg__(self):
        return DPoly(self.ring, self.m, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.ring.convert(c)
        return DPoly(self.ring, self.m, {a: v * c for a, v in self.terms.items()})

    def integral(self):
        """A unit multiple with integer coefficients: self times the lcm of
        its denominators over the rationals, self when that is 1 (always
        over F_p, whose coefficients are integers)."""
        den = 1
        for c in self.terms.values():
            if type(c) is not int:
                den = lcm(den, c.denominator)
        return self if den == 1 else self.scale(den)

    def __mul__(self, other):
        self._check(other)
        t = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                s, mono = mono_mul(a, b, self.ring)
                if s:
                    t[mono] = t.get(mono, 0) + ca * cb * s
        return DPoly(self.ring, self.m, t)

    def mono_shift(self, mono: Mono):
        """Product with a single monomial (structure constants applied)."""
        t = {}
        for a, c in self.terms.items():
            s, prod = mono_mul(a, mono, self.ring)
            if s:
                t[prod] = t.get(prod, 0) + c * s
        return DPoly(self.ring, self.m, t)

    def __eq__(self, other):
        return (
            isinstance(other, DPoly)
            and self.ring == other.ring
            and self.m == other.m
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.m, frozenset(self.terms.items())))

    def __str__(self):
        return format_dpoly(self)

    def __repr__(self):
        return f"DPoly({self.ring}, m={self.m}, {format_dpoly(self)})"


def format_monomial(a: Mono) -> str:
    bits = []
    for i, e in enumerate(a):
        if e == 0:
            continue
        if e == 1:
            bits.append(f"x{i}")
        else:
            bits.append(f"x{i}^({e})")
    return "*".join(bits) if bits else "1"


def format_dpoly(f: DPoly) -> str:
    if not f.terms:
        return "0"
    bits = []
    for mono in sorted(f.terms, reverse=True):  # descending DPLEX
        c = f.terms[mono]
        mtxt = format_monomial(mono)
        if c == 1 and mtxt != "1":
            term = mtxt
        elif c == -1 and mtxt != "1" and not f.ring.char:
            term = f"-{mtxt}"
        else:
            term = f"{c}" if mtxt == "1" else f"{c}*{mtxt}"
        if bits and not term.startswith("-"):
            bits.append(f"+ {term}")
        elif bits:
            bits.append(f"- {term[1:]}")
        else:
            bits.append(term)
    return " ".join(bits)


_TERM_RE = re.compile(r"x(\d+)(?:\^(?:\((\d+)\)|(\d+)))?", re.ASCII)


def parse_monomial(text: str, m: int):
    """Parse `x0^(2)*x2` style text; classic powers x0^2 mean the ordinary
    power and carry the factorial scalar.  Returns (mono, int scalar)."""
    mono = [0] * m
    scalar = 1
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        mm = _TERM_RE.fullmatch(factor)
        if not mm:
            raise ValueError(f"bad monomial factor {factor!r}")
        i = int(mm.group(1))
        if i >= m:
            raise ValueError(f"variable x{i} out of range for m={m}")
        if mm.group(2) is not None:  # divided power
            k, extra = int(mm.group(2)), 1
        elif mm.group(3) is not None:  # classic power: x^k = k! x^(k)
            k = int(mm.group(3))
            extra = 1
            for j in range(2, k + 1):
                extra *= j
        else:
            k, extra = 1, 1
        # combining with an existing power of the same variable multiplies by
        # the divided-power structure constant
        scalar *= extra * comb(mono[i] + k, k)
        mono[i] += k
    return tuple(mono), scalar


# one polynomial term: optional sign, then `coeff`, `coeff*monomial` or
# `monomial`, the monomial text checked by `parse_monomial`
_POLY_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)(?:\*([^+-]+))?|([^+-]+))", re.ASCII)


def parse_dpoly(text: str, m: int, ring: CoeffRing) -> DPoly:
    """Parse a signed sum of `[sign]coeff*monomial` terms (coefficient or
    monomial may be left out, the first sign is optional, spaces are
    ignored).  Text that is not such a sum, such as a stray sign, an empty
    factor or a zero denominator, raises ValueError, and so does a
    coefficient whose denominator p divides over F_p, at the first term of
    its monomial with such a denominator (terms may cancel it)."""
    text = "".join(text.split())
    p = ring.char
    terms, bad = {}, {}
    pos = 0
    while pos < len(text):
        mm = _POLY_TERM_RE.match(text, pos)
        if mm is None or (pos and not mm.group(1)):
            raise ValueError(f"bad polynomial {text!r} at position {pos}")
        sign, coeff, mono_text, bare = mm.groups()
        mono_text = mono_text or bare
        mono, scalar = parse_monomial(mono_text, m) if mono_text else ((0,) * m, 1)
        try:
            c = Fraction(coeff or 1) * scalar
        except ZeroDivisionError:
            raise ValueError(
                f"bad polynomial {text!r} at position {pos}: zero denominator"
            ) from None
        terms[mono] = terms.get(mono, 0) + (-c if sign == "-" else c)
        if p and c.denominator % p == 0:
            bad.setdefault(mono, pos)
        pos = mm.end()
    failing = [at for mono, at in bad.items() if terms[mono].denominator % p == 0]
    if failing:
        raise ValueError(
            f"bad polynomial {text!r} at position {min(failing)}: "
            f"denominator not invertible mod {p}"
        )
    return DPoly(ring, m, terms)


def normal_form(f: DPoly, gens, order: MonomialOrder, with_cofactors: bool = False):
    """Reduce f against gens: repeatedly rewrite the order-greatest reducible
    term by the first generator (descending leading monomials, ties kept in
    the given sequence order) whose leading monomial divides it with a nonzero
    structure constant.  The result has no reducible term.

    With with_cofactors=True also returns [(gen index, multiplier monomial,
    coefficient)] such that f = result + sum coeff * (monomial * gen).
    """
    gens = list(gens)
    if any(g.is_zero() for g in gens):
        raise ValueError("generators must be nonzero")
    for g in gens:
        if g.ring != f.ring or g.m != f.m:
            raise ValueError("ring or variable count mismatch")
    ring = f.ring
    indexed = sorted(
        range(len(gens)),
        key=lambda i: order.key(gens[i].leading_monomial(order)),
        reverse=True,
    )
    lms = {i: gens[i].leading_monomial(order) for i in indexed}
    work = DPoly(ring, f.m, dict(f.terms))
    cofactors = []
    while True:
        fired = False
        for mono in sorted(work.terms, key=order.key, reverse=True):
            for i in indexed:
                q = try_divide(mono, lms[i], ring)
                if q is None:
                    continue
                quot, c = q
                lc = gens[i].terms[lms[i]]
                factor = work.terms[mono] * ring.inv(c * lc)
                work = work - gens[i].mono_shift(quot).scale(factor)
                if with_cofactors:
                    cofactors.append((i, quot, ring.convert(factor)))
                fired = True
                break
            if fired:
                break
        if not fired:
            break
    return (work, cofactors) if with_cofactors else work
