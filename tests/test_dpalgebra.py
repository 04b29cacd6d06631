import itertools
import time
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sl2weyl import dpalgebra
from sl2weyl.dpalgebra import (
    CoeffRing,
    DPoly,
    MonomialOrder,
    RATIONALS,
    binom_mod_p,
    format_dpoly,
    mono_mul,
    normal_form,
    parse_dpoly,
    parse_monomial,
    try_divide,
)

F2, F3, F5 = CoeffRing(2), CoeffRing(3), CoeffRing(5)

monos3 = st.tuples(*([st.integers(0, 3)] * 3))


def test_ring_validation():
    with pytest.raises(ValueError):
        CoeffRing(4)
    assert CoeffRing(7).char == 7


def test_primality_is_exact_below_the_bound_and_fast():
    # Miller-Rabin on the bases 2 ... 41 agrees with trial division below
    # 10^5, and decides an 18-digit prime and a product of two 8-digit
    # primes at once
    for n in range(10**5):
        trial = n > 1 and all(n % d for d in range(2, isqrt(n) + 1))
        assert dpalgebra._is_prime(n) == trial, n
    for char, prime in ((2**61 - 1, True), (99999989 * 99999971, False)):
        t0 = time.perf_counter()
        if prime:
            assert CoeffRing(char).char == char
        else:
            with pytest.raises(ValueError, match="must be 0 or prime"):
                CoeffRing(char)
        assert time.perf_counter() - t0 < 0.1, char


def test_a_characteristic_at_the_primality_bound_is_refused():
    bound = dpalgebra._PRIME_BOUND
    assert bound == 3317044064679887385961981
    for char in (bound, bound + 2, 2**89 - 1):
        with pytest.raises(ValueError, match=f"must be below {bound}"):
            CoeffRing(char)


def test_ring_convert():
    assert F3.convert(7) == 1
    assert F3.convert(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3
    assert RATIONALS.convert(Fraction(4, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        F2.convert(Fraction(1, 2))
    # exact coefficients only: ints (bools included) and Fractions
    for ring in (RATIONALS, F3):
        for inexact in (0.5, 1.0, Decimal("0.5")):
            with pytest.raises(TypeError):
                ring.convert(inexact)
            with pytest.raises(TypeError):
                DPoly(ring, 1, {(1,): inexact})
    assert RATIONALS.convert(7) == 7 and type(RATIONALS.convert(7)) is int
    assert RATIONALS.convert(True) == 1 and F3.convert(True) == 1
    assert F3.convert(Fraction(4, 2)) == 2
    assert type(RATIONALS.convert(Fraction(4, 2))) is int
    assert DPoly(RATIONALS, 1, {(1,): Fraction(4, 2)}).terms == {(1,): 2}
    assert DPoly(F3, 1, {(1,): True, (0,): 3}).terms == {(1,): 1}


# -- structure constants -------------------------------------------------------


def test_mono_mul_examples():
    assert mono_mul((1,), (1,), RATIONALS) == (2, (2,))
    assert mono_mul((1,), (1,), F2) == (0, (2,))
    a = (2, 0, 1)
    assert mono_mul(a, (0, 0, 0), RATIONALS) == (1, a)


def test_mono_mul_length_mismatch():
    with pytest.raises(ValueError):
        mono_mul((1,), (1, 0), RATIONALS)


@given(monos3, monos3)
def test_mono_mul_commutative(a, b):
    assert mono_mul(a, b, RATIONALS) == mono_mul(b, a, RATIONALS)


@given(monos3, monos3, monos3)
def test_mono_mul_associative(a, b, c):
    c1, ab = mono_mul(a, b, RATIONALS)
    c2, abc = mono_mul(ab, c, RATIONALS)
    d1, bc = mono_mul(b, c, RATIONALS)
    d2, abc2 = mono_mul(a, bc, RATIONALS)
    assert abc == abc2 and c1 * c2 == d1 * d2


def test_lucas_matches_direct():
    for p in (2, 3, 5):
        ring = CoeffRing(p)
        for n in range(21):
            for k in range(21):
                assert binom_mod_p(n, k, p) == comb(n, k) % p if k <= n else True


# -- orders ---------------------------------------------------------------------


def all_monos(m, maxdeg):
    out = []
    for exps in itertools.product(range(maxdeg + 1), repeat=m):
        if sum(exps) <= maxdeg:
            out.append(exps)
    return out


def test_order_examples():
    lex, revlex = MonomialOrder.DPLEX.key, MonomialOrder.DPDEGREVLEX.key
    # x0 beats any pure power of a later variable under DPLEX
    assert lex((1, 0)) > lex((0, 5))
    # graded revlex: x1^(2) beats x0*x2
    assert revlex((0, 2, 0)) > revlex((1, 0, 1))
    a = (1, 2, 0)
    assert lex(a) == lex(a)


def test_orders_total_multiplicative_with_unit_minimum():
    for m in (1, 2, 3, 4):
        monos = all_monos(m, 4)
        one = (0,) * m
        for order in MonomialOrder:
            key = order.key
            for a, b in itertools.combinations(monos, 2):
                assert key(a) != key(b) and (key(a) > key(b)) == (key(b) < key(a))
            for a in monos:
                if a != one:
                    assert key(a) > key(one)
            # multiplicative on exponent vectors
            for a, b in itertools.combinations(monos, 2):
                s = key(a) > key(b)
                for w in monos[:6]:
                    aw = tuple(x + y for x, y in zip(a, w))
                    bw = tuple(x + y for x, y in zip(b, w))
                    assert (key(aw) > key(bw)) == s


# -- division -------------------------------------------------------------------


def test_try_divide_examples():
    assert try_divide((3,), (2,), RATIONALS) == ((1,), 3)
    assert try_divide((2,), (1,), F2) is None  # C(2,1) = 0 mod 2
    assert try_divide((1, 0), (0, 1), RATIONALS) is None  # not componentwise


def test_try_divide_roundtrip():
    for target in all_monos(2, 5):
        for divisor in all_monos(2, 5):
            got = try_divide(target, divisor, RATIONALS)
            if got is None:
                assert any(t < d for t, d in zip(target, divisor))
            else:
                quot, c = got
                assert mono_mul(quot, divisor, RATIONALS) == (c, target)


# -- polynomial arithmetic -------------------------------------------------------


def test_poly_mul_examples():
    x0 = DPoly.variable(RATIONALS, 2, 0)
    x1 = DPoly.variable(RATIONALS, 2, 1)
    assert x0 * x0 == DPoly(RATIONALS, 2, {(2, 0): 2})
    assert (x0 + x1) * x1 == DPoly(RATIONALS, 2, {(1, 1): 1, (0, 2): 2})
    zero = DPoly.zero(RATIONALS, 2)
    assert (x0 + x1) * zero == zero


def test_poly_ring_mismatch():
    with pytest.raises(ValueError):
        DPoly.variable(RATIONALS, 2, 0) + DPoly.variable(F2, 2, 0)
    with pytest.raises(ValueError):
        DPoly.variable(RATIONALS, 2, 0) + DPoly.variable(RATIONALS, 3, 0)


def classic(f: DPoly):
    """Image under x^(a) -> x^a / prod a_i! as a dict of Fractions."""
    return {
        a: Fraction(c, 1) / Fraction(
            factorial(a[0]) * factorial(a[1]) * factorial(a[2]) if len(a) == 3 else 1
        )
        for a, c in f.terms.items()
    }


@st.composite
def dpolys(draw, m=3, maxdeg=3):
    n = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n):
        mono = tuple(draw(st.integers(0, maxdeg)) for _ in range(m))
        terms[mono] = draw(st.integers(-4, 4))
    return DPoly(RATIONALS, m, terms)


@given(dpolys(), dpolys())
def test_scaling_map_is_multiplicative(f, g):
    # multiply classically and divided-ly; compare through the scaling map
    prod = f * g
    lhs = classic(prod)
    rhs: dict = {}
    cf, cg = classic(f), classic(g)
    for a, va in cf.items():
        for b, vb in cg.items():
            key = tuple(x + y for x, y in zip(a, b))
            rhs[key] = rhs.get(key, 0) + va * vb
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs


# -- normal form ------------------------------------------------------------------


def test_normal_form_already_reduced():
    f = parse_dpoly("x0 + x1", 2, RATIONALS)
    g = parse_dpoly("x0^(2)", 2, RATIONALS)
    assert normal_form(f, [g], MonomialOrder.DPLEX) == f


def test_normal_form_single_step_dplex():
    # under DPLEX the generator's lead is x0*x2, so x0*x2 rewrites to -x1^(2)
    f = parse_dpoly("x0*x2", 3, RATIONALS)
    g = parse_dpoly("x0*x2 + x1^(2)", 3, RATIONALS)
    assert normal_form(f, [g], MonomialOrder.DPLEX) == parse_dpoly("-x1^(2)", 3, RATIONALS)
    # under DPDEGREVLEX the lead is x1^(2), which does not divide x0*x2
    assert normal_form(f, [g], MonomialOrder.DPDEGREVLEX) == f


def test_normal_form_self_reduction():
    g = parse_dpoly("x0*x2 + x1^(2)", 3, RATIONALS)
    for order in MonomialOrder:
        assert normal_form(g, [g], order).is_zero()


def test_normal_form_cofactors_reconstruct():
    ring = RATIONALS
    f = parse_dpoly("x0^(2)*x2 + 3*x1 - x0*x1^(2)", 3, ring)
    gens = [
        parse_dpoly("x0*x2 + x1^(2)", 3, ring),
        parse_dpoly("x1^(2)", 3, ring),
    ]
    for order in MonomialOrder:
        nf, cof = normal_form(f, gens, order, with_cofactors=True)
        recon = nf
        for idx, quot, coeff in cof:
            recon = recon + gens[idx].mono_shift(quot).scale(coeff)
        assert recon == f
        # nothing reducible survives
        for mono in nf.terms:
            for g in gens:
                assert try_divide(mono, g.leading_monomial(order), ring) is None


def test_normal_form_mod_p_divisibility_gap():
    # over F_2, x0^(2) cannot reduce x0^(4): C(4,2) = 6 = 0 mod 2
    f = parse_dpoly("x0^(4)", 1, F2)
    g = parse_dpoly("x0^(2)", 1, F2)
    assert normal_form(f, [g], MonomialOrder.DPLEX) == f
    assert normal_form(parse_dpoly("x0^(3)", 1, F2), [g], MonomialOrder.DPLEX).is_zero()


def test_normal_form_rejects_zero_generator():
    with pytest.raises(ValueError):
        normal_form(
            DPoly.variable(RATIONALS, 1, 0),
            [DPoly.zero(RATIONALS, 1)],
            MonomialOrder.DPLEX,
        )


# -- text formats ------------------------------------------------------------------


def test_parse_monomial():
    assert parse_monomial("x0^(2)*x2", 3) == ((2, 0, 1), 1)
    assert parse_monomial("x0^2", 1) == ((2,), 2)  # classic power carries 2!
    assert parse_monomial("1", 2) == ((0, 0), 1)
    with pytest.raises(ValueError):
        parse_monomial("x5", 2)
    with pytest.raises(ValueError):
        parse_monomial("y0", 2)
    for text in ("", "x0**x1", "x0*"):  # empty factors
        with pytest.raises(ValueError):
            parse_monomial(text, 2)


@given(dpolys(), st.sampled_from([1, 2, 4]), st.sampled_from([RATIONALS, F3]))
def test_poly_text_roundtrip(f, den, ring):
    # the parser accepts everything the formatter writes, fractions included
    f = DPoly(ring, 3, {a: Fraction(c, den) for a, c in f.terms.items()})
    assert parse_dpoly(format_dpoly(f), 3, ring) == f


def test_parse_dpoly_rejects_malformed_text():
    for text in ["--x0", "2*-x0", "3--x0", "x0-", "-", "+", "x0**x1", "2*", "1/0"]:
        with pytest.raises(ValueError):
            parse_dpoly(text, 3, RATIONALS)
    with pytest.raises(ValueError, match="at position 2: zero denominator"):
        parse_dpoly("x0 + 3/00*x1", 3, RATIONALS)


def test_parse_dpoly_takes_ascii_digits_only():
    # a regex \d matches every Unicode decimal digit; indices, exponents and
    # coefficients are ASCII digits, as partition text is
    for text in ("x\u0662", "\uff12*x1", "x1^(\uff12)", "x0^\u0663", "x0 + \uff13", "1/\u0663*x0"):
        with pytest.raises(ValueError):
            parse_dpoly(text, 3, RATIONALS)
    with pytest.raises(ValueError, match="bad monomial factor 'x\u0662'"):
        parse_monomial("x\u0662", 3)


@pytest.mark.parametrize(
    "ring, text, pos",
    [
        (F2, "1/2", 0),
        (F2, "x1 + 3/4*x0", 2),
        (F3, "1/3", 0),
        (F3, "x0*x1 + 2/9*x2 - 1/3*x2", 5),
        (F3, "x2 + x0 - 5/6*x0", 5),
    ],
)
def test_parse_dpoly_names_a_denominator_p_divides(ring, text, pos):
    # over F_p a coefficient p divides the denominator of has no value; the
    # error names the text without spaces and the first such term
    with pytest.raises(ValueError) as caught:
        parse_dpoly(text, 3, ring)
    assert str(caught.value) == (
        f"bad polynomial {text.replace(' ', '')!r} at position {pos}: "
        f"denominator not invertible mod {ring.char}"
    )


def test_parse_dpoly_keeps_denominators_that_cancel_or_are_units():
    # terms may cancel a denominator p divides; other denominators are units
    assert parse_dpoly("x0 + 1/3*x1 - 1/3*x1", 3, F3) == parse_dpoly("x0", 3, F3)
    assert parse_dpoly("1/3*x0^3", 3, F3) == parse_dpoly("2*x0^(3)", 3, F3)
    assert parse_dpoly("1/2*x0 + 1/4*x1", 3, F3) == parse_dpoly("2*x0 + x1", 3, F3)
    assert parse_dpoly("1/3*x0 + 1/3*x0", 3, F2) == parse_dpoly("0", 3, F2)
    assert parse_dpoly("1/3", 3, RATIONALS).terms == {(0, 0, 0): Fraction(1, 3)}


def test_format_deterministic_dplex_descending():
    f = parse_dpoly("x1 + x0 + x2^(3)", 3, RATIONALS)
    assert format_dpoly(f) == "x0 + x1 + x2^(3)"
