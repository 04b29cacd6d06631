import itertools
import operator
from collections import Counter

import pytest

from sl2weyl.partitions import (
    EMPTY,
    dominates,
    enumerate_partitions,
    iter_partitions,
    make_partition,
    parse_partition,
    transpose,
    uplus,
)
from sl2weyl.symfunc import (
    OPoly,
    _added_horizontal_strips,
    _horizontal_substrips,
    _kostka,
    _sub_partitions,
    coinvariant_reduce,
    complete_h,
    forgotten_coeff,
    kostka,
    kostka_row,
    mono_sym,
    schur_nonvanishing,
    schur_poly,
)


def all_partitions_of(n):
    return enumerate_partitions(n, n, n) if n else [EMPTY]


# -- Kostka numbers, with an independent brute-force tableau filler ----------


def ssyt_count_bruteforce(shape, content):
    """Fill cells left-to-right, top-to-bottom with entries 1..len(content)."""
    shape = shape.parts
    content = content.parts
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    counts = [0] * len(content)

    def rec(i, grid):
        if i == len(cells):
            return 1 if all(counts[j] == content[j] for j in range(len(content))) else 0
        r, c = cells[i]
        total = 0
        for v in range(1, len(content) + 1):
            if counts[v - 1] == content[v - 1]:
                continue
            if c > 0 and grid[(r, c - 1)] > v:
                continue
            if r > 0 and grid[(r - 1, c)] >= v:
                continue
            grid[(r, c)] = v
            counts[v - 1] += 1
            total += rec(i + 1, grid)
            counts[v - 1] -= 1
            del grid[(r, c)]
        return total

    return rec(0, {})


def test_kostka_diagonal_is_one():
    for n in range(7):
        for lam in all_partitions_of(n):
            assert kostka(lam, lam) == 1


def test_kostka_examples():
    assert kostka(make_partition([2, 1]), make_partition([1, 1, 1])) == 2
    assert kostka(make_partition([1, 1]), make_partition([2])) == 0
    assert kostka(make_partition([2]), make_partition([1, 1, 1])) == 0  # size mismatch
    # one loop step per content part, so thousands of parts stay in reach
    ones = make_partition([1] * 2000)
    assert kostka(make_partition([2000]), ones) == 1
    # standard tableaux of the hook (n - 1, 1): the entry in row 2 is 2..n
    assert kostka(make_partition([1999, 1]), ones) == 1999
    assert kostka(make_partition([1] * 1000), make_partition([1] * 1000)) == 1


def test_kostka_matches_bruteforce():
    for n in range(1, 7):
        for lam in all_partitions_of(n):
            for mu in all_partitions_of(n):
                assert kostka(lam, mu) == ssyt_count_bruteforce(lam, mu), (lam, mu)


def test_kostka_positivity_iff_dominance():
    for n in range(1, 8):
        for lam in all_partitions_of(n):
            for mu in all_partitions_of(n):
                assert (kostka(lam, mu) > 0) == dominates(lam, mu)


def test_kostka_dominance_shortcut_equals_the_strip_recursion():
    # `kostka` answers 0 for a shape that does not dominate the content
    # without running the strip recursion; that recursion must agree
    for n in range(9):
        for lam in all_partitions_of(n):
            for mu in all_partitions_of(n):
                assert kostka(lam, mu) == _kostka(lam.parts, mu.parts), (lam, mu)


def test_kostka_ignores_content_padding():
    # zero entries in a content, as a list or as CLI text, are dropped
    for n in range(1, 6):
        for lam in all_partitions_of(n):
            for mu in all_partitions_of(n):
                want = kostka(lam, mu)
                for z in range(1, 4):
                    padded = list(mu.parts) + [0] * z
                    assert kostka(lam, make_partition(padded)) == want
                    text = ",".join(map(str, padded))
                    assert kostka(lam, parse_partition(text)) == want


def test_kostka_rows_match_literal_kostka():
    # every content mu of the Schur family up to m = 6 (parts <= m-1, length
    # <= m+1) against every lam |- |mu| within the cap, zeros included
    for m in range(1, 7):
        for size in range((m - 1) * (m + 1) + 1):
            shapes = enumerate_partitions(size, m - 1, size)
            for mu in enumerate_partitions(size, m - 1, m + 1):
                row = kostka_row(mu.parts, m - 1)
                for lam in shapes:
                    assert row.get(lam.parts, 0) == kostka(lam, mu), (m, lam, mu)


def test_added_strips_match_literal_substrips():
    # the shared strip table against the literal strip recursion read
    # backwards: lam gains the strip exactly when nu is a substrip of lam,
    # in increasing lexicographic order; one immutable tuple per key
    for cap in range(9):
        for n in range(11):
            for nu in iter_partitions(n, cap, n):
                for size in range(8):
                    strips = _added_horizontal_strips(nu, size, cap)
                    assert isinstance(strips, tuple)
                    assert _added_horizontal_strips(nu, size, cap) is strips
                    want = [
                        lam for lam in iter_partitions(n + size, cap, n + size)
                        if nu in _horizontal_substrips(lam, size)
                    ]
                    assert list(strips) == want, (nu, size, cap)


def test_kostka_row_holds_the_nonzero_numbers_within_the_cap():
    assert kostka_row((), 0) == {(): 1}
    assert kostka_row((1, 1, 1), 2) == {(2, 1): 2, (1, 1, 1): 1}
    assert kostka_row((2, 2), 1) == {}


# -- forgotten coefficients ---------------------------------------------------


def forgotten_coeff_bruteforce(lam, mu):
    """Enumerate ordered sequences of partitions directly."""
    from math import factorial

    parts = mu.parts
    if lam.size != mu.size:
        return 0
    options = [all_partitions_of(p) for p in parts]
    total = 0
    for seq in itertools.product(*options):
        merged = EMPTY
        for eta in seq:
            merged = uplus(merged, eta)
        if merged.parts != lam.parts:
            continue
        w = 1
        for eta in seq:
            ww = factorial(eta.length)
            for v in set(eta.parts):
                ww //= factorial(eta.parts.count(v))
            w *= ww
        total += w
    return total * (-1) ** (mu.size - lam.length)


def test_forgotten_diagonal_unit():
    for n in range(1, 7):
        for lam in all_partitions_of(n):
            assert abs(forgotten_coeff(lam, lam)) == 1


def test_forgotten_examples():
    assert forgotten_coeff(make_partition([1, 1]), make_partition([2, 0])) == 1
    assert forgotten_coeff(make_partition([2, 1, 1]), make_partition([2, 2])) == -2
    # one loop step per part of mu, so thousands of parts stay in reach
    ones = make_partition([1] * 1200)
    hook = make_partition([2] + [1] * 1198)
    assert forgotten_coeff(ones, ones) == 1
    assert forgotten_coeff(hook, hook) == -1
    # one block: l(lam)! / (m_1! m_2!) = 1199, sign (-1)^(|mu| - l(lam)) = -1
    assert forgotten_coeff(hook, make_partition([1200])) == -1199


def test_forgotten_matches_bruteforce():
    for n in range(1, 7):
        for lam in all_partitions_of(n):
            for mu in all_partitions_of(n):
                assert forgotten_coeff(lam, mu) == forgotten_coeff_bruteforce(lam, mu)


def test_sub_partitions_match_the_product_of_copy_counts():
    # every choice of copies per value, largest value first and most copies
    # first, filtered by sum: the same dicts in the same order
    for n in range(11):
        for lam in all_partitions_of(n):
            counts = dict(Counter(lam.parts))
            values = sorted(counts, reverse=True)
            for target in range(n + 1):
                want = [
                    {v: c for v, c in zip(values, copies) if c}
                    for copies in itertools.product(*(range(counts[v], -1, -1) for v in values))
                    if sum(map(operator.mul, values, copies)) == target
                ]
                got = _sub_partitions(counts, target)
                assert [list(d.items()) for d in got] == [list(d.items()) for d in want], (lam, target)


def test_forgotten_size_mismatch_zero():
    assert forgotten_coeff(make_partition([2]), make_partition([1])) == 0


def test_forgotten_padding_invariant():
    # mu is padded to name the monomial x^(mu); the pad must not change f_{lam,mu}
    for n in range(1, 6):
        for lam in all_partitions_of(n):
            for mu in all_partitions_of(n):
                want = forgotten_coeff(lam, mu)
                for z in range(1, 4):
                    padded = [0] * z + list(mu.parts)
                    assert forgotten_coeff(lam, make_partition(padded)) == want
                    text = ",".join(map(str, padded))
                    assert forgotten_coeff(lam, parse_partition(text)) == want


# -- polynomials --------------------------------------------------------------


def test_mono_sym_examples():
    assert mono_sym(make_partition([1]), 2) == OPoly(2, {(1, 0): 1, (0, 1): 1})
    assert mono_sym(make_partition([2, 1, 1]), 2).is_zero()  # too long


def test_complete_h_example():
    assert complete_h(2, 2) == OPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert complete_h(0, 3) == OPoly(3, {(0, 0, 0): 1})


def test_schur_poly_example():
    assert schur_poly(make_partition([2]), 2) == complete_h(2, 2)
    # s_(1,1) in 2 variables is e_2 = t1*t2
    assert schur_poly(make_partition([1, 1]), 2) == OPoly(2, {(1, 1): 1})


def test_forgotten_expansion_vs_transition():
    # schur = sum over mu <= lam' of K_{lam',mu} * (sum_{nu >= mu} D * M_nu)
    for n in range(1, 7):
        for lam in all_partitions_of(n):
            for r in range(lam.length, 7):
                lhs = schur_poly(lam, r)
                lamt = transpose(lam)
                rhs = OPoly(r)
                for mu in all_partitions_of(n):
                    if not dominates(lamt, mu):
                        continue
                    kk = kostka(lamt, mu)
                    if not kk:
                        continue
                    f_mu = OPoly(r)
                    for nu in all_partitions_of(n):
                        if dominates(nu, mu):
                            d = forgotten_coeff(mu, nu)
                            if d:
                                f_mu = f_mu + mono_sym(nu, r).scale(d)
                    rhs = rhs + f_mu.scale(kk)
                assert lhs == rhs, (lam, r)


# -- coinvariant algebra ------------------------------------------------------


def test_coinvariant_examples():
    assert coinvariant_reduce(OPoly(1, {(2,): 1}), 2).is_zero()  # t1^2, m=2
    t1 = OPoly(1, {(1,): 1})
    assert coinvariant_reduce(t1, 2) == t1.embed(2)
    f = OPoly(2, {(1, 0): 3, (0, 1): -2})
    assert coinvariant_reduce(f, 3) == f.embed(3)  # already reduced


def test_coinvariant_idempotent_and_linear():
    m = 3
    polys = [
        OPoly(3, {(3, 0, 0): 1}),
        OPoly(3, {(1, 2, 0): 2, (0, 0, 1): 1}),
        complete_h(3, 3),
        schur_poly(make_partition([2, 1]), 3),
    ]
    for f in polys:
        r = coinvariant_reduce(f, m)
        assert coinvariant_reduce(r, m) == r
    for f in polys:
        for g in polys:
            lhs = coinvariant_reduce(f + g.scale(5), m)
            rhs = coinvariant_reduce(f, m) + coinvariant_reduce(g, m).scale(5)
            assert lhs == rhs


def test_coinvariant_symmetric_positive_degree_dies():
    # every positive-degree symmetric polynomial lies in the ideal
    for m in (2, 3, 4):
        for k in range(1, 4):
            assert coinvariant_reduce(complete_h(k, m), m).is_zero(), (m, k)
            assert coinvariant_reduce(mono_sym(make_partition([k]), m), m).is_zero()


def test_schur_nonvanishing_examples():
    assert schur_nonvanishing(make_partition([1]), 1, 2)
    assert schur_nonvanishing(EMPTY, 2, 3)
    assert schur_nonvanishing(make_partition([1, 1]), 2, 4)


def test_schur_nonvanishing_hypotheses_sweep():
    for m in range(1, 6):
        for k in range(m + 1):
            cap = k * max(m - k, 0)
            for size in range(cap + 1):
                for lam in enumerate_partitions(size, max(m - k, 0), k):
                    assert schur_nonvanishing(lam, k, m), (lam, k, m)


def test_schur_nonvanishing_rejects_bad_inputs():
    with pytest.raises(ValueError):
        schur_nonvanishing(make_partition([3]), 1, 3)  # part too large
    with pytest.raises(ValueError):
        schur_nonvanishing(make_partition([1, 1, 1]), 2, 4)  # too long
