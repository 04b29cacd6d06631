import itertools
from math import comb

import pytest

from sl2weyl.basis_enum import (
    count_B,
    count_g,
    cv_basis,
    is_reduced_lex,
    lex_basis,
    revlex_basis,
    truncated_basis,
)
from sl2weyl.dpalgebra import mono_degree, mono_weight


def brute_vectors(m, maxdeg):
    if m == 0:
        return [()]
    return [
        (e,) + rest
        for e in range(maxdeg + 1)
        for rest in brute_vectors(m - 1, maxdeg - e)
    ]


# -- lex ----------------------------------------------------------------------


def test_lex_examples():
    assert lex_basis(2).monomials == {(0, 0), (1, 0), (2, 0), (0, 1)}
    assert lex_basis(0).monomials == {()}


def test_lex_cardinality():
    for m in range(17):
        assert len(lex_basis(m)) == 2**m, m


def test_lex_matches_bruteforce_condition():
    for m in range(7):
        brute = set()
        for v in brute_vectors(m, m):
            if v == (0,) * m:
                brute.add(v)
                continue
            s = max(i for i in range(m) if v[i])
            if sum(v[: s + 1]) <= m - s:
                brute.add(v)
        assert lex_basis(m).monomials == brute


def test_is_reduced_lex_examples():
    assert is_reduced_lex((0, 0, 0), 3)
    assert not is_reduced_lex((4,) + (0,) * 2, 3)  # x0^(m+1)


def prefix_rule(a, m):
    """The lex rule as stated prefix by prefix: for each s with a_s != 0
    the prefix total a_0 + ... + a_s stays within m - s."""
    total = 0
    for s, e in enumerate(a):
        total += e
        if e and total > m - s:
            return False
    return True


def test_is_reduced_lex_equals_the_prefix_rule_on_the_box():
    # the top nonzero index binds the prefix rule: every monomial of the
    # m + 2 box, 167,960 of them at m = 9
    for m in range(10):
        for v in brute_vectors(m, m + 2):
            assert is_reduced_lex(v, m) == prefix_rule(v, m), (m, v)


def test_is_reduced_lex_agrees_with_membership():
    for m in range(9):
        basis = lex_basis(m).monomials
        for v in brute_vectors(m, m + 2):
            assert is_reduced_lex(v, m) == (v in basis), (m, v)


# -- revlex ---------------------------------------------------------------------


def brute_r1(m):
    out = set()
    for v in brute_vectors(m, m // 2):
        if 2 * sum(v) > m:
            continue
        good = True
        for i in range(1, m):
            nxt = v[i + 1] if i + 1 < m else 0
            if (i - 1) * v[i] + i * nxt > m - 2 * sum(v[i:]):
                good = False
                break
        if good:
            out.add(v)
    return out


def brute_revlex(m):
    out = set(brute_r1(m))
    r1 = brute_r1(m)
    for v in brute_vectors(m, m):
        k = sum(v)
        if 2 * k > m and v[0] + m - 2 * k >= 0:
            if (v[0] + m - 2 * k,) + v[1:] in r1:
                out.add(v)
    return out


def test_revlex_examples():
    assert revlex_basis(2).monomials == {(0, 0), (1, 0), (0, 1), (2, 0)}
    assert (0, 0, 2, 0) not in revlex_basis(4).monomials  # x2^(2) fails at i=2


def test_revlex_cardinality():
    for m in range(17):
        assert len(revlex_basis(m)) == 2**m, m


def test_revlex_matches_bruteforce():
    for m in range(9):
        assert revlex_basis(m).monomials == brute_revlex(m), m


def test_mirror_map_injective():
    for m in range(1, 17):
        r1 = [a for a in revlex_basis(m).monomials if 2 * sum(a) <= m]
        low = [a for a in r1 if 2 * sum(a) < m]
        images = {(a[0] + m - 2 * sum(a),) + a[1:] for a in low}
        assert len(images) == len(low)
        assert images.isdisjoint(r1)


# -- cv -------------------------------------------------------------------------


def brute_cv(m):
    out = set()
    for v in brute_vectors(m, m):
        ok = True
        for k in range(m):
            ik = v[k]
            ik1 = v[k + 1] if k + 1 < m else 0
            tail = 2 * sum(v[k + 2 :])
            for j in range(1, k + 2):
                if j * ik + (j + 1) * ik1 + tail > m - k + j - 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(v)
    return out


def test_cv_examples():
    assert cv_basis(2).monomials == revlex_basis(2).monomials
    assert len(cv_basis(2)) == 4


def test_cv_matches_bruteforce():
    for m in range(8):
        assert cv_basis(m).monomials == brute_cv(m), m


def test_cv_equals_revlex_and_cardinality():
    for m in range(17):
        cv = cv_basis(m)
        assert cv.monomials == revlex_basis(m).monomials, m
        assert len(cv) == 2**m


def staircase_tuples(m, slack):
    """Exponent vectors with entries <= m + 2 satisfying
    j*i_k + (j+1)*i_{k+1} + 2*sum_{p>k+1} i_p <= m - k + j + slack for
    0 <= k <= m-1, 1 <= j <= k+1.  For slack <= 1 the j = 1 instances give
    i_k <= m - k + 2, so the box holds every solution."""
    return {
        v for v in itertools.product(range(m + 3), repeat=m)
        if all(
            j * w[k] + (j + 1) * w[k + 1] + 2 * sum(w[k + 2:]) <= m - k + j + slack
            for w in [v + (0,)]  # i_m := 0
            for k in range(m)
            for j in range(1, k + 2)
        )
    }


def test_cv_bound_erratum():
    # the source's displayed bound m-k+j+1 admits more than 2^m tuples
    # (9 * 2^(m-2) for m >= 2), so it cannot describe a basis; the bound in
    # use, m-k+j-1, admits exactly the revlex basis
    assert [len(staircase_tuples(m, 1)) for m in range(1, 6)] == [4, 9, 18, 36, 72]
    for m in range(1, 6):
        assert staircase_tuples(m, -1) == revlex_basis(m).monomials, m


def test_k0_j1_condition_specializes():
    # the k=0, j=1 instance reads i_0 + 2 i_1 + 2 sum_{p>=2} i_p <= m
    for m in (3, 5, 8):
        for v in cv_basis(m).monomials:
            assert v[0] + 2 * sum(v[1:]) <= m


# -- truncation -------------------------------------------------------------------


def test_truncated_examples():
    t = truncated_basis(2, 1)
    assert t.monomials == {(0, 0), (1, 0), (2, 0)}
    assert len(t) == 3


def test_truncated_full_when_n_large():
    for m in range(1, 8):
        assert truncated_basis(m, m).monomials == revlex_basis(m).monomials
        assert truncated_basis(m, m + 3).monomials == revlex_basis(m).monomials


def test_truncated_nested():
    for m in range(1, 10):
        prev = truncated_basis(m, 1).monomials
        assert len(prev) == m + 1  # dimension of the simple module
        for n in range(2, m + 1):
            cur = truncated_basis(m, n).monomials
            assert prev <= cur
            prev = cur


def test_truncated_rejects_bad_level():
    with pytest.raises(ValueError):
        truncated_basis(3, 0)


@pytest.mark.parametrize("builder", [lex_basis, revlex_basis, cv_basis])
def test_bases_reject_a_negative_m(builder):
    with pytest.raises(ValueError, match="m must be nonnegative"):
        builder(-1)


# -- counting ---------------------------------------------------------------------


def test_count_B_examples():
    for m in range(1, 13):
        assert count_B(m, 0) == 1
        if m >= 2:
            assert count_B(m, 1) == m - 1


def test_count_B_against_enumeration():
    for m in range(1, 13):
        low = [a for a in revlex_basis(m).monomials if 2 * sum(a) <= m]
        for ell in range(m // 2 + 1):
            direct = sum(1 for a in low if sum(a) == ell and a[0] == 0)
            assert count_B(m, ell) == comb(m, ell) - comb(m, ell - 1) if ell else 1
            assert count_B(m, ell) == direct, (m, ell)


def test_count_B_partial_sums_are_binomials():
    for m in range(1, 13):
        for k in range(m // 2 + 1):
            assert sum(count_B(m, ell) for ell in range(k + 1)) == comb(m, k)


def test_count_B_range_validation():
    with pytest.raises(ValueError):
        count_B(4, 3)
    with pytest.raises(ValueError):
        count_B(4, -1)


def test_count_g_definitional():
    # g(t, ell, s, m) counts low-half monomials of degree ell supported on
    # x_t..x_{m-1} with x_t-degree exactly s
    for m in range(1, 11):
        low = [a for a in revlex_basis(m).monomials if 2 * sum(a) <= m]
        for t in range(1, m):
            for ell in range(m // 2 + 1):
                for s in range(ell + 1):
                    direct = sum(
                        1
                        for a in low
                        if sum(a) == ell
                        and all(a[i] == 0 for i in range(t))
                        and a[t] == s
                    )
                    assert count_g(t, ell, s, m) == direct, (t, ell, s, m)


def test_count_g_boundary_and_convention():
    assert count_g(4, 0, 0, 4) == 1
    assert count_g(4, 1, 0, 4) == 0
    for m in (3, 5):
        assert count_g(1, 1, -1, m) == count_g(1, 2, 0, m)


def test_count_g_binary_recursion():
    for m in range(2, 13):
        for t in range(1, m):
            for ell in range(1, m // 2 + 1):
                for s in range(ell + 1):
                    lhs = count_g(t, ell, s, m)
                    if m - 2 * ell >= (t - 1) * s:
                        rhs = count_g(t, ell, s + 1, m - 1) + count_g(
                            t, ell - 1, s - 1, m - 1
                        )
                    else:
                        rhs = 0
                    assert lhs == rhs, (t, ell, s, m)


def test_count_g_rejects_bad_indices():
    with pytest.raises(ValueError):
        count_g(0, 1, 0, 4)
    with pytest.raises(ValueError):
        count_g(5, 1, 0, 4)
    with pytest.raises(ValueError):
        count_g(1, 1, -2, 4)


# -- graded census ------------------------------------------------------------------


def test_slice_counts_of_lex_and_revlex_mirror():
    # per (degree, weight) slice the two bases have equal counts after the
    # weight mirror w -> degree*(m-1)... in fact the graded dimensions agree
    # with the quotient, so slice-by-slice counts of the two bases agree up to
    # the sl2 weight symmetry; here we check the exact statement used
    # downstream: equal per-slice counts against the oracle dims (m <= 4 to
    # stay fast; acceptance covers more)
    from sl2weyl.dpalgebra import RATIONALS
    from sl2weyl.quotient_oracle import OracleSession

    for m in range(1, 5):
        dims = OracleSession(m, RATIONALS, m + 2).dims().dims
        for basis in (lex_basis(m), revlex_basis(m)):
            counts: dict = {}
            for a in basis.monomials:
                counts[(mono_degree(a), mono_weight(a))] = (
                    counts.get((mono_degree(a), mono_weight(a)), 0) + 1
                )
            assert counts == {k: v for k, v in dims.items() if v}, (m, basis.provenance)
