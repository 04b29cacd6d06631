import gc
import itertools
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sl2weyl.partitions import (
    EMPTY,
    Partition,
    check_mu_equals_nu,
    cmp_revlex,
    dominates,
    enumerate_partitions,
    eta_stretch,
    iter_partitions,
    format_partition,
    make_partition,
    nu_greatest,
    parse_partition,
    revlex_key,
    transpose,
    uplus,
)

parts_lists = st.lists(st.integers(min_value=0, max_value=6), max_size=6)


def all_partitions_of(n, max_len=None):
    return enumerate_partitions(n, n, max_len if max_len is not None else n)


# -- construction ------------------------------------------------------------


def test_make_partition_sorts():
    p = make_partition([1, 3, 1])
    assert p.parts == (3, 1, 1) and p == Partition((3, 1, 1))


def test_make_partition_empty():
    p = make_partition([])
    assert p == EMPTY and p.size == 0 and p.length == 0


def test_make_partition_drops_zeros():
    p = make_partition([2, 0, 0])
    assert p.parts == (2,) and p == Partition((2,)) and p.length == 1


def test_make_partition_rejects_negative():
    with pytest.raises(ValueError):
        make_partition([1, -1])


@given(parts_lists)
def test_make_partition_is_decreasing(vals):
    p = make_partition(vals)
    assert all(p.parts[i] >= p.parts[i + 1] for i in range(len(p.parts) - 1))
    assert p.size == sum(vals)


@given(parts_lists)
def test_text_roundtrip(vals):
    p = make_partition(vals)
    assert parse_partition(format_partition(p)) == p
    assert make_partition(vals + [0, 0]) == make_partition([0] + vals) == p
    for text in ["3,1,1", "-", "5"]:
        assert format_partition(parse_partition(text)) == text
    assert parse_partition("2,0,0") == Partition((2,))
    for text in ["2,x", "2|oops", "3,1|+2z", "-|+3z", "1_0", "+2", "2, 1", "\u0661"]:
        with pytest.raises(ValueError):
            parse_partition(text)


# -- transpose ---------------------------------------------------------------


def test_transpose_examples():
    assert transpose(make_partition([2, 1])) == make_partition([2, 1])
    assert transpose(make_partition([3, 1])) == make_partition([2, 1, 1])
    assert transpose(make_partition([4])) == make_partition([1, 1, 1, 1])


def test_transpose_involution():
    for n in range(13):
        for lam in all_partitions_of(n):
            t = transpose(lam)
            assert t.size == lam.size
            assert t.length == lam.largest
            assert transpose(t) == lam


# -- dominance ---------------------------------------------------------------


def test_dominates_examples():
    assert dominates(make_partition([2]), make_partition([1, 1]))
    assert not dominates(make_partition([1, 1]), make_partition([2]))
    lam = make_partition([3, 2])
    assert dominates(lam, lam)


def test_dominates_unequal_sizes_false():
    assert not dominates(make_partition([2]), make_partition([1, 1, 1]))


def test_dominates_partial_order_exhaustive():
    for n in range(11):
        ps = all_partitions_of(n)
        for a in ps:
            assert dominates(a, a)
        for a, b in itertools.permutations(ps, 2):
            if dominates(a, b) and dominates(b, a):
                assert a == b
        for a, b, c in itertools.product(ps, repeat=3):
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


# -- revlex ------------------------------------------------------------------


def test_revlex_examples():
    assert cmp_revlex(make_partition([1, 1]), make_partition([2, 0])) > 0
    assert cmp_revlex(make_partition([2, 1, 1]), make_partition([2, 2, 0])) > 0
    lam = make_partition([3, 1])
    assert cmp_revlex(lam, lam) == 0


def test_revlex_size_mismatch():
    with pytest.raises(ValueError):
        cmp_revlex(make_partition([2]), make_partition([1]))


def test_revlex_total_order():
    for n in range(9):
        for a, b in itertools.combinations(all_partitions_of(n), 2):
            assert cmp_revlex(a, b) == -cmp_revlex(b, a) != 0


def test_dominance_refines_revlex():
    # mu dominating lam forces mu <= lam in revlex
    for n in range(9):
        for mu, lam in itertools.permutations(all_partitions_of(n), 2):
            if dominates(mu, lam):
                assert cmp_revlex(mu, lam) <= 0


# -- uplus -------------------------------------------------------------------


def test_uplus_examples():
    assert uplus(make_partition([2, 1]), make_partition([3])) == make_partition([3, 2, 1])
    lam = make_partition([4, 2])
    assert uplus(lam, EMPTY) == lam
    assert uplus(make_partition([1, 1]), make_partition([1])) == make_partition([1, 1, 1])


@given(parts_lists, parts_lists, parts_lists)
def test_uplus_commutative_associative(a, b, c):
    pa, pb, pc = make_partition(a), make_partition(b), make_partition(c)
    assert uplus(pa, pb) == uplus(pb, pa)
    assert uplus(uplus(pa, pb), pc) == uplus(pa, uplus(pb, pc))
    assert uplus(pa, pb).size == pa.size + pb.size


# -- enumeration -------------------------------------------------------------


def test_enumerate_examples():
    got = enumerate_partitions(4, 2, 4)
    assert [p.parts for p in got] == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(0, 5, 5) == [EMPTY]
    assert enumerate_partitions(3, 1, 2) == []


def test_enumerate_against_bruteforce():
    def brute(n, max_part, max_len):
        found = set()
        for length in range(max_len + 1):
            for combo in itertools.product(range(1, max_part + 1), repeat=length):
                if sum(combo) == n and tuple(sorted(combo, reverse=True)) == combo:
                    found.add(combo)
        return found

    for n in range(7):
        for mp in range(4):
            for ml in range(5):
                got = {p.parts for p in enumerate_partitions(n, mp, ml)}
                assert got == brute(n, mp, ml) if n else got == {()}


def test_enumerate_frees_its_result_without_the_collector():
    # the result must die with its last reference: a self-referencing
    # recursive closure kept each list alive until the cyclic collector ran
    gc.disable()
    try:
        parts = enumerate_partitions(6, 6, 6)
        witness = weakref.ref(parts[0])
        del parts
        assert witness() is None
    finally:
        gc.enable()


def test_stream_is_ascending_and_matches_bruteforce_and_the_list():
    # every weakly decreasing tuple with parts in 1..max_part and length <=
    # max_len, grouped by size; zero sizes, parts and lengths included
    for mp in range(6):
        for ml in range(7):
            brute = {}
            for length in range(ml + 1):
                for combo in itertools.combinations_with_replacement(range(mp, 0, -1), length):
                    brute.setdefault(sum(combo), []).append(combo)
            for n in range(9):
                got = list(iter_partitions(n, mp, ml))
                assert got == sorted(brute.get(n, [])), (n, mp, ml)
                assert got == sorted(p.parts for p in enumerate_partitions(n, mp, ml))


def test_stream_rejects_negative_arguments_at_the_call():
    for args in ((-1, 2, 2), (2, -1, 2), (2, 2, -1)):
        with pytest.raises(ValueError):
            iter_partitions(*args)
        with pytest.raises(ValueError):
            enumerate_partitions(*args)


# -- stretch and the index criterion -----------------------------------------


def eta_bruteforce(mu, m):
    target_len = m - mu.length + 1
    cands = [
        p
        for p in enumerate_partitions(mu.size, mu.size, target_len)
        if p.length == target_len and cmp_revlex(p, mu) >= 0
    ]
    return min(cands, key=revlex_key) if cands else None


def valid_mus(m):
    for size in range(2, (m - 1) * (m // 2) + 1):
        for mu in enumerate_partitions(size, m - 1, m // 2):
            if 2 <= mu.length <= m // 2:
                yield mu


def test_eta_examples():
    assert eta_stretch(make_partition([2, 2]), 4) == make_partition([2, 1, 1])
    assert eta_stretch(make_partition([2, 2]), 6) is None
    assert eta_stretch(make_partition([3, 1]), 4) == make_partition([2, 1, 1])


def test_eta_preconditions():
    with pytest.raises(ValueError):
        eta_stretch(make_partition([2]), 4)  # length 1 < 2
    with pytest.raises(ValueError):
        eta_stretch(make_partition([2, 2, 1]), 4)  # length > m/2
    with pytest.raises(ValueError):
        eta_stretch(make_partition([4, 1]), 4)  # part > m-1


def test_eta_matches_bruteforce_m_up_to_8():
    for m in range(4, 9):
        for mu in valid_mus(m):
            assert eta_stretch(mu, m) == eta_bruteforce(mu, m), (mu, m)


def test_index_criterion_examples():
    assert check_mu_equals_nu(make_partition([2, 2]), 4) is True
    assert check_mu_equals_nu(make_partition([3, 1]), 4) is False
    assert check_mu_equals_nu(make_partition([2, 2, 2]), 6) is True  # equal parts


def test_index_criterion_matches_definitional_nu():
    for m in range(4, 9):
        for mu in valid_mus(m):
            eta = eta_stretch(mu, m)
            if eta is None:
                continue
            nu = nu_greatest(eta, mu.length)
            assert check_mu_equals_nu(mu, m) == (nu == mu), (mu, m)
