import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sl2weyl import partitions
from sl2weyl._record import Record
from sl2weyl.dpalgebra import RATIONALS, slice_partitions
from sl2weyl.partitions import (
    EMPTY,
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
from sl2weyl.symfunc import kostka_row
from sl2weyl.weyl_ideal import forgotten_family, schur_family

parts_lists = st.lists(st.integers(min_value=0, max_value=6), max_size=6)


def all_partitions_of(n, max_len=None):
    return enumerate_partitions(n, n, max_len if max_len is not None else n)


# -- construction ------------------------------------------------------------


def test_make_partition_sorts():
    p = make_partition([1, 3, 1])
    assert p == (3, 1, 1)


def test_make_partition_empty():
    p = make_partition([])
    assert p == EMPTY == () and sum(p) == 0 and len(p) == 0


def test_make_partition_drops_zeros():
    p = make_partition([2, 0, 0])
    assert p == (2,) and len(p) == 1


def test_make_partition_rejects_negative():
    with pytest.raises(ValueError):
        make_partition([1, -1])
    # parts are read through operator.index: only ints, a bool as its int
    for bad in ([2.5], [2.0], ["2"], [Fraction(2)], [1, 1.5]):
        with pytest.raises(TypeError):
            make_partition(bad)
    p = make_partition([True, 2])
    assert p == (2, 1) and all(type(v) is int for v in p)


def test_constructors_keep_their_validation():
    # make_partition and parse_partition are where outside values become a
    # partition: they refuse what is not one and normalise what is
    with pytest.raises(ValueError, match="negative part"):
        make_partition((2, -1))
    with pytest.raises(ValueError, match="parts must be ASCII digits"):
        parse_partition("2,-1")
    assert make_partition((1, 2)) == parse_partition("1,2") == (2, 1)
    assert make_partition((2, 0)) == parse_partition("2,0") == (2,)
    assert make_partition(()) == parse_partition("-") == parse_partition("") == EMPTY


@given(parts_lists)
def test_make_partition_is_decreasing(vals):
    p = make_partition(vals)
    assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
    assert sum(p) == sum(vals)


@given(parts_lists)
def test_text_roundtrip(vals):
    p = make_partition(vals)
    assert parse_partition(format_partition(p)) == p
    assert make_partition(vals + [0, 0]) == make_partition([0] + vals) == p
    for text in ["3,1,1", "-", "5"]:
        assert format_partition(parse_partition(text)) == text
    assert parse_partition("2,0,0") == (2,)
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
            assert sum(t) == sum(lam)
            assert len(t) == max(lam, default=0)
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
    assert sum(uplus(pa, pb)) == sum(pa) + sum(pb)


# -- enumeration -------------------------------------------------------------


def test_enumerate_examples():
    got = enumerate_partitions(4, 2, 4)
    assert got == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
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
                got = set(enumerate_partitions(n, mp, ml))
                assert got == brute(n, mp, ml) if n else got == {()}


def test_enumerate_frees_its_result_without_the_collector():
    # the result must die with its last reference: a self-referencing
    # recursive closure kept each list alive until the cyclic collector ran,
    # which would then find it as garbage
    gc.collect()
    gc.disable()
    try:
        parts = enumerate_partitions(6, 6, 6)
        del parts
        assert gc.collect() == 0
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
                assert got == sorted(enumerate_partitions(n, mp, ml))


def test_stream_rejects_negative_arguments_at_the_call():
    for args in ((-1, 2, 2), (2, -1, 2), (2, 2, -1)):
        with pytest.raises(ValueError):
            iter_partitions(*args)
        with pytest.raises(ValueError):
            enumerate_partitions(*args)


# -- stretch and the index criterion -----------------------------------------


def eta_bruteforce(mu, m):
    target_len = m - len(mu) + 1
    cands = [
        p
        for p in enumerate_partitions(sum(mu), sum(mu), target_len)
        if len(p) == target_len and cmp_revlex(p, mu) >= 0
    ]
    return min(cands, key=revlex_key) if cands else None


def valid_mus(m):
    for size in range(2, (m - 1) * (m // 2) + 1):
        for mu in enumerate_partitions(size, m - 1, m // 2):
            if 2 <= len(mu) <= m // 2:
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
            nu = nu_greatest(eta, len(mu))
            assert check_mu_equals_nu(mu, m) == (nu == mu), (mu, m)


# -- one representation --------------------------------------------------------


def test_a_partition_is_a_plain_tuple_of_ints():
    # every constructor and construction hands back the engine's own part
    # tuples, and the module defines no record class for them
    def plain(p):
        return type(p) is tuple and all(type(v) is int for v in p)

    stretched = 0
    for n in range(9):
        for lam in all_partitions_of(n):
            assert plain(lam)
            assert plain(make_partition(lam)) and plain(parse_partition(format_partition(lam)))
            assert plain(transpose(lam)) and plain(uplus(lam, lam))
            if len(lam) < 2:
                continue
            for m in range(max(2 * len(lam), lam[0] + 1), 2 * len(lam) + 3):
                eta = eta_stretch(lam, m)
                if eta is not None:
                    stretched += 1
                    assert plain(eta) and plain(nu_greatest(eta, len(lam)))
    assert stretched > 50
    records = {
        name
        for name, cls in vars(partitions).items()
        if isinstance(cls, type) and issubclass(cls, Record)
    }
    assert records == set()


# -- every partition the engine builds is one ------------------------------------


def _iterated():
    for n in range(11):
        for mp in range(n + 1):
            for ml in range(n + 1):
                yield from iter_partitions(n, mp, ml)


def _transposed_and_joined():
    for n in range(9):
        for lam in all_partitions_of(n):
            yield transpose(lam)
            for mu in all_partitions_of(8 - n):
                yield uplus(lam, mu)


def _stretched_and_boxed():
    for m in range(4, 9):
        for mu in valid_mus(m):
            eta = eta_stretch(mu, m)
            if eta is not None:
                yield eta
                yield nu_greatest(eta, len(mu))


def _slice_contents():
    for m in range(1, 7):
        for d in range(m + 2):
            for w in range((m - 1) * d + 1):
                yield from slice_partitions(m, d, w)


def _kostka_shapes():
    for m in range(2, 6):
        for d in range(m + 2):
            for w in range((m - 1) * d + 1):
                for mu in slice_partitions(m, d, w):
                    yield from kostka_row(mu, m - 1)


def _family_shapes():
    for m in range(1, 5):
        for family in (schur_family, forgotten_family):
            for entry in family(m, RATIONALS).entries:
                yield entry.provenance[1]


@pytest.mark.parametrize(
    "produce",
    [
        _iterated,
        _transposed_and_joined,
        _stretched_and_boxed,
        _slice_contents,
        _kostka_shapes,
        _family_shapes,
    ],
)
def test_every_partition_the_engine_builds_is_weakly_decreasing_and_positive(produce):
    # no constructor checks a part tuple any more, so each producer is pinned
    # to hand back only partitions: plain tuples of positive ints, weakly
    # decreasing
    count = 0
    for p in produce():
        count += 1
        assert type(p) is tuple and all(type(v) is int and v > 0 for v in p), p
        assert all(a >= b for a, b in zip(p, p[1:])), p
    assert count > 100
