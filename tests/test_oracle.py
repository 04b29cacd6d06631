import gc
import importlib
import itertools
import math
import pickle
import pkgutil
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import sl2weyl
from sl2weyl import quotient_oracle, symfunc, weyl_ideal
from sl2weyl.basis_enum import BasisSet, cv_basis, lex_basis, revlex_basis, truncated_basis
from sl2weyl.dpalgebra import RATIONALS, DPoly, parse_dpoly, prime_field, slice_partitions
from sl2weyl.quotient_oracle import (
    ConfigurationError,
    MustVerifyFirstError,
    OracleSession,
    SliceReport,
    VerificationReport,
    _box_slices,
    _Echelon,
    build_slice,
    reduce_element,
    slice_monomials,
    slice_rank,
    truncated_quotient,
)
from sl2weyl.weyl_ideal import (
    GeneratorEntry,
    GeneratorSet,
    defining_generators,
    forgotten_family,
    schur_family,
    truncation_relations,
)

RINGS = (RATIONALS, prime_field(2), prime_field(3), prime_field(5))


# -- slices --------------------------------------------------------------------


def test_slice_monomials_sorted_and_complete():
    monos = slice_monomials(3, 2, 2)
    assert monos == ((1, 0, 1), (0, 2, 0))
    assert slice_monomials(3, 1, 5) == ()
    assert slice_monomials(0, 0, 0) == ((),)


def test_slice_table_equals_the_literal_enumeration():
    # every slice of the box m + 2, m <= 6: the monomials are the multisets
    # of d variable indices with index sum w (mu |- w zero-padded to d
    # parts), in decreasing DPLEX order, and each cached mu pads back to its
    # monomial
    for m in range(1, 7):
        for d in range(m + 3):
            literal = {}
            for combo in itertools.combinations_with_replacement(range(m), d):
                counts = Counter(combo)
                literal.setdefault(sum(combo), []).append(tuple(counts[i] for i in range(m)))
            for w in range(d * (m - 1) + 1):
                monos = slice_monomials(m, d, w)
                assert monos == tuple(sorted(literal.get(w, []), reverse=True)), (m, d, w)
                mus = slice_partitions(m, d, w)
                assert len(mus) == len(monos)
                for mu, a in zip(mus, monos):
                    assert list(mu) == sorted(mu, reverse=True) and 0 not in mu
                    padded = Counter(mu + (0,) * (d - len(mu)))
                    assert tuple(padded[i] for i in range(m)) == a, (m, d, w, mu)


def test_build_slice_m1_single_row():
    gens = defining_generators(1, RATIONALS, 3, 3)
    sl = build_slice(1, RATIONALS, 2, 0, gens)
    assert sl.monomials == ((2,),)
    assert sl.ideal_rows == ((1,),)
    assert len(sl.monomials) - slice_rank(sl) == 0


def test_build_slice_empty():
    gens = defining_generators(2, RATIONALS, 4, 4)
    sl = build_slice(2, RATIONALS, 1, 3, gens)
    assert sl.monomials == () and sl.ideal_rows == ()


def test_build_slice_m3_quotient_dim_one():
    gens = defining_generators(3, RATIONALS, 5, 10)
    sl = build_slice(3, RATIONALS, 2, 2, gens)
    assert set(sl.monomials) == {(1, 0, 1), (0, 2, 0)}
    assert len(sl.monomials) - slice_rank(sl) == 1


def test_build_slice_requires_covering_bounds():
    gens = defining_generators(3, RATIONALS, 4, 4)
    with pytest.raises(ConfigurationError):
        build_slice(3, RATIONALS, 5, 2, gens)
    with pytest.raises(ConfigurationError):
        build_slice(3, RATIONALS, 3, 6, gens)


def _variables(m, ring, indices):
    """The variables x_j, j in `indices`, as degree-one generator entries."""
    out = []
    for j in indices:
        mono = tuple(int(i == j) for i in range(m))
        out.append(GeneratorEntry(DPoly.monomial(ring, m, mono), ("extra", j), 1, j))
    return tuple(out)


def _assert_ranks_match_literal(m, ring, bound, sess, gens):
    for d in range(bound + 1):
        for w in range(d * max(m - 1, 0) + 1):
            if slice_monomials(m, d, w):
                lit = slice_rank(build_slice(m, ring, d, w, gens))
                assert lit == sess.space(d, w).rank, (m, ring.char, gens.family, d, w)


def test_cascade_rank_equals_literal_rank():
    for m in (1, 2, 3, 4):
        for ring in RINGS:
            bound = m + 2
            gens = defining_generators(m, ring, bound, bound * max(m - 1, 1))
            sess = OracleSession(m, ring, bound, gens=gens)
            lazy = OracleSession(m, ring, bound)  # series generators per slice
            _assert_ranks_match_literal(m, ring, bound, sess, gens)
            _assert_ranks_match_literal(m, ring, bound, lazy, gens)


def test_given_and_truncated_sessions_equal_literal_rank():
    # covered slices skip elimination whatever the generators: sessions on
    # the derived families and with truncation variables must still match
    # the literal rows slice by slice
    for m in (1, 2, 3, 4):
        for ring in RINGS:
            families = [schur_family(m, ring)]
            if not ring.char:
                families.append(forgotten_family(m, ring))
            for gens in families:
                sess = OracleSession(m, ring, m + 1, gens=gens)
                _assert_ranks_match_literal(m, ring, m + 1, sess, gens)
            bound = m + 2
            defining = defining_generators(m, ring, bound, bound * max(m - 1, 1))
            for n in range(1, m):
                gens = GeneratorSet(
                    m, ring, "truncated", defining.entries + _variables(m, ring, range(n, m)),
                    defining.degree_bound, defining.weight_bound,
                )
                sess = OracleSession(m, ring, bound, relations=truncation_relations(m, n, ring))
                _assert_ranks_match_literal(m, ring, bound, sess, gens)


def _random_entries(rng, m, ring, bound):
    """1-8 homogeneous polynomials of 1-3 terms with small nonzero integer
    coefficients, each in a random slice of positive degree in the box."""
    slices = [s for s in _box_slices(m, bound) if s[0]]
    entries = []
    for _ in range(rng.randint(1, 8)):
        d, w, size = rng.choice(slices)
        monos = rng.sample(slice_monomials(m, d, w), min(size, rng.randint(1, 3)))
        terms = {a: rng.choice((-3, -2, -1, 1, 2, 3)) for a in monos}
        entries.append(GeneratorEntry(DPoly(ring, m, terms), ("random",), d, w))
    return tuple(entries)


def test_random_families_equal_literal_rank():
    # coverage and the shifted rows hold for any family: seeded random sets
    # given as the whole family must match the literal rows slice by slice
    rng = random.Random(1801)
    for trial in range(500):
        m, ring = rng.randint(1, 5), RINGS[trial % len(RINGS)]
        bound = rng.randint(m, m + 2)
        entries = _random_entries(rng, m, ring, bound)
        gens = GeneratorSet(m, ring, "random", entries, bound, bound * max(m - 1, 0))
        sess = OracleSession(m, ring, bound, gens=gens)
        for d, w, _ in _box_slices(m, bound):
            lit = slice_rank(build_slice(m, ring, d, w, gens))
            assert sess.space(d, w).rank == lit, (trial, m, ring.char, bound, d, w)


def test_random_relations_on_the_defining_ideal_equal_literal_rank():
    # relations are adjoined to the series generators: the session must
    # match the literal rows of the defining family plus the relations
    rng = random.Random(1802)
    defining = {}
    for trial in range(200):
        m, ring = rng.randint(1, 4), RINGS[trial % len(RINGS)]
        bound = rng.randint(m, m + 2)
        if (m, ring) not in defining:
            defining[m, ring] = defining_generators(m, ring, m + 2, (m + 2) * max(m - 1, 1))
        base = defining[m, ring]
        entries = _random_entries(rng, m, ring, bound)
        relations = GeneratorSet(m, ring, "random", entries, bound, bound * max(m - 1, 0))
        gens = GeneratorSet(
            m, ring, "defining+random", base.entries + entries, base.degree_bound,
            base.weight_bound,
        )
        sess = OracleSession(m, ring, bound, relations=relations)
        for d, w, _ in _box_slices(m, bound):
            lit = slice_rank(build_slice(m, ring, d, w, gens))
            assert sess.space(d, w).rank == lit, (trial, m, ring.char, bound, d, w)


def _relation_set(m, ring, *filed):
    """Relations given as (polynomial, degree, weight), each entry declaring
    the slice it is filed under."""
    entries = [GeneratorEntry(f, ("relation", i), d, w) for i, (f, d, w) in enumerate(filed)]
    return GeneratorSet(
        m, ring, "relations", entries, max(d for _, d, _ in filed), max(w for _, _, w in filed)
    )


def test_relations_are_checked_and_cleared_of_denominators():
    Q, F3 = RATIONALS, prime_field(3)
    x2 = parse_dpoly("x2", 3, Q)
    for filed in (
        (parse_dpoly("x2", 4, Q), 1, 2),  # another m
        (parse_dpoly("x2", 3, F3), 1, 2),  # another ring
        (parse_dpoly("x0*x2 + x1", 3, Q), 2, 2),  # two degrees
        (parse_dpoly("x0*x2 + x0*x1", 3, Q), 2, 2),  # two weights
        (x2, 1, 1),  # another slice inside the box
        (x2, 9, 2),  # another slice outside it
    ):
        with pytest.raises(ValueError, match=r"entry \d+ \('relation', 0\)"):
            OracleSession(3, Q, 3, relations=_relation_set(3, Q, filed))
    # a set whose own m or ring differs from the session's
    for m, ring in ((4, Q), (3, F3)):
        relations = _relation_set(m, ring, (parse_dpoly("x2", m, ring), 1, 2))
        with pytest.raises(ConfigurationError, match="relations set is for m"):
            OracleSession(3, Q, 3, relations=relations)
    # a zero relation has every slice
    zero = _relation_set(3, Q, (DPoly.zero(Q, 3), 9, 2))
    assert OracleSession(3, Q, 3, relations=zero).dims().total == 8
    # over Q a row is a unit multiple with integer coefficients: 1/2 and 2
    # give the same ideal, given as relations or as generators
    half = parse_dpoly("1/2*x0*x2 + x1^(2)", 3, Q)
    whole = parse_dpoly("x0*x2 + 2*x1^(2)", 3, Q)
    base = defining_generators(3, Q, 5, 10)
    totals = []
    for f in (half, whole):
        totals.append(
            OracleSession(3, Q, 3, relations=_relation_set(3, Q, (f, 2, 2))).dims().total
        )
        gens = GeneratorSet(
            3, Q, "defining+f", base.entries + (GeneratorEntry(f, ("f",), 2, 2),), 5, 10
        )
        totals.append(OracleSession(3, Q, 5, gens).dims().total)
    assert totals == [7, 7, 7, 7]


def test_given_entries_are_checked_against_their_declared_slice():
    # an entry filed under another slice, inside the box or outside it, and
    # an entry polynomial of another m or ring are refused by name when the
    # family is indexed; filed under its own slice (1, 2), x2 gives 6
    Q = RATIONALS
    base = defining_generators(3, Q, 5, 10)
    x2 = parse_dpoly("x2", 3, Q)
    for f, degree, weight in (
        (x2, 1, 1),
        (x2, 4, 2),
        (parse_dpoly("x2", 4, Q), 1, 2),
        (parse_dpoly("x2", 3, prime_field(3)), 1, 2),
        (parse_dpoly("x0*x2 + x1", 3, Q), 2, 2),
    ):
        gens = GeneratorSet(
            3, Q, "defining+f", base.entries + (GeneratorEntry(f, ("f",), degree, weight),), 5, 10
        )
        with pytest.raises(ValueError, match=r"entry \d+ \('f',\)"):
            OracleSession(3, Q, 5, gens).dims()
        assert gens._index is None
    gens = GeneratorSet(
        3, Q, "defining+f", base.entries + (GeneratorEntry(x2, ("f",), 1, 2),), 5, 10
    )
    assert OracleSession(3, Q, 5, gens).dims().total == 6


def test_cached_slice_structure_is_shared_across_sessions():
    # the per-(m, ring, d, w) caches outlive sessions: sessions over four
    # rings, interleaved slice by slice and one of them started from its top
    # slice, must each match the literal ranks
    for m in (3, 4):
        bound = m + 2
        runs = []
        for ring in RINGS:
            gens = defining_generators(m, ring, bound, bound * max(m - 1, 1))
            runs.append((ring, gens, OracleSession(m, ring, bound)))
        top = max(_box_slices(m, bound))
        runs[2][2].space(*top[:2])
        for d, w, _ in _box_slices(m, bound):
            for ring, gens, sess in runs:
                lit = slice_rank(build_slice(m, ring, d, w, gens))
                assert sess.space(d, w).rank == lit, (m, ring.char, d, w)


def test_dims_equal_after_clearing_the_caches():
    # every process-wide table of the package, emptied, must fill again with
    # the same values
    m = 5
    warm = {}
    for ring in RINGS:
        sess = OracleSession(m, ring, m + 2)
        sess.space(m + 2, (m + 2) * (m - 1) // 2)
        warm[ring.char] = sess.dims().dims
    warm_schur = schur_family(m, prime_field(3))
    warm_schur_q = schur_family(m, RATIONALS)
    for info in pkgutil.iter_modules(sl2weyl.__path__):
        module = importlib.import_module(f"sl2weyl.{info.name}")
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    weyl_ideal._product_table.clear()
    assert symfunc.kostka_row.cache_info().currsize == 0
    assert symfunc._added_horizontal_strips.cache_info().currsize == 0
    assert schur_family(m, prime_field(3)) == warm_schur
    assert schur_family(m, RATIONALS) == warm_schur_q
    for ring in RINGS:
        assert OracleSession(m, ring, m + 2).dims().dims == warm[ring.char], ring.char


def test_family_index_follows_appended_entries():
    # a session indexes its family once per GeneratorSet; a set built from a
    # family plus appended entries must be read whole by its sessions, and
    # the family's own index must stay as it was
    m, n = 4, 2
    for ring in RINGS:
        gens = schur_family(m, ring)
        before = OracleSession(m, ring, m + 1, gens=gens).dims()
        more = GeneratorSet(
            m, ring, gens.family, gens.entries + _variables(m, ring, range(n, m)),
            gens.degree_bound, gens.weight_bound,
        )
        sess = OracleSession(m, ring, m + 1, gens=more)
        assert sess.dims().total < before.total, ring.char
        _assert_ranks_match_literal(m, ring, m + 1, sess, more)
        again = OracleSession(m, ring, m + 1, gens=gens).dims()
        assert again.dims == before.dims, ring.char


def test_a_shared_family_cannot_go_stale():
    # a family keeps the column rows of each slice that a session pulls
    # from, for every later session on it: sessions of both degree boxes,
    # with and without truncation relations, in either order, on one
    # shared set and on a set equal to it by fields, must match the literal
    # ranks and the leads of sessions on a freshly built family (a slice's
    # echelon does not depend on the box around it)
    for m in range(1, 6):
        for ring in RINGS:
            bound = m + 2
            args = (m, ring, bound, bound * max(m - 1, 1))
            base = defining_generators(*args)
            fields = [getattr(base, name) for name in GeneratorSet._fields]
            n = max(1, m // 2)
            relations = {False: None, True: truncation_relations(m, n, ring)}
            variables = GeneratorSet(
                m, ring, "variables", _variables(m, ring, range(n, m)), bound, base.weight_bound
            )
            fresh = {
                rel: OracleSession(
                    m, ring, bound, gens=defining_generators(*args), relations=relations[rel]
                )
                for rel in (False, True)
            }
            expect = {}
            for d, w, _ in _box_slices(m, bound):
                # the literal rows of the family, then those of the variables
                literal = _Echelon(ring.char)
                for rel, gens in ((False, base), (True, variables)):
                    for vec in build_slice(m, ring, d, w, gens).ideal_rows:
                        literal.add({i: c for i, c in enumerate(vec) if c})
                    ech = fresh[rel].space(d, w)
                    assert ech.rank == literal.rank, (m, ring.char, rel, d, w)
                    expect[rel, d, w] = (ech.rank, ech.leads)
            runs = [(b, rel) for b in (m + 1, m + 2) for rel in (False, True)]
            for order in (runs, runs[::-1]):
                shared, twin = GeneratorSet(*fields), GeneratorSet(*fields)
                assert shared == twin == base and shared is not twin
                for b, rel in order:
                    for gens in (shared, twin):
                        sess = OracleSession(m, ring, b, gens=gens, relations=relations[rel])
                        for d, w, _ in _box_slices(m, b):
                            ech = sess.space(d, w)
                            where = (m, ring.char, b, rel, d, w)
                            assert (ech.rank, ech.leads) == expect[rel, d, w], where
            # a bad entry is still refused by name when a session is built
            misfiled = GeneratorEntry(DPoly.variable(ring, m, m - 1), ("bad",), 2, m - 1)
            bad = GeneratorSet(
                m, ring, "defining+bad", base.entries + (misfiled,), base.degree_bound,
                base.weight_bound,
            )
            for _ in range(2):
                with pytest.raises(ValueError, match=r"entry \d+ \('bad',\)"):
                    OracleSession(m, ring, m + 1, gens=bad)


@pytest.mark.parametrize(
    "m, ring, family, family_m, family_ring",
    [
        (4, prime_field(2), forgotten_family, 4, RATIONALS),
        (3, RATIONALS, schur_family, 4, RATIONALS),
        (3, prime_field(2), schur_family, 3, RATIONALS),
    ],
    ids=["forgotten-QQ-in-F2", "schur-m4-in-m3", "schur-QQ-in-F2"],
)
def test_session_rejects_a_family_for_another_m_or_ring(
    m, ring, family, family_m, family_ring
):
    gens = family(family_m, family_ring)
    with pytest.raises(ConfigurationError):
        OracleSession(m, ring, m + 1, gens=gens)


def test_session_rejects_a_family_below_the_degree_box():
    # the Schur family covers degrees up to m + 1 only; the defining family
    # below is cut short in weight
    with pytest.raises(ConfigurationError, match="do not cover the degree box"):
        OracleSession(3, RATIONALS, 5, gens=schur_family(3, RATIONALS))
    with pytest.raises(ConfigurationError, match="do not cover the degree box"):
        OracleSession(3, RATIONALS, 5, gens=defining_generators(3, RATIONALS, 5, 9))
    # a relation set only adjoins rows and need not cover the box
    OracleSession(3, RATIONALS, 5, relations=truncation_relations(3, 1, RATIONALS))


def test_relation_sets_keep_rows_only_for_slices_with_entries():
    # the truncation relations x_2, ..., x_5 fill four slices; a session
    # pulls from about two dozen
    ring = RATIONALS
    relations = truncation_relations(6, 2, ring)
    OracleSession(6, ring, 8, relations=relations).dims()
    assert set(relations._rows) == set(relations.by_slice()) == {(1, j) for j in range(2, 6)}
    assert all(relations._rows.values())
    assert relations.slice_rows(2, 3) == () and (2, 3) not in relations._rows
    schur = schur_family(4, ring)
    OracleSession(4, ring, 5, gens=schur).dims()
    assert schur._rows and set(schur._rows) <= set(schur.by_slice())


def test_covered_slices_skip_elimination(monkeypatch):
    # at m = 6 over Q (degree box 8) 126 of the 189 slices are covered and
    # 21 more are filled by elimination, which starts from unit columns at
    # the columns the full lower slices reach and the images of the unit
    # columns of the others; echelonizing every shifted row would take
    # 9,912 rows for 2,939 pivots, and this takes 275.  Every row reaches
    # the pivots through `_insert`, `add` included.
    calls = [0]
    insert = _Echelon._insert

    def counting_insert(self, row):
        calls[0] += 1
        return insert(self, row)

    monkeypatch.setattr(_Echelon, "_insert", counting_insert)
    assert OracleSession(6, RATIONALS, 8).dims().total == 64
    assert 0 < calls[0] <= 275


def test_full_slices_hold_unit_pivots():
    # a full slice is the all-ones mask of unit columns with no rows: every
    # row reduces to 0 against it, and adding one changes nothing
    for m in (1, 2, 3, 4, 5):
        for ring in RINGS:
            sessions = [OracleSession(m, ring, m + 2)]
            sessions.append(OracleSession(m, ring, m + 1, gens=schur_family(m, ring)))
            for sess in sessions:
                full = 0
                for d, w, n in _box_slices(m, sess.degree_bound):
                    assert n == len(slice_monomials(m, d, w)) > 0
                    ech = sess.space(d, w)
                    if ech.rank < n:
                        continue
                    full += 1
                    units = (1 << n) - 1
                    assert ech.units == units and ech.pivots == {}, (m, ring.char, d, w)
                    rows = [{c: 3} for c in range(n)]
                    rows.append({c: c + 1 - n for c in range(n - 1)} | {n - 1: 7})
                    for row in rows:
                        assert ech.residue(row) == ({}, 1), (m, ring.char, d, w, row)
                        assert not ech.add(row), (m, ring.char, d, w, row)
                        assert ech.units == units and ech.pivots == {} and ech.rank == n
                assert full, (m, ring.char)


def test_full_slices_share_the_plan_echelon():
    # every session of a box stores the plan's one full echelon in each of
    # its full slices, and `add` and `residue` leave that echelon as it was
    rng = random.Random(20261020)
    for m in range(1, 6):
        bound = m + 1
        for ring in RINGS:
            plan = quotient_oracle._plan(m, ring, bound)
            sessions = [OracleSession(m, ring, bound) for _ in range(2)]
            sessions.append(OracleSession(m, ring, bound, gens=schur_family(m, ring)))
            sessions.append(
                OracleSession(m, ring, bound, relations=truncation_relations(m, 1, ring))
            )
            for sl in plan:
                key, size, filled = sl.key, sl.size, sl.filled
                full = (1 << size) - 1
                where = (m, ring.char, key)
                spaces = [sess.space(*key) for sess in sessions]
                for ech in spaces:
                    assert (ech is filled) == (ech.rank == size), where
                assert (spaces[0] is filled) == (spaces[1] is filled), where
                if not any(ech is filled for ech in spaces):
                    continue
                for _ in range(3):
                    cols = rng.sample(range(size), rng.randint(1, size))
                    row = {c: rng.choice([v for v in range(-4, 5) if v % (ring.char or 7)])
                           for c in cols}
                    assert not filled.add(row), where
                    fraction_row = {c: Fraction(v, rng.randint(1, 3)) for c, v in row.items()}
                    assert filled.residue(fraction_row)[0] == {}, where
                    state = (filled.units, filled.leads, filled.pivots, filled.rank)
                    assert state == (full, full, {}, size), where


def test_a_second_session_makes_no_echelon_for_a_full_slice(monkeypatch):
    # once the plan of a box is built, a later session makes echelons only
    # for the slices it eliminates: none of them is stored for a slice that
    # ends full, which holds the plan's echelon
    made = []
    init = _Echelon.__init__

    def recording_init(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(_Echelon, "__init__", recording_init)
    m, bound = 6, 7
    for ring in RINGS:
        plan = quotient_oracle._plan(m, ring, bound)
        for gens in (None, schur_family(m, ring)):
            OracleSession(m, ring, bound, gens=gens).dims()
            made.clear()
            sess = OracleSession(m, ring, bound, gens=gens)
            assert sess.dims().total == 2**m
            ids = {id(ech) for ech in made}
            full = 0
            for sl in plan:
                ech = sess.space(*sl.key)
                if ech.rank == sl.size:
                    full += 1
                    assert ech is sl.filled and id(ech) not in ids, (ring.char, sl.key)
                else:
                    assert id(ech) in ids, (ring.char, sl.key)
            assert full and len(made) < len(plan), ring.char


def _box_poly(m, ring, bound):
    """The sum of every monomial of the degree box."""
    box = (a for d, w, _ in _box_slices(m, bound) for a in slice_monomials(m, d, w))
    return DPoly(ring, m, dict.fromkeys(box, 1))


def test_lead_mask_is_the_units_and_the_row_leads(monkeypatch):
    # every echelon keeps `leads` equal to its unit columns plus the leads of
    # its rows: the slices of a session and the overlays and solvers that
    # verification and reduction build alike.  A full slice is the plan's
    # shared echelon, made before the session, so the slices are also read
    # through `space`
    made = []
    init = _Echelon.__init__

    def recording_init(self, *args):
        init(self, *args)
        made.append(self)

    def check(where, sess):
        slices = [sess.space(d, w) for d, w, _ in _box_slices(sess.m, sess.degree_bound)]
        for ech in made + slices:
            leads = ech.units
            for c in ech.pivots:
                leads |= 1 << c
            assert ech.leads == leads, where

    monkeypatch.setattr(_Echelon, "__init__", recording_init)
    for m in range(1, 7):
        bound = m + 1
        for ring in RINGS:
            sessions = [
                ("default", OracleSession(m, ring, bound), revlex_basis(m)),
                ("schur", OracleSession(m, ring, bound, gens=schur_family(m, ring)),
                 cv_basis(m)),
            ]
            if not ring.char:
                gens = forgotten_family(m, ring)
                sessions.append(
                    ("forgotten", OracleSession(m, ring, bound, gens=gens), revlex_basis(m))
                )
            for n in range(1, m):
                sess = OracleSession(m, ring, bound, relations=truncation_relations(m, n, ring))
                sessions.append((f"truncated-{n}", sess, truncated_basis(m, n)))
            f = _box_poly(m, ring, bound)
            for kind, sess, basis in sessions:
                where = (m, ring.char, kind)
                made.clear()
                sess.dims()
                check((*where, "dims"), sess)
                passed = sess.verify_basis(basis).passed
                check((*where, "verify_basis"), sess)
                if passed:
                    sess.reduce_element(f, basis)
                    check((*where, "reduce_element"), sess)
                assert passed or kind.startswith("truncated") and ring.char, where


def test_dims_do_not_depend_on_build_order():
    # `dims` walks the box in order; a session whose slices were built first
    # by verification and reduction, or one by one through `space` in a
    # shuffled order, must report the same dims slice for slice
    rng = random.Random(20261019)
    for m in range(1, 7):
        bound = m + 1
        revlex = revlex_basis(m)
        for ring in RINGS:
            f = _box_poly(m, ring, bound)
            for kind, gens in (("default", None), ("schur", schur_family(m, ring))):
                want = OracleSession(m, ring, bound, gens=gens).dims().dims
                verified = OracleSession(m, ring, bound, gens=gens)
                assert verified.verify_basis(revlex).passed
                assert verified.reduce_element(f, revlex)
                shuffled = OracleSession(m, ring, bound, gens=gens)
                order = list(_box_slices(m, bound))
                rng.shuffle(order)
                for d, w, _ in order:
                    shuffled.space(d, w)
                for sess in (verified, shuffled):
                    assert sess.dims().dims == want, (m, ring.char, kind)


def test_column_maps_are_built_only_where_elimination_reads_them():
    # a shift's column map is read only when a slice that is not covered
    # eliminates the rows of a lower slice that is not full, and the plan
    # keeps each map it builds; building one for every lower slice that is
    # not full gives Q 252 and F_3 498 here.  A slice builds its
    # covered-column masks, all at once, only when it is eliminated with a
    # full lower slice: of the 189 slices of the box, which all built them
    # before the plan was lazy, Q builds them in 10, F_2 in 37, F_3 in 24
    # and F_5 in 17
    for ring, most, masked in zip(RINGS, (227, 516, 343, 257), (10, 37, 24, 17)):
        quotient_oracle._plan.cache_clear()
        assert OracleSession(6, ring, 8).dims().total == 64
        plan = quotient_oracle._plan(6, ring, 8)
        built = sum(shift is not None for sl in plan for shift in sl.shifts)
        assert 0 < built <= most, ring.char
        lazy = [sl.masks for sl in plan if sl.masks]
        assert all(None not in masks or set(masks) == {None} for masks in lazy), ring.char
        assert 0 < sum(None not in masks for masks in lazy) <= masked, ring.char


def _lower_slices(m, ring, d, w, where):
    """The lower slices of slice (d, w) in plan order, computed from the
    definition: (position of (d - j, w - i*j) in `where`, i, j, mask) for
    the shift powers j <= d, by j, then i, with bit c of the mask set where
    column b has C(b_i, j) nonzero in the ring."""
    p = ring.char
    out = []
    for j in [1] if not p else [p**e for e in range(d + 1)]:
        if j > d:
            break
        for i in range(m):
            low = where.get((d - j, w - i * j))
            if low is None:
                continue
            mask = 0
            for c, b in enumerate(slice_monomials(m, d, w)):
                binom = math.comb(b[i], j)
                if binom % p if p else binom:
                    mask |= 1 << c
            out.append((low, i, j, mask))
    return out


def test_plan_lists_every_lower_slice_first():
    # the box is built in one pass over its plan, so every lower slice of a
    # slice must sit at an earlier position, under the key it has there,
    # with the shift that carries it up and its nonzero binomials, and the
    # masks of the columns the shifts cover, once built, and every coverage
    # verdict agree with the definition; the slice's full echelon is all
    # unit columns with no rows
    for m in range(0, 8):
        for bound in (m, m + 1):
            box = _box_slices(m, bound)
            where = {(d, w): pos for pos, (d, w, _) in enumerate(box)}
            for ring in (*RINGS, prime_field(7)):
                OracleSession(m, ring, bound).dims()
                plan = quotient_oracle._plan(m, ring, bound)
                assert [(*sl.key, sl.size) for sl in plan] == list(box), (m, bound)
                for pos, sl in enumerate(plan):
                    key, lower, filled, verdicts, masks = (
                        sl.key, sl.lower, sl.filled, sl.verdicts, sl.masks
                    )
                    full = (1 << sl.size) - 1
                    at = (m, ring.char, bound, key)
                    want = _lower_slices(m, ring, *key, where)
                    assert [entry[:3] for entry in lower] == [entry[:3] for entry in want], at
                    assert len(masks) == len(sl.shifts) == len(lower), at
                    assert filled.p == ring.char and filled.units == filled.leads == full, at
                    assert filled.pivots == {} and filled.rank == sl.size, at
                    mask_below = 0
                    for low, i, j, hits in lower:
                        assert low < pos and plan[low].key == (key[0] - j, key[1] - i * j), at
                        mask_below |= 1 << low
                        for e in range(bound + 1):
                            nonzero = quotient_oracle.ring_binom(ring, e, j) != 0
                            assert hits >> e & 1 == nonzero, at
                    assert sl.below == mask_below, at
                    want_masks = [mask for *_, mask in want]
                    assert quotient_oracle._masks(m, *key, lower) == want_masks, at
                    assert None in masks or masks == want_masks, at
                    assert verdicts[sl.below] == (key[0] > 0) and verdicts[0] is False, at
                    for part, covered in verdicts.items():
                        union = 0
                        for low, *_, mask in want:
                            if part >> low & 1:
                                union |= mask
                        assert covered == (union == full), (*at, part)


def test_counted_slice_sizes_equal_the_enumeration():
    # the box's slice sizes are counted by a knapsack, not enumerated
    enumerate_slice = slice_monomials.__wrapped__
    for m in range(0, 9):
        for bound in range(m, m + 4):
            box = [
                (d, w, len(enumerate_slice(m, d, w)))
                for d in range(bound + 1)
                for w in range(d * max(m - 1, 0) + 1)
            ]
            assert _box_slices(m, bound) == tuple(s for s in box if s[2]), (m, bound)


def test_knapsack_verdict_equals_the_union_of_the_masks():
    # a slice is covered when the masks of its full lower slices cover
    # every column; `_covered` decides it without the slice's monomials,
    # for random patterns of full lower slices
    rng = random.Random(20261021)
    for m in range(1, 7):
        bound = m + 1
        box = _box_slices(m, bound)
        where = {(d, w): pos for pos, (d, w, _) in enumerate(box)}
        for ring in (*RINGS, prime_field(7)):
            plan = quotient_oracle._plan(m, ring, bound)
            for sl in plan:
                key, full = sl.key, (1 << sl.size) - 1
                want = _lower_slices(m, ring, *key, where)
                positions = [low for low, *_ in want]
                for _ in range(8):
                    part = 0
                    for low in rng.sample(positions, rng.randint(0, len(positions))):
                        part |= 1 << low
                    union = 0
                    for low, *_, mask in want:
                        if part >> low & 1:
                            union |= mask
                    covered = quotient_oracle._covered(m, *key, sl.lower, part)
                    assert covered == (union == full), (m, ring.char, key, part)


def test_a_slice_whose_lower_slices_are_all_full_is_covered():
    # for b in a slice of degree >= 1 take b_i >= 1 and a nonzero base-p
    # digit of b_i at position k (any k = 0 over Q): C(b_i, p^k) is that
    # digit mod p (Lucas), so the shift x_i^(p^k) covers b
    for m in range(1, 8):
        bound = m + 1
        box = _box_slices(m, bound)
        where = {(d, w): pos for pos, (d, w, _) in enumerate(box)}
        for ring in (*RINGS, prime_field(7)):
            for d, w, size in box:
                if not d:
                    continue
                union = 0
                for *_, mask in _lower_slices(m, ring, d, w, where):
                    union |= mask
                assert union == (1 << size) - 1, (m, ring.char, d, w)


def test_dims_enumerates_only_the_slices_it_eliminates(monkeypatch):
    # the plan counts slice sizes and decides coverage without monomials,
    # so a session enumerates the monomials of the slices it eliminates and
    # of their lower slices that are not full, and of no other slice
    eliminate = OracleSession._eliminate
    eliminated = set()

    def recording_eliminate(self, sl, *args):
        eliminated.add(sl.key)
        return eliminate(self, sl, *args)

    monkeypatch.setattr(OracleSession, "_eliminate", recording_eliminate)
    for ring in (RATIONALS, prime_field(2)):
        eliminated.clear()
        quotient_oracle._plan.cache_clear()
        for table in (slice_monomials, slice_partitions, quotient_oracle.column_index):
            table.cache_clear()
        sess = OracleSession(8, ring, 10)
        assert sess.dims().total == 2**8
        plan = quotient_oracle._plan(8, ring, 10)
        read = set(eliminated)
        for sl in plan:
            if sl.key in eliminated:
                for low, *_ in sl.lower:
                    if sess.space(*plan[low].key).rank < plan[low].size:
                        read.add(plan[low].key)
        enumerated = slice_monomials.cache_info().currsize
        assert 0 < enumerated <= len(read) < len(plan) // 2, ring.char


def test_the_plan_is_the_only_cache_of_the_engine():
    # the slice structure of a box lives in its plan alone: after dims and
    # a lex verification on every ring, no other function of the module
    # keeps a process-wide table
    m = 4
    for ring in RINGS:
        sess = OracleSession(m, ring, m + 1)
        assert sess.dims().total == 2**m
        assert sess.verify_basis(lex_basis(m)).passed
    cached = {
        name
        for name, f in vars(quotient_oracle).items()
        if hasattr(f, "cache_info") and f.__module__ == quotient_oracle.__name__
    }
    assert cached == {"_plan"}


def test_space_outside_the_degree_box_names_the_slice():
    # a session answers only for the nonempty slices of its box, and builds
    # nothing for a slice outside it
    for ring in RINGS:
        sess = OracleSession(3, ring, 4)
        for d, w in ((5, 2), (-1, 0), (2, 5), (4, -1), (9, 9)):
            with pytest.raises(ValueError, match=rf"slice \({d},{w}\) is not a slice of the"):
                sess.space(d, w)
        assert set(sess._spaces) == {(d, w) for d, w, _ in _box_slices(3, 4)}
        assert sess.space(4, 8).rank == 1
    with pytest.raises(ValueError, match=r"slice \(3,0\)"):
        OracleSession(1, RATIONALS, 2).space(3, 0)


def test_one_call_builds_the_box_that_shuffled_calls_read():
    # the first `space` call builds the whole box: a session started from
    # its top slice and one read slice by slice in a shuffled order hold
    # equal echelons, and their lead masks are those of the literal rows
    rng = random.Random(20261019)
    for m in range(1, 5):
        bound = m + 1
        for ring in RINGS:
            defining = defining_generators(m, ring, bound, bound * max(m - 1, 1))
            kinds = [
                ("default", {}, defining),
                ("defining", {"gens": defining}, defining),
                ("schur", {"gens": schur_family(m, ring)}, schur_family(m, ring)),
            ]
            if m > 1:
                relations = truncation_relations(m, 1, ring)
                literal = GeneratorSet(
                    m, ring, "truncated", defining.entries + relations.entries,
                    defining.degree_bound, defining.weight_bound,
                )
                kinds.append(("truncated", {"relations": relations}, literal))
            for kind, given, literal in kinds:
                top = OracleSession(m, ring, bound, **given)
                top.space(*_box_slices(m, bound)[-1][:2])
                order = list(_box_slices(m, bound))
                rng.shuffle(order)
                shuffled = OracleSession(m, ring, bound, **given)
                for d, w, size in order:
                    a, b = top.space(d, w), shuffled.space(d, w)
                    where = (m, ring.char, kind, d, w)
                    assert (a.units, a.leads, a.pivots) == (b.units, b.leads, b.pivots), where
                    rows = build_slice(m, ring, d, w, literal).ideal_rows
                    leads = 0
                    for row in _dense_echelon(rows, size, ring.char or None):
                        leads |= 1 << row.index(1)
                    assert a.leads == leads, where


def _dense_echelon(rows, n, p=2):
    """Row echelon form of integer rows of n entries by plain Gaussian
    elimination on lists, mod p (over the rationals, p = None, on
    Fractions): the pivot rows, each scaled to lead with 1."""
    pivots = []
    for row in rows:
        row = [Fraction(v) if p is None else v % p for v in row]
        for piv in pivots:
            lead = piv.index(1)
            if row[lead]:
                f = row[lead]
                row = [a - f * b if p is None else (a - f * b) % p for a, b in zip(row, piv)]
        nonzero = [c for c in range(n) if row[c]]
        if nonzero:
            f = row[nonzero[0]]
            inv = 1 / f if p is None else pow(f, -1, p)
            pivots.append([v * inv if p is None else v * inv % p for v in row])
            if len(pivots) == n:
                break
    return pivots


def _dense_residue(pivots, vec, p=2):
    """The normal form of a row against dense pivot rows from
    `_dense_echelon` with the same p: every pivot lead component
    eliminated."""
    vec = [Fraction(v) if p is None else v % p for v in vec]
    for piv in sorted(pivots, key=lambda r: r.index(1)):
        f = vec[piv.index(1)]
        if f:
            vec = [a - f * b if p is None else (a - f * b) % p for a, b in zip(vec, piv)]
    return {c: v for c, v in enumerate(vec) if v}


def _assert_dense_echelon(ech, pivots, n, vecs, where, p=2):
    """The echelon `ech` against dense pivot rows of an n-column space
    (`_dense_echelon` with the same p): rank, lead mask and the residue of
    each of `vecs`, divided by its scale (1 over F_p)."""
    assert ech.rank == len(pivots), where
    assert ech.leads == sum(1 << piv.index(1) for piv in pivots), where
    for vec in vecs:
        row, scale = ech.residue({c: v for c, v in enumerate(vec) if v})
        assert p is None or scale == 1, (*where, vec)
        got = {c: Fraction(v, scale) if p is None else v for c, v in row.items()}
        assert got == _dense_residue(pivots, vec, p), (*where, vec)


def test_packed_f2_slices_equal_dense_elimination():
    # `slice_rank` runs the same packed kernel as the sessions, so the F_2
    # reference here is dense Gaussian elimination on the literal rows
    ring = prime_field(2)
    for m in range(1, 7):
        bound = m + 1
        defining = defining_generators(m, ring, bound, bound * max(m - 1, 1))
        for kind, gens in (("default", None), ("schur", schur_family(m, ring))):
            sess = OracleSession(m, ring, bound, gens=gens)
            for d, w, n in _box_slices(m, bound):
                sl = build_slice(m, ring, d, w, gens or defining)
                pivots = _dense_echelon(sl.ideal_rows, n)
                assert slice_rank(sl) == len(pivots), (m, kind, d, w)
                units = [[int(c == e) for c in range(n)] for e in range(n)]
                vecs = units + [[c % 3 for c in range(n)], [1] * n]
                _assert_dense_echelon(sess.space(d, w), pivots, n, vecs, (m, kind, d, w))


def test_dict_row_slices_equal_dense_elimination():
    # over Q and odd F_p the first shifted row of each lead becomes a pivot
    # before the others are reduced; rank, lead mask and every column's
    # normal form must still be those of dense Gaussian elimination on the
    # literal rows, in default, Schur and truncated sessions
    for ring in (RATIONALS, prime_field(3), prime_field(5)):
        p = ring.char or None
        for m in range(1, 6):
            bound = m + 1
            defining = defining_generators(m, ring, bound, bound * max(m - 1, 1))
            kinds = [("default", {}, defining), ("schur", {"gens": schur_family(m, ring)}, None)]
            for n in range(1, m):
                relations = truncation_relations(m, n, ring)
                literal = GeneratorSet(
                    m, ring, "truncated", defining.entries + relations.entries,
                    defining.degree_bound, defining.weight_bound,
                )
                kinds.append((f"truncated-{n}", {"relations": relations}, literal))
            for kind, given, literal in kinds:
                sess = OracleSession(m, ring, bound, **given)
                for d, w, size in _box_slices(m, bound):
                    where = (ring.char, m, kind, d, w)
                    rows = build_slice(m, ring, d, w, literal or given["gens"]).ideal_rows
                    pivots = _dense_echelon(rows, size, p)
                    units = [[int(c == e) for c in range(size)] for e in range(size)]
                    _assert_dense_echelon(sess.space(d, w), pivots, size, units, where, p)


def test_packed_f2_echelon_equals_dense_elimination_on_random_rows():
    # rows of any integers, even entries included, on top of random unit
    # columns, against dense elimination of the same rows and unit rows
    rng = random.Random(20261019)
    for trial in range(500):
        n = rng.randint(1, 40)
        units = rng.getrandbits(n) if rng.random() < 0.3 else 0
        density = rng.choice((0.1, 0.3, 0.6))
        rows = [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(rng.randint(0, 2 * n))
        ]
        ech = _Echelon(2, units)
        for row in rows:
            before = ech.rank
            assert ech.add({c: v for c, v in enumerate(row) if v}) == (ech.rank > before)
        unit_rows = [[int(c == e) for c in range(n)] for e in range(n) if units >> e & 1]
        pivots = _dense_echelon(unit_rows + rows, n)
        vecs = rows[:5] + [[rng.randint(0, 5) for _ in range(n)] for _ in range(5)]
        _assert_dense_echelon(ech, pivots, n, vecs, (trial, n, units))


def test_echelons_are_freed_without_the_collector():
    # an echelon must die with its last reference: one that held its cancel
    # step as a bound method would be a reference cycle, alive until the
    # cyclic collector ran
    gc.disable()
    try:
        for p in (0, 3):
            ech = _Echelon(p, 1)  # a unit column at 0
            assert ech.add({1: 2, 2: 1}) and ech.add({1: 1, 2: 2}) == (p == 0)
            assert ech.units == 1 and ech.rank == (3 if p == 0 else 2)
            assert ech.residue({0: 1, 1: Fraction(1, 2), 2: 1})[0] == {}
            witness = weakref.ref(ech)
            del ech
            assert witness() is None, p
    finally:
        gc.enable()


def test_lazy_dims_equal_eager_dims():
    # the default session builds series generators only where the shifted
    # lower slices fall short; the eager family must give the same slices
    m = 5
    for ring in RINGS:
        eager = OracleSession(m, ring, m + 2, gens=defining_generators(m, ring, 7, 28))
        assert OracleSession(m, ring, m + 2).dims().dims == eager.dims().dims, ring.char


# -- dimensions ------------------------------------------------------------------


def test_quotient_dim_examples():
    assert OracleSession(0, RATIONALS, 2).dims().total == 1
    for m in range(1, 5):
        for ring in RINGS:
            rep = OracleSession(m, ring, m + 2).dims()
            assert rep.total == 2**m
            assert all(q == 0 for (d, _), q in rep.dims.items() if d > m)


def test_quotient_dim_requires_bound():
    with pytest.raises(ValueError):
        OracleSession(4, RATIONALS, 3).dims()


def test_three_presentations_agree_over_qq():
    # defining family, schur family, forgotten family: same graded dimensions
    for m in (1, 2, 3, 4):
        base = OracleSession(m, RATIONALS, m + 2).dims()
        for family in (schur_family, forgotten_family):
            capped = family(m, RATIONALS)
            # derived families are capped at degree m+1; extend coverage by
            # declaring their box (their multiples still span every slice)
            gens = GeneratorSet(
                m, RATIONALS, capped.family, capped.entries, m + 2, (m + 2) * max(m - 1, 0)
            )
            alt = OracleSession(m, RATIONALS, m + 2, gens=gens).dims()
            assert alt.dims == base.dims, (m, gens.family)


def test_schur_presentation_agrees_mod_p_within_its_degrees():
    # in positive characteristic the degree-capped schur family only covers
    # slices up to its own cap (multiples cannot climb degrees: e.g. over F_2,
    # x0 * x0^(3) = C(4,3) x0^(4) = 0), so compare there exactly
    for m in (1, 2, 3):
        for p in (2, 3):
            ring = prime_field(p)
            base = OracleSession(m, ring, m + 1).dims()
            gens = schur_family(m, ring)
            alt = OracleSession(m, ring, m + 1, gens=gens).dims()
            assert alt.dims == base.dims, (m, p)


# -- basis verification -------------------------------------------------------------


def test_verify_lex_and_revlex_small():
    for m in range(1, 5):
        for ring in RINGS:
            rep = OracleSession(m, ring, m + 2).verify_basis(lex_basis(m))
            assert rep.passed and rep.total_candidates == 2**m
        rep = OracleSession(m, RATIONALS, m + 2).verify_basis(revlex_basis(m))
        assert rep.passed


@pytest.mark.parametrize("ring", RINGS[1:], ids=lambda r: str(r))
def test_revlex_basis_verifies_over_prime_fields(ring):
    # acceptance criterion 3 checks revlex over Q only; it is a basis over
    # F_p as well (and so is cv, equal to revlex as a set by criterion 4)
    for m in range(1, 8):
        rep = OracleSession(m, ring, m + 2).verify_basis(revlex_basis(m))
        assert rep.passed and rep.total_candidates == 2**m, m


def test_verify_rejects_another_m_and_monomials_beyond_the_bound():
    sess = OracleSession(3, RATIONALS, 4)
    with pytest.raises(ValueError, match="different m"):
        sess.verify_basis(lex_basis(4))
    beyond = BasisSet(3, "lex", lex_basis(3).monomials | {(5, 0, 0)})
    with pytest.raises(ValueError, match="degree bound"):
        sess.verify_basis(beyond)
    # a negative or fractional exponent lies in no slice of the box, and a
    # monomial of another length has no column: each must be refused, not
    # skipped
    for bad in ((-1, 1, 0), (2, -1, 0), (0, 0, -1), (1, 0), (0.5, 0, 0)):
        malformed = BasisSet(3, "lex", lex_basis(3).monomials | {bad})
        with pytest.raises(ValueError, match="nonnegative integers"):
            sess.verify_basis(malformed)
        assert malformed not in sess.verified
    assert not sess.verified


def test_reused_column_masks_still_check():
    # a basis keeps its column masks for every session that verifies it:
    # each session still checks its own degree bound, a malformed basis
    # keeps nothing and is refused on every call, and repeated
    # verifications report the same as a fresh copy of the basis
    Q, F3 = RATIONALS, prime_field(3)
    empty = GeneratorSet(2, Q, "empty", (), 4, 4)
    box = BasisSet(
        2, "box", frozenset(a for d, w, _ in _box_slices(2, 4) for a in slice_monomials(2, d, w))
    )
    assert OracleSession(2, Q, 4, gens=empty).verify_basis(box).passed
    assert box._masks is not None
    with pytest.raises(ValueError, match="exceed the degree bound"):
        OracleSession(2, Q, 3, gens=empty).verify_basis(box)
    malformed = BasisSet(3, "lex", lex_basis(3).monomials | {(-1, 1, 0)})
    sess = OracleSession(3, Q, 4)
    for session in (sess, sess, OracleSession(3, F3, 5)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            session.verify_basis(malformed)
        assert malformed._masks is None
    for m in range(1, 6):
        lex = lex_basis(m)
        assert lex is lex_basis(m) and lex == lex_basis.__wrapped__(m)
        lead = _lead_monomial(OracleSession(m, Q, m + 1))
        for ring in RINGS:
            sess = OracleSession(m, ring, m + 1)
            for candidate in (
                lex, revlex_basis(m), BasisSet(m, "lex-plus", lex.monomials | {lead})
            ):
                reports = [sess.verify_basis(candidate) for _ in range(2)]
                reports.append(
                    sess.verify_basis(BasisSet(m, candidate.provenance, candidate.monomials))
                )
                assert len({(r.slices, r.passed) for r in reports}) == 1, (m, ring.char)


def test_verify_slice_counts_agree_between_bases():
    for m in range(1, 5):
        sess = OracleSession(m, RATIONALS, m + 2)
        r1 = sess.verify_basis(lex_basis(m))
        r2 = sess.verify_basis(revlex_basis(m))
        c1 = {(s.degree, s.weight): s.candidate_count for s in r1.slices}
        c2 = {(s.degree, s.weight): s.candidate_count for s in r2.slices}
        assert c1 == c2


def test_verify_corrupted_candidate_fails_once():
    bs = lex_basis(3)
    # dropping one monomial: spanning fails in exactly that monomial's slice
    victim = (0, 2, 0)
    bad = BasisSet(3, "corrupt", bs.monomials - {victim})
    rep = OracleSession(3, RATIONALS, 5).verify_basis(bad)
    failing = [s for s in rep.slices if not s.passed]
    assert len(failing) == 1
    assert (failing[0].degree, failing[0].weight) == (2, 2)
    assert not failing[0].spanning and failing[0].independent
    # adding a junk monomial: independence fails there instead
    worse = BasisSet(3, "corrupt2", bs.monomials | {(1, 0, 1)})
    rep2 = OracleSession(3, RATIONALS, 5).verify_basis(worse)
    failing2 = [s for s in rep2.slices if not s.passed]
    assert len(failing2) == 1 and not failing2[0].independent


def _overlay_slices(sess, candidate):
    """The slice verdicts with every candidate's residue echelonized in an
    overlay, the reference the fast path must equal."""
    cand = candidate.by_slice()
    out = []
    for d, w, size in _box_slices(sess.m, sess.degree_bound):
        monos = slice_monomials(sess.m, d, w)
        ech = sess.space(d, w)
        cands = cand.get((d, w), [])
        overlay = _Echelon(sess.ring.char)
        indep = True
        for a in cands:
            res, _ = ech.residue({monos.index(a): 1})
            if not res or not overlay.add(res):
                indep = False
                break
        q = size - ech.rank
        out.append(SliceReport(d, w, size, q, len(cands), indep, q == len(cands)))
    return tuple(out)


def _lead_monomial(sess):
    """A monomial at a pivot lead: a row lead where there is one, else a unit
    column of a slice that is not full, else a column of a full slice."""
    units = []
    for d, w, size in _box_slices(sess.m, sess.degree_bound):
        ech = sess.space(d, w)
        monos = slice_monomials(sess.m, d, w)
        if ech.pivots:
            return monos[min(ech.pivots)]
        units += [(ech.rank == size, monos[c]) for c in range(size) if ech.units >> c & 1]
    return min(units)[1]


def test_verification_fast_path_equals_the_overlay():
    for m in range(1, 7):
        lex = lex_basis(m)
        for ring in RINGS:
            sessions = {
                "default": OracleSession(m, ring, m + 1),
                "schur": OracleSession(m, ring, m + 1, gens=schur_family(m, ring)),
            }
            if not ring.char:
                sessions["forgotten"] = OracleSession(
                    m, ring, m + 1, gens=forgotten_family(m, ring)
                )
            for kind, sess in sessions.items():
                lead = _lead_monomial(sess)
                assert lead not in lex.monomials
                candidates = [
                    lex, revlex_basis(m), cv_basis(m),
                    BasisSet(m, "lex-minus", lex.monomials - {max(lex.monomials)}),
                    BasisSet(m, "lex-plus", lex.monomials | {lead}),
                ]
                if m > 2:
                    candidates.append(truncated_basis(m, 2))
                for candidate in candidates:
                    where = (m, ring.char, kind, candidate.provenance)
                    rep = sess.verify_basis(candidate)
                    assert rep.slices == _overlay_slices(sess, candidate), where
                    assert rep.passed == (candidate.provenance in ("lex", "revlex", "cv")), where


def test_lex_verification_makes_no_residue_calls(monkeypatch):
    # the lex basis is the set of non-lead columns in every slice, so each
    # slice passes on the fast path
    calls = [0]
    residue = _Echelon.residue

    def counting_residue(self, row):
        calls[0] += 1
        return residue(self, row)

    monkeypatch.setattr(_Echelon, "residue", counting_residue)
    for ring in RINGS:
        sess = OracleSession(6, ring, 7, gens=schur_family(6, ring))
        assert sess.verify_basis(lex_basis(6)).passed, ring.char
    assert calls[0] == 0
    sess.verify_basis(revlex_basis(6))
    assert calls[0] > 0


def test_greedy_pivot_complement_is_the_lex_basis():
    # the monomials NOT appearing as pivot leads, slice by slice, are exactly
    # the reduced monomials (pivots are taken greedily in descending DPLEX)

    for m in range(1, 6):
        sess = OracleSession(m, RATIONALS, m + 2)
        free = set()
        for d in range(m + 3):
            for w in range(d * max(m - 1, 0) + 1):
                monos = slice_monomials(m, d, w)
                if not monos:
                    continue
                ech = sess.space(d, w)
                pivot_cols = set(ech.pivots)
                pivot_cols.update(c for c in range(len(monos)) if ech.units >> c & 1)
                assert len(pivot_cols) == ech.rank, (m, d, w)
                free.update(
                    monos[i] for i in range(len(monos)) if i not in pivot_cols
                )
        assert free == lex_basis(m).monomials, m


# -- truncation ----------------------------------------------------------------------


def test_truncated_quotient_small():
    for m in range(1, 6):
        for n in range(1, m + 1):
            rep = truncated_quotient(m, n, RATIONALS, m + 2)
            assert rep.passed, (m, n)
            assert rep.total_quotient_dim == rep.total_candidates == len(truncated_basis(m, n))
        assert truncated_quotient(m, 1, RATIONALS, m + 2).total_quotient_dim == m + 1


def test_truncated_quotient_full_when_n_at_least_m():
    for m in (2, 3, 4):
        full = OracleSession(m, RATIONALS, m + 2).dims()
        trunc = truncated_quotient(m, m, RATIONALS, m + 2)
        assert {(s.degree, s.weight): s.quotient_dim for s in trunc.slices} == full.dims
        assert trunc.passed


def test_truncation_by_plain_variables_is_a_char_zero_statement():
    # over F_2 the ideal (x_1) misses x_1^(2) (x_1 * x_1 = 2 x_1^(2) = 0), so
    # the plain-variable truncation genuinely exceeds the basis size there;
    # the truncation theorem lives in characteristic zero
    rep = truncated_quotient(4, 1, prime_field(2), 6)
    assert rep.total_quotient_dim == 6 > 5 == rep.total_candidates == len(truncated_basis(4, 1))
    assert not rep.passed


def test_truncated_rejects_bad_level():
    with pytest.raises(ValueError):
        truncated_quotient(3, 0, RATIONALS, 5)


# -- reduction -------------------------------------------------------------------------


def test_reduce_element_examples():
    f = parse_dpoly("x0*x2", 3, RATIONALS)
    coords = reduce_element(f, 3, RATIONALS, lex_basis(3))
    assert coords == {(0, 2, 0): -1}

    b = parse_dpoly("x1^(2)", 3, RATIONALS)
    assert reduce_element(b, 3, RATIONALS, lex_basis(3)) == {(0, 2, 0): 1}

    g = parse_dpoly("x0*x2 + x1^(2)", 3, RATIONALS)
    assert reduce_element(g, 3, RATIONALS, lex_basis(3)) == {}


def test_reduce_element_rational_coefficients():
    f = parse_dpoly("1/2*x0*x2", 3, RATIONALS)
    coords = reduce_element(f, 3, RATIONALS, lex_basis(3))
    assert coords == {(0, 2, 0): Fraction(-1, 2)}


def test_reduce_element_linear():
    for ring in RINGS:
        sess = OracleSession(3, ring, 5)
        bs = lex_basis(3)
        assert sess.verify_basis(bs).passed
        f = parse_dpoly("x0*x2 + 2*x0*x1", 3, ring)
        g = parse_dpoly("x1^(2) - x0^(2)", 3, ring)
        cf = sess.reduce_element(f, bs)
        cg = sess.reduce_element(g, bs)
        combo = sess.reduce_element(f + g.scale(3), bs)
        expect = dict(cf)
        for k, v in cg.items():
            expect[k] = expect.get(k, 0) + 3 * v
        if ring.char:
            expect = {k: v % ring.char for k, v in expect.items()}
        expect = {k: v for k, v in expect.items() if v}
        assert combo == expect, ring.char


def test_reduce_element_idempotent_on_residues():
    ring = RATIONALS
    sess = OracleSession(3, ring, 5)
    bs = lex_basis(3)
    sess.verify_basis(bs)
    f = parse_dpoly("x0*x1*x2 + x1^(3)", 3, ring)
    coords = sess.reduce_element(f, bs)
    residue = DPoly.zero(ring, 3)
    for mono, c in coords.items():
        residue = residue + DPoly.monomial(ring, 3, mono, c)
    again = sess.reduce_element(residue, bs)
    assert {k: Fraction(v) for k, v in again.items()} == {
        k: Fraction(v) for k, v in coords.items()
    }


def test_reduce_element_gm_members_vanish():
    sess = OracleSession(3, RATIONALS, 5)
    bs = lex_basis(3)
    sess.verify_basis(bs)
    for e in schur_family(3, RATIONALS).entries:
        if e.degree <= 5:
            assert sess.reduce_element(e.poly, bs) == {}, e.provenance


def test_reduce_element_mod_p():
    ring = prime_field(2)
    sess = OracleSession(3, ring, 5)
    bs = lex_basis(3)
    assert sess.verify_basis(bs).passed
    f = parse_dpoly("x0*x2", 3, ring)
    assert sess.reduce_element(f, bs) == {(0, 2, 0): 1}  # -1 = 1 mod 2


def _solver_coords(sess, f, basis):
    """Coordinates with the tagged solver forced in every slice, by marking
    every slice of the box an overlay slice of the basis: the reference the
    normal-form path must equal."""
    overlays = sess.verified[basis]
    sess.verified[basis] = frozenset((d, w) for d, w, _ in _box_slices(sess.m, sess.degree_bound))
    try:
        return sess.reduce_element(f, basis)
    finally:
        sess.verified[basis] = overlays


def _typed(coords):
    return {a: (type(v), v) for a, v in coords.items()}


def test_normal_form_reduction_equals_the_solver():
    rng = random.Random(20261018)
    for m in range(1, 6):
        bound = m + 1
        box = [a for d, w, _ in _box_slices(m, bound) for a in slice_monomials(m, d, w)]
        for ring in RINGS:
            for kind, gens in (("default", None), ("schur", schur_family(m, ring))):
                sess = OracleSession(m, ring, bound, gens=gens)
                for basis in (lex_basis(m), revlex_basis(m), cv_basis(m)):
                    assert sess.verify_basis(basis).passed
                    inputs = []
                    for b in sorted(basis.monomials):
                        inputs.append(DPoly.monomial(ring, m, b))
                        for i in range(m):
                            for j in range(1, bound - sum(b) + 1):
                                u = tuple(j if k == i else 0 for k in range(m))
                                inputs.append(DPoly.monomial(ring, m, b).mono_shift(u))
                    for _ in range(20):
                        picks = rng.sample(box, min(len(box), rng.randint(1, 8)))
                        if ring.char:
                            terms = {a: rng.randrange(1, ring.char) for a in picks}
                        else:
                            terms = {a: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                                 rng.randint(1, 6)) for a in picks}
                        inputs.append(DPoly(ring, m, terms))
                    for f in inputs:
                        where = (m, ring.char, kind, basis.provenance, str(f))
                        coords = sess.reduce_element(f, basis)
                        assert coords.keys() <= basis.monomials, where
                        assert _typed(coords) == _typed(_solver_coords(sess, f, basis)), where


def test_lex_reduction_builds_no_solver(monkeypatch):
    # the lex basis has no overlay slice, so a reduction reads the residue
    # of f alone; revlex sits on pivot leads in some slices
    regroups, echelons = [0], [0]
    by_slice, init = BasisSet.by_slice, _Echelon.__init__

    def counting_by_slice(self):
        regroups[0] += 1
        return by_slice(self)

    def counting_init(self, *args):
        echelons[0] += 1
        init(self, *args)

    for ring in RINGS:
        sess = OracleSession(5, ring, 7)
        lex, revlex = lex_basis(5), revlex_basis(5)
        assert sess.verify_basis(lex).passed and sess.verify_basis(revlex).passed
        assert sess.verified[lex] == frozenset() and sess.verified[revlex]
        d, w = min(sess.verified[revlex])
        # a revlex monomial of an overlay slice that is not a lex monomial
        b = min(set(revlex.by_slice()[d, w]) - lex.monomials)
        f = DPoly.monomial(ring, 5, b)
        with monkeypatch.context() as patch:
            patch.setattr(BasisSet, "by_slice", counting_by_slice)
            patch.setattr(_Echelon, "__init__", counting_init)
            assert sess.reduce_element(f, lex)
            assert regroups == echelons == [0], ring.char
            assert sess.reduce_element(f, revlex) == {b: 1}
            assert regroups[0] == 1 and echelons[0] > 0, ring.char
        regroups[0] = echelons[0] = 0


def test_reduce_rejects_elements_outside_the_session():
    sess = OracleSession(3, RATIONALS, 4)
    bs = lex_basis(3)
    assert sess.verify_basis(bs).passed
    for f in (
        parse_dpoly("x0*x2", 3, prime_field(3)),  # another ring
        parse_dpoly("x0*x2", 4, RATIONALS),  # another m
    ):
        with pytest.raises(ValueError, match="does not match"):
            sess.reduce_element(f, bs)
    with pytest.raises(ValueError, match="degree bound"):
        sess.reduce_element(parse_dpoly("x0 + x1^(5)", 3, RATIONALS), bs)


def test_residue_scale_is_one_over_prime_fields(monkeypatch):
    # every pivot over F_p leads with 1, so the residues that verification
    # and reduction read carry no scale there
    scales = Counter()
    residue = _Echelon.residue

    def recording_residue(self, row):
        out = residue(self, row)
        scales[out[1]] += 1
        return out

    monkeypatch.setattr(_Echelon, "residue", recording_residue)
    rng = random.Random(20261019)
    for ring in RINGS[1:]:
        for m in range(1, 6):
            box = [a for d, w, _ in _box_slices(m, m + 1) for a in slice_monomials(m, d, w)]
            for gens in (None, schur_family(m, ring)):
                sess = OracleSession(m, ring, m + 1, gens=gens)
                for basis in (lex_basis(m), revlex_basis(m), cv_basis(m)):
                    assert sess.verify_basis(basis).passed
                    for _ in range(10):
                        picks = rng.sample(box, min(len(box), rng.randint(1, 6)))
                        terms = {a: rng.randrange(1, ring.char) for a in picks}
                        sess.reduce_element(DPoly(ring, m, terms), basis)
    assert set(scales) == {1} and scales[1] > 1000, scales


def test_one_shot_reduction_refuses_a_failing_candidate():
    short = BasisSet(3, "lex", lex_basis(3).monomials - {(0, 1, 0)})
    with pytest.raises(MustVerifyFirstError, match="failed verification"):
        reduce_element(parse_dpoly("x0*x1", 3, RATIONALS), 3, RATIONALS, short)


def test_reduce_requires_verification():
    sess = OracleSession(3, RATIONALS, 5)
    with pytest.raises(MustVerifyFirstError):
        sess.reduce_element(parse_dpoly("x0", 3, RATIONALS), lex_basis(3))


def test_reduce_requires_verification_of_that_very_basis():
    # a failed candidate sharing the verified basis's provenance label
    sess = OracleSession(3, RATIONALS, 5)
    assert sess.verify_basis(lex_basis(3)).passed
    fake = BasisSet(3, "lex", lex_basis(3).monomials - {(0, 1, 0)})
    assert not sess.verify_basis(fake).passed
    with pytest.raises(MustVerifyFirstError):
        sess.reduce_element(parse_dpoly("x0*x1", 3, RATIONALS), fake)


def test_reduce_requires_verification_for_the_session_m():
    # the lex basis of another m carries the same label
    sess = OracleSession(3, RATIONALS, 5)
    assert sess.verify_basis(lex_basis(3)).passed
    with pytest.raises(MustVerifyFirstError):
        sess.reduce_element(parse_dpoly("x0*x1", 3, RATIONALS), lex_basis(4))


# -- report plumbing ---------------------------------------------------------------


def test_verification_report_totals():
    rep = OracleSession(3, RATIONALS, 5).verify_basis(lex_basis(3))
    assert rep.total_quotient_dim == 8 == rep.total_candidates
    assert rep.m == 3 and rep.char == 0 and rep.provenance == "lex"
    assert rep.elapsed_seconds >= 0.0


def test_verification_reports_build_slice_records_on_first_read(monkeypatch):
    # verification keeps its per-slice results as tuples: no SliceReport is
    # built until `slices` is read, each read builds one record per row, and
    # the verdict and totals read off the tuples agree with the records
    built = [0]
    init = SliceReport.__init__

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(SliceReport, "__init__", counting_init)
    for m in range(1, 6):
        lex = lex_basis(m)
        candidates = [
            lex, revlex_basis(m), cv_basis(m),
            BasisSet(m, "lex-minus", lex.monomials - {max(lex.monomials)}),
        ]
        if m > 2:
            candidates.append(truncated_basis(m, 2))
        for ring in RINGS:
            sess = OracleSession(m, ring, m + 1)
            for candidate in candidates:
                where = (m, ring.char, candidate.provenance)
                built[0] = 0
                rep = sess.verify_basis(candidate)
                twin = VerificationReport(*(getattr(rep, name) for name in rep._fields))
                verdict = (rep.passed, rep.total_quotient_dim, rep.total_candidates)
                assert verdict[0] == (candidate.provenance in ("lex", "revlex", "cv")), where
                assert built[0] == 0, where
                slices = rep.slices
                assert built[0] == len(slices) == len(rep.rows), where
                assert verdict == (
                    all(s.passed for s in slices),
                    sum(s.quotient_dim for s in slices),
                    sum(s.candidate_count for s in slices),
                ), where
                assert tuple(map(SliceReport._key, slices)) == rep.rows, where
                assert rep.slices == slices and built[0] == 2 * len(slices), where
                assert twin == rep and hash(twin) == hash(rep) and repr(twin) == repr(rep), where
                assert pickle.loads(pickle.dumps(rep)) == rep, where
