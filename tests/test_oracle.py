import gc
import importlib
import itertools
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
    quotient_dim,
    reduce_element,
    slice_monomials,
    slice_rank,
    truncated_quotient,
    verify_basis,
)
from sl2weyl.weyl_ideal import (
    GeneratorEntry,
    GeneratorSet,
    defining_generators,
    forgotten_family,
    schur_family,
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
                extra = range(n, m)
                gens = GeneratorSet(
                    m, ring, "truncated", defining.entries + _variables(m, ring, extra),
                    defining.degree_bound, defining.weight_bound,
                )
                sess = OracleSession(m, ring, bound, extra_degree_one=extra)
                _assert_ranks_match_literal(m, ring, bound, sess, gens)


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
    for info in pkgutil.iter_modules(sl2weyl.__path__):
        module = importlib.import_module(f"sl2weyl.{info.name}")
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    weyl_ideal._product_table.clear()
    assert symfunc.kostka_row.cache_info().currsize == 0
    assert schur_family(m, prime_field(3)) == warm_schur
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


def test_covered_slices_skip_elimination(monkeypatch):
    # at m = 6 over Q (degree box 8) 126 of the 189 slices are covered and
    # 21 more are filled by elimination, which starts from unit columns at
    # the columns the full lower slices reach and the images of the unit
    # columns of the others; echelonizing every shifted row takes 9,777
    # rows for 2,939 pivots.  Every row reaches the pivots through
    # `_insert`, `add` included.
    calls = [0]
    insert = _Echelon._insert

    def counting_insert(self, row):
        calls[0] += 1
        return insert(self, row)

    monkeypatch.setattr(_Echelon, "_insert", counting_insert)
    assert OracleSession(6, RATIONALS, 8).dims().total == 64
    assert 0 < calls[0] <= 292


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


def _box_poly(m, ring, bound):
    """The sum of every monomial of the degree box."""
    box = (a for d, w, _ in _box_slices(m, bound) for a in slice_monomials(m, d, w))
    return DPoly(ring, m, dict.fromkeys(box, 1))


def test_lead_mask_is_the_units_and_the_row_leads(monkeypatch):
    # every echelon keeps `leads` equal to its unit columns plus the leads of
    # its rows: the slices of a session and the overlays and solvers that
    # verification and reduction build alike
    made = []
    init = _Echelon.__init__

    def recording_init(self, *args):
        init(self, *args)
        made.append(self)

    def check(where):
        for ech in made:
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
                sess = OracleSession(m, ring, bound, extra_degree_one=range(n, m))
                sessions.append((f"truncated-{n}", sess, truncated_basis(m, n)))
            f = _box_poly(m, ring, bound)
            for kind, sess, basis in sessions:
                where = (m, ring.char, kind)
                made.clear()
                sess.dims()
                check((*where, "dims"))
                passed = sess.verify_basis(basis).passed
                check((*where, "verify_basis"))
                if passed:
                    sess.reduce_element(f, basis)
                    check((*where, "reduce_element"))
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
    # eliminates the rows of a lower slice that is not full; building one
    # for every lower slice that is not full gives Q 252 and F_3 498 here
    for ring, most in zip(RINGS, (227, 516, 343, 257)):
        for f in vars(quotient_oracle).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
        assert OracleSession(6, ring, 8).dims().total == 64
        assert quotient_oracle._shift.cache_info().currsize <= most, ring.char


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
    assert quotient_dim(0, RATIONALS, 2).total == 1
    for m in range(1, 5):
        for ring in RINGS:
            rep = quotient_dim(m, ring, m + 2)
            assert rep.total == 2**m
            assert all(q == 0 for (d, _), q in rep.dims.items() if d > m)


def test_quotient_dim_requires_bound():
    with pytest.raises(ValueError):
        quotient_dim(4, RATIONALS, 3)


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
            rep = verify_basis(m, ring, lex_basis(m), m + 2)
            assert rep.passed and rep.total_candidates == 2**m
        rep = verify_basis(m, RATIONALS, revlex_basis(m), m + 2)
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
    rep = verify_basis(3, RATIONALS, bad, 5)
    failing = [s for s in rep.slices if not s.passed]
    assert len(failing) == 1
    assert (failing[0].degree, failing[0].weight) == (2, 2)
    assert not failing[0].spanning and failing[0].independent
    # adding a junk monomial: independence fails there instead
    worse = BasisSet(3, "corrupt2", bs.monomials | {(1, 0, 1)})
    rep2 = verify_basis(3, RATIONALS, worse, 5)
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
    for m in range(2, 6):
        for n in range(1, m):
            rep = truncated_quotient(m, n, RATIONALS, m + 2)
            assert rep.passed, (m, n)
            assert rep.dims.total == len(truncated_basis(m, n))
        assert truncated_quotient(m, 1, RATIONALS, m + 2).dims.total == m + 1


def test_truncated_quotient_full_when_n_at_least_m():
    for m in (2, 3, 4):
        full = quotient_dim(m, RATIONALS, m + 2)
        trunc = truncated_quotient(m, m, RATIONALS, m + 2)
        assert trunc.dims.dims == full.dims
        assert trunc.passed


def test_truncation_by_plain_variables_is_a_char_zero_statement():
    # over F_2 the ideal (x_1) misses x_1^(2) (x_1 * x_1 = 2 x_1^(2) = 0), so
    # the plain-variable truncation genuinely exceeds the basis size there;
    # the truncation theorem lives in characteristic zero
    rep = truncated_quotient(4, 1, prime_field(2), 6)
    assert rep.dims.total == 6 > 5 == len(truncated_basis(4, 1))


def test_truncated_rejects_bad_level():
    with pytest.raises(ValueError):
        truncated_quotient(3, 0, RATIONALS, 5)


def test_session_rejects_truncation_indices_outside_the_variables():
    # such an index used to build the constant monomial under a slice key
    # (1, j) that the box never reads, so it was silently ignored
    for extra in ((5,), (-1,), (3,), (0, 5)):
        with pytest.raises(ValueError, match=f"index {extra[-1]} outside 0..2"):
            OracleSession(3, RATIONALS, 4, extra_degree_one=extra)
    for m in range(1, 6):
        for n in range(1, m + 1):
            rep = truncated_quotient(m, n, RATIONALS, m + 2)
            assert rep.passed and rep.dims.total == len(truncated_basis(m, n)), (m, n)


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
    rep = verify_basis(3, RATIONALS, lex_basis(3), 5)
    assert rep.total_quotient_dim == 8 == rep.total_candidates
    assert rep.m == 3 and rep.char == 0 and rep.provenance == "lex"
    assert rep.elapsed_seconds >= 0.0


def test_verification_reports_build_slice_records_on_first_read(monkeypatch):
    # verification keeps its per-slice results as tuples: no SliceReport is
    # built until `slices` is read, and a report on the tuples equals,
    # hashes, prints and pickles like one built from the records
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
                twin = VerificationReport._of_rows(
                    rep.m, rep.char, rep.provenance, rep.degree_bound, rep._rows,
                    rep.elapsed_seconds,
                )
                verdict = (rep.passed, rep.total_quotient_dim, rep.total_candidates)
                assert verdict[0] == (candidate.provenance in ("lex", "revlex", "cv")), where
                assert built[0] == 0, where
                slices = rep.slices
                assert built[0] == len(slices) and rep.slices is slices, where
                records = VerificationReport(
                    rep.m, rep.char, rep.provenance, rep.degree_bound, list(slices),
                    rep.elapsed_seconds,
                )
                assert verdict == (
                    all(s.passed for s in slices),
                    sum(s.quotient_dim for s in slices),
                    sum(s.candidate_count for s in slices),
                ) == (records.passed, records.total_quotient_dim, records.total_candidates)
                assert records._rows == rep._rows, where
                for report in (rep, twin):
                    assert report == records and records == report, where
                    assert hash(report) == hash(records), where
                    assert repr(report) == repr(records), where
                    assert pickle.loads(pickle.dumps(report)) == records, where
                    assert report.slices == slices, where
