import tracemalloc
from functools import lru_cache

import pytest

from sl2weyl import weyl_ideal
from sl2weyl.dpalgebra import (
    CoeffRing,
    DPoly,
    MonomialOrder,
    RATIONALS,
    mono_degree,
    mono_weight,
    normal_form,
    parse_dpoly,
    unit_normalize,
)
from sl2weyl.partitions import (
    EMPTY,
    dominates,
    enumerate_partitions,
    iter_partitions,
    make_partition,
)
from sl2weyl.symfunc import forgotten_coeff, kostka
from sl2weyl.weyl_ideal import (
    GeneratorEntry,
    GeneratorSet,
    UnsupportedCharacteristicError,
    _series_terms,
    defining_generators,
    forgotten_dpoly,
    forgotten_family,
    schur_dpoly,
    schur_family,
    series_forgotten_identity_holds,
    series_power_coefficient,
    slice_series,
    transition_identity_holds,
    truncation_relations,
)

F2 = CoeffRing(2)
RINGS = (RATIONALS, F2, CoeffRing(3), CoeffRing(5))


def all_partitions(max_size, max_part=None):
    for n in range(max_size + 1):
        yield from enumerate_partitions(n, max_part if max_part is not None else n, n)


# -- the series ----------------------------------------------------------------


def series(s, m):
    """The terms (coefficient, variable index, u-exponents) of the series in
    s auxiliary variables and m algebra variables."""
    return [(c, v, ue) for v in range(m) for c, ue in _series_terms(s, v)]


def test_series_s0_is_x0():
    assert series(0, 4) == [(1, 0, ())]


def test_series_m1_single_term():
    assert series(3, 1) == [(1, 0, (0, 0, 0))]


def test_series_s1_alternating():
    got = sorted(series(1, 4), key=lambda t: t[1])
    assert got == [(1, 0, (0,)), (-1, 1, (1,)), (1, 2, (2,)), (-1, 3, (3,))]


def test_series_coefficients_are_signed_multinomials():
    # eta = (2,1): (+1)^2 * 2!/(1!1!) = 2; eta = (1,1): +2!/2! = 1;
    # eta = (2): -1; eta = (1,1,1): -3!/3! = -1
    terms = {(v, ue): c for c, v, ue in series(2, 4)}
    assert terms[(3, (1, 1))] == 2
    assert terms[(2, (2, 0))] == 1
    assert terms[(2, (0, 1))] == -1
    assert terms[(3, (3, 0))] == -1


def test_series_arguments_are_checked():
    for k, m in ((-1, 2), (1, 0)):
        with pytest.raises(ValueError, match="need k >= 0, m >= 1"):
            series_power_coefficient(k, (1,), m)
    with pytest.raises(ValueError, match="u-exponents must be nonnegative"):
        series_power_coefficient(1, (1, -1), 3)


# -- divided powers of the series ------------------------------------------------


def test_power_coeff_examples():
    assert series_power_coefficient(2, (0,), 3) == parse_dpoly("x0^(2)", 3, RATIONALS)
    assert series_power_coefficient(1, (1,), 3) == parse_dpoly("-x1", 3, RATIONALS)
    assert series_power_coefficient(2, (1, 0), 3) == parse_dpoly("-x0*x1", 3, RATIONALS)


def naive_power_coefficients(s, m, k):
    """Definitional expansion of the k-th divided power: enumerate all term
    multisets of size k; a multiset {(T_t, i_t)} contributes
    prod c_t^i_t * prod_v multinomial(i over var v) * x^(sum) * u^(sum).
    Returns dict uexp -> dict mono -> coeff."""
    from math import comb as _comb

    terms = series(s, m)
    out: dict = {}

    def rec(idx, remaining, exps, uexp, coeff):
        if idx == len(terms):
            if remaining == 0:
                slot = out.setdefault(tuple(uexp), {})
                mono = tuple(exps)
                slot[mono] = slot.get(mono, 0) + coeff
            return
        c, var, ue = terms[idx]
        for i in range(remaining + 1):
            if i:
                coeff2 = coeff * c**i * _comb(exps[var] + i, i)
                exps[var] += i
                for j, e in enumerate(ue):
                    uexp[j] += i * e
            else:
                coeff2 = coeff
            rec(idx + 1, remaining - i, exps, uexp, coeff2)
            if i:
                exps[var] -= i
                for j, e in enumerate(ue):
                    uexp[j] -= i * e

    rec(0, k, [0] * m, [0] * s, 1)
    return {
        u: {a: c for a, c in monos.items() if c}
        for u, monos in out.items()
        if any(monos.values())
    }


@pytest.mark.parametrize(
    "s,m,k",
    [(1, 3, 3), (2, 3, 3), (2, 4, 2), (3, 4, 2), (1, 5, 3), (2, 5, 3), (3, 3, 3),
     (4, 3, 2), (5, 4, 2)],
)
def test_power_coeff_matches_naive_expansion(s, m, k):
    naive = naive_power_coefficients(s, m, k)
    seen_uexps = set(naive)
    # every u-exponent the naive expansion reaches, and a few it does not
    for uexp in seen_uexps | {(0,) * s, (5,) + (0,) * (s - 1)}:
        expect = naive.get(uexp, {})
        got = series_power_coefficient(k, uexp, m).terms
        assert got == expect, (s, m, k, uexp)


def test_power_coeff_weight_and_degree_homogeneous():
    for k, uexp in [(3, (1, 1)), (4, (2, 0, 1)), (5, (4,))]:
        f = series_power_coefficient(k, uexp, 5)
        if f.is_zero():
            continue
        assert {mono_degree(a) for a in f.terms} == {k}
        wt = sum((i + 1) * e for i, e in enumerate(uexp))
        assert {mono_weight(a) for a in f.terms} == {wt}


# -- the product kernel against the literal forgotten coefficients -----------------


@lru_cache(maxsize=None)
def literal_forgotten_terms(lam, k, m):
    """Terms of the forgotten element of lam with k parts, summed from
    `symfunc.forgotten_coeff` over mu |- |lam| dominating lam, l(mu) <= k,
    parts <= m-1."""
    terms = {}
    for mu in enumerate_partitions(lam.size, m - 1, min(k, lam.length)):
        if dominates(mu, lam):
            exps = [0] * m
            exps[0] = k - mu.length
            for p in mu.parts:
                exps[p] += 1
            terms[tuple(exps)] = forgotten_coeff(lam, mu)
    return terms


def test_defining_generators_match_literal_forgotten_elements():
    # each series coefficient is (-1)^|lam| times a forgotten element; the
    # expected list repeats the box order and the dedup up to a unit.  The
    # degree box is m + 2; the weights are the full box up to m = 4, but only
    # <= 14 (of 28) at m = 5, where the literal coefficients of the full box
    # take about 30 s.
    for m, weight_bound in ((1, 0), (2, 4), (3, 10), (4, 18), (5, 14)):
        bound = m + 2
        for ring in RINGS:
            expect, seen = [], set()
            for power in range(1, bound + 1):
                for w in range(min(weight_bound, power * (m - 1)) + 1):
                    for lam in sorted(enumerate_partitions(w, m - 1, w), key=lambda p: p.parts):
                        if lam.length + power < m + 1:
                            continue
                        sign = -1 if w % 2 else 1
                        terms = literal_forgotten_terms(lam, power, m)
                        poly = DPoly(ring, m, {a: sign * c for a, c in terms.items()})
                        if poly.is_zero():
                            continue
                        lead = poly.leading_monomial(MonomialOrder.DPLEX)
                        key = frozenset(unit_normalize(poly.terms, lead, ring.char).items())
                        if key not in seen:
                            seen.add(key)
                            uexp = lam.multiplicities(m - 1)
                            expect.append((("series", uexp, power, power + lam.length), poly))
            gs = defining_generators(m, ring, bound, weight_bound)
            assert [(e.provenance, e.poly) for e in gs.entries] == expect, (m, ring.char)


def test_forgotten_family_matches_literal_forgotten_elements():
    for m in range(1, 6):
        expect = []
        for k in range(2, m + 2):
            lams = [
                lam
                for size in range((m - 1) * k + 1)
                for lam in enumerate_partitions(size, m - 1, m + 1)
                if lam.length >= m - k + 1
            ]
            for lam in sorted(lams, key=lambda p: (p.size, p.parts)):
                poly = DPoly(RATIONALS, m, literal_forgotten_terms(lam, k, m))
                if not poly.is_zero():
                    expect.append((("forgotten", lam.parts, k), poly))
        got = [(e.provenance, e.poly) for e in forgotten_family(m).entries]
        assert got == expect, m


def test_schur_family_matches_literal_kostka_elements():
    # the family in (k, |lam|, lam.parts) order, each element summed from
    # `symfunc.kostka` over the mu |- |lam| that lam dominates, l(mu) <= k;
    # m = 6, the benchmark's scale, over QQ only
    for m in range(1, 7):
        for ring in RINGS if m < 6 else (RATIONALS,):
            expect = []
            for k in range(1, m + 2):
                lams = [
                    lam
                    for size in range((m - 1) * k + 1)
                    for lam in enumerate_partitions(size, m - 1, k)
                    if lam.largest + k > m
                ]
                for lam in sorted(lams, key=lambda p: (p.size, p.parts)):
                    terms = {}
                    for mu in enumerate_partitions(lam.size, m - 1, k):
                        if dominates(lam, mu):
                            exps = [0] * m
                            exps[0] = k - mu.length
                            for p in mu.parts:
                                exps[p] += 1
                            terms[tuple(exps)] = kostka(lam, mu)
                    expect.append((("schur", lam.parts, k), DPoly(ring, m, terms)))
            got = [(e.provenance, e.poly) for e in schur_family(m, ring).entries]
            assert got == expect, (m, ring.char)


def test_slice_series_yields_its_first_generator_without_enumerating_the_slice():
    # slice (9, 63) at m = 8 has 55,748 partitions of 63 into parts <= 7; the
    # first one, 1^63, already gives a generator, so the stream must not
    # build the rest before yielding it
    tracemalloc.start()
    try:
        uexp, pairs = next(slice_series(8, 9, 63))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert uexp == (63, 0, 0, 0, 0, 0, 0) and pairs
    assert peak < 1 << 20, peak


def test_the_kernel_peels_a_long_mu_without_recursion():
    # the only monomial of these slices is the top variable to the power d,
    # so mu has d parts, each peeled in turn; both values were computed
    # with a raised recursion limit
    assert next(slice_series(3, 2048, 4096)) == ((4096, 0), (((0, 0, 2048), 1),))
    assert next(slice_series(4, 2187, 6561)) == ((6561, 0, 0), (((0, 0, 0, 2187), -1),))


# -- the defining family ----------------------------------------------------------


def test_defining_m1():
    gs = defining_generators(1, RATIONALS, 3, 3)
    assert [str(e.poly) for e in gs.entries] == ["x0^(2)", "x0^(3)"]


def test_defining_requires_bound():
    with pytest.raises(ValueError):
        defining_generators(3, RATIONALS, 3, 9)


def test_truncation_relations_are_the_variables_from_n_on():
    for ring in RINGS:
        relations = truncation_relations(3, 1, ring)
        assert relations.entries == (
            GeneratorEntry(DPoly(ring, 3, {(0, 1, 0): 1}), ("truncation", 1), 1, 1),
            GeneratorEntry(DPoly(ring, 3, {(0, 0, 1): 1}), ("truncation", 2), 1, 2),
        )
        assert relations == GeneratorSet(3, ring, "truncation", relations.entries, 1, 2)
        for n in (3, 4, 7):
            assert truncation_relations(3, n, ring).entries == ()
        with pytest.raises(ValueError, match="truncation level must be >= 1"):
            truncation_relations(3, 0, ring)


def test_defining_m3_contains_the_paper_table_row():
    gs = defining_generators(3, RATIONALS, 4, 12)
    target = parse_dpoly("x0*x2 + x1^(2)", 3, RATIONALS)
    assert any(e.poly in (target, -target) for e in gs.entries)


def test_per_slice_dedup_equals_a_whole_box_seen_set():
    # unit multiples share a slice, so a dedup set per slice keeps the
    # entries, and their order, of one set kept over the whole box; the
    # family's slice tables against the lazy kernel of `slice_series`
    dropped = 0
    for m, bound, rings in [(m, m + 2, RINGS) for m in range(1, 6)] + [(6, 7, (RATIONALS,))]:
        for ring in rings:
            expect, seen = [], set()
            for power in range(1, bound + 1):
                for w in range(power * (m - 1) + 1):
                    for uexp, pairs in slice_series(m, power, w):
                        poly = DPoly(ring, m, dict(pairs))
                        if poly.is_zero():
                            continue
                        lead = poly.leading_monomial(MonomialOrder.DPLEX)
                        key = frozenset(unit_normalize(poly.terms, lead, ring.char).items())
                        if key in seen:
                            dropped += 1
                            continue
                        seen.add(key)
                        expect.append((("series", uexp, power, power + sum(uexp)), poly.terms))
            gs = defining_generators(m, ring, bound, bound * (m - 1))
            assert [(e.provenance, e.poly.terms) for e in gs.entries] == expect, (m, ring.char)
    assert dropped


def test_defining_entries_lead_at_their_last_term():
    # the dedup key normalizes at the last term: the series pairs ascend in
    # DPLEX and a DPoly keeps their order, dropping only the zeros, so the
    # last term is the DPLEX lead
    count = 0
    for m in range(1, 6):
        for ring in RINGS:
            bound = m + 2
            for e in defining_generators(m, ring, bound, bound * max(m - 1, 1)).entries:
                assert next(reversed(e.poly.terms)) == e.poly.leading_monomial(
                    MonomialOrder.DPLEX
                ), (m, ring.char, e.provenance)
                count += 1
    assert count > 10_000


def test_defining_homogeneous_integral_dedup():
    gs = defining_generators(4, RATIONALS, 5, 15)
    seen = set()
    for e in gs.entries:
        # every term lies in the slice the entry declares
        assert {(mono_degree(a), mono_weight(a)) for a in e.poly.terms} == {(e.degree, e.weight)}
        assert all(isinstance(c, int) for c in e.poly.terms.values())
        key = frozenset(e.poly.terms.items())
        neg = frozenset((a, -c) for a, c in e.poly.terms.items())
        assert key not in seen and neg not in seen  # dedup up to scalar sign
        seen.add(key)


def test_defining_f2_drops_vanishing_rows():
    q = defining_generators(2, RATIONALS, 4, 6)
    f = defining_generators(2, F2, 4, 6)
    assert all(not e.poly.is_zero() for e in f.entries)
    assert len(f.entries) <= len(q.entries)


# -- schur / forgotten elements ----------------------------------------------------


def test_schur_dpoly_examples():
    assert schur_dpoly(make_partition([2]), 2, 3) == parse_dpoly(
        "x0*x2 + x1^(2)", 3, RATIONALS
    )
    assert schur_dpoly(EMPTY, 3, 2) == parse_dpoly("x0^(3)", 2, RATIONALS)


def test_schur_lead_is_the_padded_partition_monomial():
    for m in (2, 3, 4, 5):
        for lam in all_partitions(2 * (m - 1), max_part=m - 1):
            for k in range(max(lam.length, 1), m + 2):
                if lam.largest + k <= m:
                    continue
                f = schur_dpoly(lam, k, m)
                exps = [0] * m
                exps[0] = k - lam.length
                for p in lam.parts:
                    exps[p] += 1
                assert f.leading_monomial(MonomialOrder.DPLEX) == tuple(exps)
                assert f.terms[tuple(exps)] == 1


def test_forgotten_dpoly_examples():
    assert forgotten_dpoly(make_partition([1, 1]), 2, 3) == parse_dpoly(
        "x1^(2) + x0*x2", 3, RATIONALS
    )
    f = forgotten_dpoly(make_partition([2, 1, 1]), 2, 5)
    assert f.terms[(0, 0, 2, 0, 0)] == -2  # coefficient of x^((2,2))


def test_forgotten_dpoly_rejects_a_negative_length():
    with pytest.raises(ValueError):
        forgotten_dpoly(EMPTY, -1, 3)


def test_element_builders_reject_shapes_outside_their_slice():
    with pytest.raises(ValueError, match="l\\(lam\\) <= k"):
        schur_dpoly(make_partition([1, 1, 1]), 2, 4)
    for builder in (schur_dpoly, forgotten_dpoly):
        with pytest.raises(ValueError, match="lam_1 <= m-1"):
            builder(make_partition([3]), 2, 3)


def test_families_reject_m_0():
    for family in (schur_family, forgotten_family):
        with pytest.raises(ValueError, match="m must be >= 1"):
            family(0)


def test_forgotten_lead_unit_when_short():
    for m in (3, 4, 5):
        for lam in all_partitions(m + 1, max_part=m - 1):
            if lam.size == 0:
                continue
            for k in range(lam.length, m + 2):
                f = forgotten_dpoly(lam, k, m)
                if f.is_zero():
                    continue
                exps = [0] * m
                exps[0] = k - lam.length
                for p in lam.parts:
                    exps[p] += 1
                lead = f.leading_monomial(MonomialOrder.DPDEGREVLEX)
                assert lead == tuple(exps)
                assert f.terms[lead] in (1, -1)


def lead_partition(lead, m):
    parts = []
    for i in range(m - 1, 0, -1):
        parts.extend([i] * lead[i])
    from sl2weyl.partitions import Partition

    return Partition(tuple(parts))


def test_forgotten_lead_when_long_is_dominance_minimal_support():
    # with l(lam) > k the lead is a dominance-minimal element of the actual
    # support (the dominance-least candidate can carry coefficient zero, e.g.
    # lam=(2,2,2), k=2: no split of (3,3) into parts of (2,2,2) exists)
    from sl2weyl.partitions import dominates

    for m in (3, 4, 5):
        for lam in all_partitions(2 * (m - 1), max_part=m - 1):
            for k in range(2, m + 2):
                if lam.length <= k:
                    continue
                f = forgotten_dpoly(lam, k, m)
                if f.is_zero():
                    continue
                lead = lead_partition(f.leading_monomial(MonomialOrder.DPDEGREVLEX), m)
                support = [lead_partition(a, m) for a in f.terms]
                assert not any(
                    mu.parts != lead.parts and dominates(lead, mu)
                    for mu in support
                ), (lam, k, m)


def test_forgotten_lead_of_stretched_partition_is_the_original_monomial():
    # the fact the revlex-basis argument rests on: stretching mu to eta and
    # taking the degree-l(mu) element gives back x^mu as the leading monomial
    from sl2weyl.partitions import check_mu_equals_nu, eta_stretch

    for m in (4, 5, 6, 7, 8):
        for size in range(2, (m - 1) * (m // 2) + 1):
            for mu in enumerate_partitions(size, m - 1, m // 2):
                if not (2 <= mu.length <= m // 2):
                    continue
                eta = eta_stretch(mu, m)
                if eta is None or not check_mu_equals_nu(mu, m):
                    continue
                f = forgotten_dpoly(eta, mu.length, m)
                assert not f.is_zero(), (mu, m)
                lead = lead_partition(f.leading_monomial(MonomialOrder.DPDEGREVLEX), m)
                assert lead.parts == mu.parts, (mu, eta, m)


def test_schur_rows_lead_at_distinct_partitions_with_coefficient_one():
    # over Q, m <= 7, in each slice of degree <= m + 1 the rows of the Schur
    # family lead in DPLEX at x^(lam), lam padded to k parts, with
    # coefficient 1, and no two rows of a slice share a lead: so they are
    # independent in every ring, and the echelon basis a session keeps of a
    # slice of the set (`quotient_oracle._kept`) holds every Schur row,
    # while the forgotten rows of a slice overlap
    for m in range(1, 8):
        leads = set()
        for e in schur_family(m, RATIONALS).entries:
            _, lam, k = e.provenance
            exps = [0] * m
            exps[0] = k - len(lam)
            for part in lam:
                exps[part] += 1
            lead = tuple(exps)
            assert e.poly.leading_monomial(MonomialOrder.DPLEX) == lead, (m, lam, k)
            assert e.poly.terms[lead] == 1, (m, lam, k)
            assert lead not in leads, (m, lam, k)
            leads.add(lead)
        assert max(map(sum, leads)) == m + 1


def test_schur_family_membership_condition():
    gs = schur_family(2, RATIONALS)
    assert any(e.provenance[1] == (1,) and e.provenance[2] == 2 for e in gs.entries)
    gs3 = forgotten_family(3, RATIONALS)
    assert any(e.provenance[1] == (1, 1) and e.provenance[2] == 2 for e in gs3.entries)


def test_forgotten_family_refuses_positive_characteristic(monkeypatch):
    # refused before any slice is enumerated or tabled
    def unreachable(*args):
        raise AssertionError("built a slice before refusing")

    monkeypatch.setattr(weyl_ideal, "_slice_table", unreachable)
    monkeypatch.setattr(weyl_ideal, "iter_partitions", unreachable)
    for ring in RINGS[1:]:
        with pytest.raises(UnsupportedCharacteristicError):
            forgotten_family(6, ring)


def test_forgotten_family_equals_the_lazy_kernel_family():
    # the slice tables against `forgotten_dpoly`, lam by lam: the same
    # entries in the same order
    for m in range(1, 7):
        expect = []
        for k in range(2, m + 2):
            for size in range((m - 1) * k + 1):
                for parts in iter_partitions(size, m - 1, m + 1):
                    if len(parts) >= m - k + 1:
                        poly = forgotten_dpoly(make_partition(parts), k, m)
                        if not poly.is_zero():
                            expect.append((("forgotten", parts, k), k, size, poly.terms))
        got = [
            (e.provenance, e.degree, e.weight, e.poly.terms)
            for e in forgotten_family(m, RATIONALS).entries
        ]
        assert got == expect, m


def test_eager_families_leave_the_kernel_table_empty():
    # the families read their own slice tables, not the engine's kernel
    weyl_ideal._product_table.clear()
    defining_generators(5, RATIONALS, 7, 28)
    forgotten_family(6, RATIONALS)
    assert weyl_ideal._product_table == {}


def test_entries_carry_the_bidegree_of_their_terms():
    # the builders store degree and weight; every term must sit there
    for m in range(1, 5):
        box = (m + 1, (m + 1) * (m - 1))
        families = [defining_generators(m, ring, *box) for ring in RINGS]
        families += [schur_family(m, ring) for ring in RINGS]
        families.append(forgotten_family(m, RATIONALS))
        for gs in families:
            for e in gs.entries:
                assert {(mono_degree(a), mono_weight(a)) for a in e.poly.terms} == {
                    (e.degree, e.weight)
                }, (m, gs.ring.char, e.provenance)


# -- membership of the derived families in the ideal -------------------------------


def test_families_lie_in_the_ideal_by_rank_stability():
    from sl2weyl.quotient_oracle import OracleSession, slice_monomials

    for m in (2, 3, 4, 5):
        for char in (0, 2, 3):
            ring = CoeffRing(char) if char else RATIONALS
            session = OracleSession(m, ring, m + 2)
            fams = [schur_family(m, ring)]
            if not char:
                fams.append(forgotten_family(m, ring))
            for fam in fams:
                for e in fam.entries:
                    d, w = e.degree, e.weight
                    if d > m + 2:
                        continue
                    ech = session.space(d, w)
                    monos = slice_monomials(m, d, w)
                    index = {a: i for i, a in enumerate(monos)}
                    row = {index[a]: c for a, c in e.poly.terms.items()}
                    assert not ech.residue(row)[0], (m, char, fam.family, e.provenance)


def test_defining_elements_reduce_to_zero_against_schur_family():
    # the schur family is a Groebner-Shirshov-style basis under DPLEX in every
    # characteristic, within its degree range
    for m in (1, 2, 3, 4):
        for ring in (RATIONALS, F2, CoeffRing(3)):
            gens = [e.poly for e in schur_family(m, ring).entries]
            for e in defining_generators(m, ring, m + 1, (m + 1) * max(m - 1, 1)).entries:
                nf = normal_form(e.poly, gens, MonomialOrder.DPLEX)
                assert nf.is_zero(), (m, ring.char, e.provenance)


def test_schur_elements_reduce_to_zero_against_forgotten_family():
    # characteristic 0, graded revlex: the forgotten family is a Groebner basis
    for m in (1, 2, 3, 4):
        gens = [e.poly for e in forgotten_family(m, RATIONALS).entries]
        for e in schur_family(m, RATIONALS).entries:
            nf = normal_form(e.poly, gens, MonomialOrder.DPDEGREVLEX)
            assert nf.is_zero(), (m, e.provenance)


def test_forgotten_family_reduces_to_zero_against_defining_family():
    # under the graded revlex order, same-degree defining generators are a
    # triangular reducer set over QQ.  (The schur family does NOT reduce to
    # zero against the defining family under DPLEX: normal_form can strand a
    # non-leading term no defining lead divides, e.g. x0*x1^(2) at m = 3,
    # even though ideal membership holds -- see the rank-stability test.)
    for m in (1, 2, 3, 4):
        gs = defining_generators(m, RATIONALS, m + 1, (m + 1) * max(m - 1, 1))
        gens = [e.poly for e in gs.entries]
        for e in forgotten_family(m, RATIONALS).entries:
            assert normal_form(e.poly, gens, MonomialOrder.DPDEGREVLEX).is_zero(), e.provenance


# -- identities ---------------------------------------------------------------------


def test_transition_identity_sweep():
    for m in range(1, 6):
        for lam in all_partitions(5, max_part=m - 1):
            if lam.length > m - 1:
                continue
            for k in range(max(lam.length, 1), 6):
                assert transition_identity_holds(lam, k, m), (lam, k, m)


def test_series_forgotten_identity_sweep():
    for m in range(1, 8):
        for lam in all_partitions(7, max_part=m - 1):
            for k in range(1, 8):
                assert series_forgotten_identity_holds(lam, k, m), (lam, k, m)
