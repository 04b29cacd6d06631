"""Acceptance gate: every criterion at its full stated scale, exact.

Each test prints one PASS/FAIL line (run with -s or -rA to see them).  The
wall-clock limits are part of the criteria; everything else is exact equality.
"""

from sl2weyl import acceptance

CRITERIA = {name.split()[0]: (name, fn) for name, fn in acceptance.ALL_CRITERIA}


def _run(key, **kwargs):
    name, fn = CRITERIA[key]
    ok, detail = fn(**kwargs)
    print(f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail}")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_1_dimension_2_to_m():
    # m <= 7 over QQ, F2, F3, F5; slices of degree m+1, m+2 vanish; < 60 s
    # per (m, ring)
    _run("1", max_m=7, chars=(0, 2, 3, 5))


def test_criterion_2_lex_basis_all_rings():
    _run("2", max_m=7, chars=(0, 2, 3, 5))


def test_criterion_3_revlex_basis_over_qq():
    _run("3", max_m=7)


def test_criteria_1_2_3_at_m_8_over_qq():
    # the dimension, lex and revlex criteria one m further over QQ, with the
    # same 60 s bound per (m, ring)
    _run("1", max_m=8, chars=(0,))
    _run("2", max_m=8, chars=(0,))
    _run("3", max_m=8)


def test_criteria_1_2_at_m_8_over_finite_fields():
    # the dimension and lex criteria at m = 8 over F2, F3, F5 as well, with
    # the same 60 s bound per (m, ring)
    _run("1", max_m=8, chars=(2, 3, 5))
    _run("2", max_m=8, chars=(2, 3, 5))


def test_criterion_4_cv_equals_revlex():
    # pure enumeration, m <= 12, under 5 s
    _run("4", max_m=12)


def test_criterion_5_truncations():
    # all 1 <= N < m <= 5 over QQ; N = 1 gives m + 1
    _run("5", max_m=5)


def test_criterion_6_leading_monomials():
    # the schur family's DPLEX leading monomials over QQ, F2, F3, F5
    _run("6", max_m=7, chars=(0, 2, 3, 5))


def test_criterion_7_identities():
    # exhaustive: |lam| <= 7, k <= 7, m <= 7
    _run("7", max_size=7, max_k=7, max_m=7)


def test_criterion_8_counting():
    _run("8", max_m=12)


def test_criterion_9_stretch_algorithm():
    _run("9", max_m=8)


def test_criterion_10_coinvariant():
    _run("10", max_m=5)
