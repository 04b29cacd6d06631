"""The acceptance checks at configurable scale.

Each criterion function returns (ok, detail).  The test suite runs them at
full scale; the CLI selftest runs them capped at m = 4.  All checks are exact;
the only tolerances are the stated wall-clock targets.  A detail names what
was checked, never how long it took, so the selftest's stdout is the same on
every run; `run_all` prints each criterion's time on stderr.
"""

from __future__ import annotations

import sys
import time
from functools import lru_cache

from . import basis_enum, symfunc, weyl_ideal
from .basis_enum import cv_basis, is_reduced_lex, lex_basis, revlex_basis
from .dpalgebra import CoeffRing, MonomialOrder, RATIONALS
from .partitions import (
    check_mu_equals_nu,
    cmp_revlex,
    enumerate_partitions,
    eta_stretch,
    nu_greatest,
    revlex_key,
)
from .quotient_oracle import OracleSession, slice_monomials, truncated_quotient

DEFAULT_CHARS = (0, 2, 3, 5)
DIMENSION_SECONDS = 60.0  # wall-clock target per (m, ring)
CV_SECONDS = 5.0  # wall-clock target of the whole cv criterion


@lru_cache(maxsize=None)
def _session(m: int, char: int) -> OracleSession:
    return OracleSession(m, CoeffRing(char), m + 2)


def _all_partitions(max_size, max_part=None, max_len=None):
    for size in range(max_size + 1):
        yield from enumerate_partitions(
            size, max_part if max_part is not None else size,
            max_len if max_len is not None else size,
        )


def criterion_dimension(max_m=6, chars=DEFAULT_CHARS):
    """Quotient dimension 2^m with vanishing slices in degrees m+1, m+2."""
    details = []
    ok = True
    for m in range(1, max_m + 1):
        for char in chars:
            t0 = time.monotonic()
            rep = _session(m, char).dims()
            dt = time.monotonic() - t0
            good = (
                rep.total == 2**m
                and all(q == 0 for (d, _), q in rep.dims.items() if d > m)
                and dt < DIMENSION_SECONDS
            )
            ok = ok and good
            details.append(f"m={m} char={char} total={rep.total}")
    return ok, "; ".join(details[-4:]) + " ..."


def criterion_lex_basis(max_m=6, chars=DEFAULT_CHARS):
    ok = True
    for m in range(1, max_m + 1):
        for char in chars:
            ok = ok and _session(m, char).verify_basis(lex_basis(m)).passed
    return ok, f"lex basis independent+spanning, m<={max_m}, chars {chars}"


def criterion_revlex_basis(max_m=6):
    ok = True
    for m in range(1, max_m + 1):
        ok = ok and _session(m, 0).verify_basis(revlex_basis(m)).passed
    return ok, f"revlex basis independent+spanning over QQ, m<={max_m}"


def criterion_cv_equality(max_m=12):
    t0 = time.monotonic()
    ok = True
    for m in range(max_m + 1):
        cv = cv_basis(m)
        ok = ok and cv.monomials == revlex_basis(m).monomials and len(cv) == 2**m
    dt = time.monotonic() - t0
    return ok and dt < CV_SECONDS, f"cv == revlex and |cv| = 2^m, m<={max_m}"


def criterion_truncation(max_m=5):
    ok = True
    for m in range(2, max_m + 1):
        for n in range(1, m):
            rep = truncated_quotient(m, n, RATIONALS, m + 2)
            ok = ok and rep.passed
            if n == 1:
                ok = ok and rep.total_quotient_dim == m + 1
    return ok, f"truncated dims match the truncated basis, 1<=N<m<={max_m}"


def criterion_leading_monomials(max_m=5, chars=(0,)):
    ok = True
    for m in range(1, max_m + 1):
        census = set()
        reduced = set()
        for d in range(m + 3):
            for w in range(d * max(m - 1, 0) + 1):
                for a in slice_monomials(m, d, w):
                    if is_reduced_lex(a, m):
                        reduced.add(a)
                    elif d <= m + 1:
                        census.add(a)
        ok = ok and reduced == lex_basis(m).monomials
        for char in chars:
            lms = {
                e.poly.leading_monomial(MonomialOrder.DPLEX)
                for e in weyl_ideal.schur_family(m, CoeffRing(char)).entries
            }
            ok = ok and lms == census
    return ok, f"schur-family leading monomials = reducible census, m<={max_m}"


def criterion_identities(max_size=7, max_k=7, max_m=7):
    ok = True
    for m in range(1, max_m + 1):
        for lam in _all_partitions(max_size):
            if max(lam, default=0) > m - 1:
                continue
            for k in range(1, max_k + 1):
                if len(lam) <= k and len(lam) <= m - 1:
                    ok = ok and weyl_ideal.transition_identity_holds(lam, k, m)
                ok = ok and weyl_ideal.series_forgotten_identity_holds(lam, k, m)
    return ok, f"transition + series identities, |lam|<={max_size}, k<={max_k}, m<={max_m}"


def criterion_counting(max_m=12):
    ok = True
    for m in range(1, max_m + 1):
        low = [a for a in revlex_basis(m).monomials if 2 * sum(a) <= m]
        for ell in range(m // 2 + 1):
            direct = sum(1 for a in low if sum(a) == ell and a[0] == 0)
            ok = ok and basis_enum.count_B(m, ell) == direct
        for t in range(1, m):
            for ell in range(1, m // 2 + 1):
                for s in range(ell + 1):
                    lhs = basis_enum.count_g(t, ell, s, m)
                    if m - 2 * ell >= (t - 1) * s:
                        rhs = basis_enum.count_g(t, ell, s + 1, m - 1) + basis_enum.count_g(
                            t, ell - 1, s - 1, m - 1
                        )
                    else:
                        rhs = 0
                    ok = ok and lhs == rhs
    return ok, f"closed form matches enumeration and the binary recursion, m<={max_m}"


def _eta_brute(mu: tuple[int, ...], m: int) -> tuple[int, ...] | None:
    target_len = m - len(mu) + 1
    cands = [
        p
        for p in enumerate_partitions(sum(mu), sum(mu), target_len)
        if len(p) == target_len and cmp_revlex(p, mu) >= 0
    ]
    return min(cands, key=revlex_key) if cands else None


def criterion_stretch(max_m=8):
    ok = True
    for m in range(4, max_m + 1):
        for mu in _all_partitions((m - 1) * (m // 2), max_part=m - 1, max_len=m // 2):
            if not (2 <= len(mu) <= m // 2):
                continue
            eta = eta_stretch(mu, m)
            ok = ok and eta == _eta_brute(mu, m)
            if eta is not None:
                nu = nu_greatest(eta, len(mu))
                ok = ok and check_mu_equals_nu(mu, m) == (nu == mu)
    return ok, f"stretch algorithm matches brute force; index criterion, m<={max_m}"


def criterion_coinvariant(max_m=5):
    ok = True
    for m in range(1, max_m + 1):
        for r in range(1, m + 1):
            h = symfunc.complete_h(m - r + 1, r).embed(m)
            lead = max(h.terms, key=symfunc._lex_key)
            expect = tuple((m - r + 1) if i == r - 1 else 0 for i in range(m))
            ok = ok and lead == expect
        for k in range(m + 1):
            for lam in _all_partitions(k * max(m - k, 0), max_part=max(m - k, 0), max_len=k):
                if len(lam) <= k and max(lam, default=0) <= m - k:
                    ok = ok and symfunc.schur_nonvanishing(lam, k, m)
    return ok, f"h-basis leading powers and Schur nonvanishing, m<={max_m}"


ALL_CRITERIA = [
    ("1 dimension 2^m over QQ, F2, F3, F5", criterion_dimension),
    ("2 lex basis verified over all rings", criterion_lex_basis),
    ("3 revlex basis verified over QQ", criterion_revlex_basis),
    ("4 cv basis equals revlex basis", criterion_cv_equality),
    ("5 truncated quotients", criterion_truncation),
    ("6 leading-monomial census", criterion_leading_monomials),
    ("7 transition and series identities", criterion_identities),
    ("8 counting identities", criterion_counting),
    ("9 stretch algorithm and index lemma", criterion_stretch),
    ("10 coinvariant nonvanishing", criterion_coinvariant),
]


def run_all(max_m=4):
    """Capped run used by the CLI selftest; returns the number of failures."""
    caps = {
        criterion_dimension: dict(max_m=max_m),
        criterion_lex_basis: dict(max_m=max_m),
        criterion_revlex_basis: dict(max_m=max_m),
        criterion_cv_equality: dict(max_m=max_m * 2),
        criterion_truncation: dict(max_m=max_m),
        criterion_leading_monomials: dict(max_m=max_m),
        criterion_identities: dict(max_size=4, max_k=4, max_m=max_m),
        criterion_counting: dict(max_m=max_m * 2),
        criterion_stretch: dict(max_m=max_m + 2),
        criterion_coinvariant: dict(max_m=max_m),
    }
    failures = 0
    for name, fn in ALL_CRITERIA:
        t0 = time.monotonic()
        ok, detail = fn(**caps[fn])
        print(f"criterion {name}: {time.monotonic() - t0:.2f}s", file=sys.stderr)
        print(f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail}")
        if not ok:
            failures += 1
    return failures
