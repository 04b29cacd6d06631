import importlib.util
import pathlib

import pytest

from sl2weyl.basis_enum import BasisSet, revlex_basis
from sl2weyl.quotient_oracle import (
    DimReport,
    OracleSession,
    VerificationReport,
    truncated_quotient,
)

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _script(monkeypatch, name, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", [f"{name}.py", *argv])
    return module


def _sweep(monkeypatch, *argv):
    return _script(monkeypatch, "dimension_sweep", *argv)


def _chain(monkeypatch, *argv):
    return _script(monkeypatch, "truncation_chain", *argv)


def test_sweep_passes_on_the_engine(monkeypatch, capsys):
    assert _sweep(monkeypatch, "3").main() == 0
    assert "char 5: 8" in capsys.readouterr().out


def test_sweep_checks_m_0(monkeypatch, capsys):
    assert _sweep(monkeypatch, "0").main() == 0
    out = capsys.readouterr().out
    assert out.startswith("m=0  (2^m = 1)  char 0: 1 ") and "char 5: 1 " in out
    assert "!!" not in out


def test_sweep_fails_on_a_wrong_total_at_m_0(monkeypatch, capsys):
    module = _sweep(monkeypatch, "0", "--chars", "0,3")
    monkeypatch.setattr(module, "OracleSession", _altered(lambda m, dims: dims.update({(0, 0): 2})))
    assert module.main() == 1
    assert "differ from 2^m" in capsys.readouterr().out


@pytest.mark.parametrize("chars", ["0,4", "0,x", "1"])
def test_sweep_rejects_a_characteristic_that_is_not_prime(monkeypatch, capsys, chars):
    with pytest.raises(SystemExit) as exc:
        _sweep(monkeypatch, "2", "--chars", chars).main()
    assert exc.value.code == 2
    assert "--chars" in capsys.readouterr().err


@pytest.mark.parametrize("script, m", [("dimension_sweep", "-3"), ("truncation_chain", "-1")])
def test_scripts_reject_a_negative_m(monkeypatch, capsys, script, m):
    with pytest.raises(SystemExit) as exc:
        _script(monkeypatch, script, m).main()
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def _altered(change):
    class Altered(OracleSession):
        def dims(self):
            dims = dict(super().dims().dims)
            change(self.m, dims)
            return DimReport(self.m, self.ring.char, self.degree_bound, dims, 0.0)
    return Altered


@pytest.mark.parametrize("change, message", [
    # every characteristic agrees, but not with 2^m
    (lambda m, dims: dims.update({(0, 0): 2}), "differ from 2^m"),
    # the total stays 2^m, but a slice above degree m does not vanish
    (lambda m, dims: dims.update({(0, 0): 0, (m + 1, 0): 1}), "above degree"),
], ids=["total", "high-slice"])
def test_sweep_fails_on_a_wrong_total_or_a_high_slice(monkeypatch, capsys, change, message):
    module = _sweep(monkeypatch, "2", "--chars", "0,3")
    monkeypatch.setattr(module, "OracleSession", _altered(change))
    assert module.main() == 1
    assert message in capsys.readouterr().out


def test_chain_passes_on_the_engine(monkeypatch, capsys):
    assert _chain(monkeypatch, "3").main() == 0
    out = capsys.readouterr().out
    assert "full basis size 8" in out and "!!" not in out


def test_chain_fails_on_a_basis_short_of_2_to_the_m(monkeypatch, capsys):
    module = _chain(monkeypatch, "3")

    def short(m):
        bs = revlex_basis(m)
        return BasisSet(m, bs.provenance, frozenset(sorted(bs.monomials)[1:]))

    monkeypatch.setattr(module, "revlex_basis", short)
    assert module.main() == 1
    assert "!! full basis size differs from 2^m" in capsys.readouterr().out


def test_chain_fails_when_the_top_level_total_is_not_2_to_the_m(monkeypatch, capsys):
    module = _chain(monkeypatch, "3")

    def fake(m, n, ring, degree_bound):
        rep = truncated_quotient(m, n, ring, degree_bound)
        if n < m:
            return rep
        # one more passing slice, one more in both the total and the
        # candidates: the level still passes
        extra = (degree_bound + 1, 0, 1, 1, 1, True, True)
        return VerificationReport(
            m, ring.char, rep.provenance, degree_bound, rep.rows + (extra,), 0.0
        )

    monkeypatch.setattr(module, "truncated_quotient", fake)
    assert module.main() == 1
    out = capsys.readouterr().out
    assert "verified=ok" in out and "!! N=3 oracle total differs from 2^m" in out


def test_chain_checks_the_full_basis_at_m_0(monkeypatch, capsys):
    assert _chain(monkeypatch, "0").main() == 0
    out = capsys.readouterr().out
    assert "  N=1: basis    1  oracle dims    1  nested=True  verified=ok" in out
    assert "!!" not in out


def test_chain_fails_when_the_total_at_m_0_is_not_1(monkeypatch, capsys):
    module = _chain(monkeypatch, "0")

    def fake(m, n, ring, degree_bound):
        rep = truncated_quotient(m, n, ring, degree_bound)
        extra = (degree_bound + 1, 0, 1, 1, 1, True, True)
        return VerificationReport(
            m, ring.char, rep.provenance, degree_bound, rep.rows + (extra,), 0.0
        )

    monkeypatch.setattr(module, "truncated_quotient", fake)
    assert module.main() == 1
    assert "!! N=1 oracle total differs from 2^m = 1" in capsys.readouterr().out
