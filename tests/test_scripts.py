import importlib.util
import pathlib

import pytest

from sl2weyl.quotient_oracle import DimReport, quotient_dim

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _sweep(monkeypatch, *argv):
    spec = importlib.util.spec_from_file_location("dimension_sweep", SCRIPTS / "dimension_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", ["dimension_sweep.py", *argv])
    return module


def test_sweep_passes_on_the_engine(monkeypatch, capsys):
    assert _sweep(monkeypatch, "3").main() == 0
    assert "char 5: 8" in capsys.readouterr().out


@pytest.mark.parametrize("chars", ["0,4", "0,x", "1"])
def test_sweep_rejects_a_characteristic_that_is_not_prime(monkeypatch, capsys, chars):
    with pytest.raises(SystemExit) as exc:
        _sweep(monkeypatch, "2", "--chars", chars).main()
    assert exc.value.code == 2
    assert "--chars" in capsys.readouterr().err


def _altered(change):
    def fake(m, ring, degree_bound):
        rep = quotient_dim(m, ring, degree_bound)
        dims = dict(rep.dims)
        change(m, dims)
        return DimReport(m, ring.char, degree_bound, dims, sum(dims.values()), 0.0)
    return fake


@pytest.mark.parametrize("change, message", [
    # every characteristic agrees, but not with 2^m
    (lambda m, dims: dims.update({(0, 0): 2}), "differ from 2^m"),
    # the total stays 2^m, but a slice above degree m does not vanish
    (lambda m, dims: dims.update({(0, 0): 0, (m + 1, 0): 1}), "above degree"),
], ids=["total", "high-slice"])
def test_sweep_fails_on_a_wrong_total_or_a_high_slice(monkeypatch, capsys, change, message):
    module = _sweep(monkeypatch, "2", "--chars", "0,3")
    monkeypatch.setattr(module, "quotient_dim", _altered(change))
    assert module.main() == 1
    assert message in capsys.readouterr().out
