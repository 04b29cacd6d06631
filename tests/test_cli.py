import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sl2weyl
from sl2weyl import basis_enum, cli, weyl_ideal
from sl2weyl.cli import main
from sl2weyl.dpalgebra import CoeffRing, format_dpoly, format_monomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_json(capsys):
    code, out, _ = run(capsys, "basis", "-m", "2", "--order", "lex", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 2 and data["count"] == 4
    assert sorted(map(tuple, data["monomials"])) == [(0, 0), (0, 1), (1, 0), (2, 0)]


def test_basis_text_lists_monomials(capsys):
    code, out, _ = run(capsys, "basis", "-m", "2", "--order", "revlex")
    assert code == 0
    body = out.strip().splitlines()
    assert body[0].startswith("#") and len(body) == 5
    assert "x0^(2)" in body


def test_basis_truncate_flag(capsys):
    code, out, _ = run(capsys, "basis", "-m", "4", "--truncate", "1", "--format", "json")
    data = json.loads(out)
    assert data["order"] == "truncated-1" and data["count"] == 5


def test_dim_json_total(capsys):
    code, out, _ = run(capsys, "dim", "-m", "3", "--char", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 8 and data["char"] == 2


def test_kostka_and_dcoeff(capsys):
    assert run(capsys, "kostka", "2,1", "1,1,1") == (0, "2\n", "")
    assert run(capsys, "dcoeff", "2,1,1", "2,2") == (0, "-2\n", "")
    assert run(capsys, "dcoeff", "1,1", "2,0") == (0, "1\n", "")
    # zero entries are dropped, on either side
    assert run(capsys, "kostka", "2,1,0", "1,1,1") == (0, "2\n", "")
    assert run(capsys, "dcoeff", "2,1,1,0", "2,2") == (0, "-2\n", "")
    # thousands of parts answer, where a recursion per part would overflow
    def ones(n):
        return ",".join(["1"] * n)

    assert run(capsys, "kostka", "2000", ones(2000)) == (0, "1\n", "")
    assert run(capsys, "kostka", "1999,1", ones(2000)) == (0, "1999\n", "")
    assert run(capsys, "kostka", ones(1000), ones(1000)) == (0, "1\n", "")
    assert run(capsys, "dcoeff", ones(1200), ones(1200)) == (0, "1\n", "")
    hook = "2," + ones(1198)
    assert run(capsys, "dcoeff", hook, hook) == (0, "-1\n", "")
    assert run(capsys, "dcoeff", hook, "1200") == (0, "-1199\n", "")


def test_partition_parts_are_ascii_digits(capsys):
    # int() would read 1_0 as 10 and " +2" as 2
    for argv in (
        ["kostka", "1_0", "1,1,1,1,1,1,1,1,1,1"],
        ["kostka", " +2, 1", "1,1,1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv


def test_count(capsys):
    code, out, _ = run(capsys, "count", "-m", "12", "--ell", "3")
    assert code == 0 and out.strip() == str(220 - 66)
    # JSON with --ell has the shape of the full census
    code, out, _ = run(capsys, "count", "-m", "4", "--ell", "1", "--format", "json")
    assert (code, out) == (0, '{"m":4,"counts":[{"ell":1,"B":3}]}\n')
    code, out, _ = run(capsys, "count", "-m", "4", "--format", "json")
    census = json.loads(out)
    assert code == 0 and census["counts"][1] == {"ell": 1, "B": 3}
    assert run(capsys, "count", "-m", "4", "--ell", "1") == (0, "3\n", "")


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, err = run(capsys, "verify", "-m", "3", "--order", "cv", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["total_quotient_dim"] == 8
    # over F_p too (revlex over F_p: test_oracle.py)
    code, _, _ = run(capsys, "verify", "-m", "3", "--order", "lex", "--char", "5")
    assert code == 0


def test_verify_truncated(capsys):
    code, out, _ = run(capsys, "verify", "-m", "4", "--truncate", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == 2 and data["passed"] is True
    assert data["dims_total"] == data["basis_size"] == 9


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "-m", "3", "--poly", "x0*x2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coordinates"] == [{"monomial": [0, 2, 0], "coeff": "-1"}]


def test_truncate_subcommand(capsys):
    code, out, _ = run(capsys, "truncate", "-m", "4", "-N", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims_total"] == 5


def test_truncation_refuses_positive_characteristic(capsys):
    for argv in (
        ["truncate", "-m", "4", "-N", "1", "--char", "2"],
        ["verify", "-m", "4", "--truncate", "1", "--char", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "characteristic-0" in err, argv


def test_gens_json_provenance(capsys):
    code, out, _ = run(capsys, "gens", "-m", "1", "--max-degree", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["count"] == 2
    assert data["generators"][0]["terms"] == [{"coeff": "1", "monomial": [2]}]
    # family aliases resolve to the same payloads
    code1, out1, _ = run(capsys, "gens", "-m", "2", "--family", "gm", "--format", "json")
    code2, out2, _ = run(capsys, "gens", "-m", "2", "--family", "schur", "--format", "json")
    assert out1 == out2


def test_gens_srevlex_rejects_char(capsys):
    code, _, err = run(capsys, "gens", "-m", "2", "--family", "srevlex", "--char", "2")
    assert code == 2 and "characteristic" in err


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "basis", "-m", "2", "--order", "bogus")[0] == 2
    assert run(capsys, "kostka", "2,x", "1,1")[0] == 2
    assert run(capsys, "kostka", "2,1|+3z", "1,1,1")[0] == 2  # no padding suffix
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "count", "-m", "4", "--ell", "3")[0] == 2  # ell > m/2
    for verb in ("gens", "count", "dim"):
        code, out, err = run(capsys, verb, "-m", "-1")
        assert code == 2 and out == "" and "must be >= 0" in err, verb
    for argv in (
        ["gens", "-m", "3", "--max-weight", "-1"],
        ["gens", "-m", "3", "--max-degree", "-5"],
        ["dim", "-m", "3", "--max-degree", "-1"],
        ["verify", "-m", "3", "--max-degree", "-1"],
        ["truncate", "-m", "3", "-N", "1", "--max-degree", "-1"],
        ["selftest", "--max-m", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "must be >= 0" in err, argv
    for argv in (
        ["reduce", "-m", "2", "--poly=--x0"],  # a stray sign, once read as -x0
        ["dim", "-m", "3", "--output", str(tmp_path / "missing" / "x.txt")],
        # gens and basis stream, but open the file before the first byte
        ["gens", "-m", "3", "--output", str(tmp_path / "missing" / "x.txt")],
        ["gens", "-m", "3", "--format", "json", "--output", str(tmp_path / "missing" / "x")],
        ["basis", "-m", "4", "--format", "json", "--output", str(tmp_path / "missing" / "x")],
        # the Schur and forgotten families have fixed bounds
        ["gens", "-m", "3", "--family", "gm", "--max-degree", "2"],
        ["gens", "-m", "3", "--family", "srevlex", "--max-weight", "2"],
        # a truncated basis has its own order
        ["basis", "-m", "4", "--truncate", "2", "--order", "cv"],
        ["basis", "-m", "4", "--truncate", "2", "--order", "lex"],
        ["verify", "-m", "4", "--truncate", "2", "--order", "cv"],
        # the truncation level is at least 1
        ["truncate", "-m", "3", "-N", "0"],
        ["verify", "-m", "3", "--truncate", "0"],
        ["basis", "-m", "3", "--truncate", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv
    for argv in (
        ["dim", "-m", "5", "--max-degree", "3"],
        ["verify", "-m", "5", "--max-degree", "4"],
        ["truncate", "-m", "5", "-N", "2", "--max-degree", "4"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "degree_bound must be >= m = 5" in err, argv
    # below m = 2 criteria 5 and 9 would pass without checking a case
    for max_m in ("0", "1"):
        code, out, err = run(capsys, "selftest", "--max-m", max_m)
        assert code == 2 and out == "" and "--max-m must be >= 2" in err, max_m
    assert run(capsys, "reduce", "-m", "2", "--poly", "1/0") == (
        2, "", "error: bad polynomial '1/0' at position 0: zero denominator\n"
    )
    for char in ("2", "3"):
        assert run(capsys, "reduce", "-m", "2", "--char", char, "--poly", f"x1 + 1/{char}") == (
            2, "", f"error: bad polynomial 'x1+1/{char}' at position 2: "
            f"denominator not invertible mod {char}\n"
        )
    # a polynomial takes ASCII digits only: x\u0662 read as x2, \uff12 as 2
    for poly, factor in (("x\u0662", "x\u0662"), ("\uff12*x1", "\uff12")):
        assert run(capsys, "reduce", "-m", "3", "--poly", poly) == (
            2, "", f"error: bad monomial factor {factor!r}\n"
        )
    # the defining generators need the box m + 1
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "gens", "-m", "3", "--max-degree", "2", "--format", fmt)
        assert code == 2 and out == "" and "degree_bound must be >= m+1 = 4" in err, fmt


def test_an_engine_fault_is_not_a_usage_error(monkeypatch, capsys):
    # only ValueError and OSError are the user's: a KeyError or a
    # ZeroDivisionError from inside the engine is a bug and must surface as
    # one, not as exit 2
    for exc in (KeyError((3, 1)), ZeroDivisionError("division by zero")):
        def fault(*args, exc=exc):
            raise exc

        monkeypatch.setattr(basis_enum, "lex_basis", fault)
        with pytest.raises(type(exc)):
            main(["verify", "-m", "3"])
        assert capsys.readouterr().err == ""


def test_a_closed_stdout_exits_141_without_an_error(monkeypatch, capsys):
    # a reader that closes stdout early (`sl2weyl basis -m 14 | head -1`)
    # is not a usage error: no message, and exit 128 + SIGPIPE; the output
    # is several pipe buffers long, so the writer is still writing
    src = str(Path(sl2weyl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for fmt in ("text", "json"):
        argv = ["basis", "-m", "14", "--order", "cv", "--format", fmt]
        proc = subprocess.Popen(
            [sys.executable, "-m", "sl2weyl.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(1)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b""), fmt

    # a broken pipe on --output is an OSError like any other
    class Broken:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def writelines(self, chunks):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "open", lambda *args: Broken(), raising=False)
    assert run(capsys, "basis", "-m", "3", "--output", "pipe") == (
        2, "", "error: [Errno 32] Broken pipe\n"
    )


def test_output_file(tmp_path, capsys):
    path = tmp_path / "basis.json"
    code, out, _ = run(
        capsys, "basis", "-m", "2", "--format", "json", "--output", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["count"] == 4


def test_byte_identical_reruns(capsys):
    for argv in (
        ["basis", "-m", "3", "--order", "cv", "--format", "json"],
        ["dim", "-m", "2", "--format", "json"],
        ["gens", "-m", "3", "--format", "json"],
    ):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_verify_json_deterministic_modulo_elapsed(capsys):
    _, out1, _ = run(capsys, "verify", "-m", "2", "--format", "json")
    _, out2, _ = run(capsys, "verify", "-m", "2", "--format", "json")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
    assert d1 == d2


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "--max-m", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10 and all(l.startswith("PASS") for l in lines)


def test_selftest_stdout_is_byte_identical_across_runs(capsys):
    # criterion timings go to stderr; the second run reads warm caches, so
    # any time left on stdout would differ
    code1, out1, err1 = run(capsys, "selftest", "--max-m", "2")
    code2, out2, err2 = run(capsys, "selftest", "--max-m", "2")
    assert code1 == code2 == 0 and out1 == out2
    assert not re.search(r"\d\.\d+s", out1)
    assert len(err1.splitlines()) == len(err2.splitlines()) == 10
    assert all(line.endswith("s") for line in err1.splitlines())


# -- streamed output: the bytes of one json.dumps, the lines of one join --------


def _gens_reference(m, family, char, max_d=None, max_w=None):
    """(json, text) of `gens` built at once from the family."""
    ring = CoeffRing(char)
    if family == "y":
        max_d = m + 2 if max_d is None else max_d
        max_w = max_d * max(m - 1, 0) if max_w is None else max_w
        gs = weyl_ideal.defining_generators(m, ring, max_d, max_w)
    elif family == "gm":
        gs = weyl_ideal.schur_family(m, ring)
    else:
        gs = weyl_ideal.forgotten_family(m, ring)
    gens = []
    for e in gs.entries:
        kind, *rest = e.provenance
        if kind == "series":
            prov = {"family": gs.family, "uexp": list(rest[0]), "power": rest[1], "k": rest[2]}
        else:
            prov = {"family": gs.family, "partition": list(rest[0]), "k": rest[1]}
        gens.append({
            "degree": e.degree, "weight": e.weight, "provenance": prov,
            "terms": [{"coeff": str(c), "monomial": list(a)} for a, c in sorted(e.poly.terms.items())],
        })
    payload = {
        "m": m, "char": char, "family": gs.family, "degree_bound": gs.degree_bound,
        "weight_bound": gs.weight_bound, "count": len(gens), "generators": gens,
    }
    lines = [f"# m={m} char={char} family={gs.family} count={len(gens)}"]
    lines += [f"{e.provenance}\t{format_dpoly(e.poly)}" for e in gs.entries]
    return json.dumps(payload, separators=(",", ":")) + "\n", "\n".join(lines) + "\n"


def _basis_reference(m, order=None, trunc=None):
    """(json, text) of `basis` built at once from the basis set."""
    if trunc is None:
        bs = getattr(basis_enum, f"{order or 'lex'}_basis")(m)
    else:
        bs = basis_enum.truncated_basis(m, trunc)
    monos = bs.sorted_monomials()
    payload = {
        "m": m, "order": bs.provenance, "count": len(monos),
        "monomials": [list(a) for a in monos],
    }
    lines = [f"# m={m} order={bs.provenance} count={len(monos)}"]
    lines += [format_monomial(a) for a in monos]
    return json.dumps(payload, separators=(",", ":")) + "\n", "\n".join(lines) + "\n"


def _streamed_cases():
    for m in range(6):
        for char in (0, 3):
            yield ["gens", "-m", m, "--char", char], _gens_reference(m, "y", char)
            if m:
                yield (["gens", "-m", m, "--family", "gm", "--char", char],
                       _gens_reference(m, "gm", char))
        if m:
            yield ["gens", "-m", m, "--family", "srevlex"], _gens_reference(m, "srevlex", 0)
    for m in range(5):
        yield (["gens", "-m", m, "--max-degree", m + 3, "--max-weight", 2 * m, "--char", 3],
               _gens_reference(m, "y", 3, m + 3, 2 * m))
    for m in (0, 1, 4, 7):
        for order in ("lex", "revlex", "cv"):
            yield ["basis", "-m", m, "--order", order], _basis_reference(m, order)
        yield ["basis", "-m", m], _basis_reference(m)
        for n in sorted({1, 2, max(m, 1)}):
            yield ["basis", "-m", m, "--truncate", n], _basis_reference(m, trunc=n)


def test_streamed_output_is_one_dumps_and_one_join(capsys, tmp_path):
    path = tmp_path / "out.txt"
    for argv, (want_json, want_text) in _streamed_cases():
        argv = list(map(str, argv))
        for fmt, want in (("json", want_json), ("text", want_text)):
            assert run(capsys, *argv, "--format", fmt) == (0, want, ""), (argv, fmt)
            code, out, err = run(capsys, *argv, "--format", fmt, "--output", str(path))
            assert (code, out, err) == (0, "", "") and path.read_bytes() == want.encode(), (argv, fmt)


def test_gens_json_memory_does_not_grow_with_the_output(monkeypatch):
    # about 1.07 MB of JSON; built whole before writing, the payload and its
    # text peaked at 15.7 MiB traced (13.5 MiB with warm tables)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["gens", "-m", "5", "--max-degree", "7", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 6 << 20, peak


# -- text output, byte for byte -------------------------------------------------


def test_dim_text_output(capsys):
    code, out, err = run(capsys, "dim", "-m", "2")
    assert (code, out) == (0, (
        "# m=2 char=0 max_degree=4\n"
        "degree=0 weight=0 dim=1\n"
        "degree=1 weight=0 dim=1\n"
        "degree=1 weight=1 dim=1\n"
        "degree=2 weight=0 dim=1\n"
        "total=4\n"
    ))
    assert re.fullmatch(r"elapsed_seconds=\d+\.\d{3}\n", err)
    code, out, _ = run(capsys, "dim", "-m", "3", "--char", "2", "--max-degree", "3")
    assert (code, out) == (0, (
        "# m=3 char=2 max_degree=3\n"
        "degree=0 weight=0 dim=1\n"
        "degree=1 weight=0 dim=1\ndegree=1 weight=1 dim=1\ndegree=1 weight=2 dim=1\n"
        "degree=2 weight=0 dim=1\ndegree=2 weight=1 dim=1\ndegree=2 weight=2 dim=1\n"
        "degree=3 weight=0 dim=1\n"
        "total=8\n"
    ))


def test_reduce_text_output(capsys):
    # x1^(2) is not a revlex monomial: x1^(2) = -x0*x2 in the quotient
    argv = ["reduce", "-m", "3", "--order", "revlex", "--poly", "x0*x2 + 1/2*x1^(2) + x0^(3)"]
    assert run(capsys, *argv) == (0, "1/2\tx0*x2\n1\tx0^(3)\n", "")
    # an element of the ideal prints a bare 0
    assert run(capsys, "reduce", "-m", "3", "--poly", "x0*x2 + x1^(2)") == (0, "0\n", "")
    argv = ["reduce", "-m", "4", "--order", "cv", "--char", "3",
            "--poly", "x0*x3 + 2*x1^(2)*x2 + x0^(3)"]
    assert run(capsys, *argv) == (0, "1\tx0*x3\n1\tx0^(3)\n", "")
    # over F_2 the revlex monomial x0^(2)*x3 sits on a pivot lead of its
    # slice, so its reduction runs the packed residue and the overlay solver
    argv = ["reduce", "-m", "4", "--order", "revlex", "--char", "2", "--poly", "x0^(2)*x3"]
    assert run(capsys, *argv) == (0, "1\tx0^(2)*x3\n", "")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_a_deep_one_shot_reduce_over_f2_stays_linear_in_its_box():
    # over F_p the one-shot box is as deep as the element: 66,049 slices
    # for x0^(256) at m = 3 over F_2.  Each slice describes its lower
    # slices once, by its own entries, so the box stays linear in its size
    # (498 MiB of peak RSS when every slice also kept a bitmask over the
    # whole plan).  The child reads its own peak: RUSAGE_CHILDREN reports
    # the parent's RSS from before the exec
    code = (
        "import sys\n"
        "from sl2weyl.cli import main\n"
        "code = main(['reduce', '-m', '3', '--char', '2', '--poly', 'x0^(256)'])\n"
        "status = open('/proc/self/status').read()\n"
        "sys.stderr.write(status.split('VmHWM:')[1].split()[0])\n"
        "sys.exit(code)\n"
    )
    src = str(Path(sl2weyl.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr
    assert int(proc.stderr) <= 300 * 1024  # kB


def test_truncate_text_output(capsys):
    assert run(capsys, "truncate", "-m", "4", "-N", "2") == (0, (
        "m=4\nchar=0\ntruncation=2\ndims_total=9\nbasis_size=9\npassed=True\n"
    ), "")


def test_count_text_output_without_ell(capsys):
    assert run(capsys, "count", "-m", "6") == (0, "ell=0 B=1\nell=1 B=5\nell=2 B=9\nell=3 B=5\n", "")


def test_verify_text_output_names_the_failing_slices(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "-m", "2")
    assert (code, out) == (0, (
        "# m=2 char=0 order=lex max_degree=4\nslices_checked=15\n"
        "total_quotient_dim=4\ntotal_candidates=4\nPASS\n"
    ))
    assert re.fullmatch(r"elapsed_seconds=\d+\.\d{3}\n", err)
    # x1^(2) dropped (short in slice (2, 2)), x2^(3) of the ideal added
    lex = basis_enum.lex_basis(3)
    bad = basis_enum.BasisSet(3, "lex", lex.monomials - {(0, 2, 0)} | {(0, 0, 3)})
    monkeypatch.setattr("sl2weyl.cli._basis_for", lambda m, order, trunc: bad)
    code, out, err = run(capsys, "verify", "-m", "3")
    assert (code, out) == (1, (
        "# m=3 char=0 order=lex max_degree=5\nslices_checked=36\n"
        "total_quotient_dim=8\ntotal_candidates=8\n"
        "FAIL degree=2 weight=2 quotient_dim=1 candidates=0\n"
        "FAIL degree=3 weight=6 quotient_dim=0 candidates=1\n"
        "FAIL\n"
    ))
    assert re.fullmatch(r"elapsed_seconds=\d+\.\d{3}\n", err)
