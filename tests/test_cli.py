import json
import re

from sl2weyl.cli import main


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
        # the Schur and forgotten families have fixed bounds
        ["gens", "-m", "3", "--family", "gm", "--max-degree", "2"],
        ["gens", "-m", "3", "--family", "srevlex", "--max-weight", "2"],
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
