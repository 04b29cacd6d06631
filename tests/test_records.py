"""The value records (`sl2weyl._record`) and the cold-start imports.

Pins what the one record class promises to every record: equality by class
and fields, hashes of the records whose fields all hash, the repr text,
refusal of assignment and deletion, sequence fields kept as tuples, and
`CoeffRing` as one object per characteristic.
The import checks run in a fresh interpreter, because the test process has
long loaded what they look for.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import sl2weyl
from sl2weyl._record import Record
from sl2weyl.basis_enum import BasisSet, lex_basis
from sl2weyl.dpalgebra import RATIONALS, CoeffRing, DPoly
from sl2weyl.quotient_oracle import (
    DimReport,
    GradedSlice,
    OracleSession,
    SliceReport,
    VerificationReport,
)
from sl2weyl.weyl_ideal import GeneratorEntry, GeneratorSet, schur_family

F3 = CoeffRing(3)
X1 = DPoly.variable(F3, 2, 1)
ENTRY = GeneratorEntry(X1, ("schur", (1,), 1), 1, 1)
SLICE = SliceReport(1, 1, 2, 1, 1, True, True)
SLICE_ROW = (1, 1, 2, 1, 1, True, True)
VERIFY = VerificationReport(1, 0, "lex", 3, [SLICE_ROW], 0.5)

# (builder of a fresh record, a record of the same class differing in one
# field, its field names in order, its repr)
RECORDS = [
    (
        lambda: BasisSet(1, "lex", frozenset({(0,), (1,)})),
        BasisSet(1, "revlex", frozenset({(0,), (1,)})),
        ("m", "provenance", "monomials"),
        "BasisSet(m=1, provenance='lex', monomials=frozenset({(0,), (1,)}))",
    ),
    (
        lambda: GeneratorEntry(X1, ("schur", (1,), 1), 1, 1),
        GeneratorEntry(X1, ("schur", (1,), 1), 1, 2),
        ("poly", "provenance", "degree", "weight"),
        "GeneratorEntry(poly=DPoly(F_3, m=2, x1), provenance=('schur', (1,), 1), "
        "degree=1, weight=1)",
    ),
    (
        lambda: SliceReport(1, 1, 2, 1, 1, True, True),
        SliceReport(1, 1, 2, 1, 1, True, False),
        (
            "degree", "weight", "slice_dim", "quotient_dim", "candidate_count",
            "independent", "spanning",
        ),
        "SliceReport(degree=1, weight=1, slice_dim=2, quotient_dim=1, "
        "candidate_count=1, independent=True, spanning=True)",
    ),
    (
        lambda: GradedSlice(2, F3, 1, 1, ((0, 1),), ((1,),)),
        GradedSlice(2, RATIONALS, 1, 1, ((0, 1),), ((1,),)),
        ("m", "ring", "degree", "weight", "monomials", "ideal_rows"),
        "GradedSlice(m=2, ring=CoeffRing(char=3), degree=1, weight=1, "
        "monomials=((0, 1),), ideal_rows=((1,),))",
    ),
    (
        lambda: GeneratorSet(2, F3, "schur", [ENTRY], 3, 3),
        GeneratorSet(2, F3, "schur", [ENTRY], 3, 4),
        ("m", "ring", "family", "entries", "degree_bound", "weight_bound"),
        "GeneratorSet(m=2, ring=CoeffRing(char=3), family='schur', entries=("
        "GeneratorEntry(poly=DPoly(F_3, m=2, x1), provenance=('schur', (1,), 1), "
        "degree=1, weight=1),), degree_bound=3, weight_bound=3)",
    ),
    (
        lambda: DimReport(1, 0, 3, {(0, 0): 1, (1, 0): 1}, 0.0),
        DimReport(1, 0, 3, {(0, 0): 1, (1, 0): 1}, 0.25),
        ("m", "char", "degree_bound", "dims", "elapsed_seconds"),
        "DimReport(m=1, char=0, degree_bound=3, dims={(0, 0): 1, (1, 0): 1}, "
        "elapsed_seconds=0.0)",
    ),
    (
        lambda: VerificationReport(2, 3, "cv", 4, (), 0.0),
        VerificationReport(2, 3, "lex", 4, (), 0.0),
        ("m", "char", "provenance", "degree_bound", "rows", "elapsed_seconds"),
        "VerificationReport(m=2, char=3, provenance='cv', degree_bound=4, "
        "rows=(), elapsed_seconds=0.0)",
    ),
    (
        lambda: VerificationReport(1, 0, "lex", 3, [SLICE_ROW], 0.5),
        VerificationReport(1, 0, "lex", 3, [SLICE_ROW], 0.25),
        ("m", "char", "provenance", "degree_bound", "rows", "elapsed_seconds"),
        "VerificationReport(m=1, char=0, provenance='lex', degree_bound=3, "
        "rows=((1, 1, 2, 1, 1, True, True),), elapsed_seconds=0.5)",
    ),
]
ROW = "make, other, fields, text"
# the records with a dict among their fields (DimReport.dims)
UNHASHABLE = (DimReport,)
# the record classes outside RECORDS, each with the reason the matrix
# cannot hold it
EXEMPT = {
    "CoeffRing": "one interned object per characteristic, equal and hashed by "
    "identity; test_coeff_ring_is_one_object_per_characteristic checks it",
    "_PlanSlice": "the engine's per-box plan entry, whose verdicts, masks and "
    "shifts fill in as sessions run; never compared, hashed or pickled, and "
    "test_oracle.py checks its fields against their definitions",
}


@pytest.mark.parametrize(ROW, RECORDS)
def test_equality_by_class_and_fields_and_repr(make, other, fields, text):
    record, twin = make(), make()
    assert twin is not record and twin == record and not twin != record
    assert record != other
    assert record != tuple(getattr(record, n) for n in fields)
    assert type(record)(*(getattr(record, n) for n in fields)) == record
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize(ROW, RECORDS)
def test_frozen_records_hash_refuse_assignment_and_are_weakly_referenced(
    make, other, fields, text
):
    record = make()
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(make()) == hash(record)
        assert len({record, make(), other}) == 2
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == make()
    assert weakref.ref(record)() is record


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_every_record_class_is_in_the_matrix_or_exempt_with_a_reason():
    # a new record cannot skip the equality, hash, repr, pickle and
    # assignment checks above
    for info in pkgutil.iter_modules(sl2weyl.__path__):
        importlib.import_module(f"sl2weyl.{info.name}")
    checked = {type(make()) for make, *_ in RECORDS}
    for cls in _record_classes():
        if cls not in checked:
            assert EXEMPT.get(cls.__qualname__), f"{cls.__module__}.{cls.__qualname__}"
    assert {cls.__qualname__ for cls in _record_classes()} >= EXEMPT.keys()


@pytest.mark.parametrize(ROW, RECORDS)
def test_a_wrong_field_count_raises_type_error_naming_the_class(make, other, fields, text):
    record = make()
    cls = type(record)
    values = [getattr(record, n) for n in fields]
    with pytest.raises(TypeError, match=cls.__qualname__):
        cls(*values, None)
    with pytest.raises(TypeError, match=cls.__qualname__):
        cls(*values[:-1])


def test_sequence_fields_are_tuples_and_every_field_refuses_assignment():
    # families and reports are built once, from finished data: the builders
    # collect lists, the records keep tuples
    gens = schur_family(2, F3)
    report = OracleSession(2, F3, 3).verify_basis(lex_basis(2))
    assert report.passed and report.total_candidates == 4
    given = GeneratorSet(2, F3, "schur", [ENTRY], 3, 3)
    assert given.entries == (ENTRY,) and VERIFY.slices == (SLICE,)
    for record, seq in (
        (gens, gens.entries), (given, given.entries),
        (report, report.rows), (VERIFY, VERIFY.rows),
    ):
        assert type(seq) is tuple and seq
        for name in (*record._fields, "_index"):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name, None))
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_report_totals_and_verdicts_derive_from_their_fields():
    # what a report derives is a property: it cannot disagree with the fields
    dims = DimReport(1, 0, 3, {(0, 0): 1, (1, 0): 1, (2, 0): 0}, 0.0)
    assert isinstance(DimReport.total, property) and dims.total == 2
    failing = VerificationReport(1, 0, "lex", 3, [SLICE_ROW, (2, 0, 1, 1, 0, True, False)], 0.0)
    assert (failing.passed, failing.total_quotient_dim, failing.total_candidates) == (False, 2, 1)
    for name in ("total", "slices", "passed", "total_quotient_dim", "total_candidates"):
        record = dims if name == "total" else failing
        assert name not in record._fields
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_generator_set_index_stays_out_of_equality_and_repr():
    gs = GeneratorSet(2, F3, "schur", [ENTRY], 3, 3)
    fresh = GeneratorSet(2, F3, "schur", [ENTRY], 3, 3)
    index = gs.by_slice()
    assert index == {(1, 1): [X1]} and gs.by_slice() is index
    assert gs._index is index and fresh._index is None
    assert gs == fresh and repr(gs) == repr(fresh) and hash(gs) == hash(fresh)


def test_coeff_ring_is_one_object_per_characteristic():
    assert CoeffRing(3) is CoeffRing(3) is F3
    assert CoeffRing(0) is CoeffRing() is RATIONALS
    assert CoeffRing(2) != CoeffRing(3) and CoeffRing(5) == CoeffRing(5)
    assert {CoeffRing(p) for p in (0, 2, 3, 0, 2)} == {RATIONALS, CoeffRing(2), F3}
    for ring in (RATIONALS, CoeffRing(2), F3):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(ring, protocol)) is ring
        assert copy.deepcopy(ring) is ring and copy.copy(ring) is ring
        assert copy.deepcopy([ring])[0] is ring
    assert repr(F3) == "CoeffRing(char=3)" and str(F3) == "F_3" and str(RATIONALS) == "QQ"
    with pytest.raises(AttributeError):
        F3.char = 5
    assert F3.char == 3
    for bad in (4, -2, 1, 9):
        with pytest.raises(ValueError, match="characteristic must be 0 or prime"):
            CoeffRing(bad)


# -- cold-start imports -----------------------------------------------------------


def _fresh_python(code: str) -> str:
    """stdout of `python -S -c code` with the package source on the path."""
    src = str(Path(sl2weyl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


HEAVY = ("dataclasses", "inspect", "json")


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    out = _fresh_python(
        "import sys, sl2weyl.cli\n"
        f"print(sorted(n for n in {HEAVY!r} if n in sys.modules))"
    )
    assert out.strip() == "[]"


def test_text_output_never_loads_json():
    out = _fresh_python(
        "import io, sys, contextlib\n"
        "from sl2weyl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "    code = main(['dim', '-m', '3'])\n"
        "print(code, buf.getvalue().splitlines()[-1], 'json' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['dim', '-m', '3', '--format', 'json'])\n"
        "print('json' in sys.modules)"
    )
    assert out.split() == ["0", "total=8", "False", "True"]
