"""Span tracing around sl2weyl's public functions, installed from outside.

`Tracer.install()` replaces each traced function by a wrapper on every
sl2weyl module that binds it (`quotient_oracle` and `weyl_ideal` import
`enumerate_partitions`, `kostka`, `truncated_basis`, ... by name), and the
traced methods on `OracleSession`.  A span's parent is the span open when it
starts, so a span's self time is its duration minus that of its children;
recursive calls (`OracleSession.space` asks for lower slices) nest the same
way.  Spans are folded into per-name totals as they close, because the
symmetric-function layer opens hundreds of thousands of them; the
(parent, child) call counts keep the parent links.  `uninstall()` puts the
original objects back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name); every binding of the function is wrapped
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("weyl_ideal", "defining_generators", "weyl_ideal.defining_generators"),
    ("weyl_ideal", "schur_family", "weyl_ideal.schur_family"),
    ("weyl_ideal", "forgotten_family", "weyl_ideal.forgotten_family"),
    ("symfunc", "kostka", "symfunc.kostka"),
    ("symfunc", "forgotten_coeff", "symfunc.forgotten_coeff"),
    ("partitions", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("quotient_oracle", "slice_monomials", "quotient_oracle.slice_monomials"),
    ("quotient_oracle", "truncated_quotient", "quotient_oracle.truncated_quotient"),
    ("basis_enum", "lex_basis", "basis_enum"),
    ("basis_enum", "revlex_basis", "basis_enum"),
    ("basis_enum", "cv_basis", "basis_enum"),
    ("basis_enum", "truncated_basis", "basis_enum"),
    ("dpalgebra", "parse_dpoly", "dpalgebra.parse_dpoly"),
]

# OracleSession methods
METHODS = [
    ("__init__", "quotient_oracle.session_init"),
    ("space", "quotient_oracle.space"),
    ("verify_basis", "quotient_oracle.verify_basis"),
    ("reduce_element", "quotient_oracle.reduce_element"),
]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds] per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.counts: Counter = Counter()
        self._undo: list = []
        self._slices = weakref.WeakKeyDictionary()  # session -> slices seen

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1][0] if self.stack else None
        self.edges[(parent, name)] += 1
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, dt):
        self.stack.pop()
        name = frame[0]
        self.self_s[name] += dt - frame[1]
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += dt

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, perf_counter() - t0)
            if after is not None:
                after(result, args)
            return result

        return traced

    @contextmanager
    def span(self, name):
        frame = self._enter(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, perf_counter() - t0)

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {
            short: importlib.import_module(f"sl2weyl.{short}")
            for short in {m for m, _, _ in FUNCTIONS}
        }
        qo = mods["quotient_oracle"]
        slice_monomials = qo.slice_monomials
        after = {
            "weyl_ideal.defining_generators": self._count_generators,
            "quotient_oracle.space": functools.partial(
                self._count_slice, slice_monomials
            ),
            "quotient_oracle.reduce_element": self._count_terms,
        }
        bound = [
            mod for name, mod in list(sys.modules.items())
            if name == "sl2weyl" or name.startswith("sl2weyl.")
        ]
        for short, fname, span in FUNCTIONS:
            orig = getattr(mods[short], fname)
            wrapper = self.wrap(span, orig, after.get(span))
            for mod in bound:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        cls = qo.OracleSession
        for meth, span in METHODS:
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(span, orig, after.get(span)))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- counters ----------------------------------------------------------

    def _count_generators(self, gens, args):
        self.counts["weyl_ideal.generators.n"] += len(gens.entries)

    def _count_slice(self, slice_monomials, ech, args):
        session, d, w = args
        seen = self._slices.setdefault(session, set())
        if (d, w) not in seen:
            seen.add((d, w))
            self.counts["quotient_oracle.space.n"] += 1
            self.counts["quotient_oracle.rank.n"] += ech.rank
            self.counts["quotient_oracle.box.n"] += len(slice_monomials(session.m, d, w))

    def _count_terms(self, coords, args):
        self.counts["quotient_oracle.reduce_element.terms.n"] += len(args[1].terms)

    # -- totals ------------------------------------------------------------

    def totals(self) -> dict:
        """JSON-ready totals; mergeable with `merge`."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
        }


def merge(into: dict, part: dict) -> dict:
    for key in ("self_s", "calls", "counts"):
        bucket = into.setdefault(key, {})
        for name, v in part[key].items():
            bucket[name] = bucket.get(name, 0) + v
    edges = {(p, c): n for p, c, n in into.get("edges", [])}
    for p, c, n in part["edges"]:
        edges[(p, c)] = edges.get((p, c), 0) + n
    into["edges"] = [[p, c, n] for (p, c), n in edges.items()]
    return into
