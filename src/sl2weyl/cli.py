"""Command-line front end.  Every payload is exact (integers or rational
strings); output is byte-identical across runs except for the clearly marked
elapsed-seconds field in verification reports.  Timings in text mode (the
elapsed seconds of `dim` and `verify`, the criterion times of `selftest`) go
to stderr.

Output goes through one writer, `_write`, to stdout or `--output`, which
writes each chunk as soon as it is formatted, so memory does not grow with
the size of the output.  `gens` and `basis` format their text lines, or
the items of their JSON list, a small batch at a time; the JSON is still
the bytes of `json.dumps(payload, separators=(",", ":"))`.  Every command
computes and validates its whole result before the first byte, so a usage
error or an unopenable `--output` path leaves no output; an OSError in the
middle of writing leaves what was written before it.

Exit codes: 0 success, 1 a verification that fails, 2 a usage error or an
OSError (a write to `--output` included), and 141 (128 + SIGPIPE) when the
reader of stdout closes it early, as `sl2weyl basis -m 12 | head -1` does,
with no error message."""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import islice

from . import basis_enum, quotient_oracle, symfunc, weyl_ideal
from .dpalgebra import CoeffRing, format_dpoly, format_monomial, parse_dpoly
from .partitions import parse_partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141
# text lines per write, and JSON list items per encoder call and write, of
# a streamed output: a chunk per line or item would cost a Python-level
# call per line, and a system call where stdout is unbuffered
# (PYTHONUNBUFFERED); a JSON item of `gens` can be a few kB
_LINE_BATCH = 256
_JSON_BATCH = 16

_FAMILIES = {
    "y": "defining",
    "defining": "defining",
    "gm": "schur",
    "schur": "schur",
    "srevlex": "forgotten",
    "forgotten": "forgotten",
}


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _truncated_quotient(m: int, n: int, ring: CoeffRing, bound: int):
    # over F_p the plain-variable quotient exceeds the truncated basis
    # (README, Conventions), so a PASS/FAIL there would answer no theorem
    if ring.char:
        raise ValueError("truncation is a characteristic-0 statement; use --char 0")
    return quotient_oracle.truncated_quotient(m, n, ring, bound)


def _degree_bound(args) -> int:
    """The degree box: --max-degree, by default m + 2."""
    return args.m + 2 if args.max_degree is None else args.max_degree


def _write(args, chunks) -> None:
    """Write the text chunks and a final newline to --output, or else to
    stdout, each as the iterable yields it.  The file is opened before the
    first chunk is formatted.  Stdout is flushed, so a closed pipe is seen
    here and not at exit."""
    path = getattr(args, "output", None)
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)
        fh.write("\n")
        fh.flush()


def _emit(args, text: str) -> None:
    _write(args, (text,))


def _emit_lines(args, first: str, rest) -> None:
    """The line `first`, then the lines of `rest` as the iterable yields
    them, _LINE_BATCH to a chunk: the bytes of "\\n".join([first, *rest])
    and a newline."""
    def chunks():
        yield first
        lines = iter(rest)
        while batch := list(islice(lines, _LINE_BATCH)):
            yield "\n" + "\n".join(batch)

    _write(args, chunks())


def _emit_json(args, payload: dict, key=None, items=()) -> None:
    """The bytes of json.dumps(payload, separators=(",", ":")); with `key`,
    of the (nonempty) payload with the last field key: list(items), its
    items encoded and written a batch at a time as the iterable yields
    them."""
    # imported here so that text output never loads json
    import json

    encode = json.JSONEncoder(separators=(",", ":")).encode
    text = encode(payload)
    if key is None:
        _emit(args, text)
        return

    def chunks():
        yield f"{text[:-1]},{encode(key)}:["
        # a list encodes as its items joined by commas in brackets, so a
        # batch per encoder call gives the same bytes
        rest = iter(items)
        sep = ""
        while batch := list(islice(rest, _JSON_BATCH)):
            yield sep + encode(batch)[1:-1]
            sep = ","
        yield "]}"

    _write(args, chunks())


def _basis_order(args) -> str:
    """The --order of `basis` and `verify`: lex when left out, and refused
    next to --truncate, whose basis has its own order."""
    if args.order is not None and args.truncate is not None:
        raise ValueError("--order does not apply with --truncate")
    return args.order or "lex"


def _basis_for(m: int, order: str, trunc) -> basis_enum.BasisSet:
    if trunc is not None:
        return basis_enum.truncated_basis(m, trunc)
    builder = {
        "lex": basis_enum.lex_basis,
        "revlex": basis_enum.revlex_basis,
        "cv": basis_enum.cv_basis,
    }[order]
    return builder(m)


def cmd_basis(args) -> int:
    bs = _basis_for(args.m, _basis_order(args), args.truncate)
    monos = bs.sorted_monomials()
    if args.format == "json":
        _emit_json(
            args, {"m": args.m, "order": bs.provenance, "count": len(monos)},
            "monomials", map(list, monos),
        )
    else:
        _emit_lines(
            args, f"# m={args.m} order={bs.provenance} count={len(monos)}",
            map(format_monomial, monos),
        )
    return EXIT_OK


def cmd_gens(args) -> int:
    ring = CoeffRing(args.char)
    family = _FAMILIES[args.family]
    if family != "defining" and (args.max_degree is not None or args.max_weight is not None):
        # the Schur and forgotten families have fixed bounds
        raise ValueError(f"--max-degree and --max-weight apply to the defining family only, "
                         f"not to {args.family}")
    if family == "defining":
        max_d = _degree_bound(args)
        max_w = args.max_weight if args.max_weight is not None else max_d * max(args.m - 1, 0)
        gs = weyl_ideal.defining_generators(args.m, ring, max_d, max_w)
    elif family == "schur":
        gs = weyl_ideal.schur_family(args.m, ring)
    else:
        gs = weyl_ideal.forgotten_family(args.m, ring)
    if args.format == "json":
        _emit_json(
            args, {
                "m": args.m, "char": ring.char, "family": gs.family,
                "degree_bound": gs.degree_bound, "weight_bound": gs.weight_bound,
                "count": len(gs.entries),
            },
            "generators", (_generator_record(gs.family, e) for e in gs.entries),
        )
    else:
        _emit_lines(
            args, f"# m={args.m} char={ring.char} family={gs.family} count={len(gs.entries)}",
            (f"{e.provenance}\t{format_dpoly(e.poly)}" for e in gs.entries),
        )
    return EXIT_OK


def _generator_record(family: str, e) -> dict:
    """The JSON record of one generator entry."""
    prov: dict = {"family": family}
    if e.provenance[0] == "series":
        prov.update(uexp=list(e.provenance[1]), power=e.provenance[2], k=e.provenance[3])
    else:
        prov.update(partition=list(e.provenance[1]), k=e.provenance[2])
    return {
        "degree": e.degree, "weight": e.weight, "provenance": prov,
        "terms": [
            {"coeff": str(c), "monomial": list(a)} for a, c in sorted(e.poly.terms.items())
        ],
    }


def cmd_dim(args) -> int:
    ring = CoeffRing(args.char)
    bound = _degree_bound(args)
    report = quotient_oracle.OracleSession(args.m, ring, bound).dims()
    if args.format == "json":
        _emit_json(args, {
            "m": args.m, "char": ring.char, "max_degree": bound,
            "slices": [
                {"degree": d, "weight": w, "dim": q}
                for (d, w), q in sorted(report.dims.items()) if q
            ],
            "total": report.total,
        })
    else:
        lines = [f"# m={args.m} char={ring.char} max_degree={bound}"]
        for (d, w), q in sorted(report.dims.items()):
            if q:
                lines.append(f"degree={d} weight={w} dim={q}")
        lines.append(f"total={report.total}")
        _emit(args, "\n".join(lines))
        print(f"elapsed_seconds={report.elapsed_seconds:.3f}", file=sys.stderr)
    return EXIT_OK


def _verification_payload(report) -> dict:
    return {
        "m": report.m, "char": report.char, "order": report.provenance,
        "max_degree": report.degree_bound,
        "slices": [
            {"degree": s.degree, "weight": s.weight, "slice_dim": s.slice_dim,
             "quotient_dim": s.quotient_dim, "candidates": s.candidate_count,
             "independent": s.independent, "spanning": s.spanning}
            for s in report.slices
        ],
        "total_quotient_dim": report.total_quotient_dim,
        "total_candidates": report.total_candidates,
        "passed": report.passed,
        "elapsed_seconds": report.elapsed_seconds,  # excluded from golden tests
    }


def cmd_verify(args) -> int:
    ring = CoeffRing(args.char)
    bound = _degree_bound(args)
    order = _basis_order(args)
    if args.truncate is not None:
        report = _truncated_quotient(args.m, args.truncate, ring, bound)
    else:
        basis = _basis_for(args.m, order, None)
        report = quotient_oracle.OracleSession(args.m, ring, bound).verify_basis(basis)
    payload = _verification_payload(report)
    if args.truncate is not None:
        payload.update(
            truncation=args.truncate, dims_total=report.total_quotient_dim,
            basis_size=report.total_candidates,
        )
    ok = report.passed
    if args.format == "json":
        _emit_json(args, payload)
    else:
        failing = [s for s in payload["slices"] if not (s["independent"] and s["spanning"])]
        lines = [
            f"# m={args.m} char={ring.char} order={payload['order']} max_degree={bound}",
            f"slices_checked={len(payload['slices'])}",
            f"total_quotient_dim={payload['total_quotient_dim']}",
            f"total_candidates={payload['total_candidates']}",
        ]
        for s in failing:
            lines.append(
                f"FAIL degree={s['degree']} weight={s['weight']} "
                f"quotient_dim={s['quotient_dim']} candidates={s['candidates']}"
            )
        lines.append("PASS" if ok else "FAIL")
        _emit(args, "\n".join(lines))
        print(f"elapsed_seconds={payload['elapsed_seconds']:.3f}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_reduce(args) -> int:
    ring = CoeffRing(args.char)
    f = parse_dpoly(args.poly, args.m, ring)
    bs = _basis_for(args.m, args.order, None)
    coords = quotient_oracle.reduce_element(f, args.m, ring, bs)
    items = sorted(coords.items())
    if args.format == "json":
        _emit_json(args, {
            "m": args.m, "char": ring.char, "poly": args.poly,
            "basis": bs.provenance,
            "coordinates": [
                {"monomial": list(a), "coeff": str(c)} for a, c in items
            ],
        })
    else:
        lines = [f"{c}\t{format_monomial(a)}" for a, c in items] or ["0"]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_kostka(args) -> int:
    lam, mu = parse_partition(args.lam), parse_partition(args.mu)
    _emit(args, str(symfunc.kostka(lam, mu)))
    return EXIT_OK


def cmd_dcoeff(args) -> int:
    lam, mu = parse_partition(args.lam), parse_partition(args.mu)
    _emit(args, str(symfunc.forgotten_coeff(lam, mu)))
    return EXIT_OK


def cmd_count(args) -> int:
    ells = range(args.m // 2 + 1) if args.ell is None else (args.ell,)
    rows = [(ell, basis_enum.count_B(args.m, ell)) for ell in ells]
    if args.format == "json":
        _emit_json(args, {"m": args.m, "counts": [{"ell": l, "B": b} for l, b in rows]})
    elif args.ell is not None:
        _emit(args, str(rows[0][1]))
    else:
        _emit(args, "\n".join(f"ell={l} B={b}" for l, b in rows))
    return EXIT_OK


def cmd_truncate(args) -> int:
    ring = CoeffRing(args.char)
    bound = _degree_bound(args)
    report = _truncated_quotient(args.m, args.n, ring, bound)
    payload = {
        "m": args.m, "char": ring.char, "truncation": args.n,
        "dims_total": report.total_quotient_dim, "basis_size": report.total_candidates,
        "passed": report.passed,
    }
    if args.format == "json":
        _emit_json(args, payload)
    else:
        _emit(args, "\n".join(f"{k}={v}" for k, v in payload.items()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_selftest(args) -> int:
    """Run every acceptance criterion capped at m = args.max_m."""
    from .acceptance import run_all

    # criteria 5 (1 <= N < m) and 9 (m from 4 up to max_m + 2) check
    # nothing below 2
    if args.max_m < 2:
        raise ValueError(f"--max-m must be >= 2, got {args.max_m}")
    failures = run_all(max_m=args.max_m)
    print(f"selftest: {'OK' if failures == 0 else f'{failures} criterion(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sl2weyl",
        description="exact bases and verification for sl2 local Weyl modules",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, char=True, fmt=True, out=True):
        if char:
            p.add_argument("--char", type=int, default=0, help="prime characteristic (0 = rationals)")
        if fmt:
            p.add_argument("--format", choices=["text", "json"], default="text")
        if out:
            p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("basis", help="enumerate a monomial basis")
    p.add_argument("-m", type=_nonnegative_int, required=True)
    p.add_argument("--order", choices=["lex", "revlex", "cv"], default=None,
                   help="default lex; not with --truncate")
    p.add_argument("--truncate", type=int, default=None, metavar="N")
    common(p, char=False)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("gens", help="list ideal generators")
    p.add_argument("-m", type=_nonnegative_int, required=True)
    p.add_argument("--family", choices=sorted(_FAMILIES), default="y")
    p.add_argument("--max-degree", type=_nonnegative_int, default=None)
    p.add_argument("--max-weight", type=_nonnegative_int, default=None)
    common(p)
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("dim", help="graded quotient dimensions")
    p.add_argument("-m", type=_nonnegative_int, required=True)
    p.add_argument("--max-degree", type=_nonnegative_int, default=None)
    common(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("verify", help="verify a candidate basis against the quotient")
    p.add_argument("-m", type=_nonnegative_int, required=True)
    p.add_argument("--order", choices=["lex", "revlex", "cv"], default=None,
                   help="default lex; not with --truncate")
    p.add_argument("--truncate", type=int, default=None, metavar="N")
    p.add_argument("--max-degree", type=_nonnegative_int, default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="coordinates of a polynomial in a verified basis")
    p.add_argument("-m", type=_nonnegative_int, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--order", choices=["lex", "revlex", "cv"], default="lex")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("kostka", help="Kostka number K[lam, mu]")
    p.add_argument("lam")
    p.add_argument("mu")
    common(p, char=False, fmt=False)
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("dcoeff", help="signed forgotten/monomial multiplicity D[lam, mu]")
    p.add_argument("lam")
    p.add_argument("mu")
    common(p, char=False, fmt=False)
    p.set_defaults(func=cmd_dcoeff)

    p = sub.add_parser("count", help="low-half census B[m, ell]")
    p.add_argument("-m", type=_nonnegative_int, required=True)
    p.add_argument("--ell", type=int, default=None)
    common(p, char=False)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("truncate", help="truncated quotient vs truncated basis")
    p.add_argument("-m", type=_nonnegative_int, required=True)
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--max-degree", type=_nonnegative_int, default=None)
    common(p)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("selftest", help="run the acceptance checks at desk scale")
    p.add_argument("--max-m", type=_nonnegative_int, default=4)
    common(p, char=False, fmt=False, out=False)
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, KeyError, ZeroDivisionError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and not getattr(args, "output", None):
            # the reader of stdout is gone: point stdout at the null device
            # so the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
