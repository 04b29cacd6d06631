"""Rewrite golden.json from the sl2weyl tree next to this directory.

    python3 perfbench/record_golden.py

Records, at both benchmark scales, the sha256 of the stdout of every
seed-independent cold-cli call and the coordinates of every monomial of
degree <= m outside the reduce-stream bases.  Run it only on a tree whose
answers are trusted (the commit that introduced the benchmark); afterwards
the benchmark holds every later tree to these answers.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import workloads


def cli_digests(m: int) -> dict:
    out = {}
    for argv, extra in workloads.fixed_cli_ops(m):
        _, proc = workloads.run_child(workloads.cli_cmd(argv, traced=False))
        if proc is None or proc.returncode:
            raise SystemExit(f"{' '.join(argv)} failed")
        error = extra(proc.stdout.decode()) if extra else None
        if error:
            raise SystemExit(f"{' '.join(argv)}: {error}")
        out[" ".join(argv)] = checks.digest(proc.stdout)
    return out


def reduction_tables(m: int) -> dict:
    from sl2weyl.dpalgebra import DPoly

    out = {}
    for key, session, basis, _, verification in (step() for step in workloads.stream_setup(m)):
        if not verification.passed:
            raise SystemExit(f"{key}: basis failed verification")
        table = {}
        for d in range(m + 1):
            for a in checks.monomials(m, d):
                if a in basis.monomials:
                    continue
                coords = session.reduce_element(DPoly.monomial(session.ring, m, a), basis)
                table[checks.mono_key(a)] = [
                    [checks.mono_key(b), str(c)] for b, c in sorted(coords.items()) if c
                ]
        out[key] = table
    return out


def main() -> int:
    os.environ.pop("SL2WEYL_THREADS", None)
    sys.path.insert(0, str(workloads.SRC))
    golden = {"cli": {}, "reduce": {}}
    for scale in (workloads.TOY, workloads.FULL):
        golden["cli"].update(cli_digests(scale.cli_m))
        golden["reduce"].update(reduction_tables(scale.stream_m))
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
