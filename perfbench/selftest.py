"""Self-test of the benchmark at toy scale (m <= 3, a few ops per workload).

    python3 perfbench/selftest.py

Checks that
* every workload, untraced and traced, ends with the result line naming
  exactly the metrics of BENCHMARK.json, each with its unit, and is correct;
* the named per-layer counts repeat exactly for the same seed;
* a deliberately wrong expected answer makes ops count as failed, on every
  workload, without touching the program;
* without the program's source tree next to it, the benchmark exits non-zero
  and prints no result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = (
    "weyl_ideal.generators.n",
    "quotient_oracle.space.n",
    "quotient_oracle.rank.n",
    "quotient_oracle.box.n",
    "quotient_oracle.reduce_element.n",
)

failures = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, seed: int = 1, root: Path = ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def check_result_lines(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, seed in ((0, 1), (1, 1), (1, 1)):
            proc = run_bench(workload, trace, seed)
            label = f"{workload} --trace {trace}"
            if proc.returncode:
                expect(False, f"{label} exits 0: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = spec["per_layer" if trace else "end_to_end"]
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, nothing failed")
            expect({k: v["unit"] for k, v in result["metrics"].items()}
                   == {m["name"]: m["unit"] for m in want},
                   f"{label}: every metric of BENCHMARK.json with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{label}: numeric values")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
        if len(counts) == 2:
            expect(counts[0] == counts[1], f"{workload}: counts repeat for one seed {counts[0]}")


def check_wrong_answers_fail() -> None:
    sys.path.insert(0, str(workloads.SRC))
    golden = checks.load_golden()
    scale = workloads.TOY

    bad = json.loads(json.dumps(golden))
    argv = " ".join(workloads.fixed_cli_ops(scale.cli_m)[0][0])
    bad["cli"][argv] = "0" * 64
    out = workloads.cold_cli(scale, 1, 0, False, bad)
    expect(out.failed == workloads.CLI_MIN_PASSES < len(out.clock.raw),
           f"cold-cli: a wrong digest for `{argv}` fails that op in every pass, and only it")

    wrong = dict(checks.lex_slice_counts(scale.given_m))
    wrong[(0, 0)] += 1
    out = workloads.given_ideal(scale, 1, 0, False, lambda: [], want_counts=wrong)
    expect(out.failed == len(out.clock.raw) > 0,
           "given-ideal: wrong slice counts fail every op")

    bad = json.loads(json.dumps(golden))
    key = f"{scale.stream_m}/0/revlex"
    mono, coords = next((a, c) for a, c in bad["reduce"][key].items() if c)
    coords[0][1] = str(Fraction(coords[0][1]) + 1)
    out = workloads.reduce_stream(scale, 1, 0, False, bad, lambda: [])
    expect(0 < out.failed < len(out.clock.raw),
           f"reduce-stream: a wrong recorded reduction of {mono} fails the ops using it")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("given-ideal", 0, root=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_result_lines(spec)
    check_wrong_answers_fail()
    check_bare_directory()
    print("selftest:", "OK" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
