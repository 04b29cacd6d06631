"""sl2weyl benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 15 --trace 0

Run from anywhere; the program under test is the `src/` tree next to this
directory.  Informational lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones from a traced run.

    python3 perfbench/run.py --workload given-ideal --seed 1 --steady 10

repeats the run in fresh processes with seeds seed .. seed+N-1 and prints
the median, quartiles and quartile spread of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# SL2WEYL_THREADS switches the oracle to an unlocked threaded path, and a
# set PYTHONDONTWRITEBYTECODE would make every CLI call compile from source.
DROPPED_ENV = ("SL2WEYL_THREADS", "PYTHONDONTWRITEBYTECODE")

WORKLOADS = ("cold-cli", "given-ideal", "reduce-stream")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}

# span name -> per-layer metrics taken from it
SPAN_METRICS = {
    "weyl_ideal.defining_generators": ("self_s", "n"),
    "weyl_ideal.schur_family": ("self_s",),
    "weyl_ideal.forgotten_family": ("self_s",),
    "symfunc.kostka": ("self_s", "n"),
    "symfunc.forgotten_coeff": ("self_s", "n"),
    "partitions.enumerate_partitions": ("self_s", "n"),
    "quotient_oracle.space": ("self_s",),
    "quotient_oracle.session_init": ("self_s",),
    "quotient_oracle.slice_monomials": ("self_s", "n"),
    "quotient_oracle.verify_basis": ("self_s", "n"),
    "quotient_oracle.reduce_element": ("self_s", "n"),
    "quotient_oracle.truncated_quotient": ("self_s",),
    "basis_enum": ("self_s",),
    "dpalgebra.parse_dpoly": ("self_s", "n"),
    "cli.main": ("self_s",),
}
COUNT_METRICS = (
    "weyl_ideal.generators.n",
    "quotient_oracle.space.n",
    "quotient_oracle.rank.n",
    "quotient_oracle.box.n",
    "quotient_oracle.reduce_element.terms.n",
)


def per_layer_units() -> dict:
    units = {}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "s" if kind == "self_s" else "count"
    for name in COUNT_METRICS:
        units[name] = "count"
    units["process.import_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    units["trace.unattributed_frac"] = "frac"
    return units


PER_LAYER = per_layer_units()


def tail(latencies: list, pct: float) -> tuple[float, int]:
    """(nearest-rank latency at the percentile, samples beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(round(pct * len(ordered) / 100, 6)))
    return ordered[rank - 1], len(ordered) - rank


def summary(latencies: list, tail_pct: float) -> dict:
    tail_s, beyond = tail(latencies, tail_pct)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_beyond": beyond,
    }


def end_to_end(out) -> dict:
    values = summary(out.clock.scaled(), out.tail_pct)
    raw = summary(out.clock.raw, out.tail_pct)
    out.info.update(
        op_tail_percentile=out.tail_pct, op_samples=len(out.clock.raw),
        op_tail_beyond=values.pop("op_tail_beyond"), raw_setup_s=out.setup_raw_s,
        **{f"raw_{k}": v for k, v in raw.items() if k != "op_tail_beyond"},
    )
    values.update(
        setup_s=statistics.median(out.setup_s),
        peak_rss_mb=out.peak_rss_mb,
        ok_frac=(len(out.clock.raw) - out.failed) / len(out.clock.raw),
    )
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(out, import_s: float) -> dict:
    sp = out.spans or {}
    values = {}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            bucket = sp.get("self_s" if kind == "self_s" else "calls", {})
            values[f"{span}.{kind}"] = bucket.get(span, 0)
    for name in COUNT_METRICS:
        values[name] = sp.get("counts", {}).get(name, 0)
    program_s = sum(v for k, v in sp.get("self_s", {}).items() if not k.startswith("bench."))
    scaled, n = out.clock.scaled(), out.replayed
    values["process.import_s"] = out.import_s or import_s
    values["trace.overhead_frac"] = sum(scaled[n:]) / sum(scaled[:n]) - 1
    values["trace.unattributed_frac"] = 1 - (program_s + out.import_s) / out.attributed_wall_s
    out.info["spans_edges"] = sorted(sp.get("edges", []), key=lambda e: -e[2])[:40]
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def source_id() -> dict:
    """The tree under test: git commit when there is one, and a digest of
    the sources either way."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sl2weyl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    ident = {"source_sha256": h.hexdigest()[:16]}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        ident["commit"] = ref
    return ident


def setup_probes(args) -> list:
    """(raw, reference-speed) set-up seconds, each from a fresh interpreter,
    one after another."""
    samples = []
    for _ in range(workloads.SETUP_REPEATS - 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=workloads.CHILD_TIMEOUT_S)
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw, scaled = map(float, proc.stdout.split()[-2:])
        samples.append((raw, scaled))
    return samples


def steady(args) -> int:
    """Repeat the run in fresh processes and summarize each metric."""
    bounds = {}
    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.is_file():
        spec = json.loads(bench_json.read_text())
        bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    series: dict[str, list] = {}
    for i in range(args.steady):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds), "--trace", "0"]
        if args.toy:
            cmd.append("--toy")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *_, info, result = (json.loads(line) for line in proc.stdout.strip().splitlines())
        print(f"seed {args.seed + i}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        for k, v in result["metrics"].items():
            series.setdefault(k, []).append(v["value"])
        for k, v in info["info"].items():  # the same figures before scaling
            if k.startswith("raw_op"):
                series.setdefault(k, []).append(v)
    stats = {}
    for k, vals in series.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(k)
        stats[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else
                                         "within bound" if spread <= bound else "OVER BOUND")
        print(f"{k:>12}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.3%}  bound {bound}  {flag}")
    print(json.dumps({"workload": args.workload, "runs": args.steady, "summary": stats}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="timed phase length, beyond each workload's minimum op count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="repeat the untraced run N times and summarize")
    ap.add_argument("--toy", action="store_true", help="m <= 3 scale, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "sl2weyl" / "cli.py").is_file():
        print(f"error: no sl2weyl source tree at {SRC}", file=sys.stderr)
        return 2
    if args.steady:
        if args.steady < 2:
            ap.error("--steady needs at least 2 runs")
        return steady(args)

    dropped = [k for k in DROPPED_ENV if os.environ.pop(k, None) is not None]
    # one CPU for this process and its children, so each calibration runs
    # where the ops around it run
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except OSError:
        cpu = None
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import sl2weyl.cli

    import_s = perf_counter() - t0
    if Path(sl2weyl.cli.__file__).resolve().parent != (SRC / "sl2weyl").resolve():
        print(f"error: imported sl2weyl from {sl2weyl.cli.__file__}", file=sys.stderr)
        return 2

    scale = workloads.TOY if args.toy else workloads.FULL
    if args.setup_probe:
        print("%.9f %.9f" % workloads.setup_only(args.workload, scale))
        return 0

    golden = checks.load_golden()
    trace = bool(args.trace)
    if args.workload == "cold-cli":
        out = workloads.cold_cli(scale, args.seed, args.seconds, trace, golden)
    elif args.workload == "given-ideal":
        out = workloads.given_ideal(scale, args.seed, args.seconds, trace,
                                    lambda: setup_probes(args))
    else:
        out = workloads.reduce_stream(scale, args.seed, args.seconds, trace, golden,
                                      lambda: setup_probes(args))

    metrics = per_layer(out, import_s) if trace else end_to_end(out)
    out.info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        scale="toy" if args.toy else "full", python=sys.version.split()[0],
        nproc=os.cpu_count(), pinned_cpu=cpu, env_removed=dropped, setup_samples_s=out.setup_s,
        fail_frac=out.failed / len(out.clock.raw), **source_id(),
    )
    print(json.dumps({"info": out.info}))
    for error in out.errors:
        print(f"failed op: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": len(out.clock.raw),
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
