"""The three workloads.  Each is a closed loop: one client in one process
runs one op at a time, times it, then checks its answer.

* cold-cli: a fixed mix of `sl2weyl` CLI calls, each in a fresh interpreter
  (`python -m sl2weyl.cli` from the tree under test), so every cache starts
  cold, as it does for a user.
* given-ideal: elimination only.  The Schur family over Q, F_2, F_3, F_5 and
  the forgotten family over Q are built in set-up; each op is a fresh
  `OracleSession` on one family, `dims()` and `verify_basis(lex_basis(m))`.
* reduce-stream: two verified sessions built in set-up; each op is one
  `OracleSession.reduce_element` call on them, timed on the thread's CPU
  clock (see clock.py).

`--seed` fixes the op order and every generated input.  A traced run
replays one fixed round of ops untraced and then traced, so its counts
repeat exactly for a seed and the ratio of the two times is the tracing
overhead.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, thread_time

import checks
from clock import OpClock, calibrate, scaled_call
from spans import Tracer, merge

HERE = checks.GOLDEN_PATH.parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_MARK = b"PERFBENCH_SPANS "
CHILD_TIMEOUT_S = 120
CLI_SETUP_REPEATS = 5
SETUP_REPEATS = 3
# Each workload runs at least this much and reports its tail at a fixed
# percentile that keeps >= 10 samples beyond it at that minimum, so runs of
# different length (a slower machine, a faster program) stay comparable.
# The percentile sits inside a class of like ops, not on the edge between
# two: p80 of cold-cli is among the 8 heavy calls of 17, p90 of given-ideal
# among the forgotten-family ops (1 of 5).
CLI_MIN_PASSES, CLI_TAIL_PCT = 3, 80.0  # 17 ops a pass
GIVEN_MIN_ROUNDS, GIVEN_TAIL_PCT = 20, 90.0  # 5 ops a round
STREAM_MIN_OPS, STREAM_TAIL_PCT = 10_000, 99.0  # inside the 11-12 term polys over Q
STREAM_CALIBRATE_EVERY = 50  # ops of ~0.2 ms between 1 ms calibrations
CALIBRATE_DURING_S = 0.1  # cold-cli: calls of 0.1-2 s outlast a speed phase


@dataclass(frozen=True)
class Scale:
    cli_m: int  # dim, verify, truncate and gens; verify --order lex and reduce use m - 1
    given_m: int
    stream_m: int


FULL = Scale(cli_m=5, given_m=6, stream_m=5)
TOY = Scale(cli_m=3, given_m=3, stream_m=3)


@dataclass
class Outcome:
    """What one run measured; run.py turns it into metrics."""

    tail_pct: float
    clock: OpClock
    setup_s: list = field(default_factory=list)  # at reference speed
    setup_raw_s: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    spans: dict | None = None  # traced runs only
    replayed: int = 0  # traced runs: ops in each of the two rounds
    attributed_wall_s: float = 0.0  # traced runs: traced set-up and op time
    import_s: float = 0.0  # traced cold-cli: seconds importing sl2weyl.cli
    info: dict = field(default_factory=dict)

    def record(self, latency: float, error: str | None, during=()) -> None:
        self.clock.add(latency, during)
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def add_setup(self, raw: float, scaled: float) -> None:
        self.setup_raw_s.append(raw)
        self.setup_s.append(scaled)


def ring(p: int):
    from sl2weyl.dpalgebra import CoeffRing

    return CoeffRing(p)


def guarded(fn, *args) -> tuple[object, str | None]:
    """Run one op; an exception is the op's failure, not the benchmark's."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - every program error is a failed op
        return None, f"{type(exc).__name__}: {exc}"


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def in_span(tracer, name: str, fn, *args):
    """fn(*args), inside a span when tracing."""
    if tracer is None:
        return fn(*args)
    with tracer.span(name):
        return fn(*args)


def run_steps(steps: list, tracer=None) -> tuple[list, float, float]:
    """(results, raw seconds, reference-speed seconds) of set-up steps, each
    bracketed by its own calibrations."""
    results, raw, scaled = [], 0.0, 0.0
    for step in steps:
        result, step_raw, step_scaled = scaled_call(in_span, tracer, "bench.setup", step)
        results.append(result)
        raw += step_raw
        scaled += step_scaled
    return results, raw, scaled


def timed_setup(out: Outcome, tracer, steps: list) -> list:
    """The in-process set-up, traced when tracing; its time is one sample."""
    if tracer:
        tracer.install()
    try:
        results, raw, scaled = run_steps(steps, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    out.add_setup(raw, scaled)
    out.attributed_wall_s += raw
    return results


def replay(out: Outcome, ops: list, run_op, tracer=None) -> Outcome:
    """A traced run: the fixed ops untraced, then the same ops traced."""
    out.replayed = len(ops)
    for op in ops:
        run_op(op, False)
    if tracer:
        tracer.install()
    try:
        out.attributed_wall_s += sum(run_op(op, True) for op in ops)
    finally:
        if tracer:
            tracer.uninstall()
    out.clock.close()
    if tracer:
        out.spans = tracer.totals()
    return out


# ---------------------------------------------------------------------------
# cold-cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list, during: list | None = None):
    """(seconds, completed process, or None when it timed out).  With a
    `during` list, also calibrate every CALIBRATE_DURING_S while the child
    runs (on the same CPU; about 1 % of its time) and append the results."""
    t0 = perf_counter()
    wait = CALIBRATE_DURING_S if during is not None else CHILD_TIMEOUT_S
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=wait)
                break
            except subprocess.TimeoutExpired:
                if perf_counter() - t0 >= CHILD_TIMEOUT_S:
                    proc.kill()
                    proc.communicate()
                    return perf_counter() - t0, None
                if during is not None:
                    during.append(calibrate())
    dt = perf_counter() - t0
    return dt, subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def cli_cmd(argv: list, traced: bool) -> list:
    entry = [str(HERE / "cli_shim.py")] if traced else ["-m", "sl2weyl.cli"]
    return [sys.executable, *entry, *map(str, argv)]


def fixed_cli_ops(m: int) -> list[tuple[list, object]]:
    """(argv, extra check of the decoded stdout) for the seed-independent
    part of the mix; their stdout is also compared with golden.json."""
    ops = []
    for p in (0, 2, 3, 5):
        char = ["--char", p] if p else []
        ops.append((["dim", "-m", m, *char], lambda out: checks.check_dim_text(out, m)))
        ops.append((
            ["verify", "-m", m - 1, "--order", "lex", *char],
            lambda out: checks.check_verify_text(out, m - 1),
        ))
    for order in ("revlex", "cv"):
        ops.append((
            ["verify", "-m", m, "--order", order],
            lambda out: checks.check_verify_text(out, m),
        ))
    ops.append((["truncate", "-m", m, "-N", 2], checks.check_truncate_text))
    ops.append((["gens", "-m", m, "--max-degree", m + 2, "--format", "json"], None))
    ops.append((["gens", "-m", m, "--family", "gm"], None))
    ops.append((["gens", "-m", m, "--family", "srevlex"], None))
    ops.append((["basis", "-m", 2 * m + 2, "--order", "cv", "--format", "json"], None))
    return [([str(a) for a in argv], extra) for argv, extra in ops]


def prewarm_argvs() -> list[list]:
    """One cheap call per verb, so the .pyc files exist before timing."""
    return [
        ["dim", "-m", "2"], ["verify", "-m", "2"], ["truncate", "-m", "2", "-N", "1"],
        ["reduce", "-m", "2", "--poly", "x0"], ["gens", "-m", "2"], ["basis", "-m", "2"],
    ]


def random_coeff(rng: random.Random, p: int):
    if p:
        return rng.randint(1, p - 1)
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3)))


class ReduceCases:
    """Seeded `reduce` inputs whose answer is known without the program: a
    combination of 1-3 lex-basis monomials (which reduce to themselves) and
    generator x monomial multiples (which reduce to 0), one of them of
    degree m + 1 so every call uses the same degree box."""

    def __init__(self, m: int, p: int):
        from sl2weyl.weyl_ideal import defining_generators

        self.m, self.p = m, p
        gens = defining_generators(m, ring(p), m + 1, (m + 1) * (m - 1)).entries
        self.gens = [(e.degree, e.poly.terms) for e in gens]
        self.basis = checks.lex_basis(m)

    def case(self, rng: random.Random) -> tuple[list, bytes]:
        m, p = self.m, self.p
        terms, want = {}, {}
        for b in rng.sample(self.basis, rng.randint(1, 3)):
            want[b] = random_coeff(rng, p)
            terms[b] = terms.get(b, 0) + want[b]
        low = min(d for d, _ in self.gens)
        targets = [m + 1] + ([rng.randint(low, m)] if low <= m else [])
        for target in targets:
            d, g = rng.choice([(d, g) for d, g in self.gens if d <= target])
            u = rng.choice(list(checks.monomials(m, target - d)))
            c = random_coeff(rng, p)
            for a, cg in g.items():
                s, prod = checks.dp_product(a, u)
                terms[prod] = terms.get(prod, 0) + c * cg * s
        if p:
            terms = {a: checks.ring_coeff(c, p) for a, c in terms.items()}
        terms = {a: c for a, c in terms.items() if c}
        want = {b: checks.ring_coeff(c, p) for b, c in want.items()}
        argv = ["reduce", "-m", str(m), *(["--char", str(p)] if p else [])]
        # --poly=TEXT: a leading minus sign must not read as an option
        return argv + [f"--poly={checks.format_poly(terms)}"], checks.reduce_text(want).encode()


def check_cli(proc, golden: dict, argv: list, extra=None, want=None) -> str | None:
    """None when the call exited 0 with the expected stdout."""
    label = " ".join(argv[:6])
    if proc is None:
        return f"{label}: timed out"
    if proc.returncode != 0:
        return f"{label}: exit code {proc.returncode}"
    out = proc.stdout
    if want is not None:
        return None if out == want else f"{label}: wrong reduction"
    if checks.digest(out) != golden.get(" ".join(argv)):
        return f"{label}: stdout differs from the recorded digest"
    return extra(out.decode()) if extra else None


def split_spans(stderr: bytes) -> tuple[bytes, dict | None]:
    head, sep, tail = stderr.rpartition(SPANS_MARK)
    return (head, json.loads(tail)) if sep else (stderr, None)


def cold_cli(scale: Scale, seed: int, seconds: float, trace: bool, golden: dict) -> Outcome:
    out = Outcome(CLI_TAIL_PCT, OpClock())
    rng = random.Random(seed)
    m = scale.cli_m
    for argv in prewarm_argvs():
        run_child(cli_cmd(argv, False))
    for _ in range(CLI_SETUP_REPEATS):
        (_, proc), raw, scaled = scaled_call(run_child, [sys.executable, "-c", "import sl2weyl.cli"])
        if proc is None or proc.returncode:
            raise RuntimeError("cannot import sl2weyl.cli in a child interpreter")
        out.add_setup(raw, scaled)

    fixed = fixed_cli_ops(m)
    reducers = [ReduceCases(m - 1, p) for p in (0, 3)]

    def one_pass():
        ops = [(argv, extra, None) for argv, extra in fixed]
        for r in reducers:
            argv, want = r.case(rng)
            ops.append((argv, None, want))
        rng.shuffle(ops)
        return ops

    def run_op(op, traced):
        argv, extra, want = op
        during = []
        dt, proc = run_child(cli_cmd(argv, traced), during)
        spans = None
        if proc is not None and traced:
            proc.stderr, spans = split_spans(proc.stderr)
        error = check_cli(proc, golden["cli"], argv, extra, want)
        if traced and spans is None and error is None:
            error = f"{' '.join(argv[:6])}: no span totals from the traced child"
        if spans:
            out.import_s += spans.pop("import_s")
            out.spans = merge(out.spans or {}, spans)
        out.record(dt, error, during)
        return dt

    if trace:
        return replay(out, one_pass(), run_op)
    t0 = perf_counter()
    passes = 0
    while passes < CLI_MIN_PASSES or perf_counter() - t0 < seconds:
        for op in one_pass():
            run_op(op, False)
        passes += 1
    out.clock.close()
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return out


# ---------------------------------------------------------------------------
# given-ideal

FAMILIES = (("schur", 0), ("schur", 2), ("schur", 3), ("schur", 5), ("forgotten", 0))


def build_family(m: int, name: str, p: int) -> tuple:
    from sl2weyl import weyl_ideal

    build = {"schur": weyl_ideal.schur_family, "forgotten": weyl_ideal.forgotten_family}
    return f"{name}/{p}", ring(p), build[name](m, ring(p))


def given_setup(m: int) -> list:
    """Set-up steps: one family each."""
    return [functools.partial(build_family, m, name, p) for name, p in FAMILIES]


def given_op(m: int, r, gens):
    from sl2weyl import quotient_oracle, basis_enum

    session = quotient_oracle.OracleSession(m, r, m + 1, gens=gens)
    return session.dims(), session.verify_basis(basis_enum.lex_basis(m))


def check_quotient(m: int, dims, verification, want_counts: dict) -> str | None:
    """dims(): total 2^m and the lex count in every slice; the lex basis
    verifies with 2^m quotient dimensions and candidates."""
    if dims.total != 2**m:
        return f"dims total {dims.total} != 2^{m}"
    if {k: q for k, q in dims.dims.items() if q} != want_counts:
        return "slice dimensions differ from the lex-basis counts"
    if verification is not None and not (
        verification.passed
        and verification.total_quotient_dim == verification.total_candidates == 2**m
    ):
        return "lex basis failed verification"
    return None


def given_ideal(scale: Scale, seed: int, seconds: float, trace: bool, setup_probes,
                want_counts: dict | None = None) -> Outcome:
    """want_counts replaces the lex-basis slice counts every op is checked
    against (the self-test passes wrong ones)."""
    out = Outcome(GIVEN_TAIL_PCT, OpClock())
    rng = random.Random(seed)
    m = scale.given_m
    want = want_counts or checks.lex_slice_counts(m)
    tracer = Tracer() if trace else None
    families = timed_setup(out, tracer, given_setup(m))
    if not trace:
        for raw, scaled in setup_probes():
            out.add_setup(raw, scaled)

    def run_op(family, traced):
        label, r, gens = family
        t0 = perf_counter()
        res, error = guarded(in_span, tracer if traced else None, "bench.op", given_op, m, r, gens)
        dt = perf_counter() - t0
        if error is None:
            error = check_quotient(m, *res, want)
        out.record(dt, error and f"{label}: {error}")
        return dt

    def one_round():
        order = list(families)
        rng.shuffle(order)
        return order

    if trace:
        return replay(out, one_round(), run_op, tracer)
    t0 = perf_counter()
    rounds = 0
    while rounds < GIVEN_MIN_ROUNDS or perf_counter() - t0 < seconds:
        for family in one_round():
            run_op(family, False)
        rounds += 1
    out.clock.close()
    out.peak_rss_mb = self_rss_mb()
    return out


# ---------------------------------------------------------------------------
# reduce-stream

SESSIONS = ((0, "revlex"), (3, "lex"))


def build_session(m: int, p: int, order: str) -> tuple:
    """A verified session with its set-up answers: (key, session, basis,
    dims report, verification report)."""
    from sl2weyl import quotient_oracle, basis_enum

    session = quotient_oracle.OracleSession(m, ring(p), m + 2)
    dims = session.dims()
    basis = getattr(basis_enum, f"{order}_basis")(m)
    return f"{m}/{p}/{order}", session, basis, dims, session.verify_basis(basis)


def stream_setup(m: int) -> list:
    """Set-up steps: one session each."""
    return [functools.partial(build_session, m, p, order) for p, order in SESSIONS]


class Stream:
    """reduce-stream inputs as (label, session, basis, input, expected
    coordinates): x_i^(j) * b for every basis monomial b, variable x_i and
    j in {1, 2}, in one seeded order that repeats, each followed by a fresh
    seeded polynomial of 1-12 terms from the degree box, so a run's mix does
    not hinge on a few random inputs."""

    def __init__(self, m: int, sessions: list, golden: dict, rng: random.Random):
        self.m, self.rng = m, rng
        self.box = [a for d in range(m + 3) for a in checks.monomials(m, d)]
        self.targets = []  # (key, session, basis, reduction table)
        self.products = []  # (target, terms)
        for key, session, basis, _, _ in sessions:
            recorded = golden["reduce"][key]
            table = checks.ReductionTable(m, session.ring.char, basis.monomials, recorded)
            target = (key, session, basis, table)
            self.targets.append(target)
            for b in sorted(basis.monomials):
                for i in range(m):
                    for j in (1, 2):
                        shift = tuple(j if k == i else 0 for k in range(m))
                        s, prod = checks.dp_product(b, shift)
                        self.products.append((target, {prod: s}))
        rng.shuffle(self.products)
        self.cycle = 2 * len(self.products)

    def _op(self, target, terms):
        from sl2weyl.dpalgebra import DPoly

        key, session, basis, table = target
        return key, session, basis, DPoly(session.ring, self.m, terms), table.expected(terms)

    def ops(self):
        rng = self.rng
        for i in itertools.count():
            yield self._op(*self.products[i % len(self.products)])
            target = rng.choice(self.targets)
            p = target[3].p
            picks = rng.sample(self.box, rng.randint(1, 12))
            yield self._op(target, {a: random_coeff(rng, p) for a in picks})


def reduce_stream(scale: Scale, seed: int, seconds: float, trace: bool, golden: dict,
                  setup_probes) -> Outcome:
    out = Outcome(STREAM_TAIL_PCT, OpClock(STREAM_CALIBRATE_EVERY, thread_time))
    rng = random.Random(seed)
    m = scale.stream_m
    want = checks.lex_slice_counts(m)
    tracer = Tracer() if trace else None
    sessions = timed_setup(out, tracer, stream_setup(m))
    for key, _, _, dims, verification in sessions:
        error = check_quotient(m, dims, verification, want)
        if error:  # the stream needs verified sessions
            raise RuntimeError(f"set-up of {key}: {error}")
    if not trace:
        for raw, scaled in setup_probes():
            out.add_setup(raw, scaled)
    stream = Stream(m, sessions, golden, rng)

    def run_op(op, traced):
        """Records the op's CPU time; returns its wall time, which the
        spans are measured in."""
        key, session, basis, poly, expected = op
        t0, c0 = perf_counter(), thread_time()
        coords, error = guarded(
            in_span, tracer if traced else None, "bench.op", session.reduce_element, poly, basis
        )
        cpu, dt = thread_time() - c0, perf_counter() - t0
        if error is None and not checks.same_coords(coords, expected):
            error = "wrong coordinates"
        out.record(cpu, error and f"{key} reduce {checks.format_poly(poly.terms)}: {error}")
        return dt

    if trace:
        return replay(out, list(itertools.islice(stream.ops(), stream.cycle)), run_op, tracer)
    t0 = perf_counter()
    for op in stream.ops():
        if len(out.clock.raw) >= STREAM_MIN_OPS and perf_counter() - t0 >= seconds:
            break
        run_op(op, False)
    out.clock.close()
    out.peak_rss_mb = self_rss_mb()
    return out


def setup_only(workload: str, scale: Scale) -> tuple[float, float]:
    """(raw, reference-speed) seconds of one set-up in this interpreter."""
    if workload == "given-ideal":
        steps = given_setup(scale.given_m)
    else:
        steps = stream_setup(scale.stream_m)
    _, raw, scaled = run_steps(steps)
    return raw, scaled
