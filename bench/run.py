#!/usr/bin/env python3
"""Closed-loop benchmark of the quadtuple command line.

    python3 bench/run.py --workload near_window --seed 1 --seconds 10 --trace 0

One client issues one `quadtuple` invocation at a time through
quadtuple.cli.main, in this process, and checks every output before the
next. --trace 0 prints the end-to-end metrics; --trace 1 repeats the same
ops under tracing.Tracer and prints the per-layer metrics. The last line of
stdout is one JSON object; bench/README.md explains the metrics.

Every workload is a fixed list of ops, so that a faster program does the
same work in less time rather than more work. --seconds is recorded with
the results but does not cut a run short.

Times are CPU times corrected for the host's speed. Every PROBE_S of CPU
time, during ops and between them, a timer signal makes the benchmark time
a fixed piece of its own Python code, the reference kernel. Each op's time
is scaled by REF_MS over the kernel's median time around that op, and the
probe's own time is left out of every measurement.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from types import SimpleNamespace

import tracing
import workloads
from workloads import FamilyOp, RingOp

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = Path(".bench_out")  # relative to ROOT, where the benchmark runs
ARCHIVE = str(OUT_DIR / "archive.jsonl")

# Per-op deadline in host-corrected CPU time: about twice d = 18435, the
# slowest ring that answers (about 5 s on a 2-core 2.1 GHz Xeon VM), and far
# below d = 14655 (about 130 s), so 14655 is the one miss.
DEADLINE_S = 10.0
# The reference kernel's CPU time on that VM at its usual speed. Its
# measured time around an op tells how fast the host ran the op.
REF_MS = 0.12
# On that VM the host's speed wanders by up to 1.6x within a second. An op's
# speed factor comes from the kernel timings of the SPEED_SPAN_S of CPU time
# on either side of it and of the op itself, and at least SPEED_SAMPLES of
# them: about 50 timings for a short op, and every one during a long op.
PROBE_S = 0.01
SPEED_SPAN_S = 0.25
SPEED_SAMPLES = 25
SETUP_REPEATS = 15
LADDER = (50, 90, 99, 99.9)
MIN_BEYOND = 10
MIN_CHECKS = 600  # consumer-check timings a run spreads over its ops
# How far the traced pass's top-level spans may stray from the untraced op
# and check time beyond the tracing overhead itself.
COVERAGE_SLACK = 0.05

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "verify_ms_p50": "ms",
    "verify_ms_tail": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_CALLS = (
    "quadring.factorize",
    "quadring.is_square_free",
    "quadring.sqrt_in_ring",
    "pellsolve.solve_norm_eq",
    "pellsolve.fundamental_unit",
    "pellsolve.enumerate_solutions",
    "pellsolve.check_pm2_unsolvable",
    "represent.certify_nonrepresentable",
    "cli.main",
)
PER_LAYER_SELF = (
    "quadring.factorize",
    "quadring.sqrt_in_ring",
    "pellsolve.solve_norm_eq",
    "pellsolve.fundamental_unit",
    "pellsolve.enumerate_solutions",
    "construct.construct_quadruple",
    "construct.verify_quadruple",
    "construct.scale_quadruple",
    "construct.quadruple_from_json",
    "represent.certify_nonrepresentable",
    "counterex.build_report",
    "counterex.report_to_json",
    "counterex.verify_report_doc",
    "cli.main",
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run; never a failure of the program."""


class DeadlineExceeded(BaseException):
    """Raised from SIGPROF when an op overruns DEADLINE_S of CPU time.

    A BaseException, so that build_report's `except Exception` and the
    CLI's handlers cannot turn it into an ordinary exit code.
    """


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


# ---------------------------------------------------------------------------
# percentiles


def nearest_rank(n: int, p: float) -> int:
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n: int) -> float:
    """Highest percentile of LADDER with at least MIN_BEYOND samples ranked above it."""
    best = LADDER[0]
    for p in LADDER:
        if n - nearest_rank(n, p) >= MIN_BEYOND:
            best = p
    return best


def ranked(samples: list[tuple[float, bool]]) -> list[float]:
    """The ms of (ms, ok) samples in rank order: a failure ranks above every success."""
    return [ms for ms, _ in sorted(samples, key=lambda s: (not s[1], s[0]))]


def percentile(samples: list[tuple[float, bool]], p: float) -> float:
    """The p-th percentile of (ms, ok) samples, as the mean of a narrow rank band.

    The band is ranks r-h..r+h around the nearest rank r, with h at most 5%
    of the samples (but 2 on small samples) and at most a third of those
    ranked above r. On this benchmark's gappy latency distributions a single
    order statistic jumps by 10-35% between runs of the same inputs; the
    band mean does not, and it stays clear of the extreme ranks that hold
    the deadline misses.
    """
    values = ranked(samples)
    n = len(values)
    r = nearest_rank(n, p)
    h = min(max(2, min(n // 20, (n - r) // 3)), r - 1, n - r)
    band = values[r - 1 - h : r + h]
    return sum(band) / len(band)


# ---------------------------------------------------------------------------
# host speed

_REF_MOD = 10**120 + 7


def reference_kernel() -> int:
    """Fixed Python work of the kinds an op does, in bench-side code only.

    Trial division on small ints, then a bigint multiply-and-reduce loop.
    It builds no containers, so the garbage collector never runs inside it
    and its cost does not grow with the benchmark's own heap.
    """
    acc = 0
    for n in range(3615, 6015, 60):
        acc += workloads.is_square_free(n)
    x = 3**200
    for i in range(60):
        x = (x * 12345678901 + i) % _REF_MOD
    return acc + len(str(x))


class SpeedProbe:
    """Kernel timings taken every PROBE_S of CPU time while started.

    Times are in the thread's CPU clock. The probe's own CPU time is kept
    in `spent_s`, so that cpu_now() can leave it out.
    """

    def __init__(self):
        self.at: list[float] = []  # thread CPU s when each timing started
        self.ms: list[float] = []  # CPU ms of each kernel call
        self.spent_s = 0.0

    def sample(self, signum=None, frame=None) -> float:
        start = thread_time()
        reference_kernel()
        end = thread_time()
        self.at.append(start)
        self.ms.append((end - start) * 1000)
        self.spent_s += end - start
        return self.ms[-1]

    def start(self) -> None:
        """A lead-in of SPEED_SAMPLES timings, then one every PROBE_S of user CPU time."""
        for _ in range(SPEED_SAMPLES):
            self.sample()
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_S, PROBE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def slowness(self) -> float:
        """The recent kernel time over REF_MS: above 1 on a slow host."""
        return statistics.median(self.ms[-2 * SPEED_SAMPLES :]) / REF_MS

    def factor(self, start: float, end: float) -> float:
        """REF_MS over the median kernel time around [start, end] of thread CPU time."""
        lo = bisect_left(self.at, start - SPEED_SPAN_S)
        hi = bisect_right(self.at, end + SPEED_SPAN_S)
        if hi - lo < SPEED_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, mid - SPEED_SAMPLES // 2)
            hi = lo + SPEED_SAMPLES
        return REF_MS / statistics.median(self.ms[lo:hi])


PROBE = SpeedProbe()


def cpu_now() -> float:
    """The thread's CPU time in seconds, less the time spent in PROBE."""
    return thread_time() - PROBE.spent_s


# ---------------------------------------------------------------------------
# the program


def load_program() -> SimpleNamespace:
    """Import quadtuple from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "quadtuple" / "__init__.py").is_file():
        raise BenchError(f"no quadtuple package under {src}")
    sys.path.insert(0, str(src))
    import quadtuple.cli
    import quadtuple.construct
    import quadtuple.counterex
    import quadtuple.pellsolve

    if Path(quadtuple.__file__).resolve().parent != src / "quadtuple":
        raise BenchError(f"imported quadtuple from {quadtuple.__file__}, not {src}")
    return SimpleNamespace(
        cli=quadtuple.cli,
        construct=quadtuple.construct,
        counterex=quadtuple.counterex,
        pellsolve=quadtuple.pellsolve,
    )


@dataclass(slots=True)
class OpResult:
    """What check(), the metrics and the record need of one op.

    The op's outputs are hashed into `digest` and read once by observe();
    they are not kept, so that the benchmark's own memory does not grow
    with what the program printed.
    """

    op: object
    ms: float
    failure: str | None = None  # why the op failed; None if it succeeded
    missed: bool = False  # the op ran out of its deadline
    answer: bool | None = None  # family: alpha is eligible; ring: -6 is a norm
    verify: list[tuple[float, bool]] = field(default_factory=list)  # consumer checks
    nonzero_exits: int = 0
    archive_bytes: int = 0
    digest: str = ""


def _cli(program, argv: list[str], raw: list) -> int:
    """Run cli.main(argv) and append (argv, exit code, stdout, stderr) to raw."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = program.cli.main(argv)
    raw.append((argv, rc, out.getvalue(), err.getvalue()))
    return rc


def _family_calls(program, op: FamilyOp, raw: list) -> None:
    alpha = f"{op.alpha}..{op.alpha}"
    _cli(program, ["--format", "json", "counterexamples", "--alpha", alpha, "--t", str(op.t), "--out", ARCHIVE], raw)


def _ring_calls(program, op: RingOp, raw: list) -> None:
    d = f"--d={op.d}"
    if _cli(program, ["--format", "json", "pell", d, "--norm=-6"], raw) == 0:
        _cli(program, ["--format", "json", "construct", d, f"--m={op.m}", f"--k={op.k}"], raw)
        _cli(program, ["--format", "json", "checkrepr", d, "--n=2,0"], raw)


def check_document(program, text: str, family: bool) -> tuple[float, bool, dict | None]:
    """The consumer's check of one document: (CPU ms, passed, parsed document)."""
    start = cpu_now()
    try:
        doc = json.loads(text)
        if family:
            ok = program.counterex.verify_report_doc(doc) is True
        else:
            quad = program.construct.quadruple_from_json(doc)
            ok = program.construct.verify_quadruple(quad.n.ctx, quad).ok
    except Exception:  # a document the consumer cannot read fails its check
        doc, ok = None, False
    return (cpu_now() - start) * 1000, ok, doc


def _documents(result: OpResult, raw: list) -> list[str]:
    """What the op handed its consumer: archive lines, or the construct output."""
    if isinstance(result.op, FamilyOp):
        if raw[0][1] != 0:
            return []
        text = Path(ARCHIVE).read_text(encoding="utf-8")
        result.archive_bytes = len(text.encode())
        return text.splitlines()
    if len(raw) == 3 and raw[1][1] == 0:
        return [raw[1][2]]
    return []


def _observe_family(result: OpResult, raw: list, docs: list) -> str | None:
    """The failure of a counterexamples op, short of the oracle; sets .answer."""
    op = result.op
    _, rc, out, err = raw[0]
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    summary = json.loads(out)["summary"]
    if summary["eligible"] + summary["ineligible"] != 1:
        return f"wrong: summary {summary}"
    result.answer = summary["eligible"] == 1
    if not result.answer:
        return "wrong: report for an ineligible alpha" if docs else None
    if summary["verified"] != 1 or len(docs) != 1:
        return f"wrong: summary {summary} with {len(docs)} archive lines"
    doc = docs[0]
    header = (doc.get("d"), doc.get("t"), doc.get("verified")) if isinstance(doc, dict) else None
    if header != (str(workloads.family_d(op.alpha)), op.t, True):
        return f"wrong: report header {header}"
    if not result.verify[0][1]:
        return "wrong: verify_report_doc rejected the report"
    return None


def _observe_ring(result: OpResult, raw: list, docs: list) -> str | None:
    """The failure of a pell (+ construct + checkrepr) op, short of the oracle; sets .answer."""
    _, rc, out, err = raw[0]
    if rc not in (0, 3):
        return f"exit {rc} from pell: {err.strip()}"
    result.answer = rc == 0
    if json.loads(out)["solvable"] != result.answer:
        return "wrong: pell exit code and document disagree"
    if not result.answer:
        return None
    (_, construct_rc, construct_out, construct_err), (_, repr_rc, repr_out, repr_err) = raw[1:]
    if construct_rc != 0:
        return f"exit {construct_rc} from construct: {construct_err.strip()}"
    if json.loads(construct_out)["verified"] is not True:
        return "wrong: construct document not verified"
    if not result.verify[0][1]:
        return "wrong: verify_quadruple rejected the construct output"
    if repr_rc != 0:
        return f"exit {repr_rc} from checkrepr: {repr_err.strip()}"
    if json.loads(repr_out)["certified"] is not True:
        return "wrong: checkrepr did not certify n = 2"
    return None


def execute(program, op, deadline_s: float = DEADLINE_S) -> tuple[OpResult, list[str]]:
    """One op under a deadline of deadline_s of CPU time, then the consumer-side check of its documents.

    Latencies are cpu_now() differences, not yet corrected for host speed;
    run_pass() gives the speed factors. CPU time equals wall time except while
    the host deschedules the process, which on a shared VM put 5-10 ms
    spikes into single ops and moved the tail percentiles by up to 2x.
    Everything after the op is outside its latency.
    """
    raw: list = []
    family = isinstance(op, FamilyOp)
    missed, crash = False, None
    start = cpu_now()
    try:
        signal.setitimer(signal.ITIMER_PROF, deadline_s)
        try:
            (_family_calls if family else _ring_calls)(program, op, raw)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except DeadlineExceeded:
        missed = True
    except Exception as exc:  # a traceback for a CLI user; a failed op here
        crash = f"{type(exc).__name__}: {exc}"
    result = OpResult(op, (cpu_now() - start) * 1000, nonzero_exits=sum(1 for call in raw if call[1]))
    result.missed = missed
    if missed:
        result.failure = f"deadline ({deadline_s:.3g} s of CPU time)"
    elif crash:
        result.failure = f"raised {crash}"
    documents = [] if result.failure else _documents(result, raw)
    docs = []
    for text in documents:
        ms, ok, doc = check_document(program, text, family)
        result.verify.append((ms, ok))
        docs.append(doc)
    if not result.failure:
        try:
            result.failure = (_observe_family if family else _observe_ring)(result, raw, docs)
        except (ValueError, KeyError, TypeError) as exc:
            result.failure = f"wrong: unreadable output ({type(exc).__name__}: {exc})"
    h = hashlib.sha256()
    for argv, rc, out, _ in raw:
        h.update("\0".join(argv + [str(rc), out]).encode())
    h.update("\0".join(documents + [str(missed), str(crash)]).encode())
    result.digest = h.hexdigest()
    return result, documents


@dataclass(slots=True)
class Pass:
    """One closed loop over a workload's ops."""

    results: list[OpResult]
    rechecks: list[tuple[float, bool]]  # (corrected ms, passed) of repeated checks
    loop_s: list[float]  # CPU s of each op with its checks and hashing
    factors: list[float]  # each op's speed factor, from SpeedProbe.factor()
    wall: float


def run_pass(program, workload, tracer=None) -> Pass:
    """Closed loop over every op of the workload, one at a time.

    The deadline is DEADLINE_S at REF_MS, stretched by how slow the host
    ran the reference kernel just before the op. A run that has produced
    fewer consumer checks than its share of MIN_CHECKS so far checks one of
    its earlier documents again after the op, outside the op's loop time,
    so that its check timings are spread over the run. large_t needs this
    most today: the 4300-digit defect leaves d = 15 as its one document.
    """
    results, kept, loop_s, spans, rechecks = [], [], [], [], []
    checks = 0
    PROBE.start()
    start = perf_counter()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        deadline_s = DEADLINE_S * PROBE.slowness()
        op_start, raw_start = cpu_now(), thread_time()
        result, documents = execute(program, op, deadline_s)
        results.append(result)
        kept.extend(documents[: MIN_CHECKS - len(kept)])
        checks += len(documents)
        loop_s.append(cpu_now() - op_start)
        spans.append((raw_start, thread_time()))
        if kept and checks < MIN_CHECKS * (i + 1) / len(workload.ops):
            ms, ok, _ = check_document(program, kept[len(rechecks) % len(kept)], isinstance(op, FamilyOp))
            rechecks.append((i, ms, ok))
            checks += 1
    wall = perf_counter() - start
    PROBE.stop()
    measured = [PROBE.factor(*span) for span in spans]
    # A missed op's CPU deadline came from the host's speed just before it,
    # so by construction it ran DEADLINE_S at REF_MS: charge exactly that.
    factors = [DEADLINE_S * 1000 / r.ms if r.missed else f for r, f in zip(results, measured)]
    rechecks = [(ms * measured[i], ok) for i, ms, ok in rechecks]
    return Pass(results, rechecks, loop_s, factors, wall)


# ---------------------------------------------------------------------------
# untimed output checks, against sympy as the independent oracle


def _sympy_square_free(n: int) -> bool:
    from sympy import factorint

    return all(e == 1 for e in factorint(n).values())


def _sympy_minus6_solvable(d: int) -> bool:
    from sympy.solvers.diophantine.diophantine import diop_DN

    return bool(diop_DN(d, -6))


def check(results: list[OpResult]) -> None:
    """Fail every op whose answer disagrees with sympy, the independent oracle.

    execute() has already failed the ops that missed, crashed, exited
    wrongly or gave an inconsistent or rejected document.
    """
    oracle: dict = {}
    for result in results:
        op = result.op
        if result.failure is not None or result.answer is None:
            continue
        if isinstance(op, FamilyOp):
            if op.alpha not in oracle:
                oracle[op.alpha] = _sympy_square_free(workloads.family_d(op.alpha))
            if result.answer != oracle[op.alpha]:
                result.failure = "wrong: eligibility disagrees with sympy factorint"
        elif result.answer != _sympy_minus6_solvable(op.d):
            result.failure = "wrong: pell disagrees with sympy diop_DN"


# ---------------------------------------------------------------------------
# metrics


def _label(op) -> str:
    if isinstance(op, FamilyOp):
        return f"alpha={op.alpha} t={op.t}"
    return f"d={op.d} m={op.m} k={op.k}"


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of their host-corrected CPU time.

    Each child starts, imports quadtuple, makes the inputs, prints "ready"
    and exits. SPEED_SAMPLES kernel timings on either side of it give its
    speed factor.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        reference = [PROBE.sample() for _ in range(SPEED_SAMPLES)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        reference += [PROBE.sample() for _ in range(SPEED_SAMPLES)]
        if child.stdout.strip() != "ready" or child.returncode != 0:
            raise BenchError(f"set-up child exited {child.returncode}")
        cpu_s = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        times.append(cpu_s * REF_MS / statistics.median(reference))
    return statistics.median(times)


def end_to_end(p: Pass, setup_s: float, peak_rss_mb: float, notes: list[str]) -> dict:
    """The end-to-end metrics of the untraced pass, every time scaled by its op's speed factor."""
    results, f = p.results, p.factors
    ok = [r.failure is None for r in results]
    ops = [(r.ms * fi, good) for r, fi, good in zip(results, f, ok)]
    verify = [(ms * fi, good) for r, fi in zip(results, f) for ms, good in r.verify]
    verify += p.rechecks
    succeeded = sum(ok)
    values = {
        "ops_per_s": succeeded / sum(s * fi for s, fi in zip(p.loop_s, f)),
        "op_ms_p50": percentile(ops, 50),
        "op_ms_tail": percentile(ops, tail_percentile(len(ops))),
        "ok_ratio": succeeded / len(results),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes.append(f"op_ms_tail is p{tail_percentile(len(ops)):g} of {len(ops)} ops")
    notes.append(f"speed factors: median {statistics.median(f):.3f}, range {min(f):.3f}-{max(f):.3f}")
    if p.rechecks:
        notes.append(f"verify_ms includes {len(p.rechecks)} repeated checks of earlier documents")
    if verify:
        values["verify_ms_p50"] = percentile(verify, 50)
        values["verify_ms_tail"] = percentile(verify, tail_percentile(len(verify)))
        notes.append(f"verify_ms_tail is p{tail_percentile(len(verify)):g} of {len(verify)} checks")
    else:  # only when no op produced a document
        values["verify_ms_p50"] = values["verify_ms_tail"] = 0.0
        notes.append("no documents to verify")
    notes.append(f"fail_ratio = {1 - values['ok_ratio']:.4f} ({len(results) - succeeded} of {len(results)})")
    return values


def corrected_s(p: Pass, skip: set[int]) -> float:
    """The pass's loop time but for the ops in skip, every op scaled by its speed factor."""
    return sum(s * fi for i, (s, fi) in enumerate(zip(p.loop_s, p.factors)) if i not in skip)


def per_layer(tracer, results, overhead, fundamental_unit) -> dict:
    """Per-layer metrics of the traced pass; every name in BENCHMARK.json's per_layer."""
    layers = tracing.by_name(tracer.spans)
    values = {}
    for name in PER_LAYER_CALLS:
        values[f"{name}.calls"] = layers.get(name, {}).get("calls", 0)
    for name in PER_LAYER_SELF:
        values[f"{name}.self_s"] = layers.get(name, {}).get("self_s", 0.0)
    info = fundamental_unit.cache_info()
    lookups = info.hits + info.misses
    values["pellsolve.fundamental_unit.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
    values["counterex.report_to_json.failures"] = tracer.raised["counterex.report_to_json"]
    values["counterex.report_bytes"] = sum(r.archive_bytes for r in results)
    values["cli.exit_nonzero"] = sum(r.nonzero_exits for r in results)
    values["trace.overhead"] = overhead
    return values


def coverage_ok(coverage: float, overhead: float, slack: float = COVERAGE_SLACK) -> bool:
    """Whether the traced pass's top-level spans account for the untraced op time.

    `coverage` is their total over the untraced op and check time, and
    `overhead` is the traced over the untraced loop time, all corrected for
    the host's speed. Coverage should be 1 to within that overhead: a
    tracer that lost cli.main, or counted a call twice, is not.
    """
    return abs(coverage - 1) <= abs(overhead - 1) + slack


PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "cache_hit_ratio": "ratio",
    "failures": "count",
    "report_bytes": "bytes",
    "exit_nonzero": "count",
    "overhead": "ratio",
}


def _unit(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def _write_spans(path: Path, spans) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps([s.id, s.parent, s.op, s.name, s.start, s.end]) + "\n")


# ---------------------------------------------------------------------------
# entry points


def bench(workload_name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    program = load_program()
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(workload_name, seed)
    setup_s = None if trace else measure_setup(workload_name, seed)
    signal.signal(signal.SIGPROF, _on_deadline)

    untraced = run_pass(program, workload)
    results = untraced.results
    notes: list[str] = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before sympy loads
    if trace:
        fundamental_unit = program.pellsolve.fundamental_unit
        fundamental_unit.cache_clear()  # as cold as the untraced pass found it
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(program, workload, tracer=tracer)
        finally:
            tracer.uninstall()
    check(results)
    if trace:
        if [r.digest for r in traced.results] != [r.digest for r in results]:
            for r in results:
                r.failure = r.failure or "wrong: traced outputs differ from untraced"
        # A missed op's time is its deadline, not the program's: leave it out.
        missed = {i for i, r in enumerate(results) if r.missed}
        overhead = corrected_s(traced, missed) / corrected_s(untraced, missed)
        metrics = per_layer(tracer, traced.results, overhead, fundamental_unit)
        spent = [r.ms + sum(ms for ms, _ in r.verify) for r in results]
        spent_ms = sum(ms * fi for i, (ms, fi) in enumerate(zip(spent, untraced.factors)) if i not in missed)
        spent_ms += sum(ms for ms, _ in untraced.rechecks)
        top = [s for s in tracer.spans if s.parent is None and s.op not in missed]
        coverage = sum(s.duration * PROBE.factor(s.start, s.end) for s in top) * 1000 / spent_ms
        if not coverage_ok(coverage, overhead):
            raise BenchError(f"top-level spans cover {coverage:.3f} of the untraced op and check time, "
                             f"outside 1 +- ({abs(overhead - 1):.3f} overhead + {COVERAGE_SLACK} slack)")
        notes.append(f"top-level spans cover {coverage:.3f} of untraced op and check time "
                     f"(tracing overhead {overhead:.3f})")
        _write_spans(OUT_DIR / f"spans-{workload_name}.jsonl", tracer.spans)
    else:
        metrics = end_to_end(untraced, setup_s, peak_rss_mb, notes)

    failures = [(r, r.failure) for r in results if r.failure]
    digest = hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest()
    notes.append(f"outputs sha256 {digest} over {len(results)} ops")
    for r, why in failures[:20]:
        notes.append(f"failed {_label(r.op)}: {why}")
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": untraced.wall,
        "notes": notes,
        "outputs_sha256": digest,
        "op_sha256": [r.digest for r in results],
        "op_ms": [r.ms for r in results],  # CPU ms as measured
        "speed_factors": untraced.factors,
        "failed_ops": [{"op": _label(r.op), "why": why} for r, why in failures],
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    result = {
        "correct": not any(why.startswith("wrong") for _, why in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": _unit(name)} for name, v in metrics.items()},
    }
    return result, notes


def _print_table(workload: str, result: dict, notes: list[str]) -> None:
    print(f"== {workload}: {result['attempted']} ops, {result['failed']} failed, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for note in notes:
        print(f"  # {note}")


def run_all(args) -> int:
    """Every workload in its own fresh process, one table each."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"== {name}: benchmark exited {child.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            load_program()
            workloads.make(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        result, notes = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_table(args.workload, result, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
