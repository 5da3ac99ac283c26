"""Tests of the benchmark's own machinery: run with `python3 -m pytest bench/tests`."""

from __future__ import annotations

import signal

import pytest

import quadtuple.cli
import quadtuple.counterex
import quadtuple.pellsolve
import quadtuple.quadring
import run
import tracing
import workloads


@pytest.fixture
def program():
    return run.load_program()


def test_tracer_wraps_every_import_site_and_restores_them(program):
    originals = {
        (quadtuple.cli, "build_report"): quadtuple.counterex.build_report,
        (quadtuple.counterex, "build_report"): quadtuple.counterex.build_report,
        (quadtuple.pellsolve, "solve_norm_eq"): quadtuple.pellsolve.solve_norm_eq,
        (quadtuple.cli, "solve_norm_eq"): quadtuple.pellsolve.solve_norm_eq,
        (quadtuple.quadring, "factorize"): quadtuple.quadring.factorize,
        (quadtuple.cli, "main"): quadtuple.cli.main,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, name), original in originals.items():
            wrapped = getattr(module, name)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        with pytest.raises(RuntimeError):
            tracer.install()
        tracer.op = 7
        rc = run._cli(program, ["--format", "json", "counterexamples", "--alpha", "0..0", "--t", "1"], [])
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    assert rc == 0

    spans = {s.id: s for s in tracer.spans}
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and spans[0].parent is None
    assert {s.op for s in tracer.spans} == {7}
    build = next(s for s in tracer.spans if s.name == "counterex.build_report")
    assert spans[build.parent].name == "cli.main"
    solve = next(s for s in tracer.spans if s.name == "pellsolve.solve_norm_eq")
    assert spans[solve.parent].name == "counterex.build_report"
    unit = next(s for s in tracer.spans if s.name == "pellsolve.fundamental_unit")
    assert spans[unit.parent].name == "pellsolve.solve_norm_eq"
    assert all(s.start <= s.end for s in tracer.spans)


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(0, None, 0, "root", 0.0, 10.0),
        S(1, 0, 0, "a", 1.0, 4.0),
        S(2, 0, 0, "b", 3.0, 6.0),  # overlaps a: the union is [1, 6]
        S(3, 2, 0, "c", 4.0, 5.0),
        S(4, 0, 0, "d", 9.0, 12.0),  # runs past its parent: only [9, 10] counts
        S(5, None, 1, "a", 20.0, 21.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 10.0 - 5.0 - 1.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 1.0}
    layers = tracing.by_name(spans)
    assert layers["a"] == {"calls": 2, "self_s": 4.0}


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50), (20, 50), (99, 50), (100, 90), (168, 90), (999, 90), (1000, 99), (5000, 99), (10_000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    assert p == 50 or n - run.nearest_rank(n, p) >= run.MIN_BEYOND


def test_failed_ops_rank_above_every_success():
    successes = [(float(ms), True) for ms in range(1, 11)]
    failures = [(0.5, False), (0.25, False)]
    # the two failures take the two highest ranks, however fast they were
    assert run.ranked(successes + failures) == [float(ms) for ms in range(1, 11)] + [0.25, 0.5]
    assert run.percentile(successes + failures, 50) > run.percentile(successes, 50)


def test_percentile_is_the_mean_of_a_narrow_rank_band():
    assert run.percentile([(7.0, True)], 50) == 7.0
    values = [(float(ms), True) for ms in range(1, 201)]
    assert run.percentile(values, 50) == sum(range(90, 111)) / 21  # rank 100, h = 10
    assert run.percentile(values, 90) == sum(range(174, 187)) / 13  # rank 180, h = 20 // 3
    assert run.percentile(values[:20], 50) == (8 + 9 + 10 + 11 + 12) / 5  # at least two ranks each side
    assert run.percentile(values[:3], 50) == (1 + 2 + 3) / 3


def test_speed_factor_is_ref_ms_over_the_median_kernel_time_around_the_op():
    probe = run.SpeedProbe()
    probe.at = [i * 0.01 for i in range(200)]  # one timing every 10 ms of CPU time
    probe.ms = [run.REF_MS * (2 if i >= 100 else 1) for i in range(200)]  # then the host halves its speed
    assert probe.factor(0.4, 0.41) == 1.0
    assert probe.factor(1.5, 1.6) == 0.5
    assert probe.factor(0.985, 1.005) == pytest.approx(1 / 1.5)  # 26 fast and 26 slow timings
    assert probe.factor(9.0, 9.0) == 0.5  # no timings in reach: the nearest SPEED_SAMPLES


def test_the_probe_times_the_kernel_during_an_op_and_is_left_out_of_its_time(program):
    probe = run.PROBE
    before = len(probe.ms)
    probe.start()
    try:
        spent, raw, start = probe.spent_s, run.thread_time(), run.cpu_now()
        program.pellsolve.solve_norm_eq(program.cli.RingCtx(11355), -6)  # about 0.3 s
        op_s, raw = run.cpu_now() - start, run.thread_time() - raw
    finally:
        probe.stop()
    assert len(probe.ms) - before > run.SPEED_SAMPLES + 10
    assert op_s == pytest.approx(raw - (probe.spent_s - spent), abs=1e-4)


def test_deadline_escapes_cli_main(program):
    assert not issubclass(run.DeadlineExceeded, Exception)
    previous = signal.signal(signal.SIGPROF, run._on_deadline)
    try:
        # about 5 s of y-scan in solve_norm_eq, so the deadline fires inside the package
        result, documents = run.execute(program, workloads.RingOp(18435, 0, 0), deadline_s=0.05)
    finally:
        signal.signal(signal.SIGPROF, previous)
    assert result.failure.startswith("deadline")
    assert result.nonzero_exits == 0 and result.answer is None and documents == []
    assert result.ms < 2000
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    run.check([result])
    assert result.failure.startswith("deadline")


def test_checks_pass_on_good_ops_and_name_the_large_t_defect(program, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ARCHIVE", str(tmp_path / "archive.jsonl"))
    ops = [workloads.FamilyOp(0, 1), workloads.FamilyOp(1, 1), workloads.FamilyOp(2, 1000), workloads.RingOp(15, 3, 1)]
    results = [run.execute(program, op)[0] for op in ops]
    run.check(results)
    assert [r.failure for r in results[:2]] == [None, None]
    assert results[0].verify and results[0].verify[0][1]
    assert not results[1].verify  # alpha = 1 is not square-free: no report
    assert results[2].failure.startswith("exit 2") and "4300" in results[2].failure
    assert results[3].failure is None and results[3].answer is True and len(results[3].verify) == 1


def test_check_fails_an_answer_the_oracle_contradicts():
    # alpha = 1 gives d = 3975 = 3 * 5^2 * 53, which is not square-free
    wrong = run.OpResult(workloads.FamilyOp(1, 1), 1.0, answer=True)
    right = run.OpResult(workloads.FamilyOp(0, 1), 1.0, answer=True)
    unsolvable = run.OpResult(workloads.RingOp(14655, 0, 0), 1.0, answer=True)
    run.check([wrong, right, unsolvable])
    assert wrong.failure == "wrong: eligibility disagrees with sympy factorint"
    assert right.failure is None
    assert unsolvable.failure == "wrong: pell disagrees with sympy diop_DN"


@pytest.mark.parametrize(
    "coverage, overhead, ok",
    [(1.0, 1.0, True), (1.08, 1.05, True), (0.95, 0.97, True), (1.2, 1.05, False), (0.8, 1.1, False), (2.0, 1.1, False)],
)
def test_top_level_spans_must_cover_the_untraced_time_within_the_overhead(coverage, overhead, ok):
    assert run.coverage_ok(coverage, overhead, slack=0.05) is ok


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 3), workloads.make(name, 3)
        assert a.ops[:200] == b.ops[:200]
        assert workloads.make(name, 4).ops[:200] != a.ops[:200]
    rings = workloads.ring_list()
    assert len(rings) == 168 and {14655, 17715, 18435} <= set(rings)
    sweep = workloads.make("ring_sweep", 3).ops
    assert sorted(op.d for op in sweep) == rings
    assert all((op.m + op.k) % 2 == 0 for op in sweep)
    near = workloads.make("near_window", 3).ops
    assert sorted(near) == sorted(workloads.make("near_window", 4).ops)
    assert len(near) == workloads.NEAR_OPS and near[0].alpha < 1000 and {op.t for op in near} == {1}
    assert all(b.alpha == (a.alpha + 1) % workloads.NEAR_OPS for a, b in zip(near, near[1:]))
    large = workloads.make("large_t", 3).ops
    assert sorted(large) == sorted(workloads.make("large_t", 4).ops)
    assert large[0] == workloads.FamilyOp(0, workloads.T_CAP) and len(set(large)) == len(large) == 240
