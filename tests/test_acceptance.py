"""Acceptance gate: one test per criterion, each at its stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from quadtuple import (
    QuadInt,
    RingCtx,
    build_report,
    certify_nonrepresentable,
    construct_quadruple,
    family_d,
    fundamental_unit,
    is_square_free,
    scale_quadruple,
    search_repr,
    solve_norm_eq,
    sqrt_in_ring,
    unit_from_norm6,
    verify_quadruple,
)

from support import RING15, RING735, RING3975, brute_norm_solutions, solutions_up_to


@contextmanager
def criterion(num, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {num} blew its budget: {elapsed:.3f}s >= {budget_seconds}s"
    )
    print(f"criterion {num} ({description}): PASS in {elapsed:.3f}s (budget {budget_seconds}s)")


def test_criterion_1_d15_fundamentals():
    with criterion(1, "d=15 fundamental unit (4,1) and norm -6 class (3,1)", 0.1):
        fu = fundamental_unit(RING15)
        assert (fu.a, fu.b) == (4, 1)
        reps = solve_norm_eq(RING15, -6).representatives
        assert QuadInt(3, 1, RING15) in reps


def test_criterion_2_d735_fundamentals():
    with criterion(2, "d=735 fundamental unit (244,9), class (27,1), derived unit", 0.1):
        fu = fundamental_unit(RING735)
        assert (fu.a, fu.b) == (244, 9)
        reps = solve_norm_eq(RING735, -6).representatives
        assert QuadInt(27, 1, RING735) in reps
        assert unit_from_norm6(QuadInt(27, 1, RING735)) == QuadInt(244, 9, RING735)


def test_criterion_3_base_quadruple():
    with criterion(3, "verified D(2) quadruple at d=15, m=k=0", 0.1):
        quad, _ = construct_quadruple(RING15, 0, 0)
        assert {(e.a, e.b) for e in quad.elements} == {(4, 1), (8, -2), (8, -1), (28, -7)}
        assert quad.n == QuadInt(2, 0, RING15)
        report = verify_quadruple(RING15, quad)
        assert report.ok
        assert all(p.witness_ok and p.root is not None for p in report.pairs)
        # the derived set carries (8, -2): with (8, +2) in its place the
        # first pair breaks, since (4,1)*(8,2) + 2 = (64,16) is not a square
        assert sqrt_in_ring(QuadInt(4, 1, RING15) * QuadInt(8, 2, RING15) + quad.n) is None


def test_criterion_4_scaling_family():
    with criterion(4, "scaled D(2*(4,1)^(2t)) quadruples, t in {1,2,5,10,50}", 2.0):
        base, _ = construct_quadruple(RING15, 0, 0)
        u = fundamental_unit(RING15)
        for t in (1, 2, 5, 10, 50):
            w = u**t
            scaled = scale_quadruple(base, w, w * w)
            assert scaled.n == 2 * u ** (2 * t)
            assert verify_quadruple(RING15, scaled).ok


def test_criterion_5_family_identity():
    with criterion(5, "(60a+3)^2 - d(a) = -6 and d(a) = 15 mod 360, |a| <= 50", 0.1):
        for alpha in range(-50, 51):
            cand = family_d(alpha)
            assert cand.x * cand.x - cand.ctx.d == -6
            assert cand.ctx.d % 360 == 15


def test_criterion_6_counterexample_pipeline():
    with criterion(6, "verified reports for square-free d(a), a in [0,5], t in {0,1}", 30.0):
        checked = 0
        for alpha in range(0, 6):
            cand = family_d(alpha)
            if not cand.ctx.square_free:
                continue
            ctx = RingCtx(cand.ctx.d)
            for t in (0, 1):
                report = build_report(ctx, t)
                assert report.verified, (cand.ctx.d, t)
                checked += 1
        assert checked == 10  # five square-free members, two exponents each


def test_criterion_7_nonrepresentability_concordance():
    with criterion(7, "certified n resist search to 500; odd integers never do", 60.0):
        u = fundamental_unit(RING15)
        for t in (0, 1):
            n = 2 * u ** (2 * t)
            assert certify_nonrepresentable(n) is not None
            assert search_repr(n, 500) is None
        odd_values = list(range(3, 82, 4))  # 20 odd integers inside [3, 99]
        assert len(odd_values) == 20 and all(v % 2 for v in odd_values)
        for value in odd_values:
            n = QuadInt(value, 0, RING15)
            found = search_repr(n, (value + 1) // 2)
            assert found is not None
            p, q = found
            assert p * p - q * q == n


def test_criterion_8_solver_oracle_equivalence():
    with criterion(8, "class enumeration equals brute force, d <= 2000", 300.0):
        ybound = 2 * 10**4
        tested = 0
        for d in range(15, 2001, 60):
            if not is_square_free(d):
                continue
            ctx = RingCtx(d)
            for N in (1, -1, 2, -2, -6):
                sols = solutions_up_to(solve_norm_eq(ctx, N), ybound)
                got = sorted((s.a, s.b) for s in sols)
                want = sorted(brute_norm_solutions(ctx, N, ybound))
                assert got == want, (d, N)
                if N == -6:
                    for s in sols:
                        assert s.a % 6 == 3, (d, s)  # x = +-3 mod 6
                        assert s.b % 6 in (1, 5), (d, s)  # y = +-1 mod 6
                tested += 1
        assert tested == 16 * 5


def test_criterion_9_witness_oracle_double_verification():
    with criterion(9, "witnesses and the square test agree on 200 random builds", 60.0):
        rng = random.Random(20260810)
        rings = (RING15, RING735, RING3975)
        for _ in range(200):
            ctx = rng.choice(rings)
            m = rng.randint(-50, 50)
            k = rng.randint(-50, 50)
            if (m + k) % 2:
                k += 1 if k < 50 else -1
            quad, _ = construct_quadruple(ctx, m, k, unit_index=rng.randint(0, 5))
            report = verify_quadruple(ctx, quad)
            assert report.ok
            for pair in report.pairs:
                assert pair.witness_ok is True
                assert pair.root is not None
                witness = quad.witnesses[(pair.i, pair.j)]
                assert pair.root in (witness, -witness)
