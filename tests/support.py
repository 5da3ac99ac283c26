"""Rings and oracles shared by the test modules.

A plain module rather than conftest.py, so that `from support import ...`
resolves to this file even when pytest also collects bench/tests, whose
conftest.py would otherwise shadow this directory's.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from itertools import takewhile
from math import isqrt
from pathlib import Path

import quadtuple
from quadtuple import (
    RingCtx,
    certificate_holds,
    degenerate_check,
    enumerate_solutions,
    sqrt_in_ring,
    verify_quadruple,
)
from quadtuple.construct import PAIRS, PairStatus, VerifyReport
from quadtuple.pellsolve import LIMIT_CAP, unit_from_norm6

# rings the suite keeps coming back to; 735 and 3975 carry square factors
# (3*5*7^2 and 3*5^2*53), so no certificate holds in them
RING15 = RingCtx(15)
RING735 = RingCtx(735)
RING3975 = RingCtx(3975)
# the square-free d = 15 (mod 60) up to 2000 where norm -6 is attained
# (exactly those = 15 mod 360)
MINUS6_D = [15, 1095, 1455]
# the canonical norm -6 representative solve_norm_eq's y-scan finds, pinned:
# the scan takes about 0.35 s at d = 15495
SCANNED_GAMMA = {15: (3, 1), 1095: (33, 1), 15495: (224041257, 1799833)}


def brute_norm_solutions(ctx, N, ybound):
    """Every (x, y) with x^2 - d*y^2 = N and |y| <= ybound, by raw scan.

    Squares are tested by isqrt alone, not by quadring.is_perfect_square,
    so a wrong residue table in the code under test cannot pass its own
    check."""
    out = set()
    for y in range(ybound + 1):
        t = ctx.d * y * y + N
        if t < 0 or (x := isqrt(t)) ** 2 != t:
            continue
        out.update({(x, y), (-x, y), (x, -y), (-x, -y)})
    return out


def solutions_up_to(classes, ybound):
    """The solutions with |y| <= ybound, in the canonical order: the first
    LIMIT_CAP solutions cut at the bound, which the order puts first.  The
    cut is asserted whole: fewer than LIMIT_CAP solutions, or the last one
    past the bound."""
    sols = enumerate_solutions(classes, LIMIT_CAP)
    assert len(sols) < LIMIT_CAP or abs(sols[-1].b) > ybound, (classes, ybound)
    return list(takewhile(lambda s: abs(s.b) <= ybound, sols))


def enum_order_key(sol):
    """The toolkit's deterministic solution order, restated for comparisons."""
    return (abs(sol.b), abs(sol.a), sol.a <= 0, sol.b < 0)


def report_holds_by_definition(ctx, t, n, quad, certificate):
    """counterex._report_holds, given the power (w, w^2) for w = unit^t,
    without its reduction by w.

    The same preconditions with the whole certificate check (N(u) = 1 and
    N(minus6) = -6 included), u == unit^(2t) by the full power, and all six
    square tests on the scaled quadruple as it stands (verify_quadruple).
    """
    return (
        quad.n == n == certificate.n
        and degenerate_check(quad.elements)
        and certificate_holds(certificate)
        and certificate.u == unit_from_norm6(certificate.minus6) ** (2 * t)
        and verify_quadruple(ctx, quad).ok
    )


def verify_quadruple_by_operators(ctx, quad):
    """construct.verify_quadruple as it was before it moved to coordinates:
    each target is built with QuadInt's product and sum, which raise
    MixedRingError for elements or n of another ring, and a witness is
    compared with +-root, or squared when there is no root, as an element."""
    pairs = []
    distinct = degenerate_check(quad.elements)
    all_ok = distinct
    for i, j in PAIRS:
        target = quad.elements[i - 1] * quad.elements[j - 1] + quad.n
        witness = quad.witnesses.get((i, j))
        root = sqrt_in_ring(target)
        if witness is None:
            witness_ok = None
        elif root is None:
            witness_ok = witness * witness == target
        else:
            witness_ok = witness in (root, -root)
        ok = root is not None and witness_ok is not False
        all_ok = all_ok and ok
        pairs.append(PairStatus(i, j, witness_ok, root, ok))
    return VerifyReport(tuple(pairs), distinct, all_ok)


def child_env():
    """The environment with the package's tree first on PYTHONPATH."""
    src = str(Path(quadtuple.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_python(*args, cpu_s=None, stdin=None):
    """The interpreter with args in a child process, the package's tree on its
    path; with cpu_s, the child alone runs under an RLIMIT_CPU of cpu_s
    seconds, past which SIGXCPU ends it."""

    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))

    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
        preexec_fn=None if cpu_s is None else limit_cpu,
    )
