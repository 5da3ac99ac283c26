"""Rings and oracles shared by the test modules.

A plain module rather than conftest.py, so that `from support import ...`
resolves to this file even when pytest also collects bench/tests, whose
conftest.py would otherwise shadow this directory's.
"""

from __future__ import annotations

from quadtuple import (
    RingCtx,
    certificate_holds,
    degenerate_check,
    is_perfect_square,
    verify_quadruple,
)
from quadtuple.pellsolve import unit_from_norm6

# rings the suite keeps coming back to; 735 and 3975 carry square factors
# (3*5*7^2 and 3*5^2*53), so no certificate holds in them
RING15 = RingCtx(15)
RING735 = RingCtx(735)
RING3975 = RingCtx(3975)
# the square-free d = 15 (mod 60) up to 2000 where norm -6 is attained
# (exactly those = 15 mod 360)
MINUS6_D = [15, 1095, 1455]


def brute_norm_solutions(ctx, N, ybound):
    """Every (x, y) with x^2 - d*y^2 = N and |y| <= ybound, by raw scan."""
    out = set()
    for y in range(ybound + 1):
        t = ctx.d * y * y + N
        if t < 0:
            continue
        x = is_perfect_square(t)
        if x is None:
            continue
        out.update({(x, y), (-x, y), (x, -y), (-x, -y)})
    return out


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
