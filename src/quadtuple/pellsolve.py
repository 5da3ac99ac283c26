"""The fundamental unit of Z[sqrt(d)] and the norm-equation machinery.

Provides the fundamental solution of x^2 - d*y^2 = 1, class representatives
and deterministic enumeration for x^2 - d*y^2 = N, and the facts about norms
the construction rests on when d = 15 (mod 60): the shape of norm -6
solutions, the norm 1 element built from one, and the mod-5 argument that
+-2 are not norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .quadring import QuadInt, RingCtx, is_perfect_square

__all__ = [
    "LIMIT_CAP",
    "NORM_CAP",
    "NormEqClasses",
    "PERIOD_CAP",
    "ShapeViolation",
    "check_pm2_unsolvable",
    "enumerate_solutions",
    "fundamental_unit",
    "norm6_sign_y",
    "solutions_within",
    "solve_norm_eq",
    "unit_from_norm6",
]

# largest |N| solve_norm_eq accepts
NORM_CAP = 10**6
# largest limit enumerate_solutions accepts
LIMIT_CAP = 1000
# most continued-fraction steps fundamental_unit takes: no d <= 20000 needs
# more than 562, d = 100000007 needs 6524
PERIOD_CAP = 10**4


class ShapeViolation(RuntimeError):
    """A value failed a congruence shape the theory guarantees.

    Seeing this means a bug or a hypothesis violation."""


@lru_cache(maxsize=None)
def fundamental_unit(ctx: RingCtx) -> QuadInt:
    """The fundamental unit x + y*sqrt(d), x, y > 0 the least solution of
    x^2 - d*y^2 = 1, read off the convergents of sqrt(d).

    One loop runs the (P, Q) recurrence of the continued fraction and the
    convergents h/k together, and stops at the first convergent of norm 1:
    the end of the first period when its length is even, of the second when
    it is odd.  The norm of the n-th convergent is (-1)^(n+1) * Q_(n+1), so
    the test reads the small Q and never squares h or k.  A walk longer
    than PERIOD_CAP steps raises ValueError.
    """
    d = ctx.d
    a0 = isqrt(d)
    p, q, a = 0, 1, a0
    h0, h1 = 1, a0
    k0, k1 = 0, 1
    sign = -1  # h1^2 - d*k1^2 == sign * q once q is advanced
    for _ in range(PERIOD_CAP):
        p = q * a - p
        q = (d - p * p) // q
        if q == 1 and sign == 1:
            return QuadInt(h1, k1, ctx)
        a = (a0 + p) // q
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        sign = -sign
    raise ValueError(
        f"the continued fraction of sqrt({d}) runs past the cap of {PERIOD_CAP} steps"
    )


# ---------------------------------------------------------------------------
# the norm equation x^2 - d*y^2 = N


@dataclass(frozen=True)
class NormEqClasses:
    """Solution classes of x^2 - d*y^2 = N.

    One canonical representative per class (minimal |y| with y >= 0, ties
    broken by x > 0); an empty representative tuple means unsolvable.  Any
    solution is +-representative * unit^k for exactly one representative.
    """

    representatives: tuple[QuadInt, ...]
    unit: QuadInt


def _rep_key(s: QuadInt):
    # minimal |y|, then y >= 0, then x > 0: the canonical class element
    return (abs(s.b), s.b < 0, s.a <= 0, abs(s.a))


def _enum_key(s: QuadInt):
    # deterministic output order: |y|, |x|, positive x first, positive y first
    return (abs(s.b), abs(s.a), s.a <= 0, s.b < 0)


def _associated(s: QuadInt, r: QuadInt, N: int) -> bool:
    """True iff s = r * v for a unit v of norm 1.

    s * conj(r) = v * N, so v is integral exactly when N divides both
    coordinates, and then N(v) = N(s) * N(r) / N^2 = 1 by itself.
    """
    z = s * r.conjugate()
    return z.a % N == 0 and z.b % N == 0


def solve_norm_eq(ctx: RingCtx, N: int) -> NormEqClasses:
    """Class representatives of x^2 - d*y^2 = N.

    Scans 0 <= y <= ceil(sqrt(|N| * (t + 1) / (2d))) with t + u*sqrt(d) the
    fundamental unit; every class has a fundamental solution inside that
    range, so an empty result is a proof of unsolvability.
    """
    if N == 0:
        raise ValueError("N must be nonzero")
    if abs(N) > NORM_CAP:
        raise ValueError(f"|N| = {abs(N)} exceeds the search cap {NORM_CAP}")
    unit = fundamental_unit(ctx)
    ybound = isqrt(abs(N) * (unit.a + 1) // (2 * ctx.d)) + 1
    hits: list[QuadInt] = []
    for y in range(ybound + 1):
        t = ctx.d * y * y + N
        if t < 0:
            continue
        x = is_perfect_square(t)
        if x is None:
            continue
        signs = {(x, y), (-x, y), (x, -y), (-x, -y)}
        hits.extend(QuadInt(sx, sy, ctx) for sx, sy in signs)
    hits.sort(key=_rep_key)
    reps: list[QuadInt] = []
    for s in hits:
        if not any(_associated(s, r, N) for r in reps):
            reps.append(s)
    return NormEqClasses(tuple(reps), unit)


def solutions_within(classes: NormEqClasses, ybound: int) -> list[QuadInt]:
    """All solutions with |y| <= ybound, deterministically ordered.

    Walks +-rep * unit^k both ways from each representative.  With r, r' the
    two real images of rep and e > 1 the unit's,
    y_k = (r * e^k - r' * e^-k) / (2 sqrt(d)) and r * r' = N: y_k is monotone
    in k when N > 0, and of one sign and convex when N < 0.  Either way |y_k|
    never shrinks going away from the representative, which has the least
    |y| in its class, so each walk stops at its first |y| above the bound.
    """
    unit = classes.unit
    found: set[tuple[int, int]] = set()
    for rep in classes.representatives:
        for step in (unit, unit.conjugate()):
            cur = rep
            while abs(cur.b) <= ybound:
                found.add((cur.a, cur.b))
                found.add((-cur.a, -cur.b))
                cur = cur * step
    sols = [QuadInt(a, b, unit.ctx) for (a, b) in found]
    sols.sort(key=_enum_key)
    return sols


def enumerate_solutions(classes: NormEqClasses, limit: int) -> list[QuadInt]:
    """The first `limit` solutions in the canonical order, 1 <= limit <= LIMIT_CAP."""
    if not 1 <= limit <= LIMIT_CAP:
        raise ValueError(f"limit must be in [1, {LIMIT_CAP}], got {limit}")
    if not classes.representatives:
        return []
    bound = max(abs(r.b) for r in classes.representatives) + 1
    while True:
        sols = solutions_within(classes, bound)
        if len(sols) >= limit:
            return sols[:limit]
        bound = bound * 4 + 4


# ---------------------------------------------------------------------------
# structure of solutions for d = 15 (mod 60)


def check_pm2_unsolvable(ctx: RingCtx) -> bool:
    """True when 5 | d, which proves x^2 - d*y^2 = +-2 unsolvable.

    Reducing mod 5 leaves x^2 = +-2, and both are quadratic non-residues
    mod 5.  False makes no claim either way.
    """
    return ctx.d % 5 == 0


def norm6_sign_y(sol: QuadInt) -> int:
    """The s = +-1 with y = s (mod 6), for a norm -6 solution (x, y).

    For d = 15 (mod 60) every norm -6 solution has x = 3 (mod 6); a
    solution without it raises ShapeViolation.  y = +-1 (mod 6) then
    follows: d*y^2 = x^2 + 6 is odd, so y is odd, and 3 | y would give
    9 | x^2 + 6 with 9 | x^2, so 9 | 6.
    """
    if sol.norm() != -6:
        raise ValueError(f"{sol} has norm {sol.norm()}, expected -6")
    x, y = sol.a, sol.b
    if x % 6 != 3:
        raise ShapeViolation(f"norm -6 solution with x = {x} not 3 mod 6")
    return 1 if y % 6 == 1 else -1


def unit_from_norm6(sol: QuadInt) -> QuadInt:
    """Norm 1 element ((g^2 + 3)/3, g*h/3) built from a norm -6 solution (g, h).

    For d = 15 (mod 60), 3 | g and the element has an even first and odd
    second coordinate; a solution without either raises ShapeViolation.
    With 3 | g, (g, h)^2 = (2g^2 + 6, 2gh) makes the element (g, h)^2 / 6
    exactly, so its norm is (-6)^2 / 36 = 1.  For the canonical
    representative of solve_norm_eq(ctx, -6) it is the fundamental unit:
    (g, h)^2 / 6 = unit^k with k odd, since sqrt(6) is not in Q(sqrt(d)),
    and the least h > 0 in the class, with g > 0, is where k = 1.
    """
    if sol.norm() != -6:
        raise ValueError(f"{sol} has norm {sol.norm()}, expected -6")
    g, h = sol.a, sol.b
    if g % 3:
        raise ShapeViolation(f"norm -6 solution with x = {g} not divisible by 3")
    u = QuadInt((g * g + 3) // 3, g * h // 3, sol.ctx)
    if u.a % 2 != 0 or u.b % 2 != 1:
        raise ShapeViolation(f"derived unit {u} missing even/odd coordinate parity")
    return u
