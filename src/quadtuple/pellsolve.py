"""The fundamental unit of Z[sqrt(d)] and the norm-equation machinery.

Provides the fundamental solution of x^2 - d*y^2 = 1, class representatives
and deterministic enumeration for x^2 - d*y^2 = N, and the facts about norms
the construction rests on when d = 15 (mod 60): the shape of norm -6
solutions, the norm 1 element built from one and its powers, and the mod-5
argument that +-2 are not norms.
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
    "check_pm2_unsolvable",
    "enumerate_solutions",
    "fundamental_unit",
    "norm6_sign_y",
    "solutions_within",
    "solve_norm_eq",
    "unit_from_norm6",
    "unit_power",
]

# largest |N| solve_norm_eq accepts
NORM_CAP = 10**6
# largest limit enumerate_solutions accepts
LIMIT_CAP = 1000
# most continued-fraction steps fundamental_unit takes: no d <= 20000 needs
# more than 562, d = 100000007 needs 6524
PERIOD_CAP = 10**4


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
    mod 5.  False makes no claim either way.  The certificate does not call
    this: it reads 5 | d off d = 15 (mod 60).
    """
    return ctx.d % 5 == 0


def norm6_sign_y(sol: QuadInt) -> int:
    """The s = +-1 with y = s (mod 6), for a norm -6 solution (x, y).

    For d = 15 (mod 60) every norm -6 solution has x = 3 (mod 6) and
    y = +-1 (mod 6): an even y would give x^2 = -6 = 2 (mod 4), so y and
    x^2 = d*y^2 - 6 are odd, and 3 | d gives 3 | x; 3 | y would give
    9 | x^2 + 6 with 9 | x^2, so 9 | 6.  For another d the shape can fail,
    and a solution without x = 3 (mod 6) raises ValueError.
    """
    if sol.norm() != -6:
        raise ValueError(f"{sol} has norm {sol.norm()}, expected -6")
    x, y = sol.a, sol.b
    if x % 6 != 3:
        raise ValueError(f"norm -6 solution with x = {x} not 3 mod 6")
    return 1 if y % 6 == 1 else -1


def unit_from_norm6(sol: QuadInt) -> QuadInt:
    """Norm 1 element ((g^2 + 3)/3, g*h/3) built from a norm -6 solution (g, h).

    norm6_sign_y refuses, with ValueError, a solution without g = 3 (mod 6),
    which every norm -6 solution has for d = 15 (mod 60).  That one test is
    the whole shape: N(g, h) = -6 forces h odd, as an even h gives
    g^2 = 2 (mod 4), and with 3 | g the element (3(g/3)^2 + 1, (g/3)*h) has
    an even first and odd second coordinate iff g/3 is odd; so norm -6,
    3 | g and that parity all hold iff g = 3 (mod 6).  With 3 | g,
    (g, h)^2 = (2g^2 + 6, 2gh) makes the element (g, h)^2 / 6 exactly, so
    its norm is 1.  For the canonical representative of
    solve_norm_eq(ctx, -6) it is the fundamental unit: (g, h)^2 / 6 = unit^k
    with k odd, since sqrt(6) is not in Q(sqrt(d)), and the least h > 0 in
    the class, with g > 0, is where k = 1.
    """
    norm6_sign_y(sol)
    g, h = sol.a, sol.b
    return QuadInt((g * g + 3) // 3, g * h // 3, sol.ctx)


def unit_power(unit: QuadInt, t: int) -> tuple[QuadInt, QuadInt]:
    """(unit^t, unit^(2t)) for a unit of norm 1 and an integer t >= 0.

    With unit = a + b*sqrt(d) and unit^k = X_k + Y_k*sqrt(d), norm 1 makes
    conj(unit) = unit^-1, so X_k = (unit^k + unit^-k)/2 and
    X_(m+n) + X_(m-n) = 2*X_m*X_n.  That gives the Lucas ladder
    X_2k = 2*X_k^2 - 1 and X_(2k+1) = 2*X_k*X_(k+1) - a, run on the pair
    (X_k, X_(k+1)) over the bits of t: one square and one product of the
    x-coordinate's size per bit, where QuadInt.__pow__ takes three for its
    square and four more for each multiply.  unit^(t+1) = unit^t * unit reads
    X_(t+1) = a*X_t + d*b*Y_t, so Y_t = (X_(t+1) - a*X_t) / (d*b): one
    division by a small number, exact for a unit of norm 1, and checked.
    Norm 1 also gives X_t^2 + d*Y_t^2 = 2*X_t^2 - 1, so
    unit^(2t) = (2*X_t^2 - 1, 2*X_t*Y_t) takes two products.  Every square
    is x * x, CPython's faster path for one operand.  A unit of norm other
    than 1, or a t that is not a nonnegative int, raises ValueError; b = 0
    is +-1, whose Y_t is 0.
    """
    if not isinstance(t, int) or t < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {t!r}")
    a, b, ctx = unit
    d = ctx.d
    if a * a - d * (b * b) != 1:
        raise ValueError(f"{unit} has norm {unit.norm()}, expected 1")
    x0, x1 = 1, a  # (X_k, X_(k+1)) for k = 0
    for bit in bin(t)[2:] if t else ():
        mixed = 2 * (x0 * x1) - a
        if bit == "1":
            x0, x1 = mixed, 2 * (x1 * x1) - 1
        else:
            x0, x1 = 2 * (x0 * x0) - 1, mixed
    y = 0
    if b:
        y, rem = divmod(x1 - a * x0, d * b)
        if rem:
            raise ValueError(f"{unit} has no exact power {t}: the ladder left a remainder")
    return QuadInt(x0, y, ctx), QuadInt(2 * (x0 * x0) - 1, 2 * (x0 * y), ctx)
