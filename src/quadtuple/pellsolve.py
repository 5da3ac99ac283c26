"""The fundamental unit of Z[sqrt(d)] and the norm-equation machinery.

Provides the fundamental solution of x^2 - d*y^2 = 1, class representatives
and deterministic enumeration for x^2 - d*y^2 = N, and the facts about norms
the construction rests on when d = 15 (mod 60): the norm -6 classes read
off the fundamental unit, the norm 1 element a document's norm -6 witness
gives, with the one test of that witness's norm and shape, unit powers, and
the mod-5 argument that +-2 are not norms.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from heapq import merge
from itertools import accumulate, groupby, islice, repeat, takewhile
from math import isqrt
from operator import mul

from .quadring import QuadInt, RingCtx, is_perfect_square

__all__ = [
    "LIMIT_CAP",
    "NORM_CAP",
    "NormEqClasses",
    "PERIOD_CAP",
    "SCAN_CAP",
    "check_pm2_unsolvable",
    "enumerate_solutions",
    "fundamental_unit",
    "norm6_witness",
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
# most values of y solve_norm_eq's scan tests: of the square-free d = 15
# (mod 60) up to 20000, 18435 needs the most below it (1.2 * 10^7), and
# 14655 alone needs more (2.9 * 10^8)
SCAN_CAP = 10**8


@lru_cache(maxsize=1)
def fundamental_unit(ctx: RingCtx) -> QuadInt:
    """The fundamental unit x + y*sqrt(d), x, y > 0 the least solution of
    x^2 - d*y^2 = 1, read off the convergents of sqrt(d).

    The memo keeps the last ring only, for commands run in turn on one d:
    no command takes one ring's unit twice.  It stays for the benchmark,
    which reads cache_info() and cache_clear().

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

    z = s * conj(r) = v * N, so v is integral exactly when N divides both
    coordinates, and then N(v) = N(s) * N(r) / N^2 = 1 by itself.  Only
    z.b is taken: N(z) = N^2, so N | z.b gives N^2 | z.a^2, and so N | z.a.
    """
    return (s.b * r.a - s.a * r.b) % N == 0


def solve_norm_eq(ctx: RingCtx, N: int) -> NormEqClasses:
    """Class representatives of x^2 - d*y^2 = N.

    Scans 0 <= y <= ceil(sqrt(|N| * (t + 1) / (2d))) with t + u*sqrt(d) the
    fundamental unit; every class has a fundamental solution inside that
    range, so an empty result is a proof of unsolvability whenever the scan
    ran.  A range of more than SCAN_CAP values of y raises ValueError
    before the scan starts; the bound is taken from the unit alone.

    N = 1 is answered with no scan: ((1, 0),).  The norm 1 elements are
    exactly +-unit^k, as the least solution of x^2 - d*y^2 = 1 generates
    them up to sign, so they form one class under _associated (any two
    differ by a norm 1 unit).  Its canonical element has the least |y|, 0,
    and then x > 0: 1, which _rep_key puts before -1.  The scan finds the
    same class and puts 1 first too, on every d, but its bound grows with
    the unit: minutes at d = 100000007.
    """
    if N == 0:
        raise ValueError("N must be nonzero")
    if abs(N) > NORM_CAP:
        raise ValueError(f"|N| = {abs(N)} exceeds the search cap {NORM_CAP}")
    unit = fundamental_unit(ctx)
    if N == 1:
        return NormEqClasses((QuadInt(1, 0, ctx),), unit)
    ybound = isqrt(abs(N) * (unit.a + 1) // (2 * ctx.d)) + 1
    if ybound >= SCAN_CAP:
        # the bound itself may run to thousands of digits, past str()'s limit
        raise ValueError(
            f"x^2 - {ctx.d}*y^2 = {N} needs a y-scan past the cap of {SCAN_CAP} values"
        )
    hits: list[QuadInt] = []
    for y in range(ybound + 1):
        # is_perfect_square refuses a negative d*y^2 + N
        x = is_perfect_square(ctx.d * y * y + N)
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


def _abs_y(s: QuadInt) -> int:
    return abs(s.b)


def _solutions(classes: NormEqClasses) -> Iterator[QuadInt]:
    """Every solution, lazily, in the canonical order (_enum_key).

    Each representative gives four orbits, +-rep * unit^k for k >= 0 and
    +-rep * conj(unit)^k for k >= 1.  The norm 1 units are exactly
    +-unit^k, so each solution lies on exactly one orbit.  With r, r' the
    two real images of rep and e > 1 the unit's,
    y_k = (r * e^k - r' * e^-k) / (2 sqrt(d)) and r * r' = N: y_k is
    monotone in k when N > 0, and of one sign and convex when N < 0.  Either
    way |y_k| never shrinks going away from the representative, which has
    the least |y| in its class, so each orbit is nondecreasing in |y|.
    Merging the orbits by |y| and sorting each run of equal |y| by
    _enum_key, which is injective, gives the canonical order, one product
    per solution.  merge breaks ties by orbit, so it never compares two
    QuadInts, which refuse ordering.
    """
    unit, conj = classes.unit, classes.unit.conjugate()
    orbits = []
    for rep in classes.representatives:
        for s in (rep, -rep):
            orbits.append(accumulate(repeat(unit), mul, initial=s))
            orbits.append(accumulate(repeat(conj), mul, initial=s * conj))
    for _, run in groupby(merge(*orbits, key=_abs_y), key=_abs_y):
        yield from sorted(run, key=_enum_key)


def solutions_within(classes: NormEqClasses, ybound: int) -> list[QuadInt]:
    """All solutions with |y| <= ybound, in the canonical order (_solutions)."""
    return list(takewhile(lambda s: _abs_y(s) <= ybound, _solutions(classes)))


def enumerate_solutions(classes: NormEqClasses, limit: int) -> list[QuadInt]:
    """The first `limit` solutions in the canonical order, 1 <= limit <= LIMIT_CAP.

    The order sorts by |y| first, so the solutions within any bound are a
    prefix of it.  The work is one product per solution (_solutions).
    """
    if not 1 <= limit <= LIMIT_CAP:
        raise ValueError(f"limit must be in [1, {LIMIT_CAP}], got {limit}")
    if not classes.representatives:
        return []
    return list(islice(_solutions(classes), limit))


# ---------------------------------------------------------------------------
# structure of solutions for d = 15 (mod 60)


def check_pm2_unsolvable(ctx: RingCtx) -> bool:
    """True when 5 | d, which proves x^2 - d*y^2 = +-2 unsolvable.

    Reducing mod 5 leaves x^2 = +-2, and both are quadratic non-residues
    mod 5.  False makes no claim either way; represent._proof_holds calls it.
    """
    return ctx.d % 5 == 0


def norm6_witness(ctx: RingCtx) -> NormEqClasses:
    """solve_norm_eq(ctx, -6), read off the fundamental unit.

    For d = 15 (mod 60), with a the x-coordinate of fundamental_unit(ctx):
    -6 is a norm exactly when 3(a - 1) and 3(a + 1)/d are both squares, and
    then (sqrt(3(a - 1)), sqrt(3(a + 1)/d)) is the one representative;
    otherwise there is none.  A d that is not 15 (mod 60) raises ValueError.
    The cost is fundamental_unit's walk and two isqrts.

    Why it equals solve_norm_eq(ctx, -6), which takes the same unit.  If
    9 | d, then 3 | x, so 9 | x^2 while x^2 = d*y^2 - 6 = 3 (mod 9): there
    is no class, and so, by the converse below, the test finds no two
    squares.  Otherwise write d = f^2 * d0; as 9 does not divide d and d is
    odd, f is prime to 6, so the ideals of norm 6 are invertible and match
    those of the maximal order of Q(sqrt(d0)).  There d0 = 3 (mod 4) and
    3 | d0, so 2 and 3 both ramify, and only one ideal has norm 6: every
    element of norm -6 lies in one class under _associated, so the solve
    finds at most one representative.  Its canonical element (g, h) has
    (g, h)^2 / 6 = unit, the argument in unit_from_norm6, so
    a = (g^2 + 3)/3 and d*h^2 = g^2 + 6: g^2 = 3(a - 1) and
    h^2 = 3(a + 1)/d.  Conversely, when both are squares,
    g^2 - d*h^2 = 3(a - 1) - 3(a + 1) = -6.
    """
    d = ctx.d
    if d % 60 != 15:
        raise ValueError(f"d = {d} is not 15 mod 60")
    unit = fundamental_unit(ctx)
    a = unit.a
    g = is_perfect_square(3 * (a - 1))
    if g is None or 3 * (a + 1) % d:
        return NormEqClasses((), unit)
    h = is_perfect_square(3 * (a + 1) // d)
    return NormEqClasses(() if h is None else (QuadInt(g, h, ctx),), unit)


def unit_from_norm6(sol: QuadInt) -> QuadInt:
    """Norm 1 element ((g^2 + 3)/3, g*h/3) built from a norm -6 solution (g, h).

    How the report judge reads a document's witness (counterex._unit_power),
    testing it: a sol whose norm is not -6 raises ValueError, and then so
    does one without g = 3 (mod 6).  The producers take gamma and the unit
    from one NormEqClasses, and test neither, as both are theorems:
    N(g, h) = -6 forces h odd, as an even h gives g^2 = -6 = 2 (mod 4).  For
    d = 15 (mod 60), g^2 = d*h^2 - 6 is then odd and 3 | d gives 3 | g, so
    g = 3 (mod 6); and 3 | h would give 9 | g^2 + 6 with 9 | g^2, so 9 | 6:
    h = +-1 (mod 6).  For another d the shape can fail.  g = 3 (mod 6) is
    all the unit needs: with 3 | g the element (3(g/3)^2 + 1, (g/3)*h) has
    an even first and odd second coordinate iff g/3 is odd, and
    (g, h)^2 = (2g^2 + 6, 2gh) makes it (g, h)^2 / 6 exactly, so its norm
    is 1.  For the canonical representative of solve_norm_eq(ctx, -6) it is
    the fundamental unit: (g, h)^2 / 6 = unit^k with k odd, since sqrt(6)
    is not in Q(sqrt(d)), and the least h > 0 in the class, with g > 0, is
    where k = 1.  Conversely, the fundamental unit (a, b) gives that
    representative back, g = sqrt(3(a - 1)) and h = sqrt(3(a + 1)/d), which
    is how norm6_witness finds it.
    """
    if sol.norm() != -6:
        raise ValueError(f"{sol} has norm {sol.norm()}, expected -6")
    g, h = sol.a, sol.b
    if g % 6 != 3:
        raise ValueError(f"norm -6 solution with x = {g} not 3 mod 6")
    return QuadInt((g * g + 3) // 3, g * h // 3, sol.ctx)


def unit_power(unit: QuadInt, t: int) -> tuple[QuadInt, QuadInt]:
    """(unit^t, unit^(2t)) for a unit of norm 1 and an integer t >= 0.

    With unit = a + b*sqrt(d) and unit^k = X_k + Y_k*sqrt(d), norm 1 makes
    conj(unit) = unit^-1, so X_k = (unit^k + unit^-k)/2 and
    X_(m+n) + X_(m-n) = 2*X_m*X_n.  That gives the Lucas ladder
    X_2k = 2*X_k^2 - 1 and X_(2k+1) = 2*X_k*X_(k+1) - a, run on the pair
    (X_k, X_(k+1)) over the bits of t: one square and one product of the
    x-coordinate's size per bit, where QuadInt.__pow__ takes four for its
    square and four more for each multiply.  unit^(t+1) = unit^t * unit reads
    X_(t+1) = a*X_t + d*b*Y_t, so Y_t = (X_(t+1) - a*X_t) / (d*b): one
    division by a small number, exact once norm 1 has been tested, as the
    ladder then gives the true X_t and X_(t+1).
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
    for bit in bin(t)[2:]:
        mixed = 2 * (x0 * x1) - a
        if bit == "1":
            x0, x1 = mixed, 2 * (x1 * x1) - 1
        else:
            x0, x1 = 2 * (x0 * x0) - 1, mixed
    y = (x1 - a * x0) // (d * b) if b else 0
    return QuadInt(x0, y, ctx), QuadInt(2 * (x0 * x0) - 1, 2 * (x0 * y), ctx)
