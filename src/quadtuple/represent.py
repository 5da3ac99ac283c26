"""Difference-of-two-squares questions for n in Z[sqrt(d)].

Classifies n by the coordinate residues that govern quadruple existence for
d = 3 (mod 4), certifies non-representability for n = 2u with norm(u) = 1 in
rings with square-free d = 15 (mod 60) where -6 is a norm, and carries an
exhaustive search that serves as the independent oracle for those
certificates.  A certificate holds its one witness, an element of norm -6,
so certificate_holds checks every hypothesis with arithmetic and no solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import pellsolve
from .quadring import (
    QuadInt,
    RingCtx,
    element_from_json,
    element_to_json,
    is_perfect_square,
    sqrt_in_ring,
)

__all__ = [
    "BOUND_CAP",
    "NClass",
    "NonRepCertificate",
    "certificate_from_json",
    "certificate_holds",
    "certificate_to_json",
    "certify_nonrepresentable",
    "classify_n",
    "no_quadruple_if_T",
    "search_repr",
]

# largest coordinate bound search_repr accepts
BOUND_CAP = 2000


class NClass(Enum):
    """The four residue shapes admitting quadruples, plus the complement T.

    ODD                (2m+1) + 2k*sqrt(d)
    FOUR_FOUR          4m + 4k*sqrt(d)
    FOUR_FOUR_PLUS_TWO 4m + (4k+2)*sqrt(d)
    TWO_MOD_FOUR       (4m+2) + 4k*sqrt(d)
    """

    ODD = "odd"
    FOUR_FOUR = "four_four"
    FOUR_FOUR_PLUS_TWO = "four_four_plus_two"
    TWO_MOD_FOUR = "two_mod_four"
    T = "T"


def classify_n(n: QuadInt) -> NClass:
    """Residue class of n; every n gets exactly one tag."""
    a, b = n.a, n.b
    if b % 2:
        return NClass.T
    if a % 2:
        return NClass.ODD
    amod, bmod = a % 4, b % 4
    if amod == 0 and bmod == 0:
        return NClass.FOUR_FOUR
    if amod == 0 and bmod == 2:
        return NClass.FOUR_FOUR_PLUS_TWO
    if amod == 2 and bmod == 0:
        return NClass.TWO_MOD_FOUR
    return NClass.T  # a = 2, b = 2 (mod 4)


def no_quadruple_if_T(n: QuadInt) -> bool:
    """True asserts no D(n) quadruple exists; requires d = 3 (mod 4)."""
    if n.ctx.d % 4 != 3:
        raise ValueError(f"d = {n.ctx.d} is not 3 mod 4")
    return classify_n(n) is NClass.T


@dataclass(frozen=True)
class NonRepCertificate:
    """n = 2u is not a difference of two squares, with its norm -6 witness.

    The hypotheses (see certificate_holds): n = (4m+2) + 4k*sqrt(d) with
    u = n/2 of norm 1, in a ring with square-free d = 15 (mod 60), so that
    +-2 are not norms, and minus6 an element of norm -6.
    """

    n: QuadInt
    u: QuadInt
    minus6: QuadInt


def _n_and_ring_hold(n: QuadInt, u: QuadInt) -> bool:
    ctx = n.ctx
    return (
        classify_n(n) is NClass.TWO_MOD_FOUR
        and 2 * u == n
        and u.norm() == 1
        and ctx.square_free
        and ctx.d % 60 == 15
        and pellsolve.check_pm2_unsolvable(ctx)
    )


def certificate_holds(cert: NonRepCertificate) -> bool:
    """True iff the certificate meets every hypothesis, by arithmetic alone."""
    return (
        _n_and_ring_hold(cert.n, cert.u)
        and cert.minus6.ctx == cert.n.ctx
        and cert.minus6.norm() == -6
    )


def certify_nonrepresentable(n: QuadInt) -> NonRepCertificate | None:
    """Certificate for the hypotheses above, or None (no claim made).

    The checks on n and the ring run first, so only an n that passes them
    pays for the one norm -6 solve that finds the witness.
    """
    u = QuadInt(n.a // 2, n.b // 2, n.ctx)
    if not _n_and_ring_hold(n, u):
        return None
    reps = pellsolve.solve_norm_eq(n.ctx, -6).representatives
    if not reps:
        return None
    return NonRepCertificate(n=n, u=u, minus6=reps[0])


def _signed_range(bound: int):
    yield 0
    for v in range(1, bound + 1):
        yield v
        yield -v


def search_repr(n: QuadInt, bound: int) -> tuple[QuadInt, QuadInt] | None:
    """First (p, q) with p^2 - q^2 = n and all coordinates within bound.

    Exhaustive over p = (x1, y1); q is pinned down by p (roots are unique up
    to sign), so only norm and square tests run per candidate.  x1 >= 0 is a
    true symmetry; y1 >= 0 is one only for rational n, so for b != 0 the
    scan covers both signs of y1.  1 <= bound <= BOUND_CAP.
    """
    if not 1 <= bound <= BOUND_CAP:
        raise ValueError(f"bound must be in [1, {BOUND_CAP}], got {bound}")
    ctx = n.ctx
    d, na, nb = ctx.d, n.a, n.b
    y_values = range(bound + 1) if nb == 0 else list(_signed_range(bound))
    for x1 in range(bound + 1):
        for y1 in y_values:
            za = x1 * x1 + d * y1 * y1 - na
            zb = 2 * x1 * y1 - nb
            if zb % 2:
                continue
            if is_perfect_square(za * za - d * zb * zb) is None:
                continue
            q = sqrt_in_ring(QuadInt(za, zb, ctx))
            if q is not None and abs(q.a) <= bound and abs(q.b) <= bound:
                return QuadInt(x1, y1, ctx), q
    return None


def certificate_to_json(cert: NonRepCertificate) -> dict:
    return {
        "n": element_to_json(cert.n),
        "u": element_to_json(cert.u),
        "minus6": element_to_json(cert.minus6),
    }


def certificate_from_json(doc: dict, ctx: RingCtx) -> NonRepCertificate:
    """Parse without judging; certificate_holds decides whether it holds."""
    return NonRepCertificate(
        n=element_from_json(doc["n"], ctx),
        u=element_from_json(doc["u"], ctx),
        minus6=element_from_json(doc["minus6"], ctx),
    )
