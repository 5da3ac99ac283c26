"""Difference-of-two-squares questions for n in Z[sqrt(d)].

Certifies non-representability for n = (4m+2) + 4k*sqrt(d) = 2u with
norm(u) = 1 in rings with square-free d = 15 (mod 60) where -6 is a norm,
and carries an exhaustive search that serves as the independent oracle for
those certificates.  A certificate holds its one witness, an element of
norm -6, so certificate_holds checks every hypothesis with arithmetic and no
solver.  A report's judge (counterex) tests the witness where it takes the
unit, and here only _n_and_ring_hold.  Every path tests the witness before
n and d, and d's square-freeness, the one test that may search, last.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import pellsolve
from .quadring import (
    QuadInt,
    element_to_json,
    is_perfect_square,
    sqrt_in_ring,
)

__all__ = [
    "BOUND_CAP",
    "NonRepCertificate",
    "certificate_holds",
    "certificate_to_json",
    "certify_nonrepresentable",
    "search_repr",
]

# largest coordinate bound search_repr accepts
BOUND_CAP = 2000


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
    """Every hypothesis on n, u and the ring but N(u) = 1, square-freeness last.

    n.b = 0 (mod 4) needs no test once N(u) = 1: 2u = n with n.a = 2 (mod 4)
    makes u.a odd, so N(u) = 1 gives d*u.b^2 = 0 (mod 4), and d is odd.
    Nor does 5 | d, which makes +-2 non-norms (both are non-residues mod 5):
    d = 15 (mod 60) gives it.  The report judge (counterex) has N(u) = 1
    from its tie u = w^2 to a w of norm 1, and calls this alone.
    """
    ctx = n.ctx
    return n.a % 4 == 2 and ctx.d % 60 == 15 and 2 * u == n and ctx.square_free


def certificate_holds(cert: NonRepCertificate) -> bool:
    """True iff the certificate meets every hypothesis, by arithmetic alone:
    N(u) = 1, the witness in n's ring with N(minus6) = -6, then the rest."""
    return (
        cert.u.norm() == 1
        and cert.minus6.ctx == cert.n.ctx
        and cert.minus6.norm() == -6
        and _n_and_ring_hold(cert.n, cert.u)
    )


def certify_nonrepresentable(n: QuadInt) -> NonRepCertificate | None:
    """Certificate for the hypotheses above, or None (no claim made).

    The checks on n and the ring run first, so only an n that passes them
    pays for the one norm -6 solve that finds the witness.
    """
    u = QuadInt(n.a // 2, n.b // 2, n.ctx)
    if not (u.norm() == 1 and _n_and_ring_hold(n, u)):
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
    if n.b % 2:  # p^2 - q^2 has an even sqrt(d) coordinate for every p and q
        return None
    ctx = n.ctx
    d, na, nb = ctx.d, n.a, n.b
    y_values = range(bound + 1) if nb == 0 else list(_signed_range(bound))
    for x1 in range(bound + 1):
        for y1 in y_values:
            za = x1 * x1 + d * y1 * y1 - na
            zb = 2 * x1 * y1 - nb
            # repeats sqrt_in_ring's norm test, for speed
            if is_perfect_square(za * za - d * zb * zb) is None:
                continue
            q = sqrt_in_ring(QuadInt(za, zb, ctx))
            if q is not None and abs(q.a) <= bound and abs(q.b) <= bound:
                return QuadInt(x1, y1, ctx), q
    return None


def certificate_to_json(cert: NonRepCertificate, n_doc: dict | None = None) -> dict:
    """The certificate's JSON form; n_doc, if given, is the caller's
    element_to_json(cert.n), held as it is rather than converted again."""
    return {
        "n": element_to_json(cert.n) if n_doc is None else n_doc,
        "u": element_to_json(cert.u),
        "minus6": element_to_json(cert.minus6),
    }
