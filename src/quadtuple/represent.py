"""Difference-of-two-squares questions for n in Z[sqrt(d)].

Certifies that n = 2u, u of norm 1, is not a difference of two squares, by
one lemma for an n inside the paper's theorem: the proof and the scope,
the two slices of pellsolve._HYPOTHESES.  Carries an exhaustive search, the
independent oracle for those certificates.  A certificate holds n and its
norm -6 witness, which certify_nonrepresentable reads off the fundamental
unit (pellsolve.norm6_witness) with no search.  Every judge, a report's in
counterex too, tests the witness, then the proof, then the scope.
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
    """n = 2u is not a difference of two squares, with its norm -6 witness;
    certificate_holds states the hypotheses.  u is n/2, read off n."""

    n: QuadInt
    minus6: QuadInt

    @property
    def u(self) -> QuadInt:
        return QuadInt(self.n.a // 2, self.n.b // 2, self.n.ctx)


def certificate_holds(cert: NonRepCertificate) -> bool:
    """True iff the certificate meets every hypothesis, by arithmetic alone:
    N(u) = 1, the witness in n's ring with N(minus6) = -6, then the proof
    and the scope."""
    n, u = cert.n, cert.u
    return (
        u.norm() == 1
        and cert.minus6.ctx == n.ctx
        and cert.minus6.norm() == -6
        and pellsolve._first_unmet(n.ctx, n, u) is None
    )


def certify_nonrepresentable(n: QuadInt) -> NonRepCertificate | None:
    """Certificate for the hypotheses above, or None (no claim made).

    The checks on n and the ring run first, so only an n that passes them
    pays for the witness, which pellsolve.norm6_witness reads off the
    fundamental unit: one continued-fraction walk and no search.
    """
    u = QuadInt(n.a // 2, n.b // 2, n.ctx)
    if u.norm() != 1 or pellsolve._first_unmet(n.ctx, n, u) is not None:
        return None
    reps = pellsolve.norm6_witness(n.ctx).representatives
    return NonRepCertificate(n=n, minus6=reps[0]) if reps else None


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
