"""End-to-end counterexample pipeline.

Walks the one-parameter family d = 360*(10*alpha^2 + alpha) + 15, where
x = 60*alpha + 3, y = 1 solves x^2 - d*y^2 = -6 identically, and for each
eligible (square-free) member produces a self-contained report: a verified
D(n) quadruple for n = 2*unit^(2t) together with a certificate that this n
is not a difference of two squares.  Each report is a machine-checkable
counterexample to the Franusic-Jadrijevic conjecture, which ties D(n)
quadruple existence to n being a difference of two squares.  The report's
certificate carries its own norm -6 witness, so verify_report_doc checks a
report with arithmetic alone and runs no solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import pellsolve
from .construct import (
    PAIRS,
    Quadruple,
    _construct_from_norm6,
    degenerate_check,
    quadruple_from_json,
    quadruple_to_json,
    scale_quadruple,
)
from .quadring import (
    QuadInt,
    RingCtx,
    element_from_json,
    element_to_json,
    int_from_json,
    sqrt_in_ring,
)
from .represent import (
    NonRepCertificate,
    certificate_from_json,
    certificate_holds,
    certificate_to_json,
)

__all__ = [
    "ALPHA_SPAN_CAP",
    "CounterexampleReport",
    "DCandidate",
    "StageError",
    "T_CAP_DEFAULT",
    "build_report",
    "enumerate_counterexample_rings",
    "family_d",
    "report_to_json",
    "verify_report_doc",
]

T_CAP_DEFAULT = 1000
ALPHA_SPAN_CAP = 10**5  # family members one enumeration may build


class StageError(RuntimeError):
    """A pipeline stage failed; the stage name travels with the message."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass(frozen=True)
class DCandidate:
    """One member of the d-family, with its built-in norm -6 solution x + sqrt(d)."""

    alpha: int
    x: int
    ctx: RingCtx


def family_d(alpha: int) -> DCandidate:
    """d = 360*(10*alpha^2 + alpha) + 15 and x = 60*alpha + 3."""
    d = 360 * (10 * alpha * alpha + alpha) + 15
    x = 60 * alpha + 3
    if x * x - d != -6:
        raise StageError("family", f"x^2 - d = {x * x - d} at alpha = {alpha}")
    return DCandidate(alpha=alpha, x=x, ctx=RingCtx(d))


def enumerate_counterexample_rings(alpha_lo: int, alpha_hi: int) -> list[DCandidate]:
    """All candidates for alpha_lo <= alpha <= alpha_hi, in alpha order.

    Non-square-free members are retained, with ctx.square_free False.  A span
    over ALPHA_SPAN_CAP members is refused before any ring is built.
    """
    if alpha_lo > alpha_hi:
        raise ValueError(f"empty range: {alpha_lo} > {alpha_hi}")
    if alpha_hi - alpha_lo >= ALPHA_SPAN_CAP:
        raise ValueError(
            f"range {alpha_lo}..{alpha_hi} spans {alpha_hi - alpha_lo + 1} members, "
            f"over the cap {ALPHA_SPAN_CAP}"
        )
    return [family_d(alpha) for alpha in range(alpha_lo, alpha_hi + 1)]


@dataclass(frozen=True)
class CounterexampleReport:
    d: int
    t: int
    n: QuadInt
    quadruple: Quadruple
    certificate: NonRepCertificate
    verified: bool
    notes: tuple[str, ...]


def _unit_power(certificate: NonRepCertificate, t: int) -> QuadInt | None:
    """w = (gamma^2/6)^t when u == w*w, for the norm -6 witness gamma; else None.

    The canonical gamma has gamma^2 = 6*unit, so this ties t to n with no
    solver.  gamma^2/6 has norm 1, and the first coordinate of its e-th
    power has at least e*(bits(a) - 1) bits, a its own first coordinate; a u
    shorter than that for e = 2t is refused before the power is taken, so a
    long witness cannot make the check build a number far beyond the
    document.
    """
    unit = pellsolve.unit_from_norm6(certificate.minus6)
    u = certificate.u
    if 2 * t * (unit.a.bit_length() - 1) > u.a.bit_length():
        return None
    w = unit**t
    return w if w * w == u else None


def _report_holds(
    ctx: RingCtx, t: int, n: QuadInt, quad: Quadruple, certificate: NonRepCertificate
) -> bool:
    """The one definition of a valid report: build_report's verified flag and
    verify_report_doc's verdict.

    The three copies of n agree, the elements are nonzero and distinct, the
    certificate holds and u = w^2 for w = unit^t (_unit_power), and all six
    pairwise products plus n are squares, matching any stored witnesses.
    certificate_holds runs first: it guarantees the norm -6 shape that
    unit_from_norm6 would otherwise raise on.

    The square tests run with w divided out.  w has norm 1, so each element
    is e_i = w * f_i with f_i = e_i * conj(w), and n = 2u = 2w^2 makes
    e_i*e_j + n = w^2 * (f_i*f_j + 2).  That is a square exactly when
    f_i*f_j + 2 = rho^2 is, and a witness squares to it exactly when it is
    +-w*rho, as the ring has no zero divisors.  In build_report's reports
    f_i is the base quadruple's element, so the square tests run on numbers
    of its size, not of unit^(2t).
    """
    if not (
        quad.n == n == certificate.n
        and degenerate_check(quad.elements)
        and certificate_holds(certificate)
    ):
        return False
    w = _unit_power(certificate, t)
    if w is None:
        return False
    w_bar = w.conjugate()
    f = [e * w_bar for e in quad.elements]
    two = QuadInt(2, 0, ctx)
    for i, j in PAIRS:
        rho = sqrt_in_ring(f[i - 1] * f[j - 1] + two)
        if rho is None:
            return False
        witness = quad.witnesses.get((i, j))
        if witness is not None:
            root = w * rho
            if witness not in (root, -root):
                return False
    return True


def build_report(ctx: RingCtx, t: int) -> CounterexampleReport:
    """Full pipeline for one ring and exponent 0 <= t <= T_CAP_DEFAULT.

    One norm -6 solve: its canonical representative gamma is the
    certificate's witness, the start of the base D(2) quadruple at
    m = k = 0, and the source of the unit, gamma^2/6.  The quadruple is
    scaled by w = unit^t to reach n = 2*w^2; the certificate applies because
    even unit powers have an odd first and even second coordinate, keeping
    n = (4m+2, 4k) with n/2 of norm 1.  verified is the verdict
    verify_report_doc gives on the report's JSON.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t > T_CAP_DEFAULT:
        raise ValueError(f"t = {t} exceeds the cap {T_CAP_DEFAULT}")
    if not ctx.square_free:
        raise StageError("eligibility", f"d = {ctx.d} is not square-free")
    if ctx.d % 60 != 15:
        raise StageError("eligibility", f"d = {ctx.d} is not 15 mod 60")
    minus6 = pellsolve.solve_norm_eq(ctx, -6).representatives
    if not minus6:
        raise StageError("eligibility", f"norm -6 is not attained for d = {ctx.d}")
    gamma = minus6[0]

    try:
        base, trace = _construct_from_norm6(gamma, 0, 0, 0, "first")
    except Exception as exc:
        raise StageError("construct", str(exc)) from exc
    w = pellsolve.unit_from_norm6(gamma) ** t  # gamma passed the construction's checks
    scaled = scale_quadruple(base, w)
    n = scaled.n  # w^2 * 2, since the base quadruple has n = 2
    u = QuadInt(n.a // 2, n.b // 2, ctx)
    certificate = NonRepCertificate(n=n, u=u, minus6=gamma)
    verified = _report_holds(ctx, t, n, scaled, certificate)
    notes = (
        f"base quadruple at m=0, k=0, unit_index={trace.unit_index}, "
        "factorization=first",
    )
    return CounterexampleReport(
        d=ctx.d,
        t=t,
        n=n,
        quadruple=scaled,
        certificate=certificate,
        verified=verified,
        notes=notes,
    )


def report_to_json(report: CounterexampleReport) -> dict:
    return {
        "d": str(report.d),
        "t": report.t,
        "n": element_to_json(report.n),
        "quadruple": quadruple_to_json(report.quadruple),
        "certificate": certificate_to_json(report.certificate),
        "verified": report.verified,
        "notes": list(report.notes),
    }


def verify_report_doc(doc: dict) -> bool:
    """Re-verify a report from its JSON alone, with no pipeline state.

    Parses the quadruple in the ring of its own d, refuses it unless that d
    is the report's and 15 mod 60, then parses n and the certificate in the
    same ring, accepting only decimal-string integers and the six
    witness keys "12" ... "34".  True iff the report states
    "verified": true, t is a JSON integer in [0, T_CAP_DEFAULT], and
    _report_holds, which runs no solver: the certificate carries its
    norm -6 witness.  Anything malformed, including a certificate without
    minus6, is False.
    """
    try:
        t, verified = doc["t"], doc["verified"]
        if verified is not True or type(t) is not int or not 0 <= t <= T_CAP_DEFAULT:
            return False
        d = int_from_json(doc["d"])
        quad = quadruple_from_json(doc["quadruple"])
        ctx = quad.n.ctx
        if ctx.d != d or d % 60 != 15:  # certificate_holds requires 15 mod 60
            return False
        n = element_from_json(doc["n"], ctx)
        certificate = certificate_from_json(doc["certificate"], ctx)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False
    return _report_holds(ctx, t, n, quad, certificate)
