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
from typing import Iterator

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
    _n_and_ring_hold,
    certificate_from_json,
    certificate_to_json,
)

__all__ = [
    "ALPHA_SPAN_CAP",
    "CounterexampleReport",
    "DCandidate",
    "T_CAP_DEFAULT",
    "build_report",
    "enumerate_counterexample_rings",
    "family_d",
    "report_to_json",
    "verify_report_doc",
]

T_CAP_DEFAULT = 1000
ALPHA_SPAN_CAP = 10**5  # family members one enumeration may build


@dataclass(frozen=True)
class DCandidate:
    """One member of the d-family, with its built-in norm -6 solution x + sqrt(d)."""

    alpha: int
    x: int
    ctx: RingCtx


def family_d(alpha: int) -> DCandidate:
    """d = 360*(10*alpha^2 + alpha) + 15 and x = 60*alpha + 3."""
    d = 360 * (10 * alpha * alpha + alpha) + 15
    return DCandidate(alpha=alpha, x=60 * alpha + 3, ctx=RingCtx(d))


def enumerate_counterexample_rings(alpha_lo: int, alpha_hi: int) -> Iterator[DCandidate]:
    """The candidates for alpha_lo <= alpha <= alpha_hi, in alpha order, built
    one at a time as the iterator is read.

    Non-square-free members are retained, with ctx.square_free False.  An
    empty range or a span over ALPHA_SPAN_CAP members is refused when this
    is called, before any ring is built.
    """
    if alpha_lo > alpha_hi:
        raise ValueError(f"empty range: {alpha_lo} > {alpha_hi}")
    if alpha_hi - alpha_lo >= ALPHA_SPAN_CAP:
        raise ValueError(
            f"range {alpha_lo}..{alpha_hi} spans {alpha_hi - alpha_lo + 1} members, "
            f"over the cap {ALPHA_SPAN_CAP}"
        )
    return map(family_d, range(alpha_lo, alpha_hi + 1))


@dataclass(frozen=True)
class CounterexampleReport:
    d: int
    t: int
    n: QuadInt
    quadruple: Quadruple
    certificate: NonRepCertificate
    verified: bool
    notes: tuple[str, ...]


def _unit_power(certificate: NonRepCertificate, t: int) -> tuple[QuadInt, QuadInt]:
    """The judge's power (w, w^2) for w = (gamma^2/6)^t and the norm -6
    witness gamma; ValueError when u is too short to be w^2.

    unit_from_norm6 raises ValueError on a gamma without norm -6 and its
    shape: the report path's one test of the witness.  The canonical gamma
    has gamma^2 = 6*unit, so u == w^2 ties t to n with no solver.
    gamma^2/6 has norm 1, and the first coordinate of its e-th power has at
    least e*(bits(a) - 1) bits, a its own first coordinate; a u shorter than
    that for e = 2t is refused before the power is taken, so a long witness
    cannot make the check build a number far beyond the document.  Past
    both tests, pellsolve.unit_power takes w and w^2 together by the Lucas
    ladder on the x-coordinate, as build_report does.
    """
    unit = pellsolve.unit_from_norm6(certificate.minus6)
    if 2 * t * (unit.a.bit_length() - 1) > certificate.u.a.bit_length():
        raise ValueError(f"u is too short to be the witness's unit to the power {2 * t}")
    return pellsolve.unit_power(unit, t)


# a w of at least this many bits is divided out by a checked guess
_GUESS_BITS = 1024


def _divided(e: QuadInt, w: QuadInt) -> QuadInt:
    """e * conj(w) for w of norm 1, by a checked low-bits guess if w is long.

    The guess g is e*conj(w) mod 2^k from the low k bits of e and w, lifted
    to least absolute value, and is kept only if w*g == e: four products of
    w by k-bit numbers.  N(w) = w*conj(w) = 1 makes w*g == e force
    g = e*conj(w), so k sets only how often the guess holds.  _report_holds'
    w = unit^t has norm 1: unit_from_norm6 gives ((x^2 + 3)/3, x*y/3) for
    x^2 - d*y^2 = -6, of norm ((x^2 + 3)^2 - x^2*(x^2 + 6))/9 = 1.
    """
    wa, wb, ctx = w
    if wa.bit_length() >= _GUESS_BITS:
        ea, eb, _ = e
        k = max(ea.bit_length() - wa.bit_length(), 0) + ctx.d.bit_length() + 64
        mask, half = (1 << k) - 1, 1 << (k - 1)
        ea, eb, wa, wb = ea & mask, eb & mask, wa & mask, wb & mask
        ga = ((ea * wa - ctx.d * (eb * wb) + half) & mask) - half
        gb = ((eb * wa - ea * wb + half) & mask) - half
        g = QuadInt(ga, gb, ctx)
        if w * g == e:
            return g
    return e * w.conjugate()


def _report_holds(
    n: QuadInt,
    quad: Quadruple,
    certificate: NonRepCertificate,
    power: tuple[QuadInt, QuadInt],
) -> bool:
    """The one definition of a valid report: build_report's verified flag and
    verify_report_doc's verdict.

    power is (w, w^2) for w = unit_from_norm6(certificate.minus6)^t, which
    the caller took, testing the witness there.  Checked in order: the three
    copies of n agree; u == w^2, which also puts the witness in n's ring, as
    equality compares d; the elements are nonzero and distinct; the
    hypotheses on n, u and the ring (_n_and_ring_hold, square-freeness
    last); then all six pairwise products plus n are squares, matching any
    stored witnesses.  N(u) = 1 is not computed: u = w^2 and N(w) = 1
    (_divided) give N(u) = N(w)^2 = 1.

    The square tests run with w divided out.  w has norm 1, so each element
    is e_i = w * f_i with f_i = e_i * conj(w), and n = 2u = 2w^2 makes
    e_i*e_j + n = w^2 * (f_i*f_j + 2).  That is a square exactly when
    f_i*f_j + 2 = rho^2 is, and a witness squares to it exactly when it is
    +-w*rho, as the ring has no zero divisors.  In build_report's reports
    f_i is the base quadruple's element, so the square tests run on numbers
    of its size, not of unit^(2t).  For a long w, f_i is a low-bits guess
    kept only if w * f_i == e_i (_divided), which keeps it exact.  The pair
    loop is the judge's own, not verify_quadruple's: sharing a pair
    generator with it made near_window's verify_ms_p50 about 5 % slower,
    and calling verify_quadruple 9-18 % slower.
    """
    w, w2 = power
    if not (
        quad.n == n == certificate.n
        and certificate.u == w2
        and degenerate_check(quad.elements)
        and _n_and_ring_hold(n, certificate.u)
    ):
        return False
    f = [_divided(e, w) for e in quad.elements]
    two = QuadInt(2, 0, n.ctx)
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
    m = k = 0, and the source of the unit, gamma^2/6.  One
    pellsolve.unit_power call takes w = unit^t and u = w^2 together: a
    Lucas ladder on the x-coordinate, one exact division for the y, and
    w^2 from the norm-1 square (2*X^2 - 1, 2*X*Y).  scale_quadruple scales
    the quadruple by w to reach n = 2*u, taking u from here, not squaring
    w.  The judge gets (w, u) as its power, built from gamma and t, so it
    neither takes them again nor reads them off the document it judges;
    unit_from_norm6 tested gamma.  The certificate applies because even
    unit powers have an odd first and even second coordinate, keeping
    n = (4m+2, 4k) with n/2 of norm 1.  verified is the verdict
    verify_report_doc gives on the report's JSON.  A t out of
    range or a ring that is not 15 mod 60, not square-free or without a
    norm -6 element raises ValueError; a square-free family_d member passes,
    as x + sqrt(d) has norm -6.  Nothing raises past those checks.
    """
    if not 0 <= t <= T_CAP_DEFAULT:
        raise ValueError(f"t must be in [0, {T_CAP_DEFAULT}], got {t}")
    if ctx.d % 60 != 15:
        raise ValueError(f"d = {ctx.d} is not 15 mod 60")
    if not ctx.square_free:
        raise ValueError(f"d = {ctx.d} is not square-free")
    minus6 = pellsolve.solve_norm_eq(ctx, -6).representatives
    if not minus6:
        raise ValueError(f"norm -6 is not attained for d = {ctx.d}")
    gamma = minus6[0]

    base, trace = _construct_from_norm6(gamma, 0, 0, 0, "first")
    # gamma passed the construction's checks, so its unit has norm 1
    w, u = pellsolve.unit_power(pellsolve.unit_from_norm6(gamma), t)
    scaled = scale_quadruple(base, w, u)
    n = scaled.n  # 2 * u, since the base quadruple has n = 2
    certificate = NonRepCertificate(n=n, u=u, minus6=gamma)
    verified = _report_holds(n, scaled, certificate, (w, u))
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
    is the report's, then parses n and the certificate in the same ring,
    accepting only decimal-string integers and the six witness keys "12"
    ... "34".  True iff the report states "verified": true, t is a JSON
    integer in [0, T_CAP_DEFAULT], and _report_holds, which runs no solver:
    the certificate carries its norm -6 witness, whose norm and shape
    _unit_power tests as it takes the judge's power, and the judge tests n
    and d = 15 (mod 60), and d's square-freeness last, so a document with a
    wrong witness or residue never pays for factoring d.  Anything
    malformed, including a certificate without minus6 or a u too short for
    its witness and t, is False.
    """
    try:
        t, verified = doc["t"], doc["verified"]
        if verified is not True or type(t) is not int or not 0 <= t <= T_CAP_DEFAULT:
            return False
        d = int_from_json(doc["d"])
        quad = quadruple_from_json(doc["quadruple"])
        ctx = quad.n.ctx
        if ctx.d != d:
            return False
        n = element_from_json(doc["n"], ctx)
        certificate = certificate_from_json(doc["certificate"], ctx)
        power = _unit_power(certificate, t)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False
    return _report_holds(n, quad, certificate, power)
