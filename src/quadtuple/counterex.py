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
    quadruple_from_json,
    quadruple_to_json,
    scale_quadruple,
)
from .quadring import (
    QuadInt,
    RingCtx,
    _new,
    element_from_json,
    int_from_json,
    sqrt_in_ring,
)
from .represent import (
    NonRepCertificate,
    _proof_holds,
    _scope_holds,
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
    """One ring's report at exponent t; its n, d and certificate's n are the quadruple's."""
    t: int
    quadruple: Quadruple
    minus6: QuadInt
    verified: bool
    notes: tuple[str, ...]

    @property
    def certificate(self) -> NonRepCertificate:
        return NonRepCertificate(self.quadruple.n, self.minus6)


def _unit_power(minus6: QuadInt, u: QuadInt, t: int) -> tuple[QuadInt, QuadInt]:
    """The judge's power (w, w^2) for w = (minus6^2/6)^t; ValueError when a
    document's u is too short to be w^2.

    unit_from_norm6 tests the witness, the one place on the report path a
    witness is tested, as only a document's comes from outside; u == w^2
    then ties t to n, with no solver.  The unit has norm 1, so the first
    coordinate of its e-th power has at least e*(bits(a) - 1) bits, a its
    own: a u shorter than that for e = 2t is refused before the power is
    taken, so a long witness cannot make the check build a number far
    beyond the document.
    pellsolve.unit_power takes w and w^2 together, as build_report does.
    """
    unit = pellsolve.unit_from_norm6(minus6)
    if 2 * t * (unit.a.bit_length() - 1) > u.a.bit_length():
        raise ValueError(f"u is too short to be the witness's unit to the power {2 * t}")
    return pellsolve.unit_power(unit, t)


# a w of at least this many bits is divided out by a checked guess
_GUESS_BITS = 1024


def _divided(e: QuadInt, w: QuadInt) -> QuadInt:
    """e * conj(w) for w of norm 1, by a checked low-bits guess if w is long.

    The guess g is e*conj(w) mod 2^k from the low k bits of e and w, lifted
    to least absolute value, and is kept only if w*g == e: four products of
    w by k-bit numbers.  N(w) = w*conj(w) = 1 makes w*g == e force
    g = e*conj(w), so k sets only how often the guess holds.  Otherwise, and
    for a short w, the full product is taken on the coordinates of e and w
    as given, not the masked ones.  _report_holds' w = unit^t has norm 1, as
    unit_from_norm6's unit does.
    """
    ea, eb, _ = e
    wa, wb, ctx = w
    d = ctx.d
    if wa.bit_length() >= _GUESS_BITS:
        k = max(ea.bit_length() - wa.bit_length(), 0) + d.bit_length() + 64
        mask, half = (1 << k) - 1, 1 << (k - 1)
        la, lb, ma, mb = ea & mask, eb & mask, wa & mask, wb & mask
        ga = ((la * ma - d * (lb * mb) + half) & mask) - half
        gb = ((lb * ma - la * mb + half) & mask) - half
        g = _new(QuadInt, (ga, gb, ctx))
        if w * g == e:
            return g
    return _new(QuadInt, (ea * wa - d * (eb * wb), eb * wa - ea * wb, ctx))


def _report_holds(quad: Quadruple, power: tuple[QuadInt, QuadInt]) -> bool:
    """The one definition of a valid report: build_report's verified flag and
    verify_report_doc's verdict, on the quadruple and its power alone.

    power is (w, w^2) for w = unit^t, unit = gamma^2/6 for the norm -6
    witness gamma, which the caller took, testing the witness there; the
    caller also owns any restated copy of n or u.  Checked in order: the
    proof with u = w^2, whose 2u == n ties n to t and, as equality compares
    d, puts the witness in n's ring; the scope; then all six pairwise
    products plus n are squares, matching any stored witnesses.  Elements
    and witnesses are coordinates in n's ring, where both callers build or
    parse them.  N(u) = 1 needs no test: u = w^2 and N(w) = 1 (_divided).
    A base quadruple with power (1, 1) gets the t = 0 check.  Nonzero,
    distinct elements need no test: a repeated f_i makes 2 = rho^2 - f_i^2
    and a zero one 2 = rho^2, which _proof_holds' lemma rules out.

    The square tests run with w divided out.  w has norm 1, so each element
    is e_i = w * f_i with f_i = e_i * conj(w), and n = 2u = 2w^2 makes
    e_i*e_j + n = w^2 * (f_i*f_j + 2).  That is a square exactly when
    f_i*f_j + 2 = rho^2 is, and a witness W squares to it exactly when
    rho = W * conj(w) does: W = +-w*rho, as the ring has no zero divisors.
    So a pair with a stored witness squares W * conj(w) on coordinates and
    searches for no root; only a pair without one goes to sqrt_in_ring.  In
    build_report's reports f_i and W * conj(w) are the base quadruple's
    element and witness, so the square tests run on numbers of its size,
    not of unit^(2t).  For a long w, each quotient is a low-bits guess kept
    only if w times it gives back the dividend (_divided), which keeps it
    exact.  The pair test is written on coordinates, not with QuadInt's
    products and sums: those made near_window's verify_ms_p50 about 20 %
    slower, over ten pairs of bench runs.
    """
    w, w2 = power
    n = quad.n
    if not (_proof_holds(n, w2) and _scope_holds(n)):
        return False
    d = n.ctx.d
    f = [_divided(e, w) for e in quad.elements]
    witnesses = quad.witnesses
    for i, j in PAIRS:
        a, b, ctx = f[i - 1]
        oa, ob, _ = f[j - 1]
        pa, pb = a * oa + d * (b * ob) + 2, a * ob + b * oa
        witness = witnesses.get((i, j))
        if witness is None:
            if sqrt_in_ring(_new(QuadInt, (pa, pb, ctx))) is None:
                return False
        else:
            ra, rb, _ = _divided(witness, w)
            if ra * ra + d * (rb * rb) != pa or 2 * (ra * rb) != pb:
                return False
    return True


def build_report(ctx: RingCtx, t: int) -> CounterexampleReport:
    """Full pipeline for one ring and exponent 0 <= t <= T_CAP_DEFAULT.

    One norm -6 solve: its canonical representative gamma is the
    certificate's witness and the start of the base D(2) quadruple at
    m = k = 0, and the unit the solve took is gamma^2/6.  gamma is tested
    nowhere here: its shape is a theorem (pellsolve.unit_from_norm6).  One
    pellsolve.unit_power call takes w = unit^t and u = w^2 together: a
    Lucas ladder on the x-coordinate, one exact division for the y, and
    w^2 from the norm-1 square (2*X^2 - 1, 2*X*Y).  scale_quadruple scales
    the quadruple by w to reach n = 2*u, taking u from here, not squaring
    w.  The judge gets (w, u) as its power, built from gamma and t, so it
    neither takes them again nor reads them off the document it judges.
    verified is the verdict verify_report_doc gives on the report's JSON.
    A t that is not an int in range (a bool is not) or a ring that is not
    15 mod 60, not square-free or without a norm -6 element raises
    ValueError; a square-free family_d member passes, as x + sqrt(d) has
    norm -6.  Nothing raises past those checks.
    """
    if type(t) is not int or not 0 <= t <= T_CAP_DEFAULT:
        raise ValueError(f"t must be in [0, {T_CAP_DEFAULT}], got {t!r}")
    if ctx.d % 60 != 15:
        raise ValueError(f"d = {ctx.d} is not 15 mod 60")
    if not ctx.square_free:
        raise ValueError(f"d = {ctx.d} is not square-free")
    classes = pellsolve.solve_norm_eq(ctx, -6)
    if not classes.representatives:
        raise ValueError(f"norm -6 is not attained for d = {ctx.d}")
    base, trace = _construct_from_norm6(classes, 0, 0, 0, "first")
    w, u = pellsolve.unit_power(classes.unit, t)
    scaled = scale_quadruple(base, w, u)  # n = 2 * u, as the base has n = 2
    return CounterexampleReport(
        t=t,
        quadruple=scaled,
        minus6=classes.representatives[0],
        verified=_report_holds(scaled, (w, u)),
        notes=(
            f"base quadruple at m=0, k=0, unit_index={trace.unit_index}, "
            "factorization=first",
        ),
    )


def report_to_json(report: CounterexampleReport) -> dict:
    """The report's JSON form.  n is converted to decimal once, in the
    quadruple's form; the report and the certificate hold copies of that
    dict, which share its strings."""
    quad = quadruple_to_json(report.quadruple)
    n = quad["n"]
    return {
        "d": quad["d"],
        "t": report.t,
        "n": dict(n),
        "quadruple": quad,
        "certificate": certificate_to_json(report.certificate, dict(n)),
        "verified": report.verified,
        "notes": list(report.notes),
    }


def _restate(n: QuadInt, text: dict, *copies) -> bool:
    """Whether each copy restates n: at once if it equals text, the JSON n was
    parsed from (equal text parses to an equal value), else parsed in n's
    ring and compared."""
    return all(c == text or element_from_json(c, n.ctx) == n for c in copies)


def verify_report_doc(doc: dict) -> bool:
    """Re-verify a report from its JSON alone, with no pipeline state.

    Parses the quadruple in the ring of its own d, refuses it unless that d
    is the report's, then parses the certificate's u and witness in the
    same ring, accepting only decimal-string integers and the six witness
    keys "12" ... "34".  True iff the report states "verified": true, t is
    a JSON integer in [0, T_CAP_DEFAULT], and, checked in this order and
    with no solver: _unit_power takes the power (w, w^2) from the
    certificate's witness, testing it; the report's n, the quadruple's n
    and the certificate's n are equal and the certificate's u is w^2; and
    _report_holds accepts the quadruple with that power, so a document with
    a wrong witness or residue never pays for factoring d.  Copies of n are
    compared by _restate, so a respelled "+62" or "062" still passes.
    Anything malformed, including a certificate without minus6 or a u too
    short for its witness and t, is False.
    """
    try:
        t, verified = doc["t"], doc["verified"]
        if verified is not True or type(t) is not int or not 0 <= t <= T_CAP_DEFAULT:
            return False
        d = int_from_json(doc["d"])
        quad_doc = doc["quadruple"]
        quad = quadruple_from_json(quad_doc)
        ctx = quad.n.ctx
        if ctx.d != d:
            return False
        cert_doc = doc["certificate"]
        u = element_from_json(cert_doc["u"], ctx)
        power = _unit_power(element_from_json(cert_doc["minus6"], ctx), u, t)
        if not (_restate(quad.n, quad_doc["n"], doc["n"], cert_doc["n"]) and u == power[1]):
            return False
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False
    return _report_holds(quad, power)
