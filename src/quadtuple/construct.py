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

# largest unit_index construct_quadruple accepts: 2 * counterex.T_CAP_DEFAULT,
# so its elements never outgrow a capped report's unit^(2t)
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
    """Every intermediate of a successful construction, for audit."""

    gamma_delta: QuadInt
    alpha1: QuadInt
    alpha2: QuadInt
    unit_a: QuadInt
    r: QuadInt
    b: QuadInt
    alpha_sym: QuadInt
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

    Checks the arguments, solves x^2 - d*y^2 = -6 once and builds the
    quadruple from its canonical representative (_construct_from_norm6).
    """
    if ctx.d % 60 != 15:
        raise ValueError(f"d = {ctx.d} is not 15 mod 60")
    if (m + k) % 2:
        raise ParityError(f"m + k = {m + k} is odd")
    if not 0 <= unit_index <= UNIT_INDEX_CAP:
        raise ValueError(f"unit_index must be in [0, {UNIT_INDEX_CAP}], got {unit_index}")
    if factorization_choice not in ("first", "second"):
        raise ValueError(
            f"factorization_choice must be 'first' or 'second', got {factorization_choice!r}"
        )
    reps = pellsolve.solve_norm_eq(ctx, -6).representatives
    if not reps:
        raise ValueError(f"x^2 - {ctx.d}y^2 = -6 has no solutions")
    return _construct_from_norm6(reps[0], m, k, unit_index, factorization_choice)


def _construct_from_norm6(
    gamma: QuadInt, m: int, k: int, unit_index: int, factorization_choice: str
) -> tuple[Quadruple, ConstructionTrace]:
    """construct_quadruple's steps, from the canonical norm -6 representative gamma.

    Steps: flip the sign of gamma's y if needed so that (gamma, delta) has
    y = +1 (mod 6) for 'first' and y = -1 (mod 6) for 'second'; split
    3n = alpha1 * alpha2 with alpha1 = (-gamma, delta) and
    alpha2 = (gamma, delta) * (2m+1, 2k); halve alpha1 + alpha2 into a + 2r;
    take a from the deterministic unit schedule (all units of even/odd
    coordinate parity, which keeps r integral); then b = (r^2 - n) / a,
    which is (r^2 - n) * conj(a) since a has norm 1.  The fundamental unit
    is eps = gamma^2/6 (unit_from_norm6), and the schedule starts from
    (gamma, delta)^2/6: eps itself, or its conjugate when delta flips
    gamma's y.

    No step needs a check: d is odd and (gamma, delta) = (x, y) has x, y odd
    (norm6_sign_y), so alpha1 +- alpha2 = 2 * (mx + dky, kx + (m+1)y) and
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
    ctx = gamma.ctx
    want = 1 if factorization_choice == "first" else -1
    gd = gamma if pellsolve.norm6_sign_y(gamma) == want else gamma.conjugate()
    n = QuadInt(4 * m + 2, 4 * k, ctx)
    alpha1 = QuadInt(-gd.a, gd.b, ctx)
    alpha2 = gd * QuadInt(2 * m + 1, 2 * k, ctx)
    s = _halved(alpha1 + alpha2)  # a + 2r
    alpha_sym = _halved(alpha1 - alpha2)

    eps = pellsolve.unit_from_norm6(gamma)
    base_unit = eps if gd is gamma else eps.conjugate()

    for index in count(unit_index):
        j = _unit_exponent(index)
        # eps^(2|j|); eps has norm 1, so its conjugate is eps^(-2|j|)
        power = pellsolve.unit_power(eps, abs(j))[1]
        a = base_unit * (power if j >= 0 else power.conjugate())
        r = _halved(s - a)
        b = (r * r - n) * a.conjugate()
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
            unit_a=a,
            r=r,
            b=b,
            alpha_sym=alpha_sym,
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
    the square decision procedure.  The root comes first.  A stored witness
    w is then checked against it: Z[sqrt(d)] has no zero divisors, so
    w^2 == root^2 exactly when w == +-root, and the big squaring is skipped.
    Only when the target has no root is the witness squared, so that a
    good witness with no root is still reported as witness_ok True.
    """
    pairs = []
    distinct = degenerate_check(quad.elements)
    all_ok = distinct
    for i, j in PAIRS:
        target = quad.elements[i - 1] * quad.elements[j - 1] + quad.n
        witness = quad.witnesses.get((i, j))
        root = sqrt_in_ring(target)
        if witness is None:
            witness_ok = None
        elif root is None:
            witness_ok = witness * witness == target
        else:
            witness_ok = witness in (root, -root)
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
    witnesses = {
        _witness_pair(key): element_from_json(value, ctx)
        for key, value in doc.get("witnesses", {}).items()
    }
    return Quadruple(elements, element_from_json(doc["n"], ctx), witnesses)
