from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadtuple.construct
import quadtuple.pellsolve
from quadtuple import (
    NormEqClasses,
    ParityError,
    QuadInt,
    Quadruple,
    RingCtx,
    build_report,
    construct_quadruple,
    degenerate_check,
    fundamental_unit,
    quadruple_from_json,
    quadruple_to_json,
    scale_quadruple,
    sqrt_in_ring,
    verify_quadruple,
)

from quadtuple.construct import PAIRS, UNIT_INDEX_CAP
from quadtuple.counterex import T_CAP_DEFAULT
from quadtuple.pellsolve import unit_from_norm6
from support import (
    MINUS6_D,
    RING15,
    RING735,
    RING3975,
    SCANNED_GAMMA,
    verify_quadruple_by_operators,
)

GOLDEN_ELEMENTS = ((4, 1), (8, -2), (8, -1), (28, -7))
GOLDEN_WITNESSES = {
    (1, 2): (-2, 0),
    (1, 3): (2, 1),
    (1, 4): (-3, 0),
    (2, 3): (6, -2),
    (2, 4): (14, -4),
    (3, 4): (14, -3),
}


def _coords(quad):
    return tuple((e.a, e.b) for e in quad.elements)


def test_base_construction_golden(ring15):
    quad, trace = construct_quadruple(ring15, 0, 0)
    assert _coords(quad) == GOLDEN_ELEMENTS
    assert quad.n == QuadInt(2, 0, ring15)
    assert {k: (w.a, w.b) for k, w in quad.witnesses.items()} == GOLDEN_WITNESSES
    assert trace.gamma_delta == QuadInt(3, 1, ring15)
    assert trace.alpha1 == QuadInt(-3, 1, ring15)
    assert trace.alpha2 == QuadInt(3, 1, ring15)
    assert quad.elements[0] == QuadInt(4, 1, ring15)
    assert quad.witnesses[(1, 2)] == QuadInt(-2, 0, ring15)
    assert quad.elements[1] == QuadInt(8, -2, ring15)
    assert quad.witnesses[(1, 4)] == QuadInt(-3, 0, ring15)
    assert trace.unit_index == 0


def test_second_factorization_gives_conjugates(ring15):
    quad, trace = construct_quadruple(ring15, 0, 0, factorization_choice="second")
    assert trace.gamma_delta == QuadInt(3, -1, ring15)
    assert _coords(quad) == tuple((a, -b) for (a, b) in GOLDEN_ELEMENTS)
    assert verify_quadruple(ring15, quad).ok


def test_verify_passes_and_reports(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    report = verify_quadruple(ring15, quad)
    assert report.ok
    assert len(report.pairs) == 6
    for pair in report.pairs:
        assert pair.witness_ok is True
        assert pair.root is not None
        e = quad.elements
        assert pair.root * pair.root == e[pair.i - 1] * e[pair.j - 1] + quad.n


def test_verify_without_witnesses(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    stripped = Quadruple(quad.elements, quad.n, {})
    report = verify_quadruple(ring15, stripped)
    assert report.ok
    assert all(pair.witness_ok is None for pair in report.pairs)


def test_verify_catches_tampering(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    tampered = Quadruple(
        (-quad.elements[0],) + quad.elements[1:], quad.n, {}
    )
    assert not verify_quadruple(ring15, tampered).ok


def test_verify_catches_bad_witness(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    witnesses = dict(quad.witnesses)
    witnesses[(1, 2)] = QuadInt(5, 5, ring15)
    report = verify_quadruple(ring15, Quadruple(quad.elements, quad.n, witnesses))
    assert not report.ok
    bad = next(p for p in report.pairs if (p.i, p.j) == (1, 2))
    assert bad.witness_ok is False
    assert bad.root is not None  # the pair itself is fine; the witness lies


# each stored witness kept, negated, replaced by a wrong element, or stripped
WITNESS_VARIANTS = {
    "kept": lambda w: w,
    "negated": lambda w: -w,
    "wrong": lambda w: w + QuadInt(1, 0, w.ctx),
    "stripped": None,
}


def _with_witnesses(quad, variant):
    if variant is None:
        return Quadruple(quad.elements, quad.n, {})
    return Quadruple(
        quad.elements, quad.n, {pair: variant(w) for pair, w in quad.witnesses.items()}
    )


def _assert_matches_squaring(ctx, quad):
    # the definition the fast path must agree with: a witness is good iff
    # its square is the target, and a pair is ok iff the target has a root
    # and no stored witness is bad
    report = verify_quadruple(ctx, quad)
    for p in report.pairs:
        e = quad.elements
        target = e[p.i - 1] * e[p.j - 1] + quad.n
        w = quad.witnesses.get((p.i, p.j))
        assert p.witness_ok == (None if w is None else w * w == target)
        assert p.root == sqrt_in_ring(target)
        assert p.ok == (p.root is not None and p.witness_ok is not False)
    assert report.ok == all(p.ok for p in report.pairs)
    return report


# small rings at t = 0 and 1, and the alpha = 250 family ring at the t cap
REPORT_RINGS = [(d, t) for d in MINUS6_D for t in (0, 1)] + [(225090015, T_CAP_DEFAULT)]


@pytest.mark.parametrize("d, t", REPORT_RINGS)
@pytest.mark.parametrize("variant", WITNESS_VARIANTS)
def test_verify_witness_status_matches_squaring(d, t, variant):
    ctx = RingCtx(d)
    quad = _with_witnesses(build_report(ctx, t).quadruple, WITNESS_VARIANTS[variant])
    report = _assert_matches_squaring(ctx, quad)
    assert report.ok == (variant in ("kept", "negated", "stripped"))


@pytest.mark.parametrize("variant", ["kept", "negated", "wrong"])
def test_verify_squares_a_witness_whose_target_has_no_root(ring15, variant):
    quad, _ = construct_quadruple(ring15, 0, 0)
    quad = _with_witnesses(quad, WITNESS_VARIANTS[variant])
    # negating a = 4 + sqrt(15) sends the (1, 2) target to 0, a square that
    # its witness -2 does not match, and leaves (1, 3) and (1, 4) with no root
    tampered = Quadruple((-quad.elements[0],) + quad.elements[1:], quad.n, quad.witnesses)
    report = _assert_matches_squaring(ring15, tampered)
    assert [p.root is None for p in report.pairs] == [False, True, True, False, False, False]
    assert all(p.witness_ok is False for p in report.pairs[:3])


def test_verify_reports_a_good_witness_with_no_root(ring15, monkeypatch):
    # with the square decision procedure broken, the witnesses are squared
    # and still pass, which points at the procedure, not the construction
    quad, _ = construct_quadruple(ring15, 0, 0)
    monkeypatch.setattr(quadtuple.construct, "sqrt_in_ring", lambda z: None)
    report = verify_quadruple(ring15, quad)
    assert not report.ok
    assert all(p.witness_ok is True and p.root is None for p in report.pairs)


def test_verify_keeps_a_good_witness_against_a_wrong_root(ring15, monkeypatch):
    # the witnesses are squared against their targets, never compared with
    # the root, so a wrong root from the procedure does not mark them bad
    quad, _ = construct_quadruple(ring15, 0, 0)
    wrong = QuadInt(5, 5, ring15)
    monkeypatch.setattr(quadtuple.construct, "sqrt_in_ring", lambda z: wrong)
    report = verify_quadruple(ring15, quad)
    assert all(p.witness_ok is True and p.root == wrong for p in report.pairs)


def _bumped(x, data):
    # +-1 on one coordinate
    delta = data.draw(st.sampled_from([1, -1]))
    if data.draw(st.booleans()):
        return QuadInt(x.a + delta, x.b, x.ctx)
    return QuadInt(x.a, x.b + delta, x.ctx)


def _foreign(x, ctx=RING735):
    return QuadInt(x.a, x.b, ctx)


def _tampered(quad, kind, data):
    """quad with one tampering of the given kind, its place drawn from data."""
    elements, n, witnesses = list(quad.elements), quad.n, dict(quad.witnesses)
    i = data.draw(st.integers(0, 3))
    pair = data.draw(st.sampled_from(PAIRS))
    if kind == "element +-1":
        elements[i] = _bumped(elements[i], data)
    elif kind == "witness +-1":
        witnesses[pair] = _bumped(witnesses[pair], data)
    elif kind == "n +-1":
        n = _bumped(n, data)
    elif kind == "witness negated":
        witnesses[pair] = -witnesses[pair]
    elif kind == "witnesses swapped":
        other = data.draw(st.sampled_from([p for p in PAIRS if p != pair]))
        witnesses[pair], witnesses[other] = witnesses[other], witnesses[pair]
    elif kind == "witness dropped":
        del witnesses[pair]
    elif kind == "element of RING735":
        elements[i] = _foreign(elements[i])
    elif kind == "witness of RING735":
        witnesses[pair] = _foreign(witnesses[pair])
    elif kind == "n of RING735":
        n = _foreign(n)
    elif kind == "element of RING735, n of RING3975":
        # which of the two a pair's ring checks comes first shows in the message
        elements[i], n = _foreign(elements[i]), _foreign(n, RING3975)
    elif kind == "zero element":
        elements[i] = QuadInt(0, 0, n.ctx)
    elif kind == "repeated element":
        j = data.draw(st.sampled_from([j for j in range(4) if j != i]))
        e = elements[j]
        elements[i] = e if data.draw(st.booleans()) else QuadInt(e.a, e.b, e.ctx)
    elif kind == "n changed":
        n = n + QuadInt(data.draw(st.integers(-50, 50)), data.draw(st.integers(-50, 50)), n.ctx)
    return Quadruple(tuple(elements), n, witnesses)


TAMPERINGS = [
    "none",
    "element +-1",
    "witness +-1",
    "n +-1",
    "witness negated",
    "witnesses swapped",
    "witness dropped",
    "element of RING735",
    "witness of RING735",
    "n of RING735",
    "element of RING735, n of RING3975",
    "zero element",
    "repeated element",
    "n changed",
]


def _outcome(verify, quad):
    try:
        report = verify(quad.n.ctx, quad)
    except Exception as exc:  # the two forms must raise alike
        return type(exc), str(exc)
    return report, repr(report)


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from(sorted({*MINUS6_D, *SCANNED_GAMMA})),
    m=st.integers(-100, 100),
    k=st.integers(-100, 100),
    unit_index=st.integers(0, 8),
    choice=st.sampled_from(["first", "second"]),
    kind=st.sampled_from(TAMPERINGS),
    data=st.data(),
)
def test_verify_quadruple_matches_the_operator_form(d, m, k, unit_index, choice, kind, data):
    # the coordinate form against the QuadInt-operator form it replaced:
    # equal reports, or the same exception with the same message
    quad, _ = construct_quadruple(RingCtx(d), m, k + (m + k) % 2, unit_index, choice)
    quad = _tampered(quad, kind, data)
    expected = _outcome(verify_quadruple_by_operators, quad)
    assert _outcome(verify_quadruple, quad) == expected


@pytest.mark.parametrize("d", SCANNED_GAMMA)
def test_construct_reads_gamma_off_the_unit(d, monkeypatch):
    # the same quadruple and trace as built from the y-scan's representative,
    # with no scan: gamma and the unit come from one pellsolve.norm6_witness,
    # so each construction takes the unit once
    def forbidden(*args, **kwargs):
        raise AssertionError("construct_quadruple ran solve_norm_eq")

    unit, calls = quadtuple.pellsolve.fundamental_unit, []

    def counted(ctx):
        calls.append(ctx.d)
        return unit(ctx)

    monkeypatch.setattr(quadtuple.pellsolve, "solve_norm_eq", forbidden)
    monkeypatch.setattr(quadtuple.pellsolve, "fundamental_unit", counted)
    ctx = RingCtx(d)
    gamma = QuadInt(*SCANNED_GAMMA[d], ctx)
    classes = NormEqClasses((gamma,), unit_from_norm6(gamma))
    cases = [(0, 0, 0, "first"), (3, -1, 2, "second"), (-7, 5, 5, "first")]
    for m, k, index, choice in cases:
        built = construct_quadruple(ctx, m, k, index, choice)
        expected = quadtuple.construct._construct_from_norm6(classes, m, k, index, choice)
        assert built == expected, (d, m, k, index, choice)
    assert calls == [d] * len(cases)


def test_preconditions(ring15):
    with pytest.raises(ParityError):
        construct_quadruple(ring15, 1, 0)
    with pytest.raises(ParityError):
        construct_quadruple(ring15, 0, -3)
    with pytest.raises(ValueError):
        construct_quadruple(ring15, 0, 0, unit_index=-1)
    for index in (UNIT_INDEX_CAP + 1, 10**9):
        with pytest.raises(ValueError):
            construct_quadruple(ring15, 0, 0, unit_index=index)
    with pytest.raises(ValueError, match="'third'"):
        construct_quadruple(ring15, 0, 0, factorization_choice="third")
    from quadtuple import RingCtx

    with pytest.raises(ValueError):
        construct_quadruple(RingCtx(13), 0, 0)
    with pytest.raises(ValueError):
        construct_quadruple(RingCtx(195), 0, 0)  # -6 not attained


@pytest.mark.parametrize(
    "args, landed",
    [((4, -2), 1), ((4, 2, 0, "second"), 1), ((7, -1), 1), ((-8, 2, 2), 3)],
)
def test_degenerate_units_are_skipped(args, landed):
    # the start index gives a zero or repeated element, so the schedule moves on
    quad, trace = construct_quadruple(RING15, *args)
    assert trace.unit_index == landed
    assert degenerate_check(quad.elements)
    assert verify_quadruple(RING15, quad).ok


# the five collisions of _construct_from_norm6's docstring, as quadratics in
# the unit a with s = a + 2r and n fixed
COLLISION_QUADRATICS = (
    lambda a, s, n: 3 * a * a + 2 * s * a == s * s - 4 * n,  # a = b
    lambda a, s, n: 3 * a * a - 2 * s * a == s * s - 4 * n,  # a = c
    lambda a, s, n: a * a == s * s - 4 * n,  # a = e
    lambda a, s, n: a * a - 2 * s * a == 3 * s * s - 12 * n,  # b = e
    lambda a, s, n: a * a + 2 * s * a == 3 * s * s - 12 * n,  # c = e
)


def _scheduled_unit(eps, base, index):
    # the schedule restated: base times eps^2 to the exponents 0, 1, -1, 2, -2, ...
    j = (index + 1) // 2 if index % 2 else -(index // 2)
    return base * (eps if j >= 0 else eps.conjugate()) ** (2 * abs(j))


def test_degenerate_units_are_roots_of_the_collision_quadratics():
    # what the unbounded unit loop rests on: s has an odd sqrt(d)-coordinate,
    # so s != 0 and s^2 - 4n != 0; n is not a square, so b, c != 0; and
    # every degenerate unit is a root of one of the five quadratics
    skips = 0
    for d in MINUS6_D:
        ctx = RingCtx(d)
        eps = fundamental_unit(ctx)
        for m in range(-20, 21):
            for k in range(-20 + m % 2, 21, 2):
                for choice in ("first", "second"):
                    quad, trace = construct_quadruple(ctx, m, k, 0, choice)
                    n = quad.n
                    s = quad.elements[0] + 2 * quad.witnesses[(1, 2)]
                    assert s.b % 2 == 1
                    assert sqrt_in_ring(n) is None
                    base = unit_from_norm6(trace.gamma_delta)
                    for index in range(6):
                        a = _scheduled_unit(eps, base, index)
                        r = QuadInt((s.a - a.a) // 2, (s.b - a.b) // 2, ctx)
                        b = (r * r - n) * a.conjugate()
                        if degenerate_check((a, b, a + b + 2 * r, a + 4 * b + 4 * r)):
                            break
                        assert any(q(a, s, n) for q in COLLISION_QUADRATICS)
                        skips += 1
                    assert (trace.unit_index, quad.elements[0]) == (index, a)
    assert skips  # the grid reaches the skip


def test_trace_invariants_random():
    rng = random.Random(7)
    for _ in range(40):
        ctx = rng.choice([RING15, RING735, RING3975])
        m = rng.randint(-20, 20)
        k = rng.randint(-20, 20)
        if (m + k) % 2:
            k += 1
        quad, trace = construct_quadruple(ctx, m, k, unit_index=rng.randint(0, 4))
        n = quad.n
        assert n == QuadInt(4 * m + 2, 4 * k, ctx)
        (a, b, _, _), r = quad.elements, quad.witnesses[(1, 2)]
        assert trace.alpha1 * trace.alpha2 == 3 * n
        assert trace.alpha1 + trace.alpha2 == 2 * a + 4 * r
        assert a * b + n == r * r
        assert a.norm() == 1 and a.a % 2 == 0 and a.b % 2 == 1
        s = a + 2 * r
        alpha_sym = quad.witnesses[(1, 4)]
        assert alpha_sym * alpha_sym == s * s - 3 * n
        assert verify_quadruple(ctx, quad).ok


# (m, k) with m + k even, on both sides of zero
CONSTRUCTION_GRID = [(0, 0), (1, 1), (2, 0), (-1, 1), (3, -1), (-2, -4)]


@pytest.mark.parametrize("d", MINUS6_D + [735, 3975])
@pytest.mark.parametrize("choice", ["first", "second"])
def test_construction_shapes_hold_without_checks(d, choice):
    # what _construct_from_norm6's docstring proves in place of a run-time
    # check: every scheduled unit is a norm 1 (even, odd) element, and both
    # halvings are exact
    ctx = RingCtx(d)
    for m, k in CONSTRUCTION_GRID:
        for index in range(9):
            quad, trace = construct_quadruple(ctx, m, k, index, choice)
            a = quad.elements[0]
            assert a.norm() == 1 and a.a % 2 == 0 and a.b % 2 == 1
            assert trace.alpha1 + trace.alpha2 == 2 * (a + 2 * quad.witnesses[(1, 2)])
            assert trace.alpha1 - trace.alpha2 == 2 * quad.witnesses[(1, 4)]


def test_distinct_unit_indices_distinct_quadruples(ring15):
    seen = set()
    for index in range(10):
        quad, trace = construct_quadruple(ring15, 0, 0, unit_index=index)
        assert trace.unit_index == index
        assert verify_quadruple(ring15, quad).ok
        seen.add(_coords(quad))
    assert len(seen) == 10


def test_unit_index_cap_is_reachable(ring15):
    # index 2000 takes a = unit^-1999: no larger than a capped report's unit^(2t)
    assert UNIT_INDEX_CAP == 2 * T_CAP_DEFAULT
    quad, trace = construct_quadruple(ring15, 0, 0, unit_index=UNIT_INDEX_CAP)
    assert trace.unit_index == UNIT_INDEX_CAP
    assert quad.elements[0] == fundamental_unit(ring15).conjugate() ** (UNIT_INDEX_CAP - 1)
    assert verify_quadruple(ring15, quad).ok


def test_scale_identity_and_negation(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    one = QuadInt(1, 0, ring15)
    same = scale_quadruple(quad, one, one)
    assert same == quad
    negated = scale_quadruple(quad, -one, one)
    assert negated.n == quad.n  # (-1)^2 * n
    assert _coords(negated) == tuple((-a, -b) for (a, b) in _coords(quad))
    assert verify_quadruple(ring15, negated).ok
    zero = QuadInt(0, 0, ring15)
    with pytest.raises(ValueError):
        scale_quadruple(quad, zero, zero)


def test_scale_by_unit_powers(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    u = fundamental_unit(ring15)
    for t in (1, 2, 3):
        w = u**t
        scaled = scale_quadruple(quad, w, w * w)
        assert scaled.n == w * w * quad.n
        assert verify_quadruple(ring15, scaled).ok


def test_scale_refuses_a_w2_that_is_not_w_squared(ring15):
    # the low-bits test catches w itself, the conjugate square, a square off
    # by a little in either coordinate and the next power; a wrong w2 would
    # claim D(w2 * n)
    quad, _ = construct_quadruple(ring15, 0, 0)
    w = fundamental_unit(ring15) ** 40
    w2 = w * w
    for wrong in (
        w,
        w2.conjugate(),
        w2 + QuadInt(2, 0, ring15),
        w2 + QuadInt(0, 2, ring15),
        fundamental_unit(ring15) ** 81,
    ):
        with pytest.raises(ValueError, match="not the square"):
            scale_quadruple(quad, w, wrong)
    assert verify_quadruple(ring15, scale_quadruple(quad, w, w2)).ok


def test_degenerate_check(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    assert degenerate_check(quad.elements)
    assert not degenerate_check(quad.elements[:3] + (QuadInt(0, 0, ring15),))
    assert not degenerate_check(quad.elements[:3] + (quad.elements[0],))


def test_quadruple_json_round_trip(ring15):
    quad, _ = construct_quadruple(ring15, 2, 0)
    doc = quadruple_to_json(quad)
    assert doc["d"] == "15"
    assert set(doc["witnesses"]) == {"12", "13", "14", "23", "24", "34"}
    back = quadruple_from_json(doc)
    assert back == quad
    stripped = Quadruple(quad.elements, quad.n, {})
    doc2 = quadruple_to_json(stripped)
    assert "witnesses" not in doc2
    assert quadruple_from_json(doc2) == stripped
    # keys are exactly "12" ... "34": no reversed, padded or non-ASCII pairs
    for key in ("21", "123", "99", "\u0661\u0662", "1", ""):
        bad = quadruple_to_json(quad)
        bad["witnesses"][key] = bad["witnesses"].pop("12")
        with pytest.raises(ValueError, match="witness key"):
            quadruple_from_json(bad)


def test_quadruple_from_json_counts_elements_before_parsing(ring15):
    # unparseable entries would raise TypeError; the count refuses them first
    quad, _ = construct_quadruple(ring15, 0, 0)
    for elements in ([None] * 10**5, [None] * 3, []):
        doc = quadruple_to_json(quad)
        doc["elements"] = elements
        with pytest.raises(ValueError, match="expected 4 elements"):
            quadruple_from_json(doc)


@pytest.mark.parametrize("witnesses", [[], None, "x", 5])
def test_quadruple_from_json_refuses_non_object_witnesses(ring15, witnesses):
    # the parsers surface a wrong type as TypeError, not as a missing .items
    doc = quadruple_to_json(construct_quadruple(ring15, 0, 0)[0])
    doc["witnesses"] = witnesses
    with pytest.raises(TypeError, match="witnesses must be an object"):
        quadruple_from_json(doc)


# the family ring at alpha = 780; its unit at index 2000 has 60,856 bits
RING780 = RingCtx(2190520815)


@pytest.mark.parametrize("ctx", [RingCtx(d) for d in MINUS6_D] + [RING780], ids=lambda c: c.d)
@pytest.mark.parametrize("choice", ["first", "second"])
def test_b_matches_its_definition(ctx, choice):
    # b = ((s^2 - 4n)*conj(a) - 2s + a)/4 is (r^2 - n)*conj(a), since
    # s = a + 2r and a*conj(a) = 1
    for m, k in ((0, 0), (1, 1)):
        n = QuadInt(4 * m + 2, 4 * k, ctx)
        for index in (0, 1, 2, 7, UNIT_INDEX_CAP):
            quad, _ = construct_quadruple(ctx, m, k, index, choice)
            (a, b, _, _), r = quad.elements, quad.witnesses[(1, 2)]
            assert b == (r * r - n) * a.conjugate(), (m, k, index)


def test_b_takes_no_product_of_two_long_operands(monkeypatch):
    # at index 2000 in the alpha = 780 ring, b is one product of the
    # base-sized s^2 - 4n by the unit; (r*r - n)*conj(a) had two
    multiply, long_products = QuadInt.__mul__, []

    def bits(x):
        return max(x.a.bit_length(), x.b.bit_length())

    def recorded_mul(x, y):
        if type(y) is QuadInt and min(bits(x), bits(y)) > 10_000:
            long_products.append((bits(x), bits(y)))
        return multiply(x, y)

    monkeypatch.setattr(QuadInt, "__mul__", recorded_mul)
    quad, _ = construct_quadruple(RING780, 0, 0, UNIT_INDEX_CAP)
    assert quad.elements[0].a.bit_length() > 60_000 and not long_products
