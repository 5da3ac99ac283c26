from __future__ import annotations

import random

import pytest

import quadtuple.construct
from quadtuple import (
    ParityError,
    Quadruple,
    RetryBudgetExceeded,
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

from quadtuple.construct import UNIT_INDEX_CAP
from quadtuple.counterex import T_CAP_DEFAULT
from support import MINUS6_D, RING15, RING735, RING3975

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
    assert quad.n == ring15.element(2, 0)
    assert {k: (w.a, w.b) for k, w in quad.witnesses.items()} == GOLDEN_WITNESSES
    assert trace.gamma_delta == ring15.element(3, 1)
    assert trace.alpha1 == ring15.element(-3, 1)
    assert trace.alpha2 == ring15.element(3, 1)
    assert trace.unit_a == ring15.element(4, 1)
    assert trace.r == ring15.element(-2, 0)
    assert trace.b == ring15.element(8, -2)
    assert trace.alpha_sym == ring15.element(-3, 0)
    assert trace.unit_index == 0


def test_second_factorization_gives_conjugates(ring15):
    quad, trace = construct_quadruple(ring15, 0, 0, factorization_choice="second")
    assert trace.gamma_delta == ring15.element(3, -1)
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
    witnesses[(1, 2)] = ring15.element(5, 5)
    report = verify_quadruple(ring15, Quadruple(quad.elements, quad.n, witnesses))
    assert not report.ok
    bad = next(p for p in report.pairs if (p.i, p.j) == (1, 2))
    assert bad.witness_ok is False
    assert bad.root is not None  # the pair itself is fine; the witness lies


# each stored witness kept, negated, replaced by a wrong element, or stripped
WITNESS_VARIANTS = {
    "kept": lambda w: w,
    "negated": lambda w: -w,
    "wrong": lambda w: w + w.ctx.element(1, 0),
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
    with pytest.raises(ValueError):
        construct_quadruple(ring15, 0, 0, factorization_choice="third")
    from quadtuple import RingCtx

    with pytest.raises(ValueError):
        construct_quadruple(RingCtx(13), 0, 0)
    with pytest.raises(ValueError):
        construct_quadruple(RingCtx(195), 0, 0)  # -6 not attained


def test_retry_budget_zero(ring15, monkeypatch):
    monkeypatch.setattr(quadtuple.construct, "RETRY_BUDGET", 0)
    with pytest.raises(RetryBudgetExceeded):
        construct_quadruple(ring15, 0, 0)


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
        assert n == ctx.element(4 * m + 2, 4 * k)
        a, r, b = trace.unit_a, trace.r, trace.b
        assert trace.alpha1 * trace.alpha2 == 3 * n
        assert trace.alpha1 + trace.alpha2 == 2 * a + 4 * r
        assert a * b + n == r * r
        assert a.norm() == 1 and a.a % 2 == 0 and a.b % 2 == 1
        s = a + 2 * r
        assert trace.alpha_sym * trace.alpha_sym == s * s - 3 * n
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
            _, trace = construct_quadruple(ctx, m, k, index, choice)
            a = trace.unit_a
            assert a.norm() == 1 and a.a % 2 == 0 and a.b % 2 == 1
            assert trace.alpha1 + trace.alpha2 == 2 * (a + 2 * trace.r)
            assert trace.alpha1 - trace.alpha2 == 2 * trace.alpha_sym


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
    assert trace.unit_a == fundamental_unit(ring15).conjugate() ** (UNIT_INDEX_CAP - 1)
    assert verify_quadruple(ring15, quad).ok


def test_scale_identity_and_negation(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    same = scale_quadruple(quad, ring15.element(1, 0))
    assert same == quad
    negated = scale_quadruple(quad, ring15.element(-1, 0))
    assert negated.n == quad.n  # (-1)^2 * n
    assert _coords(negated) == tuple((-a, -b) for (a, b) in _coords(quad))
    assert verify_quadruple(ring15, negated).ok
    with pytest.raises(ValueError):
        scale_quadruple(quad, ring15.element(0, 0))


def test_scale_by_unit_powers(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    u = fundamental_unit(ring15)
    for t in (1, 2, 3):
        w = u**t
        scaled = scale_quadruple(quad, w)
        assert scaled.n == w * w * quad.n
        assert verify_quadruple(ring15, scaled).ok


def test_degenerate_check(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    assert degenerate_check(quad.elements)
    assert not degenerate_check(quad.elements[:3] + (ring15.element(0, 0),))
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
