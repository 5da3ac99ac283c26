from __future__ import annotations

import random

import pytest

import quadtuple.construct
from quadtuple import (
    ParityError,
    Quadruple,
    RetryBudgetExceeded,
    construct_quadruple,
    degenerate_check,
    fundamental_unit,
    quadruple_from_json,
    quadruple_to_json,
    scale_quadruple,
    verify_quadruple,
)

from quadtuple.construct import UNIT_INDEX_CAP
from quadtuple.counterex import T_CAP_DEFAULT
from support import RING15, RING735, RING3975

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
        assert pair.root * pair.root == pair.target


def test_verify_without_witnesses(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    stripped = Quadruple(quad.elements, quad.n, None)
    report = verify_quadruple(ring15, stripped)
    assert report.ok
    assert all(pair.witness_ok is None for pair in report.pairs)


def test_verify_catches_tampering(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    tampered = Quadruple(
        (-quad.elements[0],) + quad.elements[1:], quad.n, None
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
    same = scale_quadruple(ring15, quad, ring15.one())
    assert same == quad
    negated = scale_quadruple(ring15, quad, ring15.element(-1, 0))
    assert negated.n == quad.n  # (-1)^2 * n
    assert _coords(negated) == tuple((-a, -b) for (a, b) in _coords(quad))
    assert verify_quadruple(ring15, negated).ok
    with pytest.raises(ValueError):
        scale_quadruple(ring15, quad, ring15.zero())


def test_scale_by_unit_powers(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    u = fundamental_unit(ring15)
    for t in (1, 2, 3):
        w = u**t
        scaled = scale_quadruple(ring15, quad, w)
        assert scaled.n == w * w * quad.n
        assert verify_quadruple(ring15, scaled).ok


def test_degenerate_check(ring15):
    quad, _ = construct_quadruple(ring15, 0, 0)
    assert degenerate_check(quad.elements)
    assert not degenerate_check(quad.elements[:3] + (ring15.zero(),))
    assert not degenerate_check(quad.elements[:3] + (quad.elements[0],))


def test_quadruple_json_round_trip(ring15):
    quad, _ = construct_quadruple(ring15, 2, 0)
    doc = quadruple_to_json(quad)
    assert doc["d"] == "15"
    assert set(doc["witnesses"]) == {"12", "13", "14", "23", "24", "34"}
    back = quadruple_from_json(doc)
    assert back == quad
    stripped = Quadruple(quad.elements, quad.n, None)
    doc2 = quadruple_to_json(stripped)
    assert "witnesses" not in doc2
    assert quadruple_from_json(doc2) == stripped
    # keys are exactly "12" ... "34": no reversed, padded or non-ASCII pairs
    for key in ("21", "123", "99", "\u0661\u0662", "1", ""):
        bad = quadruple_to_json(quad)
        bad["witnesses"][key] = bad["witnesses"].pop("12")
        with pytest.raises(ValueError, match="witness key"):
            quadruple_from_json(bad)
