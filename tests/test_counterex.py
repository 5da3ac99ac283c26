from __future__ import annotations

import copy
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import nextprime

import quadtuple.counterex
import quadtuple.pellsolve
from quadtuple import (
    QuadInt,
    Quadruple,
    RingCtx,
    StageError,
    build_report,
    enumerate_counterexample_rings,
    family_d,
    fundamental_unit,
    report_to_json,
    verify_report_doc,
)
from quadtuple.quadring import element_to_json
from support import report_holds_by_definition


def test_family_d_examples():
    c0 = family_d(0)
    assert (c0.ctx.d, c0.x, c0.ctx.square_free) == (15, 3, True)
    c1 = family_d(1)
    assert (c1.ctx.d, c1.x, c1.ctx.square_free) == (3975, 63, False)  # 3975 = 3 * 5^2 * 53
    cm1 = family_d(-1)
    assert (cm1.ctx.d, cm1.x, cm1.ctx.square_free) == (3255, -57, True)


@pytest.mark.parametrize("alpha", range(-50, 51))
def test_family_identity_holds(alpha):
    cand = family_d(alpha)
    assert cand.x * cand.x - cand.ctx.d == -6
    assert cand.ctx.d % 360 == 15


def test_enumerate_counterexample_rings():
    cands = enumerate_counterexample_rings(0, 3)
    assert [c.ctx.d for c in cands] == [15, 3975, 15135, 33495]
    assert [c.ctx.square_free for c in cands] == [True, False, True, True]
    assert enumerate_counterexample_rings(2, 2)[0].alpha == 2
    with pytest.raises(ValueError):
        enumerate_counterexample_rings(5, 1)


class _Built(Exception):
    pass


def test_alpha_span_cap_is_checked_before_any_ring(monkeypatch):
    def built(alpha):
        raise _Built(alpha)

    monkeypatch.setattr(quadtuple.counterex, "family_d", built)
    cap = quadtuple.counterex.ALPHA_SPAN_CAP
    assert cap >= 10_001  # a 10,001-member window stays one enumeration
    for lo, hi in ((0, cap), (-(10**12), 10**12), (0, 10**8)):
        with pytest.raises(ValueError, match="over the cap"):
            enumerate_counterexample_rings(lo, hi)
    # a span of exactly cap members is allowed, so it reaches family_d
    with pytest.raises(_Built):
        enumerate_counterexample_rings(1, cap)


def test_build_report_base(ring15):
    report = build_report(ring15, 0)
    assert report.verified
    assert report.n == ring15.element(2, 0)
    assert tuple((e.a, e.b) for e in report.quadruple.elements) == (
        (4, 1),
        (8, -2),
        (8, -1),
        (28, -7),
    )
    assert report.certificate.u == ring15.element(1, 0)


def test_build_report_t1(ring15):
    report = build_report(ring15, 1)
    assert report.verified
    assert report.n == ring15.element(62, 16)  # 2 * (4,1)^2
    assert report.certificate.u == ring15.element(31, 8)


def test_build_report_guards(ring15):
    with pytest.raises(ValueError):
        build_report(ring15, -1)
    with pytest.raises(ValueError):
        build_report(ring15, 1001)
    with pytest.raises(StageError, match="eligibility"):
        build_report(RingCtx(3975), 0)
    with pytest.raises(StageError, match="eligibility"):
        build_report(RingCtx(195), 0)  # -6 not attained
    with pytest.raises(StageError, match="eligibility"):
        build_report(RingCtx(19), 0)  # not 15 mod 60


def test_report_json_shape(ring15):
    doc = report_to_json(build_report(ring15, 0))
    assert doc["d"] == "15"
    assert doc["t"] == 0
    assert doc["n"] == {"a": "2", "b": "0"}
    assert doc["verified"] is True
    assert doc["certificate"] == {
        "n": {"a": "2", "b": "0"},
        "u": {"a": "1", "b": "0"},
        "minus6": {"a": "3", "b": "1"},
    }
    assert len(doc["quadruple"]["elements"]) == 4
    assert set(doc["quadruple"]["witnesses"]) == {"12", "13", "14", "23", "24", "34"}


def test_report_self_contained_reverification(ring15):
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, 1))))
    assert verify_report_doc(doc)


# each makes a valid d = 15 report invalid, at any t
TAMPERINGS = [
    lambda doc: doc["quadruple"]["elements"].__setitem__(0, {"a": "-4", "b": "-1"}),
    lambda doc: doc["n"].__setitem__("a", "6"),
    lambda doc: doc["quadruple"]["n"].__setitem__("a", "6"),
    lambda doc: doc["certificate"]["u"].__setitem__("a", "3"),
    lambda doc: doc.__setitem__("d", "3975"),
    lambda doc: doc["quadruple"]["elements"].__setitem__(
        1, doc["quadruple"]["elements"][0]
    ),
    lambda doc: doc["quadruple"].__setitem__("witnesses", []),
    # the count is checked before any element is parsed
    lambda doc: doc["quadruple"].__setitem__(
        "elements", doc["quadruple"]["elements"] * 25_000
    ),
    lambda doc: doc["certificate"].__setitem__("minus6", {"a": "4", "b": "1"}),
    lambda doc: doc["certificate"].pop("minus6"),
    lambda doc: doc["certificate"]["n"].__setitem__("a", "6"),
    # integers are decimal strings, never coerced from other forms
    lambda doc: doc["quadruple"]["elements"][0].__setitem__("a", 4.5),
    lambda doc: doc.__setitem__("d", 15.9),
    lambda doc: doc["n"].__setitem__("a", "0_2"),
    lambda doc: doc["n"].__setitem__("a", " 2 "),
    lambda doc: doc["n"].__setitem__("a", 2),
    # the stated t and verdict are read: n = 2*unit^(2t) must hold for t
    lambda doc: doc.__setitem__("t", 7),
    lambda doc: doc.__setitem__("t", -1),
    lambda doc: doc.__setitem__("t", 1001),
    lambda doc: doc.__setitem__("t", "0"),
    lambda doc: doc.__setitem__("t", False),
    lambda doc: doc.__setitem__("t", 0.0),
    lambda doc: doc.pop("t"),
    lambda doc: doc.__setitem__("verified", False),
    lambda doc: doc.__setitem__("verified", "true"),
    lambda doc: doc.pop("verified"),
    # witness keys are exactly "12" ... "34"
    lambda doc: doc["quadruple"]["witnesses"].__setitem__(
        "\u0661\u0662", doc["quadruple"]["witnesses"].pop("12")
    ),
    lambda doc: doc["quadruple"]["witnesses"].__setitem__(
        "123", doc["quadruple"]["witnesses"].pop("12")
    ),
    lambda doc: doc["quadruple"]["witnesses"].__setitem__(
        "99", doc["quadruple"]["witnesses"]["12"]
    ),
    # the quadruple is parsed in its own ring, which must be the report's
    lambda doc: doc["quadruple"].__setitem__("d", "1095"),
]


def _tampered(ring15, t, mutate):
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, t))))
    mutate(doc)
    if doc["d"] != "15":
        doc["quadruple"]["d"] = doc["d"]
    return doc


@pytest.mark.parametrize("mutate", TAMPERINGS)
def test_reverification_rejects_tampering(ring15, mutate):
    assert not verify_report_doc(_tampered(ring15, 0, mutate))


@pytest.mark.parametrize("mutate", TAMPERINGS)
def test_reverification_rejects_tampering_at_t3(ring15, mutate):
    # at t = 0 the judge divides out w = 1, so only t > 0 tests the reduction
    assert not verify_report_doc(_tampered(ring15, 3, mutate))


def test_reverification_rejects_a_report_d_its_quadruple_does_not_share(ring15):
    # _tampered would copy the change into the quadruple; here only the
    # report's d moves, and every other test would still pass in Z[sqrt(15)]
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, 1))))
    assert verify_report_doc(doc)
    doc["d"] = "1095"
    assert not verify_report_doc(doc)


def test_reverification_refuses_a_long_witness_before_its_power(ring15):
    # (3, 1) * unit^500 still has norm -6, but at t = 1000 the t check would
    # raise its ~900-digit unit to the 2000th power; the short u refuses it first
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, 0))))
    doc["t"] = 1000
    long_witness = ring15.element(3, 1) * fundamental_unit(ring15) ** 500
    doc["certificate"]["minus6"] = element_to_json(long_witness)
    start = time.process_time()
    assert not verify_report_doc(doc)
    assert time.process_time() - start < 1.0


def test_reverification_refuses_a_radicand_over_the_cap(ring15):
    # a 41-digit semiprime with two 21-digit factors: deciding its
    # square-freeness takes Brent's rho well over 30 s, so the cap must
    # refuse it before any test
    d = nextprime(10**20) * nextprime(2 * 10**20)
    assert len(str(d)) == 41
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, 0))))
    doc["d"] = doc["quadruple"]["d"] = str(d)
    start = time.process_time()
    assert not verify_report_doc(doc)
    assert time.process_time() - start < 0.1


def test_reverification_refuses_a_wrong_residue_radicand_before_factorising(ring15):
    # 15*p*q has 30 digits, under the cap, and two 15-digit prime factors
    # that take Brent's rho seconds to split; it is 45 mod 60, which the
    # certificate refuses anyway, so the residue test answers first
    d = 15 * nextprime(2 * 10**14) * nextprime(3 * 10**14)
    assert len(str(d)) == 30 and d % 60 == 45
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, 0))))
    doc["d"] = doc["quadruple"]["d"] = str(d)
    start = time.process_time()
    assert not verify_report_doc(doc)
    assert time.process_time() - start < 0.1


def test_build_report_solves_once(ring15, monkeypatch):
    # one norm -6 solve per report: the construction and the unit both
    # start from its representative (the unit is gamma^2/6), and the one
    # fundamental_unit call is the solver's own
    calls = {"solve_norm_eq": 0, "fundamental_unit": 0}
    for name in calls:
        original = getattr(quadtuple.pellsolve, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(quadtuple.pellsolve, name, counted)
    report = build_report(ring15, 1)
    assert report.verified
    assert calls == {"solve_norm_eq": 1, "fundamental_unit": 1}


def test_reverification_runs_no_solver(ring15, monkeypatch):
    docs = [
        json.loads(json.dumps(report_to_json(build_report(ring15, 1)))),
        json.loads(json.dumps(report_to_json(build_report(family_d(2).ctx, 0)))),
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_report_doc ran a solver")

    monkeypatch.setattr(quadtuple.pellsolve, "solve_norm_eq", forbidden)
    monkeypatch.setattr(quadtuple.pellsolve, "fundamental_unit", forbidden)
    for doc in docs:
        assert verify_report_doc(doc)


# any JSON value, plus decimal strings that parse, so mutations reach the checks
# behind the parser; the long ones reach d past quadring.RADICAND_CAP
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.integers(-(10**6), 10**6).map(str),
    st.integers(-(10**60), 10**60).map(str),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=3),
)


def _paths(node, path=()):
    """Every position in a JSON document, as the keys that lead to it."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


@settings(max_examples=30, deadline=None)
@given(junk=JUNK, key=st.text(max_size=3))
def test_verify_report_doc_never_raises_on_mutated_reports(junk, key):
    # every position of a valid report is dropped, replaced by junk, or, if it
    # is a container, given a junk entry; hypothesis picks the junk
    base = json.loads(json.dumps(report_to_json(build_report(RingCtx(15), 1))))
    for path in _paths(base):
        for action in ("drop", "replace", "insert"):
            doc = copy.deepcopy(base)
            parent, node = None, doc
            for step in path:
                parent, node = node, node[step]
            if action == "replace":
                if path:
                    parent[path[-1]] = junk
                else:
                    doc = junk
            elif action == "drop" and path:
                del parent[path[-1]]
            elif action == "insert" and isinstance(node, dict):
                node[key] = junk
            elif action == "insert" and isinstance(node, list):
                node.append(junk)
            start = time.process_time()
            assert type(verify_report_doc(doc)) is bool, (path, action)
            assert time.process_time() - start < 0.5, (path, action)


def test_reports_across_family_members():
    for cand in enumerate_counterexample_rings(0, 2):
        if not cand.ctx.square_free:
            continue
        for t in (0, 1, 2):
            report = build_report(RingCtx(cand.ctx.d), t)
            assert report.verified
            assert verify_report_doc(json.loads(json.dumps(report_to_json(report))))


def test_coordinate_growth_is_linear_in_t(ring15):
    digits = {}
    for t in (20, 40):
        report = build_report(ring15, t)
        digits[t] = len(str(abs(report.n.a)))
    ratio = digits[40] / digits[20]
    assert 1.8 <= ratio <= 2.2


def test_n_matches_unit_power(ring15):
    u = fundamental_unit(ring15)
    for t in (0, 1, 2, 7):
        report = build_report(ring15, t)
        assert report.n == 2 * u ** (2 * t)
        assert report.quadruple.n == report.n


def _mutations(quad, eps):
    """The quadruple itself, then 35 tamperings of its elements and witnesses."""
    elements, witnesses = quad.elements, quad.witnesses

    def with_element(i, e):
        return Quadruple(elements[:i] + (e,) + elements[i + 1 :], quad.n, witnesses)

    def with_witness(pair, x):
        changed = {p: w for p, w in witnesses.items() if p != pair}
        if x is not None:
            changed[pair] = x
        return Quadruple(elements, quad.n, changed)

    yield quad
    for i, e in enumerate(elements):
        yield with_element(i, QuadInt(e.a + 1, e.b, e.ctx))
        yield with_element(i, QuadInt(e.a, e.b + 1, e.ctx))
        yield with_element(i, -e)
        yield with_element(i, e * eps * eps)
    for pair, x in witnesses.items():
        yield with_witness(pair, -x)
        yield with_witness(pair, x * eps)
        yield with_witness(pair, None)
    yield Quadruple(elements, quad.n, {})


@pytest.mark.parametrize("alpha", [0, 2, 3, -5, -1, 4])
def test_report_holds_matches_its_unreduced_definition(alpha):
    ctx = family_d(alpha).ctx
    held = 0
    for t in (0, 1, 2, 7):
        report = build_report(ctx, t)
        eps = quadtuple.pellsolve.unit_from_norm6(report.certificate.minus6)
        for quad in _mutations(report.quadruple, eps):
            for judged_t in (t, t + 1):
                args = (ctx, judged_t, report.n, quad, report.certificate)
                verdict = quadtuple.counterex._report_holds(*args)
                assert verdict == report_holds_by_definition(*args), (t, judged_t, quad)
                held += verdict
    # per t, at that t: the report, each witness negated or dropped, none stored
    assert held == 4 * (1 + 6 + 6 + 1)


def test_report_holds_refuses_the_n_of_another_t(ring15):
    # the t = 1 quadruple under the t = 2 report's n: divided by w = unit^1
    # its elements are the base D(2) quadruple and its witnesses are w*rho,
    # so only the tie u = w^2 refuses it
    r1, r2 = build_report(ring15, 1), build_report(ring15, 2)
    quad = Quadruple(r1.quadruple.elements, r2.n, r1.quadruple.witnesses)
    for t in (1, 2):
        args = (ring15, t, r2.n, quad, r2.certificate)
        assert not quadtuple.counterex._report_holds(*args)
        assert not report_holds_by_definition(*args)


def test_square_tests_run_on_base_sized_numbers(monkeypatch):
    # w = unit^1000 is divided out before any square test, so the six tests
    # see the base quadruple's sizes, not the report's 10,000-bit elements
    bits = []
    original = quadtuple.counterex.sqrt_in_ring

    def recorded(z):
        bits.append(max(z.a.bit_length(), z.b.bit_length()))
        return original(z)

    monkeypatch.setattr(quadtuple.counterex, "sqrt_in_ring", recorded)
    report = build_report(family_d(2).ctx, 1000)
    assert report.verified
    assert len(bits) == 6 and max(bits) < 128
    assert min(e.a.bit_length() for e in report.quadruple.elements) > 10_000
