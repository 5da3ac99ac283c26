from __future__ import annotations

import copy
import json
import re
import sys
import time
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

import quadtuple.construct
import quadtuple.counterex
import quadtuple.pellsolve
import quadtuple.quadring
import quadtuple.represent
from quadtuple import (
    PAIRS,
    CounterexampleReport,
    NonRepCertificate,
    QuadInt,
    Quadruple,
    RingCtx,
    build_report,
    construct_quadruple,
    enumerate_counterexample_rings,
    family_d,
    fundamental_unit,
    quadruple_to_json,
    report_to_json,
    scale_quadruple,
    unit_power,
    verify_quadruple,
    verify_report_doc,
)
from quadtuple.quadring import element_to_json, is_square_free
from support import report_holds_by_definition, run_python


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
    cands = list(enumerate_counterexample_rings(0, 3))
    assert [c.ctx.d for c in cands] == [15, 3975, 15135, 33495]
    assert [c.ctx.square_free for c in cands] == [True, False, True, True]
    assert next(enumerate_counterexample_rings(2, 2)).alpha == 2
    with pytest.raises(ValueError):
        enumerate_counterexample_rings(5, 1)


def test_enumerate_counterexample_rings_builds_one_ring_at_a_time():
    # the whole ALPHA_SPAN_CAP span used to be built as a list, 28 MB traced
    tracemalloc.start()
    try:
        cands = enumerate_counterexample_rings(0, quadtuple.counterex.ALPHA_SPAN_CAP - 1)
        for _ in range(1000):
            next(cands)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, f"traced peak {peak} B"
    assert next(cands).alpha == 1000


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
    # a span of exactly cap members is allowed, and its first ring is built
    # only when it is read
    cands = enumerate_counterexample_rings(1, cap)
    with pytest.raises(_Built):
        next(cands)


def test_build_report_base(ring15):
    report = build_report(ring15, 0)
    assert report.verified
    assert report.quadruple.n == QuadInt(2, 0, ring15)
    assert tuple((e.a, e.b) for e in report.quadruple.elements) == (
        (4, 1),
        (8, -2),
        (8, -1),
        (28, -7),
    )
    assert report.certificate.u == QuadInt(1, 0, ring15)


def test_build_report_t1(ring15):
    report = build_report(ring15, 1)
    assert report.verified
    assert report.quadruple.n == QuadInt(62, 16, ring15)  # 2 * (4,1)^2
    assert report.certificate.u == QuadInt(31, 8, ring15)


def test_build_report_guards(ring15):
    # a bool passes the range test, but its report's JSON would state
    # "t": true, which verify_report_doc refuses
    for t in (-1, 1001, True, False):
        with pytest.raises(ValueError, match=re.escape(f"t must be in [0, 1000], got {t}")):
            build_report(ring15, t)
    with pytest.raises(ValueError, match="^d = 3975 is not square-free$"):
        build_report(RingCtx(3975), 0)
    with pytest.raises(ValueError, match="^norm -6 is not attained for d = 195$"):
        build_report(RingCtx(195), 0)
    with pytest.raises(ValueError, match="^d = 19 is not 15 mod 60$"):
        build_report(RingCtx(19), 0)
    # 12 = 2^2 * 3 fails both ring tests; the cheaper residue test speaks
    with pytest.raises(ValueError, match="^d = 12 is not 15 mod 60$"):
        build_report(RingCtx(12), 0)


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


@pytest.mark.parametrize("t", [0, 1, 7])
def test_report_to_json_converts_n_once(monkeypatch, t):
    # the report, its quadruple and its certificate share one conversion of
    # n, and print as they did when each converted n itself
    report = build_report(family_d(2).ctx, t)
    n, cert = report.quadruple.n, report.certificate
    separately = {
        "d": str(n.ctx.d),
        "t": t,
        "n": element_to_json(n),
        "quadruple": quadruple_to_json(report.quadruple),
        "certificate": {
            "n": element_to_json(n),
            "u": element_to_json(cert.u),
            "minus6": element_to_json(cert.minus6),
        },
        "verified": True,
        "notes": list(report.notes),
    }
    converted = []

    def counted(x):
        converted.append(x)
        return element_to_json(x)

    for module in (quadtuple.construct, quadtuple.represent):
        monkeypatch.setattr(module, "element_to_json", counted)
    doc = report_to_json(report)
    assert converted.count(n) == 1
    assert json.dumps(doc) == json.dumps(separately)
    # each holds a dict of its own, so a change to one copy leaves the others
    copies = doc["n"], doc["quadruple"]["n"], doc["certificate"]["n"]
    assert len(set(map(id, copies))) == 3


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


@pytest.mark.parametrize("mutate", TAMPERINGS)
def test_reverification_rejects_tampering_at_t400(ring15, mutate):
    # w = unit^400 has over _GUESS_BITS bits, so the judge divides it out by
    # checked guesses
    assert not verify_report_doc(_tampered(ring15, 400, mutate))


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
    long_witness = QuadInt(3, 1, ring15) * fundamental_unit(ring15) ** 500
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
    # certificate refuses anyway, and the witness (3, 1) has norm 9 - d
    # there, so the witness test answers first
    d = 15 * nextprime(2 * 10**14) * nextprime(3 * 10**14)
    assert len(str(d)) == 30 and d % 60 == 45
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, 0))))
    doc["d"] = doc["quadruple"]["d"] = str(d)
    start = time.process_time()
    assert not verify_report_doc(doc)
    assert time.process_time() - start < 0.1


def test_reverification_refuses_a_wrong_witness_before_factorising(ring15, monkeypatch):
    # 15*p*q is 15 mod 60 with two 15-digit prime factors, so every test on
    # n and d passes and deciding its square-freeness takes Brent's rho
    # seconds; the witness (3, 1) has norm 9 - d there, which refuses the
    # document first, while the untampered one still tests square-freeness
    p, q = nextprime(10**14), nextprime(2 * 10**14)
    while p * q % 4 != 1:
        q = nextprime(q)
    d = 15 * p * q
    assert len(str(d)) == 30 and d % 60 == 15
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, 1))))
    tampered = copy.deepcopy(doc)
    tampered["d"] = tampered["quadruple"]["d"] = str(d)
    calls = []

    def counted(m):
        calls.append(m)
        return is_square_free(m)

    monkeypatch.setattr(quadtuple.quadring, "is_square_free", counted)
    start = time.process_time()
    assert not verify_report_doc(tampered)
    assert time.process_time() - start < 0.01
    assert calls == []
    assert verify_report_doc(doc)
    assert calls == [15]


# ROADMAP item 13 part A's last known miss: the family member with
# x = 30*beta + 3 for beta = 4401146381244 has d = x^2 + 6 = 15*p*q, 29
# digits with two 14-digit prime factors, which Brent's rho splits in seconds
ADVERSARIAL_X = 30 * 4401146381244 + 3
ADVERSARIAL_P, ADVERSARIAL_Q = 20000000000147, 58110268406987


def _adversarial_report_doc():
    # the t = 1 report build_report would give, built from gamma = (x, 1)
    # without build_report, which reads ctx.square_free and so factors d
    ctx = RingCtx(ADVERSARIAL_X**2 + 6)
    gamma = QuadInt(ADVERSARIAL_X, 1, ctx)
    eps = quadtuple.pellsolve.unit_from_norm6(gamma)
    classes = quadtuple.pellsolve.NormEqClasses((gamma,), eps)
    base, _ = quadtuple.construct._construct_from_norm6(classes, 0, 0, 0, "first")
    w, u = unit_power(eps, 1)
    scaled = scale_quadruple(base, w, u)
    report = CounterexampleReport(1, scaled, gamma, True, ())
    return json.loads(json.dumps(report_to_json(report)))


def test_the_adversarial_report_is_true_but_for_factoring(monkeypatch):
    d = ADVERSARIAL_X**2 + 6
    assert d == 15 * ADVERSARIAL_P * ADVERSARIAL_Q and len(str(d)) == 29
    assert isprime(ADVERSARIAL_P) and isprime(ADVERSARIAL_Q)

    def unread(ctx):
        raise AssertionError("building the report read ctx.square_free")

    monkeypatch.setattr(RingCtx, "square_free", property(unread))
    doc = _adversarial_report_doc()
    # with square-freeness granted, every other check passes: the pin below
    # measures the factoring alone
    monkeypatch.setattr(RingCtx, "square_free", property(lambda ctx: True))
    assert verify_report_doc(doc) is True


VERIFY_STDIN = (
    "import json, sys; from quadtuple import verify_report_doc; "
    "print(verify_report_doc(json.load(sys.stdin)))"
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 17: verify_report_doc decides square-freeness with Brent's rho",
)
def test_the_adversarial_report_verifies_within_a_second_of_cpu():
    proc = run_python("-c", VERIFY_STDIN, cpu_s=1, stdin=json.dumps(_adversarial_report_doc()))
    assert (proc.returncode, proc.stdout) == (0, "True\n")


def test_the_report_path_takes_the_witness_norm_once(monkeypatch):
    # the witness's norm is tested where the unit is taken from it
    # (unit_from_norm6), and not again by the judge: once in
    # verify_report_doc, and never in build_report's call of the judge,
    # whose witness the construction has already tested
    report = build_report(family_d(2).ctx, 1)
    witness, doc = report.certificate.minus6, report_to_json(report)
    norm, judge, calls = QuadInt.norm, quadtuple.counterex._report_holds, []
    judging = False

    def counted_norm(x):
        if x == witness:
            calls.append(judging)
        return norm(x)

    def flagged(*args):
        nonlocal judging
        judging = True
        try:
            return judge(*args)
        finally:
            judging = False

    monkeypatch.setattr(QuadInt, "norm", counted_norm)
    assert verify_report_doc(doc)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(quadtuple.counterex, "_report_holds", flagged)
    assert build_report(family_d(2).ctx, 1).verified
    assert True not in calls


def test_the_producers_test_no_witness(monkeypatch):
    # build_report and construct_quadruple take the unit from the walk
    # behind their gamma, whose norm and shape are theorems (proved in
    # unit_from_norm6's docstring): neither takes gamma's norm or calls
    # unit_from_norm6, which only verify_report_doc runs, on a document
    ctx = family_d(2).ctx
    witness = quadtuple.pellsolve.solve_norm_eq(ctx, -6).representatives[0]
    norm, norms = QuadInt.norm, []

    def counted_norm(x):
        if x == witness:
            norms.append(x)
        return norm(x)

    def refused(sol):
        raise AssertionError(f"unit_from_norm6 called on {sol}")

    monkeypatch.setattr(QuadInt, "norm", counted_norm)
    monkeypatch.setattr(quadtuple.pellsolve, "unit_from_norm6", refused)
    assert build_report(ctx, 1).verified
    for choice in ("first", "second"):
        quad, _ = construct_quadruple(ctx, 0, 0, factorization_choice=choice)
        assert verify_quadruple(ctx, quad).ok, choice
    assert norms == []


def test_the_tie_refuses_a_witness_from_another_ring(ring15):
    # (33, 1) has norm 1089 - 1095 = -6 in Z[sqrt(1095)], and 1095 is
    # 15 mod 60, so its unit passes every test of its own; at t = 0 the bit
    # guard passes it, and u == w^2 = 1 fails only on the ring.  The judge
    # alone, handed that power, must refuse it too, by its tie 2*w^2 == n,
    # before _divided would mix the rings and raise
    report = build_report(ring15, 0)
    n, u = report.quadruple.n, report.certificate.u
    foreign = QuadInt(33, 1, RingCtx(1095))
    power = quadtuple.counterex._unit_power(foreign, u, 0)
    assert power[1] == QuadInt(1, 0, RingCtx(1095))
    assert not _judged(ring15, 0, n, report.quadruple, NonRepCertificate(n, foreign))
    assert not quadtuple.counterex._report_holds(report.quadruple, power)
    # at t = 1 the bit guard refuses it first: the foreign unit (364, 11) is
    # longer than 15's own (4, 1), whose square is the t = 1 report's u
    with pytest.raises(ValueError, match="too short"):
        quadtuple.counterex._unit_power(foreign, u, 1)
    own = build_report(ring15, 1).certificate
    quadtuple.counterex._unit_power(own.minus6, own.u, 1)
    with pytest.raises(ValueError, match="too short"):
        quadtuple.counterex._unit_power(foreign, own.u, 1)


@pytest.mark.parametrize("t", [0, 1, 1000])
def test_build_report_scales_through_scale_quadruple(ring15, monkeypatch, t):
    scale, calls = quadtuple.counterex.scale_quadruple, []

    def counted(quad, w, w2):
        calls.append((w, w2))
        return scale(quad, w, w2)

    monkeypatch.setattr(quadtuple.counterex, "scale_quadruple", counted)
    assert build_report(ring15, t).verified
    eps = fundamental_unit(ring15)
    assert calls == [(eps**t, eps ** (2 * t))]


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
    # build_report's verdict, which skips the restated copies, is the one
    # verify_report_doc gives on its JSON, across the family
    for alpha in SQUARE_FREE_ALPHAS:
        for t in (0, 1, 7):
            report = build_report(family_d(alpha).ctx, t)
            assert report.verified, (alpha, t)
            doc = json.loads(json.dumps(report_to_json(report)))
            assert verify_report_doc(doc), (alpha, t)


def test_coordinate_growth_is_linear_in_t(ring15):
    digits = {}
    for t in (20, 40):
        report = build_report(ring15, t)
        digits[t] = len(str(abs(report.quadruple.n.a)))
    ratio = digits[40] / digits[20]
    assert 1.8 <= ratio <= 2.2


def test_n_matches_unit_power(ring15):
    u = fundamental_unit(ring15)
    for t in (0, 1, 2, 7):
        report = build_report(ring15, t)
        assert report.quadruple.n == report.certificate.n == 2 * u ** (2 * t)


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


def _judged(ctx, t, n, quad, certificate):
    """verify_report_doc's verdict past parsing: the witness, the restated
    copies of n and u, then the judge with the power it takes."""
    try:
        power = quadtuple.counterex._unit_power(certificate.minus6, certificate.u, t)
    except ValueError:
        return False
    return (
        quad.n == n == certificate.n
        and certificate.u == power[1]
        and quadtuple.counterex._report_holds(quad, power)
    )


@pytest.mark.parametrize("alpha", [0, 2, 3, -5, -1, 4])
def test_report_holds_matches_its_unreduced_definition(alpha):
    ctx = family_d(alpha).ctx
    held = 0
    for t in (0, 1, 2, 7, 400):
        report = build_report(ctx, t)
        eps = quadtuple.pellsolve.unit_from_norm6(report.certificate.minus6)
        if t == 400:  # the judge divides this w out by checked guesses
            assert (eps**t).a.bit_length() >= quadtuple.counterex._GUESS_BITS
        for quad in _mutations(report.quadruple, eps):
            for judged_t in (t, t + 1):
                args = (ctx, judged_t, report.quadruple.n, quad, report.certificate)
                verdict = _judged(*args)
                assert verdict == report_holds_by_definition(*args), (t, judged_t, quad)
                held += verdict
    # per t, at that t: the report, each witness negated or dropped, none stored
    assert held == 5 * (1 + 6 + 6 + 1)


def test_report_holds_refuses_the_n_of_another_t(ring15):
    # the t = 1 quadruple under the t = 2 report's n: divided by w = unit^1
    # its elements are the base D(2) quadruple and its witnesses are w*rho,
    # so only the tie u = w^2 refuses it
    r1, r2 = build_report(ring15, 1), build_report(ring15, 2)
    quad = Quadruple(r1.quadruple.elements, r2.quadruple.n, r1.quadruple.witnesses)
    for t in (1, 2):
        args = (ring15, t, r2.quadruple.n, quad, r2.certificate)
        assert not _judged(*args)
        assert not report_holds_by_definition(*args)


@pytest.mark.parametrize("alpha", [0, 2, 3, -5, -1, 4])
def test_report_holds_given_build_reports_power_matches_its_definition(alpha, monkeypatch):
    # build_report hands the judge its own (w, w^2) and no restated copy, so
    # the judge never takes N(u); with them alone, every mutation of the
    # quadruple, under the report's u and under each u that keeps n = 2u and
    # every hypothesis but the tie 2*w^2 == n, gets the unreduced
    # definition's verdict, and the handed values accept nothing the
    # document's own checks would not
    judge, powers = quadtuple.counterex._report_holds, []

    def recorded(quad, power):
        powers.append(power)
        return judge(quad, power)

    monkeypatch.setattr(quadtuple.counterex, "_report_holds", recorded)
    ctx = family_d(alpha).ctx
    ts = (0, 1, 2, 7, 400)
    reports = {t: build_report(ctx, t) for t in ts}
    assert len(powers) == len(ts)
    handed = dict(zip(ts, powers))
    held = 0
    for t, other_t in zip(ts, ts[-1:] + ts[:-1]):
        report = reports[t]
        u, minus6 = report.certificate.u, report.certificate.minus6
        eps = quadtuple.pellsolve.unit_from_norm6(minus6)
        assert handed[t] == (eps**t, u)
        # at t = 0, conj(u) = u, which dict.fromkeys drops
        tied = [u, u.conjugate(), -u, u * eps * eps, reports[other_t].certificate.u]
        for tied_u in dict.fromkeys(tied):
            n = 2 * tied_u
            certificate = NonRepCertificate(n=n, minus6=minus6)
            for quad in _mutations(report.quadruple, eps):
                args = (ctx, t, n, Quadruple(quad.elements, n, quad.witnesses), certificate)
                verdict = judge(args[3], handed[t])
                assert verdict == report_holds_by_definition(*args), (t, tied_u, quad)
                assert verdict == _judged(*args), (t, tied_u, quad)
                held += verdict
    # per t, under the report's u only: the report, each witness negated or
    # dropped, none stored
    assert held == 5 * (1 + 6 + 6 + 1)


def _bits(x):
    return max(x.a.bit_length(), x.b.bit_length())


def test_square_tests_run_on_base_sized_numbers(monkeypatch):
    # w = unit^1000 is divided out before any square test, so the six tests
    # see the base quadruple's sizes, not the report's 10,000-bit elements:
    # each squares its witness divided by w against f_i*f_j + 2, the
    # elements divided by w, and searches for no root
    divided, quotients = quadtuple.counterex._divided, []

    def recorded_divided(e, w):
        quotients.append(divided(e, w))
        return quotients[-1]

    def recorded_sqrt(z):
        raise AssertionError("sqrt_in_ring on a pair with a stored witness")

    monkeypatch.setattr(quadtuple.counterex, "_divided", recorded_divided)
    monkeypatch.setattr(quadtuple.counterex, "sqrt_in_ring", recorded_sqrt)
    ctx = family_d(2).ctx
    report = build_report(ctx, 1000)
    assert report.verified
    assert min(e.a.bit_length() for e in report.quadruple.elements) > 10_000
    f, roots = quotients[:4], quotients[4:]
    two = QuadInt(2, 0, ctx)
    tested = [(f[i - 1] * f[j - 1] + two, rho * rho) for (i, j), rho in zip(PAIRS, roots)]
    assert len(tested) == 6 and all(z == square for z, square in tested)
    assert max(_bits(z) for z, _ in tested) < 128


@cache
def _report_and_power(alpha, t):
    """The report at alpha and t, with the power build_report hands its judge."""
    report = build_report(family_d(alpha).ctx, t)
    unit = quadtuple.pellsolve.unit_from_norm6(report.certificate.minus6)
    return report, unit_power(unit, t)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]}{p[1]}")
def test_a_pair_without_its_witness_takes_sqrt_in_ring(monkeypatch, pair):
    # only a pair with no stored witness searches for a root, and at
    # t = 1000 it searches on the base quadruple's sizes too
    original, searched = quadtuple.counterex.sqrt_in_ring, []

    def recorded(z):
        searched.append(_bits(z))
        return original(z)

    report, power = _report_and_power(2, 1000)
    quad = report.quadruple
    stripped = {p: x for p, x in quad.witnesses.items() if p != pair}
    monkeypatch.setattr(quadtuple.counterex, "sqrt_in_ring", recorded)
    assert quadtuple.counterex._report_holds(quad, power)
    assert searched == []
    assert quadtuple.counterex._report_holds(Quadruple(quad.elements, quad.n, stripped), power)
    assert len(searched) == 1 and searched[0] < 128


_TAMPER_ALPHAS = [0, 2, -1]
_TAMPERINGS = ["a+1", "a-1", "b+1", "b-1", "negated", "swapped", "dropped"]


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.sampled_from(_TAMPER_ALPHAS),
    t=st.sampled_from([0, 1, 1000]),
    pair=st.sampled_from(PAIRS),
    other=st.sampled_from(PAIRS),
    how=st.sampled_from(_TAMPERINGS),
)
def test_a_tampered_witness_gets_the_definitions_verdict(alpha, t, pair, other, how):
    # one stored witness moved by one on a coordinate, negated, swapped with
    # another pair's witness or dropped: squaring W * conj(w) accepts exactly
    # what the unreduced definition (every product plus n a square, every
    # witness a root of it) accepts
    report, power = _report_and_power(alpha, t)
    quad = report.quadruple
    witnesses = dict(quad.witnesses)
    x = witnesses[pair]
    if how == "dropped":
        del witnesses[pair]
    elif how == "swapped":
        witnesses[pair], witnesses[other] = witnesses[other], x
    elif how == "negated":
        witnesses[pair] = -x
    else:
        step = 1 if how[1] == "+" else -1
        a, b = (x.a + step, x.b) if how[0] == "a" else (x.a, x.b + step)
        witnesses[pair] = QuadInt(a, b, x.ctx)
    tampered = Quadruple(quad.elements, quad.n, witnesses)
    args = (quad.n.ctx, t, quad.n, tampered, report.certificate)
    verdict = quadtuple.counterex._report_holds(tampered, power)
    assert verdict == report_holds_by_definition(*args)
    assert verdict == (how in ("dropped", "negated") or how == "swapped" and pair == other)


def _unit(alpha):
    """The family's norm 1 element built from x + sqrt(d), and its ring."""
    cand = family_d(alpha)
    return quadtuple.pellsolve.unit_from_norm6(QuadInt(cand.x, 1, cand.ctx)), cand.ctx


def _guess_cutoff(unit):
    """The least t with unit^t at least _GUESS_BITS long."""
    t, w = 0, QuadInt(1, 0, unit.ctx)
    while w.a.bit_length() < quadtuple.counterex._GUESS_BITS:
        t, w = t + 1, w * unit
    return t


SQUARE_FREE_ALPHAS = [a for a in range(-50, 51) if family_d(a).ctx.square_free]
small = st.integers(-(2**60), 2**60)
huge = st.integers(-(2**4000), 2**4000)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.sampled_from(SQUARE_FREE_ALPHAS),
    offset=st.integers(-40, 40),
    kind=st.sampled_from(["w*g", "g*conj(w)^j", "arbitrary"]),
    j=st.integers(0, 2),
    data=st.data(),
)
def test_divided_matches_the_full_product(alpha, offset, kind, j, data):
    # t straddles the cut-off; e = w*g takes the guess, g*conj(w)^j has a
    # huge f and falls back, and arbitrary coordinates may do either
    unit, ctx = _unit(alpha)
    w = unit ** max(_guess_cutoff(unit) + offset, 0)
    if kind == "arbitrary":
        e = QuadInt(data.draw(huge), data.draw(huge), ctx)
    else:
        g = QuadInt(data.draw(small), data.draw(small), ctx)
        e = w * g if kind == "w*g" else g * w.conjugate() ** j
    assert quadtuple.counterex._divided(e, w) == e * w.conjugate()


def test_division_by_w_takes_checked_guesses(monkeypatch):
    # at t = 1000 every element e = w*f and every witness W = w*rho is
    # divided by a guess of f or rho from low bits, checked by one product
    # w*guess == e: each division makes that one QuadInt product and returns
    # the guess it checked, so no product while dividing has two operands
    # over 10,000 bits, as the full e*conj(w) would
    divided, multiply = quadtuple.counterex._divided, QuadInt.__mul__
    results = []
    dividing = None

    def recorded_mul(x, y):
        if dividing is not None:
            dividing.append((x, y))
        return multiply(x, y)

    def recorded_divided(e, w):
        nonlocal dividing
        dividing = products = []
        f = divided(e, w)
        dividing = None
        results.append((e, w, f, products))
        return f

    ctx = family_d(2).ctx
    base = build_report(ctx, 0).quadruple
    monkeypatch.setattr(QuadInt, "__mul__", recorded_mul)
    monkeypatch.setattr(quadtuple.counterex, "_divided", recorded_divided)
    report = build_report(ctx, 1000)
    assert report.verified and len(results) == 10
    for e, w, f, products in results:
        assert _bits(w) > 10_000 and _bits(e) > 10_000
        assert products == [(w, f)] and _bits(f) <= 10_000
        assert multiply(w, f) == e
    quotients = [f for _, _, f, _ in results]
    assert quotients[:4] == list(base.elements)
    assert quotients[4:] == [base.witnesses[pair] for pair in PAIRS]


def test_build_report_takes_one_power_one_square_and_no_full_size_norm(monkeypatch):
    # at t = 1000 build_report takes (w, w^2) = (unit^t, unit^(2t)) in one
    # unit_power call and hands both to the judge, which has N(u) = 1 from
    # u = w^2 and N(w) = 1: no generic power, no generic square of a long
    # element, and no norm of the 26,000-bit u.  The construction's unit
    # schedule takes its j = 0 power, unit^0, through unit_power as well.
    unit_power, multiply, norm = quadtuple.pellsolve.unit_power, QuadInt.__mul__, QuadInt.norm
    exponents, powers, long_squares, long_norms = [], [], [], []

    def bits(x):
        return max(x.a.bit_length(), x.b.bit_length())

    def recorded_unit_power(unit, t):
        exponents.append(t)
        return unit_power(unit, t)

    def recorded_pow(x, e):
        powers.append(e)
        raise AssertionError("QuadInt.__pow__ on the report path")

    def recorded_mul(x, y):
        if x is y and bits(x) > 10_000:
            long_squares.append(bits(x))
        return multiply(x, y)

    def recorded_norm(x):
        if bits(x) > 10_000:
            long_norms.append(bits(x))
        return norm(x)

    monkeypatch.setattr(quadtuple.pellsolve, "unit_power", recorded_unit_power)
    monkeypatch.setattr(QuadInt, "__pow__", recorded_pow)
    monkeypatch.setattr(QuadInt, "__mul__", recorded_mul)
    monkeypatch.setattr(QuadInt, "norm", recorded_norm)
    report = build_report(family_d(2).ctx, 1000)
    assert report.verified and bits(report.certificate.u) > 20_000
    assert exponents == [0, 1000]
    assert (powers, long_squares, long_norms) == ([], [], [])
    # the judge on a document takes its power the same way; at d = 15 a
    # t = 1000 report is short enough to serialise
    exponents.clear()
    assert verify_report_doc(report_to_json(build_report(RingCtx(15), 1000)))
    assert exponents == [0, 1000, 1000]
    assert (powers, long_squares, long_norms) == ([], [], [])


def _with_field(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("t", [0, 1, 2, 1000])
def test_verify_report_doc_refuses_witness_and_t_tampering_at_the_ladders_edges(ring15, t):
    # each tampering reaches unit_power past the bit guard, or is refused by
    # it: t = 0 is a ladder of no steps, t = 1 of one.  (3, -1) and (-3, 1)
    # give the conjugate unit, whose power is not u unless t = 0, where w = 1
    # and the witness is as good as gamma; a witness of another ring, one of
    # norm other than -6 and a zero one are refused before any power.  None
    # raises, and only that t = 0 witness is accepted.
    doc = report_to_json(build_report(ring15, t))
    assert verify_report_doc(doc)
    minus6 = ("certificate", "minus6")
    tamperings = [
        (minus6, {"a": "3", "b": "-1"}, t == 0),
        (minus6, {"a": "-3", "b": "1"}, t == 0),
        (minus6, {"a": "0", "b": "0"}, False),
        (minus6, {"a": "1", "b": "0"}, False),
        (minus6, {"a": "33", "b": "1"}, False),  # norm -6 in Z[sqrt(1095)], not here
        (minus6, {"a": "-9", "b": "-3"}, False),  # 81 - 135 = -54
        (("t",), t + 1, False),
        (("t",), t - 1, False),
        (("t",), 2 * t + 1, False),
        (("t",), True, False),
    ]
    for path, value, accepted in tamperings:
        verdict = verify_report_doc(_with_field(doc, path, value))
        assert verdict is accepted, (path, value)


def test_verify_report_doc_refuses_a_consistent_report_past_the_t_cap(ring15):
    # a document whose n, u and quadruple all agree with t = 1001 passes every
    # test but the cap: the judge accepts it, and verify_report_doc does not
    base = build_report(ring15, 0).quadruple
    w, u = unit_power(QuadInt(4, 1, ring15), 1001)
    scaled = scale_quadruple(base, w, u)
    assert quadtuple.counterex._unit_power(QuadInt(3, 1, ring15), u, 1001) == (w, u)
    assert quadtuple.counterex._report_holds(scaled, (w, u))
    report = CounterexampleReport(1001, scaled, QuadInt(3, 1, ring15), True, ())
    doc = report_to_json(report)
    assert max(len(doc["n"]["a"]), len(doc["n"]["b"])) < 4300
    assert verify_report_doc(doc) is False


def test_verify_report_doc_converts_the_restated_n_once(monkeypatch):
    # the report and the certificate restate the quadruple's n in the same
    # text, so each of n's 1,792-digit coordinates is converted once, by the
    # one int() call in int_from_json
    doc = json.loads(json.dumps(report_to_json(build_report(RingCtx(15), 1000))))
    texts = [doc["n"]["a"], doc["n"]["b"]]
    assert min(map(len, texts)) > 1_700
    int_from_json, converted = quadtuple.quadring.int_from_json, []

    def counted(text):
        converted.append(text)
        return int_from_json(text)

    monkeypatch.setattr(quadtuple.quadring, "int_from_json", counted)
    assert verify_report_doc(doc)
    assert [converted.count(text) for text in texts] == [1, 1]


N_COPIES = [("n",), ("certificate", "n"), ("quadruple", "n")]


@pytest.mark.parametrize("path", N_COPIES, ids="/".join)
@pytest.mark.parametrize(
    "copy_, accepted",
    [
        ({"a": "+62", "b": "16"}, True),
        ({"a": "062", "b": "16"}, True),
        ({"a": "62", "b": "+016"}, True),
        ({"a": "62", "b": "16", "c": "extra"}, True),
        ({"a": "64", "b": "16"}, False),
        ({"a": "62", "b": "-16"}, False),
        ({"a": "62"}, False),
        ({"a": 62, "b": 16}, False),
        (["62", "16"], False),
        ("62", False),
        (None, False),
        (62, False),
    ],
)
def test_a_restated_n_is_judged_by_value(ring15, path, copy_, accepted):
    # n = (62, 16) at t = 1; a copy that differs from the others in text is
    # parsed and compared, so a respelling passes and another value fails
    doc = json.loads(json.dumps(report_to_json(build_report(ring15, 1))))
    assert doc["n"] == {"a": "62", "b": "16"} and verify_report_doc(doc)
    assert verify_report_doc(_with_field(doc, path, copy_)) is accepted


@pytest.mark.parametrize(
    "path",
    [("quadruple", "elements", 0, "a"), ("n", "a"), ("certificate", "n", "a")],
    ids=lambda p: "/".join(map(str, p)),
)
def test_verify_report_doc_refuses_a_field_past_the_digit_limit(ring15, path):
    # int() refuses a 4301-digit string; the check returns False, raises
    # nothing and leaves the process-wide limit as it was
    assert sys.get_int_max_str_digits() == 4300
    doc = report_to_json(build_report(ring15, 1))
    assert verify_report_doc(_with_field(doc, path, "7" * 4301)) is False
    assert sys.get_int_max_str_digits() == 4300
