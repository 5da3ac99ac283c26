from __future__ import annotations

import time

import pytest
from sympy import nextprime

import quadtuple.pellsolve
from quadtuple import (
    NonRepCertificate,
    QuadInt,
    RingCtx,
    certificate_holds,
    check_pm2_unsolvable,
    build_report,
    certify_nonrepresentable,
    fundamental_unit,
    report_to_json,
    search_repr,
    verify_report_doc,
)
from quadtuple.pellsolve import _PROOF, _SCOPE, _first_unmet
from quadtuple.represent import BOUND_CAP, certificate_to_json

from support import RING15, RING735, RING3975, SCANNED_GAMMA


def test_certify_examples(ring15):
    cert = certify_nonrepresentable(QuadInt(2, 0, ring15))
    assert cert is not None
    assert cert.u == QuadInt(1, 0, ring15)
    assert cert.minus6 == QuadInt(3, 1, ring15)
    assert certificate_holds(cert)

    cert2 = certify_nonrepresentable(QuadInt(62, 16, ring15))
    assert cert2 is not None and cert2.u == QuadInt(31, 8, ring15)
    assert certificate_holds(cert2)

    assert certify_nonrepresentable(QuadInt(10, 0, ring15)) is None  # u = 5 has norm 25
    assert certify_nonrepresentable(QuadInt(3, 0, ring15)) is None  # wrong residue class
    # right shape and unit norm, but -6 is not attained for d = 195
    assert certify_nonrepresentable(QuadInt(2, 0, RingCtx(195))) is None
    # -6 is a norm in both, but the result needs square-free d
    assert certify_nonrepresentable(QuadInt(2, 0, RING735)) is None
    assert certify_nonrepresentable(QuadInt(2, 0, RING3975)) is None


@pytest.mark.parametrize("d", SCANNED_GAMMA)
def test_certify_reads_the_witness_off_the_unit(d, monkeypatch):
    # the y-scan's representative, found with no scan; n = 2 and n = 2*eps^2
    def forbidden(*args, **kwargs):
        raise AssertionError("certify_nonrepresentable ran solve_norm_eq")

    monkeypatch.setattr(quadtuple.pellsolve, "solve_norm_eq", forbidden)
    ctx = RingCtx(d)
    gamma = QuadInt(*SCANNED_GAMMA[d], ctx)
    eps2 = fundamental_unit(ctx) ** 2
    for u in (QuadInt(1, 0, ctx), eps2):
        n = 2 * u
        cert = certify_nonrepresentable(n)
        assert cert == NonRepCertificate(n=n, minus6=gamma) and cert.u == u


def _cert(ctx, n, minus6, minus6_ctx=None):
    return NonRepCertificate(QuadInt(*n, ctx), QuadInt(*minus6, minus6_ctx or ctx))


# each case breaks one hypothesis, which one check refuses: the scope, the
# proof, or certificate_holds' own tests of N(u) and the witness.  5 | d
# follows from d = 15 (mod 60), so the +-2 hypothesis cannot fail on its own
@pytest.mark.parametrize(
    "cert, refused_by",
    [
        (_cert(RING15, (8, 2), (3, 1)), "scope"),  # n = 4m + (4k+2)sqrt(d)
        (_cert(RING15, (2, 1), (3, 1)), "proof"),  # n = 2 + sqrt(15) is not 2u
        (_cert(RING15, (10, 0), (3, 1)), "own"),  # norm(u) = 25
        (_cert(RING735, (2, 0), (27, 1)), "scope"),  # 735 = 3 * 5 * 7^2
        (_cert(RingCtx(10), (2, 0), (2, 1)), "scope"),  # d = 10 (mod 60), 5 | d
        (_cert(RING15, (2, 0), (4, 1)), "own"),  # norm(minus6) = 1
        (_cert(RING15, (2, 0), (2, 1), minus6_ctx=RingCtx(10)), "own"),  # another ring
    ],
    ids=["class", "2u", "norm_u", "square_free", "d_mod_60", "norm_minus6", "ring_minus6"],
)
def test_certificate_holds_needs_every_hypothesis(cert, refused_by):
    assert not certificate_holds(cert)
    n, u = cert.n, cert.u
    proof = _first_unmet(n.ctx, n, u, _PROOF) is None
    assert proof == (refused_by != "proof")
    assert (not proof or _first_unmet(n.ctx, n, u, _SCOPE) is None) == (refused_by != "scope")


# each hypothesis, with a case that fails it and no other, but for +-2: its
# test, 5 | d, follows from d = 15 (mod 60), so d = 19 fails both, and the
# table names the first
@pytest.mark.parametrize(
    "d, n, u, unmet",
    [
        (19, (2, 0), (1, 0), {"pm2_unattained", "d_15_mod_60"}),
        (15, (2, 1), (1, 0), {"n_is_2u"}),
        (15, (8, 2), (4, 1), {"n_a_2_mod_4"}),  # n = 2 * eps
        (10, (2, 0), (1, 0), {"d_15_mod_60"}),
        (735, (2, 0), (1, 0), {"d_square_free"}),  # 735 = 3 * 5 * 7^2
    ],
)
def test_first_unmet_names_the_one_hypothesis_a_case_fails(d, n, u, unmet):
    ctx = RingCtx(d)
    n, u = QuadInt(*n, ctx), QuadInt(*u, ctx)
    assert u.norm() == 1
    names = _PROOF + _SCOPE
    assert {name for name in names if _first_unmet(ctx, n, u, (name,))} == unmet
    assert _first_unmet(ctx, n, u) == min(unmet, key=names.index)
    assert certify_nonrepresentable(n) is None


def test_certificate_closed_under_unit_squares(ring15):
    u = fundamental_unit(ring15)
    n = QuadInt(2, 0, ring15)
    for _ in range(4):
        n = n * u * u
        cert = certify_nonrepresentable(n)
        assert cert is not None
        assert cert.u * QuadInt(2, 0, ring15) == n

    # odd powers: eps^k has norm 1 but an even first and odd second
    # coordinate, so n = 2 eps^k = 4m + (4k+2)sqrt(d) fails the residue
    # test, the one hypothesis it misses
    for w in (u, u**3, u.conjugate(), u.conjugate() ** 3):
        n = 2 * w
        assert w.norm() == 1 and (n.a % 4, n.b % 4) == (0, 2)
        assert certify_nonrepresentable(n) is None
        assert not certificate_holds(NonRepCertificate(n, QuadInt(3, 1, ring15)))


def _hypotheses_with_every_test(n, u):
    # every hypothesis as the paper states it, n.b = 0 (mod 4) included, with
    # square-freeness before the residue of d
    ctx = n.ctx
    return (
        n.a % 4 == 2
        and n.b % 4 == 0
        and 2 * u == n
        and u.norm() == 1
        and ctx.square_free
        and ctx.d % 60 == 15
        and check_pm2_unsolvable(ctx)
    )


def test_n_and_ring_hold_needs_no_test_of_n_b_mod_4():
    # 135 = 3^3*5, 375 = 3*5^3, 735 and 3975 are 15 mod 60 with a square
    # factor; 19, 10 and 35 are square-free and not 15 mod 60
    held = 0
    for d in (15, 135, 375, 735, 1095, 1455, 3255, 3975, 19, 10, 35):
        ctx = RingCtx(d)
        eps = fundamental_unit(ctx)
        units = [s * e**k for e in (eps, eps.conjugate()) for k in range(7) for s in (1, -1)]
        box = [QuadInt(a, b, ctx) for a in range(-40, 41) for b in range(-12, 13)]
        shifts = (QuadInt(0, 0, ctx), QuadInt(0, 2, ctx), QuadInt(4, 0, ctx))
        for u in set(units + box):
            for shift in shifts:
                n = 2 * u + shift
                expected = _hypotheses_with_every_test(n, u)
                held_here = u.norm() == 1 and _first_unmet(ctx, n, u) is None
                assert held_here == expected, (d, n, u)
                held += expected
    # n = 2u for u = +-1 and +-eps^k, +-conj(eps)^k, k = 2, 4, 6, in 15, 1095, 1455, 3255
    assert held == 4 * 14


# 5 | d, most of them outside the paper's scope: 135, 375, 735 and 3975 have a
# square factor, and 10, ..., 190 are not 15 (mod 60); then controls where
# +-2 are norms
LEMMA_RINGS = (15, 135, 375, 735, 3975, 10, 30, 35, 55, 65, 85, 190)
LEMMA_CONTROLS = (2, 7, 14)


@pytest.mark.parametrize("d", LEMMA_RINGS + LEMMA_CONTROLS)
def test_the_lemma_agrees_with_the_search_outside_the_scope(d):
    # where the proof holds, no 2u for a unit u is a difference of two
    # squares, whatever the scope; where it fails, the search finds each one
    ctx = RingCtx(d)
    eps = fundamental_unit(ctx)
    for u in (QuadInt(1, 0, ctx), QuadInt(-1, 0, ctx), eps, eps * eps, eps.conjugate()):
        n = 2 * u
        assert (_first_unmet(ctx, n, u, _PROOF) is None) == (d in LEMMA_RINGS), (d, u)
        found = search_repr(n, 60)
        if d in LEMMA_RINGS:
            assert found is None, (d, u, found)
        else:
            assert found is not None, (d, u)
            p, q = found
            assert p * p - q * q == n


def test_certify_tests_the_residue_of_d_before_square_freeness():
    # a 30-digit d = 45 (mod 60) with two 15-digit prime factors: deciding its
    # square-freeness takes Brent's rho seconds, the residue test none
    d = 15 * nextprime(2 * 10**14) * nextprime(3 * 10**14)
    assert len(str(d)) == 30 and d % 60 == 45
    ctx = RingCtx(d)
    start = time.process_time()
    assert certify_nonrepresentable(QuadInt(2, 0, ctx)) is None
    assert time.process_time() - start < 0.1


def test_certificate_json(ring15):
    cert = certify_nonrepresentable(QuadInt(2, 0, ring15))
    doc = certificate_to_json(cert)
    assert doc == {
        "n": {"a": "2", "b": "0"},
        "u": {"a": "1", "b": "0"},
        "minus6": {"a": "3", "b": "1"},
    }
    # a certificate is read back only as part of a report, by
    # verify_report_doc: the report at t = 0 carries this certificate, and
    # each of its three fields is read
    report_doc = report_to_json(build_report(ring15, 0))
    assert report_doc["certificate"] == doc
    assert verify_report_doc(report_doc)
    respelled = {key: {"a": "+" + value["a"], "b": value["b"]} for key, value in doc.items()}
    assert verify_report_doc({**report_doc, "certificate": respelled})
    for key in doc:
        missing = {k: v for k, v in doc.items() if k != key}
        assert not verify_report_doc({**report_doc, "certificate": missing})
        wrong = {**doc, key: {"a": "5", "b": "0"}}
        assert not verify_report_doc({**report_doc, "certificate": wrong})


def test_search_repr_examples(ring15):
    assert search_repr(QuadInt(3, 0, ring15), 5) == (
        QuadInt(2, 0, ring15),
        QuadInt(1, 0, ring15),
    )
    assert search_repr(QuadInt(2, 0, ring15), 200) is None
    # frozen first hit of the scan: n itself is a square here
    assert search_repr(QuadInt(19, 4, ring15), 20) == (
        QuadInt(2, 1, ring15),
        QuadInt(0, 0, ring15),
    )
    for bound in (0, -5, BOUND_CAP + 1):
        with pytest.raises(ValueError):
            search_repr(QuadInt(3, 0, ring15), bound)
    # q = (7, 0) and (1, 2) each lie past bound 1 in one coordinate only,
    # which that coordinate's test alone refuses
    for n, q, bound in (((-49, 0), (7, 0), 7), ((-60, -4), (1, 2), 2)):
        n = QuadInt(*n, ring15)
        assert search_repr(n, 1) is None
        p, found_q = search_repr(n, bound)
        assert p * p - found_q * found_q == n
        assert (abs(found_q.a), abs(found_q.b)) == q


def test_search_repr_returns_at_once_for_an_odd_sqrt_coordinate(ring15):
    # p^2 - q^2 has an even sqrt(d) coordinate, so no candidate can match
    start = time.perf_counter()
    assert search_repr(QuadInt(2, 1, ring15), BOUND_CAP) is None
    assert time.perf_counter() - start < 0.05


def test_search_repr_returns_valid_pairs(ring15):
    for a, b in ((3, 0), (19, 4), (6, 4), (1, 2), (-11, 0)):
        n = QuadInt(a, b, ring15)
        found = search_repr(n, 40)
        if found is not None:
            p, q = found
            assert p * p - q * q == n
            assert max(abs(p.a), abs(p.b), abs(q.a), abs(q.b)) <= 40


def test_search_repr_covers_negative_sqrt_coordinate(ring15):
    # p = (1, -2) is the only sign pattern (up to global negation) with
    # p^2 = (61, -4), so a y1 >= 0 prune would miss this n entirely
    n = QuadInt(60, -4, ring15)
    found = search_repr(n, 10)
    assert found is not None
    p, q = found
    assert p * p - q * q == n


@pytest.mark.parametrize("n", range(3, 100, 2))
def test_search_repr_liveness_on_odd_integers(ring15, n):
    bound = (n + 1) // 2
    found = search_repr(QuadInt(n, 0, ring15), bound)
    assert found is not None
    p, q = found
    assert p * p - q * q == QuadInt(n, 0, ring15)


def test_certified_values_resist_search(ring15):
    # dual route on a small bound; the acceptance suite pushes this to 500
    targets = (
        QuadInt(2, 0, ring15),
        QuadInt(62, 16, ring15),
        QuadInt(3842, 992, ring15),  # 2 * (4,1)^4
    )
    for n in targets:
        assert certify_nonrepresentable(n) is not None
        assert search_repr(n, 60) is None
