from __future__ import annotations

import time

import pytest
from sympy import nextprime

from quadtuple import (
    NonRepCertificate,
    QuadInt,
    RingCtx,
    certificate_holds,
    check_pm2_unsolvable,
    certify_nonrepresentable,
    fundamental_unit,
    search_repr,
)
from quadtuple.represent import (
    BOUND_CAP,
    _n_and_ring_hold,
    certificate_from_json,
    certificate_to_json,
)

from support import RING15, RING735, RING3975


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


def _cert(ctx, n, u, minus6, minus6_ctx=None):
    return NonRepCertificate(
        QuadInt(*n, ctx), QuadInt(*u, ctx), QuadInt(*minus6, minus6_ctx or ctx)
    )


# each case breaks one hypothesis; 5 | d follows from d = 15 (mod 60), so the
# +-2 hypothesis cannot fail on its own
@pytest.mark.parametrize(
    "cert",
    [
        _cert(RING15, (8, 2), (4, 1), (3, 1)),  # n = 4m + (4k+2)sqrt(d)
        _cert(RING15, (2, 0), (31, 8), (3, 1)),  # 2u != n
        _cert(RING15, (10, 0), (5, 0), (3, 1)),  # norm(u) = 25
        _cert(RING735, (2, 0), (1, 0), (27, 1)),  # 735 = 3 * 5 * 7^2
        _cert(RingCtx(10), (2, 0), (1, 0), (2, 1)),  # d = 10 (mod 60)
        _cert(RING15, (2, 0), (1, 0), (4, 1)),  # norm(minus6) = 1
        _cert(RING15, (2, 0), (1, 0), (2, 1), minus6_ctx=RingCtx(10)),  # another ring
    ],
    ids=["class", "2u", "norm_u", "square_free", "d_mod_60", "norm_minus6", "ring_minus6"],
)
def test_certificate_holds_needs_every_hypothesis(cert):
    assert not certificate_holds(cert)


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
        assert not certificate_holds(NonRepCertificate(n, w, QuadInt(3, 1, ring15)))


def _n_and_ring_hold_with_every_test(n, u):
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
                expected = _n_and_ring_hold_with_every_test(n, u)
                assert (u.norm() == 1 and _n_and_ring_hold(n, u)) == expected, (d, n, u)
                held += expected
    # n = 2u for u = +-1 and +-eps^k, +-conj(eps)^k, k = 2, 4, 6, in 15, 1095, 1455, 3255
    assert held == 4 * 14


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
    assert certificate_from_json(doc, ring15) == cert
    with pytest.raises(KeyError):
        certificate_from_json({"n": doc["n"], "u": doc["u"]}, ring15)


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
