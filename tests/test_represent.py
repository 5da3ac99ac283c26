from __future__ import annotations

import pytest

from quadtuple import (
    NonRepCertificate,
    QuadInt,
    RingCtx,
    certificate_holds,
    certify_nonrepresentable,
    fundamental_unit,
    search_repr,
)
from quadtuple.represent import BOUND_CAP, certificate_from_json, certificate_to_json

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
