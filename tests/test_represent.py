from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadtuple import (
    NClass,
    NonRepCertificate,
    RingCtx,
    certificate_holds,
    certify_nonrepresentable,
    classify_n,
    fundamental_unit,
    no_quadruple_if_T,
    search_repr,
)
from quadtuple.represent import BOUND_CAP, certificate_from_json, certificate_to_json

from support import RING15, RING735, RING3975


@pytest.mark.parametrize(
    "a,b,tag",
    [
        (3, 0, NClass.ODD),
        (7, -4, NClass.ODD),
        (2, 0, NClass.TWO_MOD_FOUR),
        (-2, 8, NClass.TWO_MOD_FOUR),
        (4, 8, NClass.FOUR_FOUR),
        (0, 0, NClass.FOUR_FOUR),
        (4, 2, NClass.FOUR_FOUR_PLUS_TWO),
        (-8, -6, NClass.FOUR_FOUR_PLUS_TWO),
        (6, 4, NClass.TWO_MOD_FOUR),
        (2, 2, NClass.T),
        (3, 1, NClass.T),  # odd sqrt(d) coordinate never lands in the family
        (2, -6, NClass.T),
    ],
)
def test_classify_examples(ring15, a, b, tag):
    assert classify_n(ring15.element(a, b)) is tag


def _membership_oracle(a, b):
    # solvability of the four defining parameterizations, spelled out
    if (a - 1) % 2 == 0 and b % 2 == 0:
        return NClass.ODD
    if a % 4 == 0 and b % 4 == 0:
        return NClass.FOUR_FOUR
    if a % 4 == 0 and (b - 2) % 4 == 0:
        return NClass.FOUR_FOUR_PLUS_TWO
    if (a - 2) % 4 == 0 and b % 4 == 0:
        return NClass.TWO_MOD_FOUR
    return NClass.T


@given(a=st.integers(-(10**9), 10**9), b=st.integers(-(10**9), 10**9))
def test_classify_partitions(a, b):
    assert classify_n(RING15.element(a, b)) is _membership_oracle(a, b)


def test_classify_partitions_bulk():
    import random

    rng = random.Random(99)
    for _ in range(10**4):
        a = rng.randint(-(10**6), 10**6)
        b = rng.randint(-(10**6), 10**6)
        assert classify_n(RING15.element(a, b)) is _membership_oracle(a, b)


def test_no_quadruple_if_T(ring15):
    assert no_quadruple_if_T(ring15.element(2, 2)) is True
    assert no_quadruple_if_T(ring15.element(2, 0)) is False
    with pytest.raises(ValueError):
        no_quadruple_if_T(RingCtx(13).element(2, 2))  # 13 = 1 (mod 4)


def test_certify_examples(ring15):
    cert = certify_nonrepresentable(ring15.element(2, 0))
    assert cert is not None
    assert cert.u == ring15.one()
    assert cert.minus6 == ring15.element(3, 1)
    assert certificate_holds(cert)

    cert2 = certify_nonrepresentable(ring15.element(62, 16))
    assert cert2 is not None and cert2.u == ring15.element(31, 8)
    assert certificate_holds(cert2)

    assert certify_nonrepresentable(ring15.element(10, 0)) is None  # u = 5 has norm 25
    assert certify_nonrepresentable(ring15.element(3, 0)) is None  # wrong residue class
    # right shape and unit norm, but -6 is not attained for d = 195
    assert certify_nonrepresentable(RingCtx(195).element(2, 0)) is None
    # -6 is a norm in both, but the result needs square-free d
    assert certify_nonrepresentable(RING735.element(2, 0)) is None
    assert certify_nonrepresentable(RING3975.element(2, 0)) is None


def _cert(ctx, n, u, minus6, minus6_ctx=None):
    return NonRepCertificate(
        ctx.element(*n), ctx.element(*u), (minus6_ctx or ctx).element(*minus6)
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
    n = ring15.element(2, 0)
    for _ in range(4):
        n = n * u * u
        cert = certify_nonrepresentable(n)
        assert cert is not None
        assert cert.u * ring15.element(2, 0) == n


def test_certificate_json(ring15):
    cert = certify_nonrepresentable(ring15.element(2, 0))
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
    assert search_repr(ring15.element(3, 0), 5) == (
        ring15.element(2, 0),
        ring15.element(1, 0),
    )
    assert search_repr(ring15.element(2, 0), 200) is None
    # frozen first hit of the scan: n itself is a square here
    assert search_repr(ring15.element(19, 4), 20) == (
        ring15.element(2, 1),
        ring15.element(0, 0),
    )
    for bound in (0, -5, BOUND_CAP + 1):
        with pytest.raises(ValueError):
            search_repr(ring15.element(3, 0), bound)


def test_search_repr_returns_valid_pairs(ring15):
    for a, b in ((3, 0), (19, 4), (6, 4), (1, 2), (-11, 0)):
        n = ring15.element(a, b)
        found = search_repr(n, 40)
        if found is not None:
            p, q = found
            assert p * p - q * q == n
            assert max(abs(p.a), abs(p.b), abs(q.a), abs(q.b)) <= 40


def test_search_repr_covers_negative_sqrt_coordinate(ring15):
    # p = (1, -2) is the only sign pattern (up to global negation) with
    # p^2 = (61, -4), so a y1 >= 0 prune would miss this n entirely
    n = ring15.element(60, -4)
    found = search_repr(n, 10)
    assert found is not None
    p, q = found
    assert p * p - q * q == n


@pytest.mark.parametrize("n", range(3, 100, 2))
def test_search_repr_liveness_on_odd_integers(ring15, n):
    bound = (n + 1) // 2
    found = search_repr(ring15.element(n, 0), bound)
    assert found is not None
    p, q = found
    assert p * p - q * q == ring15.element(n, 0)


def test_certified_values_resist_search(ring15):
    # dual route on a small bound; the acceptance suite pushes this to 500
    targets = (
        ring15.element(2, 0),
        ring15.element(62, 16),
        ring15.element(3842, 992),  # 2 * (4,1)^4
    )
    for n in targets:
        assert certify_nonrepresentable(n) is not None
        assert search_repr(n, 60) is None
