from __future__ import annotations

import copy
import operator
import pickle
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, nextprime, prevprime

import quadtuple.quadring
from quadtuple import (
    MixedRingError,
    QuadInt,
    RingCtx,
    construct_quadruple,
    factorize,
    is_perfect_square,
    is_square_free,
    parse_element,
    quadruple_from_json,
    quadruple_to_json,
    sqrt_in_ring,
)
from quadtuple.quadring import (
    _SQ64,
    RADICAND_CAP,
    element_from_json,
    element_to_json,
    int_from_json,
)

from support import RING15, RING735

coords = st.integers(min_value=-(10**6), max_value=10**6)
rings = st.sampled_from([RING15, RING735])


def elements(ring=None):
    if ring is None:
        return st.builds(QuadInt, coords, coords, rings)
    return st.builds(QuadInt, coords, coords, st.just(ring))


# the alpha = 250 family radicand 360*(10*250^2 + 250) + 15, a large_t ring
RING_ALPHA250 = RingCtx(225090015)
# coordinates from single digits up to 10**4000, both signs
wide_coords = st.one_of(
    st.integers(-100, 100),
    st.integers(-(10**40), 10**40),
    st.integers(-(10**4000), 10**4000),
)


# ---------------------------------------------------------------------------
# ring arithmetic


def test_add_sub_neg(ring15):
    assert QuadInt(4, 1, ring15) + QuadInt(3, 1, ring15) == QuadInt(7, 2, ring15)
    assert QuadInt(4, 1, ring15) + QuadInt(0, 0, ring15) == QuadInt(4, 1, ring15)
    assert QuadInt(3, 1, ring15) - QuadInt(3, 1, ring15) == QuadInt(0, 0, ring15)
    assert -QuadInt(3, -1, ring15) == QuadInt(-3, 1, ring15)


def test_mul(ring15):
    assert QuadInt(3, -1, ring15) * QuadInt(3, 1, ring15) == QuadInt(-6, 0, ring15)
    assert QuadInt(7, -5, ring15) * QuadInt(1, 0, ring15) == QuadInt(7, -5, ring15)
    assert QuadInt(4, 1, ring15) * QuadInt(4, -1, ring15) == QuadInt(1, 0, ring15)
    assert 2 * QuadInt(3, -4, ring15) == QuadInt(6, -8, ring15)


@settings(max_examples=60, deadline=None)
@given(
    a=wide_coords,
    b=wide_coords,
    c=wide_coords,
    e=wide_coords,
    ctx=st.sampled_from([RING15, RING735, RING_ALPHA250]),
)
def test_mul_matches_textbook_formula(a, b, c, e, ctx):
    d = ctx.d
    x, y = QuadInt(a, b, ctx), QuadInt(c, e, ctx)
    assert x * y == QuadInt(a * c + d * b * e, a * e + b * c, ctx)
    # x * x takes the squaring branch, an equal but distinct operand does not
    square = QuadInt(a * a + d * b * b, 2 * a * b, ctx)
    assert x * x == x * QuadInt(a, b, ctx) == square
    assert x.norm() == a * a - d * b * b


@settings(max_examples=60, deadline=None)
@given(
    a=wide_coords,
    b=wide_coords,
    c=wide_coords,
    e=wide_coords,
    k=wide_coords,
    n=st.integers(0, 5),
    ctx=st.sampled_from([RING15, RING735, RING_ALPHA250]),
)
def test_ring_operations_match_integer_formulas(a, b, c, e, k, n, ctx):
    d = ctx.d
    x, y = QuadInt(a, b, ctx), QuadInt(c, e, ctx)
    assert x + y == QuadInt(a + c, b + e, ctx)
    assert x - y == QuadInt(a - c, b - e, ctx)
    assert -x == QuadInt(-a, -b, ctx)
    assert x.conjugate() == QuadInt(a, -b, ctx)
    assert x * k == k * x == QuadInt(a * k, b * k, ctx)
    p, q = 1, 0
    for _ in range(n):
        p, q = p * a + d * q * b, p * b + q * a
    assert x**n == QuadInt(p, q, ctx)


def test_quadint_contract():
    # an (a, b, ctx) tuple that keeps none of tuple's comparisons
    x, y = QuadInt(4, 1, RingCtx(15)), QuadInt(4, 1, RingCtx(15))
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != QuadInt(4, 1, RING735)
    for plain in ((4, 1, x.ctx), (4, 1, y.ctx)):
        assert not x == plain and not plain == x
        assert x != plain and plain != x
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(x, y)
        with pytest.raises(TypeError):
            op(x, (4, 1, x.ctx))
    with pytest.raises(AttributeError):
        x.a = 5
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert copied == x and type(copied) is QuadInt
    assert repr(x) == "QuadInt(a=4, b=1)"
    assert not hasattr(x, "__dict__")


def test_foreign_operands_raise_type_error(ring15):
    # no operand reaches tuple concatenation or repetition
    x = QuadInt(4, 1, ring15)
    for other in (1, 1.0, "1", (1, 0, ring15), [1, 0]):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    for other in (1.0, "2", (1, 2), [1, 2]):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x


def test_conjugate(ring15):
    assert QuadInt(3, 1, ring15).conjugate() == QuadInt(3, -1, ring15)
    assert QuadInt(5, 0, ring15).conjugate() == QuadInt(5, 0, ring15)
    x = QuadInt(-17, 12, ring15)
    assert x.conjugate().conjugate() == x


def test_norm(ring15):
    assert QuadInt(4, 1, ring15).norm() == 1
    assert QuadInt(3, 1, ring15).norm() == -6
    assert QuadInt(0, 0, ring15).norm() == 0


def test_pow(ring15):
    assert QuadInt(4, 1, ring15) ** 2 == QuadInt(31, 8, ring15)
    assert QuadInt(9, -2, ring15) ** 0 == QuadInt(1, 0, ring15)
    assert QuadInt(9, -2, ring15) ** 1 == QuadInt(9, -2, ring15)
    x, power = QuadInt(9, -2, ring15), QuadInt(1, 0, ring15)
    for e in range(70):
        assert x**e == power, e
        power = power * x
    with pytest.raises(ValueError):
        QuadInt(4, 1, ring15) ** -1


def test_units(ring15):
    # a unit's inverse is its conjugate for norm 1 and minus it for norm -1
    one = QuadInt(1, 0, ring15)
    assert QuadInt(4, 1, ring15).norm() == 1
    assert QuadInt(4, 1, ring15) * QuadInt(4, 1, ring15).conjugate() == one
    assert QuadInt(3, 1, ring15).norm() == -6  # not a unit
    ring2 = RingCtx(2)
    assert QuadInt(1, 1, ring2).norm() == -1
    assert QuadInt(1, 1, ring2) * -QuadInt(1, 1, ring2).conjugate() == QuadInt(1, 0, ring2)


def test_mixed_rings_rejected(ring15, ring735):
    with pytest.raises(MixedRingError):
        QuadInt(1, 0, ring15) + QuadInt(1, 0, ring735)
    with pytest.raises(MixedRingError):
        QuadInt(1, 0, ring15) * QuadInt(1, 0, ring735)


def test_equal_contexts_interoperate():
    # two separately built contexts for the same d are the same ring
    a = QuadInt(2, 1, RingCtx(15))
    b = QuadInt(1, 1, RingCtx(15))
    assert a + b == QuadInt(3, 2, RingCtx(15))


def test_mixing_check_compares_d_not_contexts(monkeypatch, ring735):
    # the check and == read d itself, never the generated RingCtx.__eq__
    def forbidden(self, other):
        raise AssertionError("RingCtx.__eq__ called")

    monkeypatch.setattr(RingCtx, "__eq__", forbidden)
    a, b = QuadInt(2, 1, RingCtx(15)), QuadInt(1, 1, RingCtx(15))
    assert a == QuadInt(2, 1, RingCtx(15)) and a != b
    assert [(x.a, x.b) for x in (a + b, a - b, a * b)] == [(3, 2), (1, 0), (17, 3)]
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(MixedRingError):
            op(a, QuadInt(1, 0, ring735))


# ---------------------------------------------------------------------------
# ring context validation


def test_ringctx_rejects_bad_d():
    with pytest.raises(ValueError):
        RingCtx(4)
    with pytest.raises(ValueError):
        RingCtx(1)
    with pytest.raises(ValueError):
        RingCtx(0)
    assert not RingCtx(45).square_free


def test_ringctx_radicand_cap(monkeypatch):
    assert RingCtx(RADICAND_CAP - 1).d == RADICAND_CAP - 1

    def forbidden(n):
        raise AssertionError("square-freeness tested before the radicand cap")

    monkeypatch.setattr(quadtuple.quadring, "is_square_free", forbidden)
    # 10**30 is a perfect square too: the cap is checked first
    for d in (RADICAND_CAP, RADICAND_CAP + 15, 10**60 + 15):
        with pytest.raises(ValueError, match="cap"):
            RingCtx(d)


def test_ringctx_override_and_caches():
    ctx = RingCtx(45)
    assert not ctx.square_free
    assert RingCtx(15).square_free


def test_ringctx_decides_square_freeness_once_and_only_when_read(monkeypatch):
    def forbidden(n):
        raise AssertionError("square-freeness decided before it was read")

    monkeypatch.setattr(quadtuple.quadring, "is_square_free", forbidden)
    RingCtx(45)
    RingCtx(RADICAND_CAP - 1)
    quadruple_from_json(quadruple_to_json(construct_quadruple(RING15, 0, 0)[0]))

    calls = []

    def counted(n):
        calls.append(n)
        return is_square_free(n)

    monkeypatch.setattr(quadtuple.quadring, "is_square_free", counted)
    ctx = RingCtx(45)
    assert (ctx.square_free, ctx.square_free) == (False, False)
    assert calls == [45]


# ---------------------------------------------------------------------------
# square roots in the ring


def test_sqrt_examples(ring15):
    assert sqrt_in_ring(QuadInt(19, 4, ring15)) == QuadInt(2, 1, ring15)
    assert sqrt_in_ring(QuadInt(64, 16, ring15)) is None
    assert sqrt_in_ring(QuadInt(4, 0, ring15)) == QuadInt(2, 0, ring15)
    assert sqrt_in_ring(QuadInt(60, 0, ring15)) == QuadInt(0, 2, ring15)
    assert sqrt_in_ring(QuadInt(0, 0, ring15)) == QuadInt(0, 0, ring15)
    assert sqrt_in_ring(QuadInt(-4, 0, ring15)) is None
    assert sqrt_in_ring(QuadInt(31, 7, ring15)) is None  # odd sqrt(d) coordinate


def test_sqrt_canonical_sign(ring15):
    # roots come in +- pairs; positive rational part wins
    assert sqrt_in_ring(QuadInt(31, 8, ring15)) == QuadInt(4, 1, ring15)
    assert sqrt_in_ring(QuadInt(31, -8, ring15)) == QuadInt(4, -1, ring15)


def _canonical(x, y):
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


@pytest.mark.parametrize("ctx", [RING15, RING735])
def test_sqrt_complete_at_small_scale(ctx):
    # exhaustive oracle: square every w with |coords| <= 200, then demand
    # agreement (including the canonical sign) on every z in the same box
    d = ctx.d
    table = {}
    for x in range(-200, 201):
        for y in range(-200, 201):
            table[(x * x + d * y * y, 2 * x * y)] = _canonical(x, y)
    for a in range(-200, 201):
        for b in range(-200, 201):
            got = sqrt_in_ring(QuadInt(a, b, ctx))
            want = table.get((a, b))
            if want is None:
                assert got is None, (a, b, got)
            else:
                assert got is not None and (got.a, got.b) == want, (a, b, got, want)


def _sqrt_by_divisor_pairs(z):
    # alternative square test: factor-pair enumeration on b/2
    ctx = z.ctx
    d, a, b = ctx.d, z.a, z.b
    if b == 0:
        if a < 0:
            return None
        s = is_perfect_square(a)
        if s is not None:
            return QuadInt(s, 0, ctx)
        if a % d == 0:
            s = is_perfect_square(a // d)
            if s is not None:
                return QuadInt(0, s, ctx)
        return None
    if b % 2:
        return None
    half = b // 2
    for x in range(1, abs(half) + 1):
        if half % x:
            continue
        y = half // x
        for sx, sy in ((x, y), (-x, -y)):
            if sx * sx + d * sy * sy == a:
                return QuadInt(*_canonical(sx, sy), ctx)
    return None


@pytest.mark.parametrize("ctx", [RING15, RING735, RING_ALPHA250])
def test_sqrt_of_big_squares_is_canonical(ctx):
    # w with thousands of digits, of positive norm (long rational part) and
    # of negative norm (long sqrt(d) part); 2*w^2 is never a square, as
    # sqrt(2) is not in Q(sqrt(d))
    rng = random.Random(ctx.d)
    for _ in range(3):
        long, short = rng.randrange(10**3000), rng.randrange(10**2990)
        for a, b in ((long, short), (short, long)):
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                w = QuadInt(sa * a, sb * b, ctx)
                assert (w.norm() > 0) == (a == long)
                assert sqrt_in_ring(w * w) == QuadInt(*_canonical(w.a, w.b), ctx)
                assert sqrt_in_ring(2 * (w * w)) is None


def test_sqrt_matches_divisor_pair_enumeration(ring15):
    for a in range(-60, 61):
        for b in range(-60, 61):
            z = QuadInt(a, b, ring15)
            assert sqrt_in_ring(z) == _sqrt_by_divisor_pairs(z), (a, b)


@given(w=elements())
def test_sqrt_soundness(w):
    z = w * w
    root = sqrt_in_ring(z)
    assert root is not None
    assert root * root == z
    assert root.a > 0 or (root.a == 0 and root.b >= 0)


# ---------------------------------------------------------------------------
# algebraic properties


@given(x=elements(RING15), y=elements(RING15))
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(x=elements(RING15), y=elements(RING15))
def test_conjugation_is_homomorphism(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@settings(max_examples=40)
@given(
    x=st.builds(QuadInt, st.integers(-50, 50), st.integers(-50, 50), st.just(RING15)),
    t=st.integers(min_value=0, max_value=64),
)
def test_pow_tower(x, t):
    assert x ** (2 * t) == (x**t) ** 2


# ---------------------------------------------------------------------------
# integer utilities


def test_is_perfect_square():
    assert is_perfect_square(3969) == 63
    assert is_perfect_square(0) == 0
    assert is_perfect_square(1) == 1
    assert is_perfect_square(2) is None
    assert is_perfect_square(-4) is None
    big = (10**30 + 7) ** 2
    assert is_perfect_square(big) == 10**30 + 7
    assert is_perfect_square(big + 1) is None


def _square_root_by_isqrt(n):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def test_is_perfect_square_matches_isqrt():
    # the mod-64 pre-test may refuse only non-squares: 12 residues pass it
    assert sum(_SQ64) == 12
    for n in range(-256, 1 << 16):
        assert is_perfect_square(n) == _square_root_by_isqrt(n), n
    rng = random.Random(64)
    for _ in range(3):
        k = rng.randrange(10**9999, 10**10000)
        for k in (k, k + 1):  # both parities
            for n in (k * k - 1, k * k, k * k + 1, -k * k, 1 - k * k):
                assert is_perfect_square(n) == _square_root_by_isqrt(n)


def test_factorize():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
    # primes above 10**6, each split off by the rho stage
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p) == {p: 2}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_hands_all_but_2_3_and_5_to_rho(monkeypatch):
    rho, received = quadtuple.quadring._rho_factorize, []

    def recorded(n, out):
        received.append(n)
        return rho(n, out)

    monkeypatch.setattr(quadtuple.quadring, "_rho_factorize", recorded)
    assert factorize(2 * 7 * 11 * 13 * 10007) == {2: 1, 7: 1, 11: 1, 13: 1, 10007: 1}
    assert received == [7 * 11 * 13 * 10007]


@pytest.mark.parametrize(
    "n",
    [
        7**40,
        41**2 * 43**3,
        1009**3 * 1013,
        999983**2,
        37**9,
        2**64 * 41**3,
        3**4 * 5**3 * 7**5 * 11**2 * 999983,
    ],
)
def test_factorize_splits_prime_powers_as_factorint_does(n):
    assert factorize(n) == factorint(n)


def test_is_square_free():
    assert is_square_free(15)
    assert not is_square_free(45)
    assert is_square_free(1)
    assert not is_square_free(735)
    assert not is_square_free(3975)
    for bad in (0, -15):
        with pytest.raises(ValueError):
            is_square_free(bad)


def _oracle_square_free(n):
    return all(e == 1 for e in factorint(n).values())


def test_is_square_free_matches_factorint():
    """The cube-root stop and the rho stage agree with sympy's factorint;
    factorize, which shares the rho stage, matches it too."""
    for n in range(1, 2 * 10**5):
        assert is_square_free(n) == _oracle_square_free(n), n
    for n in range(1, 2 * 10**4):
        assert factorize(n) == factorint(n), n
    for alpha in range(-3000, 3000):
        d = 360 * (10 * alpha * alpha + alpha) + 15
        assert is_square_free(d) == _oracle_square_free(d), alpha
    # primes below and above the cube root of their products, and on both
    # sides of the trial-division bound 10**6
    primes = [7, 997, 9973, 104729, prevprime(10**6), nextprime(10**6), nextprime(10**7)]
    for p in primes:
        for q in primes:
            for n in (p * p, p * p * q, p * q * q, p * q, p * q * 11):
                assert is_square_free(n) == _oracle_square_free(n), (p, q, n)
                assert factorize(n) == factorint(n), (p, q, n)
    # above 10**18 the cofactor goes to Brent's rho
    p, q, r = 1_000_003, 1_000_033, nextprime(10**7)
    for n in (p * p * r, p * q * r, p**3, p * p * q * q, 7 * p * q * r, 10**18 + 9, 2**61 - 1):
        assert n > 10**18
        assert is_square_free(n) == _oracle_square_free(n), n
        assert factorize(n) == factorint(n), n


def test_is_square_free_above_the_miller_rabin_limit(monkeypatch):
    """Cofactors past _MR_LIMIT (about 3.3 * 10**24), where _is_prime adds 20
    random bases, still agree with sympy's factorint; RingCtx reaches them
    for any d below RADICAND_CAP = 10**30."""
    tested = []
    is_prime = quadtuple.quadring._is_prime

    def recording(n, rng):
        tested.append(n)
        return is_prime(n, rng)

    monkeypatch.setattr(quadtuple.quadring, "_is_prime", recording)
    p, q_big, q_mid = nextprime(2 * 10**7), nextprime(10**21), nextprime(3 * 10**14)
    for n in (15 * nextprime(10**26), 15 * p * q_big, 15 * p * p * q_mid):
        tested.clear()
        assert is_square_free(n) == _oracle_square_free(n), n
        assert max(tested) >= quadtuple.quadring._MR_LIMIT, n


# ---------------------------------------------------------------------------
# textual and JSON formats


def test_parse_format_round_trip(ring15):
    # str(x) is the 'a,b' form the CLI prints and parse_element reads
    for text in ("4,1", "-3,0", "0,-17", "123456789012345678901,-9"):
        assert str(parse_element(text, ring15)) == text


@pytest.mark.parametrize("bad", ["x,y", "4", "4,1,2", "4, 1", " 4,1", "4.0,1", "", "4,1\n"])
def test_parse_rejects_malformed(ring15, bad):
    with pytest.raises(ValueError):
        parse_element(bad, ring15)


def test_element_json_round_trip(ring15):
    x = QuadInt(-(10**40), 7, ring15)
    doc = element_to_json(x)
    assert doc == {"a": str(-(10**40)), "b": "7"}
    assert element_from_json(doc, ring15) == x


@pytest.mark.parametrize("bad", [4, 4.0, True, None, "4.0", " 4", "4 ", "0_4", "+", "\u0664", "4\n"])
def test_element_from_json_rejects_coercible_values(ring15, bad):
    assert int_from_json("-4") == -4 and int_from_json("+4") == 4
    with pytest.raises(ValueError):
        element_from_json({"a": bad, "b": "0"}, ring15)
