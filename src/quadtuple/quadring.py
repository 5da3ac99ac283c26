"""Exact arithmetic in the quadratic ring Z[sqrt(d)].

Elements are pairs (a, b) standing for a + b*sqrt(d) with unbounded integer
coordinates; nothing in this module ever rounds.  Alongside the ring type it
carries the integer routines the rest of the toolkit leans on (perfect-square
test, factorization, square-freeness) and the decision procedure for
squareness of a ring element.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import cycle
from math import gcd, isqrt
from typing import NamedTuple

__all__ = [
    "MixedRingError",
    "QuadInt",
    "RADICAND_CAP",
    "RingCtx",
    "element_from_json",
    "element_to_json",
    "factorize",
    "int_from_json",
    "is_perfect_square",
    "is_square_free",
    "parse_element",
    "sqrt_in_ring",
]


class MixedRingError(ValueError):
    """Operands belong to different ring contexts."""


# ---------------------------------------------------------------------------
# integer routines


def _squares_mod(m: int) -> bytes:
    """table[r] is 1 iff r is a square mod m."""
    squares = {x * x % m for x in range(m)}
    return bytes(r in squares for r in range(m))


# 12 of the 64 residues are squares, and 96 of the 693.  693 = 9*7*11 is
# Cohen's 63 and 11 in one reduction.  His 65 is left out: for d = 15
# (mod 60) and N = -6 every d*y^2 + N is 4 mod 5, a square, so its 5
# refuses nothing on the paper's rings (nor would a bare 3, as every such
# value is 0 mod 3; 9 refuses two thirds of them)
_SQ64 = _squares_mod(64)
_SQ693 = _squares_mod(693)


def is_perfect_square(n: int) -> int | None:
    """Return the nonnegative integer square root of n, or None.

    Cohen's square test (GTM 138, Alg. 1.7.3), in two stages: the 52 of 64
    residues of the low six bits that no square has are refused first, then
    the 597 of 693 residues mod 693 = 9*7*11, and only then the isqrt,
    which alone decides.  A negative n is refused at once.
    """
    if n < 0 or not _SQ64[n & 63] or not _SQ693[n % 693]:
        return None
    r = isqrt(n)
    return r if r * r == n else None


_TRIAL_BOUND = 10**6
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # steps from 7 through the numbers coprime to 30
_DEFAULT_RHO_SEED = 1257787
# the first 13 primes, deterministic Miller-Rabin bases below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int, rng: random.Random) -> bool:
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES
    if n >= _MR_LIMIT:
        bases = bases + tuple(rng.randrange(2, n - 1) for _ in range(20))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:  # g == 1 for speed: the ys backtrack finds a factor
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _icbrt(n: int) -> int:
    """floor(n ** (1/3)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // 3)
    while (y := (2 * x + n // (x * x)) // 3) < x:
        x = y
    return x


def _rho_factorize(n: int, out: dict[int, int]) -> dict[int, int]:
    """Add the prime factorization of n > 1 to out, by Miller-Rabin and
    Brent's rho, with no trial division.

    Both callers pass n > 1 (factorize tests it, is_square_free calls this
    only once p^3 <= n), and a composite m splits into f and m // f, both
    > 1, so _is_prime never sees a number below 2.  The rho walk is seeded
    deterministically, so repeated runs take the same walk.
    """
    rng = random.Random(_DEFAULT_RHO_SEED)
    stack = [n]
    while stack:
        m = stack.pop()
        if _is_prime(m, rng):
            out[m] = out.get(m, 0) + 1
            continue
        f = _brent_rho(m, rng)
        stack.append(f)
        stack.append(m // f)
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    2, 3 and 5 are divided out, and _rho_factorize splits what remains.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return _rho_factorize(n, out) if n > 1 else out


def is_square_free(n: int) -> bool:
    """True iff no prime squared divides n (n >= 1).

    Trial division divides each prime out once and runs only while
    p^3 <= n, for the cofactor n left so far.  When it stops there, every
    prime factor of n exceeds its cube root, so n is 1, a prime, a product
    of two primes or a prime squared, and only a prime squared is a
    perfect square.  Only when _TRIAL_BOUND stops it first (n above about
    10**18) does the cofactor go to Brent's rho.
    """
    if n < 1:
        raise ValueError(f"is_square_free needs n >= 1, got {n}")
    for p in (2, 3, 5):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    p, limit = 7, min(_TRIAL_BOUND, _icbrt(n))
    for step in cycle(_WHEEL):
        if p > limit:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
            limit = min(limit, _icbrt(n))
        p += step
    if p * p * p > n:
        return n == 1 or is_perfect_square(n) is None
    return all(e == 1 for e in _rho_factorize(n, {}).values())


# ---------------------------------------------------------------------------
# the ring


# smallest radicand RingCtx refuses: above about 10**18 square-freeness falls
# to Brent's rho, which needs about p**(1/2) steps to split off a prime p, so
# a d with two large prime factors costs seconds at 30 digits and grows fast
RADICAND_CAP = 10**30


@dataclass(frozen=True)
class RingCtx:
    """Validated ring parameter d for Z[sqrt(d)], with its square-freeness.

    Rejects d < 2, d >= RADICAND_CAP and perfect squares.  square_free is
    decided at most once per ring, when first read, and refuses nothing.
    """

    d: int
    _square_free: bool | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.d
        if d < 2:
            raise ValueError(f"ring radicand must be >= 2, got {d}")
        if d >= RADICAND_CAP:
            raise ValueError(f"ring radicand must be below the cap {RADICAND_CAP}")
        if is_perfect_square(d) is not None:
            raise ValueError(f"ring radicand must not be a perfect square, got {d}")

    @property
    def square_free(self) -> bool:
        # not functools.cached_property: its __dict__ write slows every ctx.d read
        if self._square_free is None:
            object.__setattr__(self, "_square_free", is_square_free(self.d))
        return self._square_free


def _unordered(self, other):
    raise TypeError("ring elements are not ordered")


def _not_an_element(op: str, other: object) -> TypeError:
    return TypeError(f"{op} combines a QuadInt only with a QuadInt, not {type(other).__name__!r}")


def _mixed_rings(ctx: RingCtx, other: RingCtx) -> MixedRingError:
    return MixedRingError(f"mixing elements of Z[sqrt({ctx.d})] and Z[sqrt({other.d})]")


# builds a QuadInt without the Python-level __new__ that NamedTuple generates
_new = tuple.__new__


class QuadInt(NamedTuple):
    """a + b*sqrt(d), immutable, with exact integer coordinates.

    An (a, b, ctx) tuple, because a t = 1 report is mostly small products
    and a tuple is about a quarter of the cost of a frozen dataclass to
    build.  None of tuple's own operators survive: equality and hashing
    mean the same coordinates in the same ring, elements are unordered,
    and no operand reaches tuple concatenation or repetition.  Each
    `ctx is octx` is a shortcut: ctx.d == octx.d alone decides.
    """

    a: int
    b: int
    ctx: RingCtx

    def __repr__(self) -> str:
        return f"QuadInt(a={self.a!r}, b={self.b!r})"

    def __eq__(self, other: object) -> bool:
        # False, not NotImplemented: tuple's == would then compare the fields
        if type(other) is not QuadInt:
            return False
        a, b, ctx = self
        oa, ob, octx = other
        return a == oa and b == ob and (ctx is octx or ctx.d == octx.d)

    def __ne__(self, other: object) -> bool:
        return not self == other

    # hash((a, b, ctx)): RingCtx hashes by d, so this agrees with ==
    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __add__(self, other: QuadInt) -> QuadInt:
        if type(other) is not QuadInt:
            raise _not_an_element("+", other)
        a, b, ctx = self
        oa, ob, octx = other
        if ctx is not octx and ctx.d != octx.d:
            raise _mixed_rings(ctx, octx)
        return _new(QuadInt, (a + oa, b + ob, ctx))

    def __radd__(self, other: object):
        # without it, (a, b, ctx) + x would concatenate the two tuples
        raise _not_an_element("+", other)

    def __sub__(self, other: QuadInt) -> QuadInt:
        if type(other) is not QuadInt:
            raise _not_an_element("-", other)
        a, b, ctx = self
        oa, ob, octx = other
        if ctx is not octx and ctx.d != octx.d:
            raise _mixed_rings(ctx, octx)
        return _new(QuadInt, (a - oa, b - ob, ctx))

    def __neg__(self) -> QuadInt:
        a, b, ctx = self
        return _new(QuadInt, (-a, -b, ctx))

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        a, b, ctx = self
        if type(other) is QuadInt:
            oa, ob, octx = other
            if ctx is not octx and ctx.d != octx.d:
                raise _mixed_rings(ctx, octx)
            return _new(QuadInt, (a * oa + ctx.d * (b * ob), a * ob + b * oa, ctx))
        if isinstance(other, int):
            return _new(QuadInt, (a * other, b * other, ctx))
        raise _not_an_element("*", other)

    def __rmul__(self, other: int) -> QuadInt:
        if isinstance(other, int):
            return self * other
        raise _not_an_element("*", other)

    def __pow__(self, e: int) -> QuadInt:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        result = QuadInt(1, 0, self.ctx)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def conjugate(self) -> QuadInt:
        a, b, ctx = self
        return _new(QuadInt, (a, -b, ctx))

    def norm(self) -> int:
        a, b, ctx = self
        return a * a - ctx.d * (b * b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        """The 'a,b' form (two signed decimals, no spaces) parse_element reads."""
        return f"{self.a},{self.b}"


def sqrt_in_ring(z: QuadInt) -> QuadInt | None:
    """The w with w*w == z, or None when z is not a square in the ring.

    For w = (x, y) and z = (A, B): 2xy = B and x^2 + d*y^2 = A, so x^2 and
    d*y^2 are the two roots of T^2 - A*T + d*(B/2)^2, i.e. (A +- s)/2 with
    s^2 = A^2 - d*B^2 = norm(z).  Everything reduces to integer square-root
    tests, so coordinates with thousands of digits stay cheap.

    Roots come in pairs +-w; the one returned has positive rational part
    (positive sqrt(d) part when the rational part is zero).  A negative
    rational z fails both square tests.  x^2 * d*y^2 = d*(B/2)^2 gives
    y = (B/2)/x, and when x does not divide B/2, y = (B/2) // x fails
    x^2 + d*y^2 == A, so that one test decides.  is_perfect_square has
    just shown x^2 = (A +- s)/2, so the test closes as d*y^2 == (A -+ s)/2,
    the other root, and x is not squared again.
    """
    A, B, ctx = z
    d = ctx.d
    if B == 0:
        s = is_perfect_square(A)
        if s is not None:
            return _new(QuadInt, (s, 0, ctx))
        if A % d == 0:
            s = is_perfect_square(A // d)
            if s is not None:
                return _new(QuadInt, (0, s, ctx))
        return None
    if B % 2:  # no root, as 2xy = B; below, half = B // 2 must be exact
        return None
    s = is_perfect_square(A * A - d * (B * B))
    if s is None:
        return None
    half = B // 2
    # B even makes s^2 = A^2 - d*B^2 = A^2 (mod 2), so A + s and A - s are even
    plus, minus = (A + s) // 2, (A - s) // 2
    for x2, dy2 in ((plus, minus), (minus, plus)):
        x = is_perfect_square(x2)
        if not x:  # x == 0 cannot pair with B != 0
            continue
        y = half // x
        if d * (y * y) == dy2:
            return _new(QuadInt, (x, y, ctx))
    return None


# ---------------------------------------------------------------------------
# textual and JSON element formats

_INT = r"[+-]?[0-9]+"
_ELEMENT_RE = re.compile(f"({_INT}),({_INT})")


def parse_element(text: str, ctx: RingCtx) -> QuadInt:
    """Parse the 'a,b' format; raises ValueError on anything else."""
    m = _ELEMENT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed element {text!r}: expected 'a,b'")
    return QuadInt(int(m.group(1)), int(m.group(2)), ctx)


def element_to_json(x: QuadInt) -> dict[str, str]:
    """JSON form with string-encoded integers (no precision loss)."""
    return {"a": str(x.a), "b": str(x.b)}


def int_from_json(text: str) -> int:
    """A JSON integer field: only a str of ASCII digits with an optional sign.

    Numbers, padded or underscored strings and non-ASCII digits all raise
    ValueError, so a document cannot have a value coerced into it. Those
    are the strings int() reads that the pattern _INT does not match, so
    int() then refuses, with its own message, every other string _INT does
    not match (tests/test_quadring.py holds the two against each other).
    """
    if not isinstance(text, str) or not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"expected a decimal integer string, got {text!r}")
    return int(text)


def element_from_json(doc: dict, ctx: RingCtx) -> QuadInt:
    return _new(QuadInt, (int_from_json(doc["a"]), int_from_json(doc["b"]), ctx))
