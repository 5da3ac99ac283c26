from __future__ import annotations

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.solvers.diophantine.diophantine import diop_DN

import quadtuple.pellsolve
from quadtuple import (
    SCAN_CAP,
    QuadInt,
    RingCtx,
    check_pm2_unsolvable,
    construct_quadruple,
    enumerate_solutions,
    family_d,
    fundamental_unit,
    is_perfect_square,
    is_square_free,
    norm6_witness,
    solutions_within,
    solve_norm_eq,
    unit_from_norm6,
    unit_power,
)

from support import MINUS6_D, brute_norm_solutions, enum_order_key

# all square-free d = 15 (mod 60) up to 2000
SQUAREFREE_D = [d for d in range(15, 2001, 60) if is_square_free(d)]
# the shape each factorization choice of the construction starts from
CHOICE_SIGN_Y = {"first": 1, "second": -1}
# rings whose sqrt(d) has an odd period, so the unit closes the second pass
ODD_PERIOD_D = [2, 5, 13, 29, 61, 109]
# odd periods, several classes per N, and two rings with square factors
SOLVER_D = MINUS6_D + [2, 3, 7, 13, 94, 735, 3975]


def test_cf_examples(ring15):
    # sqrt(15) = [3; 1, 6] and sqrt(3) = [1; 1, 2]: one pass each
    assert fundamental_unit(ring15) == QuadInt(4, 1, ring15)
    ring3 = RingCtx(3)
    assert fundamental_unit(ring3) == QuadInt(2, 1, ring3)
    # sqrt(13) = [3; 1, 1, 1, 1, 6]: the first pass ends at 18^2 - 13*5^2 = -1
    ring13 = RingCtx(13)
    assert fundamental_unit(ring13) == QuadInt(649, 180, ring13)
    with pytest.raises(ValueError):
        RingCtx(4)  # perfect squares never reach the recurrence


def cf_period(d):
    """a0 and the period of sqrt(d), from the (P, Q) recurrence up to Q = 1."""
    a0 = isqrt(d)
    p, q, a = 0, 1, a0
    period = []
    while not period or q != 1:
        p = q * a - p
        q = (d - p * p) // q
        a = (a0 + p) // q
        period.append(a)
    return a0, period


@pytest.mark.parametrize("d", SQUAREFREE_D)
def test_cf_period_ends_with_twice_a0(d):
    a0, period = cf_period(d)
    assert period[-1] == 2 * a0
    # the unit is the convergent closing the period, or the second pass if odd
    h0, h1, k0, k1 = 1, a0, 0, 1
    for a in period * (1 + len(period) % 2):
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    ctx = RingCtx(d)
    assert fundamental_unit(ctx) == QuadInt(h0, k0, ctx)


@pytest.mark.parametrize("d", SQUAREFREE_D + ODD_PERIOD_D)
def test_fundamental_unit_matches_diop_DN(d):
    # sympy's diop_DN(d, 1) gives the fundamental solution, found independently
    ((x, y),) = diop_DN(d, 1)
    ctx = RingCtx(d)
    assert fundamental_unit(ctx) == QuadInt(x, y, ctx)


def test_fundamental_unit_examples(ring15, ring735, ring3975):
    assert fundamental_unit(ring15) == QuadInt(4, 1, ring15)
    assert fundamental_unit(ring735) == QuadInt(244, 9, ring735)
    assert fundamental_unit(ring3975) == QuadInt(1324, 21, ring3975)


@pytest.mark.parametrize("d", SQUAREFREE_D)
def test_fundamental_unit_is_minimal(d):
    ctx = RingCtx(d)
    fu = fundamental_unit(ctx)
    assert fu.a > 0 and fu.b > 0
    assert fu.a * fu.a - d * fu.b * fu.b == 1
    smaller = brute_norm_solutions(ctx, 1, fu.b - 1)
    assert all(y == 0 for (_, y) in smaller)


def test_solve_norm_eq_examples(ring15, ring735):
    reps15 = solve_norm_eq(ring15, -6).representatives
    assert QuadInt(3, 1, ring15) in reps15
    reps735 = solve_norm_eq(ring735, -6).representatives
    assert QuadInt(27, 1, ring735) in reps735
    assert solve_norm_eq(ring15, 2).representatives == ()
    assert solve_norm_eq(ring15, -2).representatives == ()
    assert solve_norm_eq(ring15, 1).representatives == (QuadInt(1, 0, ring15),)


def test_solve_norm_eq_guards(ring15, monkeypatch):
    with pytest.raises(ValueError):
        solve_norm_eq(ring15, 0)
    with pytest.raises(ValueError):
        solve_norm_eq(ring15, 10**7)
    monkeypatch.setattr(quadtuple.pellsolve, "NORM_CAP", 10**8)
    reps = solve_norm_eq(ring15, 10**7).representatives
    assert [r.norm() for r in reps] == [10**7]


def test_fundamental_unit_period_cap(monkeypatch):
    # sqrt(13) has period 5, so its unit closes the second pass at step 10;
    # __wrapped__ bypasses the cache, which may already hold d = 13
    ring13 = RingCtx(13)
    walk = fundamental_unit.__wrapped__
    monkeypatch.setattr(quadtuple.pellsolve, "PERIOD_CAP", 10)
    assert walk(ring13) == QuadInt(649, 180, ring13)
    monkeypatch.setattr(quadtuple.pellsolve, "PERIOD_CAP", 9)
    with pytest.raises(ValueError, match="cap of 9 steps"):
        walk(ring13)


def test_enumerate_solutions(ring15):
    classes = solve_norm_eq(ring15, -6)
    first_two = enumerate_solutions(classes, 2)
    assert first_two == [QuadInt(3, 1, ring15), QuadInt(3, -1, ring15)]
    assert enumerate_solutions(solve_norm_eq(ring15, 1), 1) == [QuadInt(1, 0, ring15)]
    empty = solve_norm_eq(ring15, 2)
    assert enumerate_solutions(empty, 5) == []
    with pytest.raises(ValueError):
        enumerate_solutions(classes, 0)
    cap = quadtuple.pellsolve.LIMIT_CAP
    with pytest.raises(ValueError):
        enumerate_solutions(classes, cap + 1)
    assert len(enumerate_solutions(classes, cap)) == cap


@pytest.mark.parametrize("d", SOLVER_D)
@pytest.mark.parametrize("N", [1, -1, 2, -2, -6])
def test_solver_matches_brute_force(d, N):
    ctx = RingCtx(d)
    sols = solutions_within(solve_norm_eq(ctx, N), 500)
    assert sorted((s.a, s.b) for s in sols) == sorted(brute_norm_solutions(ctx, N, 500))
    assert [enum_order_key(s) for s in sols] == sorted(enum_order_key(s) for s in sols)


# the non-square d <= 2000 whose unit has x <= 10^10, so solve_norm_eq's scan
# stays short: 1426 rings
ENUM_D = [
    d
    for d in range(2, 2001)
    if isqrt(d) ** 2 != d and fundamental_unit(RingCtx(d)).a <= 10**10
]


@pytest.mark.parametrize("N", [1, -6, 4])
def test_enumerate_solutions_matches_the_brute_scan_in_order(N):
    # the solutions with |y| <= 200 are a prefix of the order, so the first
    # `limit` solutions, cut to that bound, are the scan's first ones: all
    # `limit` of them when none lies past it, else every solution the scan
    # has; the cap runs on the rings with d <= 300
    cap = quadtuple.pellsolve.LIMIT_CAP
    for d in ENUM_D:
        ctx = RingCtx(d)
        classes = solve_norm_eq(ctx, N)
        scan = [QuadInt(x, y, ctx) for x, y in brute_norm_solutions(ctx, N, 200)]
        scan.sort(key=enum_order_key)
        for limit in (1, 8, 50) + ((cap,) if d <= 300 else ()):
            sols = enumerate_solutions(classes, limit)
            assert len(sols) == (limit if classes.representatives else 0), (d, limit)
            inside = [s for s in sols if abs(s.b) <= 200]
            assert inside == (scan[:limit] if len(inside) == limit else scan), (d, limit)


@pytest.mark.parametrize(("d", "N"), [(15, -6), (2, 2737)])
def test_solutions_within_is_a_prefix_of_the_enumeration(d, N):
    # d = 2, N = 2737 has eight classes
    classes = solve_norm_eq(RingCtx(d), N)
    sols = enumerate_solutions(classes, quadtuple.pellsolve.LIMIT_CAP)
    assert abs(sols[-1].b) > 200
    for ybound in range(201):
        assert solutions_within(classes, ybound) == [s for s in sols if abs(s.b) <= ybound]


def test_solve_norm_eq_answers_norm_1_with_no_scan(monkeypatch):
    # the one class of norm 1, the unit's powers up to sign, has 1 first;
    # d = 100000007 has a 3333-digit unit, which the scan's bound follows
    def forbidden(*args):
        raise AssertionError("solve_norm_eq scanned for N = 1")

    monkeypatch.setattr(quadtuple.pellsolve, "is_perfect_square", forbidden)
    for d in (2, 15, 735, 100000007):
        ctx = RingCtx(d)
        classes = solve_norm_eq(ctx, 1)
        assert classes.representatives == (QuadInt(1, 0, ctx),)
        assert classes.unit == fundamental_unit(ctx)


def test_solve_norm_eq_scans_up_to_the_cap_and_refuses_past_it(monkeypatch):
    # d = 2, N = 2737 scans y = 0..53 and finds eight classes; one value
    # over the cap is refused before the first square test
    ctx = RingCtx(2)
    answer = solve_norm_eq(ctx, 2737)
    values = isqrt(2737 * (fundamental_unit(ctx).a + 1) // (2 * ctx.d)) + 2
    assert (values, len(answer.representatives)) == (54, 8)
    monkeypatch.setattr(quadtuple.pellsolve, "SCAN_CAP", values)
    assert solve_norm_eq(ctx, 2737) == answer
    square_tests = []

    def counted(n):
        square_tests.append(n)
        return is_perfect_square(n)

    monkeypatch.setattr(quadtuple.pellsolve, "is_perfect_square", counted)
    monkeypatch.setattr(quadtuple.pellsolve, "SCAN_CAP", values - 1)
    with pytest.raises(ValueError, match=f"past the cap of {values - 1} values"):
        solve_norm_eq(ctx, 2737)
    assert square_tests == []


def test_every_ring_sweep_ring_but_14655_scans_under_the_cap():
    # every square-free d = 15 (mod 60) up to 20000; the largest scans,
    # 18435's and 11355's, are the loads of two benchmark tests
    values = {
        d: _scan_bound(RingCtx(d)) + 1 for d in range(15, 20_001, 60) if is_square_free(d)
    }
    assert len(values) == 168
    over = {d for d, v in values.items() if v > SCAN_CAP}
    assert over == {14655}
    del values[14655]
    assert max(values, key=values.get) == 18435
    assert 10**7 < values[18435] < SCAN_CAP // 8
    assert 10**6 < values[11355] < values[18435]


def test_enumerate_solutions_takes_a_product_per_solution(monkeypatch):
    # each solution costs the product that steps its orbit on, beside two
    # per class to start the conjugate orbits and the few the merge reads
    # ahead; at d = 100000007 the unit's y has 3329 digits
    multiply, products = QuadInt.__mul__, []

    def counted_mul(x, y):
        products.append(None)
        return multiply(x, y)

    for d, N, limit in ((15, -6, 1000), (2, 2737, 1000), (100000007, 1, 6)):
        classes = solve_norm_eq(RingCtx(d), N)
        monkeypatch.setattr(QuadInt, "__mul__", counted_mul)
        products.clear()
        sols = enumerate_solutions(classes, limit)
        monkeypatch.setattr(QuadInt, "__mul__", multiply)
        assert len(sols) == limit
        assert len(products) <= limit + 4 * len(classes.representatives), (d, N)
    unit = classes.unit
    one = QuadInt(1, 0, unit.ctx)
    assert sols == [one, -one, unit, unit.conjugate(), -unit.conjugate(), -unit]


def test_solutions_within_bound_below_every_representative(ring15):
    # the representative (3, 1) already has |y| above the bound: no walk starts
    assert solutions_within(solve_norm_eq(ring15, -6), 0) == []
    one = QuadInt(1, 0, ring15)
    assert solutions_within(solve_norm_eq(ring15, 1), 0) == [one, -one]


def test_norm6_times_unit_closure(ring15):
    sols6 = enumerate_solutions(solve_norm_eq(ring15, -6), 6)
    units = enumerate_solutions(solve_norm_eq(ring15, 1), 6)
    for s in sols6:
        for u in units:
            assert (s * u).norm() == -6


def test_pm2_certificates(ring15, ring735):
    # +2 and -2 are quadratic non-residues mod 5
    assert {x * x % 5 for x in range(5)}.isdisjoint({2 % 5, -2 % 5})
    for ctx in (ring15, ring735):
        assert check_pm2_unsolvable(ctx)
        assert solve_norm_eq(ctx, 2).representatives == ()
        assert solve_norm_eq(ctx, -2).representatives == ()
    # without 5 | d there is no claim: 1 - 3 = -2 is a norm in Z[sqrt(3)]
    assert not check_pm2_unsolvable(RingCtx(3))
    assert solve_norm_eq(RingCtx(3), -2).representatives


def test_norm6_shape_reconstructs():
    # x = 6 alpha + 3 and y = 6 beta + s for integers alpha, beta and
    # s = +-1, the sign the construction reads off y mod 6
    for d in MINUS6_D:
        for sol in enumerate_solutions(solve_norm_eq(RingCtx(d), -6), 20):
            assert sol.a % 6 == 3 and sol.b % 6 in (1, 5), (d, sol)
            sign_y = 1 if sol.b % 6 == 1 else -1
            alpha, beta = (sol.a - 3) // 6, (sol.b - sign_y) // 6
            assert 6 * alpha + 3 == sol.a, (d, sol)
            assert 6 * beta + sign_y == sol.b, (d, sol)


def test_norm6_without_the_shape_raises():
    # 1 - 7 = -6, but x = 1 is not 3 (mod 6): 7 is not 15 (mod 60)
    sol = QuadInt(1, 1, RingCtx(7))
    assert sol.norm() == -6
    with pytest.raises(ValueError, match="not 3 mod 6"):
        unit_from_norm6(sol)
    # 36 - 42 = -6 with 3 | x, so the division is exact, but (6, 1)^2/6 = (13, 2)
    # lacks the even/odd parity: 42 is even
    sol = QuadInt(6, 1, RingCtx(42))
    assert sol.norm() == -6
    with pytest.raises(ValueError, match="not 3 mod 6"):
        unit_from_norm6(sol)


def _refusal(f, sol):
    try:
        f(sol)
    except ValueError as exc:
        return str(exc)
    return None


def _off_the_shape(sol):
    # the refusals unit_from_norm6 makes, in order: N = -6, then x = 3 (mod 6)
    if sol.norm() != -6:
        return f"{sol} has norm {sol.norm()}, expected -6"
    if sol.a % 6 != 3:
        return f"norm -6 solution with x = {sol.a} not 3 mod 6"
    return None


def test_unit_from_norm6_raises_exactly_off_the_shape():
    # the unit's own shape tests (norm -6, 3 | x, an even/odd unit) hold
    # exactly when N = -6 and x = 3 (mod 6); the rings not 15 (mod 60) give
    # norm -6 solutions without that shape, and the box's centre gives
    # elements of other norms
    rings = [RingCtx(d) for d in (7, 10, 19, 42, 15, 735, 1095, 1455)]
    rings += [family_d(alpha).ctx for alpha in range(-20, 20)]
    outcomes = set()
    for ctx in rings:
        for x in range(-60, 61):
            for y in range(-60, 61):
                if x * x - ctx.d * y * y != -6 and max(abs(x), abs(y)) > 6:
                    continue
                sol = QuadInt(x, y, ctx)
                refusal = _off_the_shape(sol)
                assert _refusal(unit_from_norm6, sol) == refusal, sol
                if refusal is None:
                    u = unit_from_norm6(sol)
                    assert (u.norm(), u.a % 2, u.b % 2) == (1, 0, 1), sol
                outcomes.add(refusal and ("norm" if "expected -6" in refusal else "shape"))
    assert outcomes == {None, "norm", "shape"}


@pytest.mark.parametrize("d", MINUS6_D)
def test_every_norm6_solution_has_the_shape(d):
    ctx = RingCtx(d)
    for sol in enumerate_solutions(solve_norm_eq(ctx, -6), 24):
        assert sol.a % 6 == 3
        assert sol.b % 6 in (1, 5)


@pytest.mark.parametrize("choice", CHOICE_SIGN_Y)
def test_construction_gamma_matches_enumeration(choice):
    # oracle: the first solution in the canonical enumeration whose y is
    # +-1 (mod 6) as the choice asks, found by a scan rather than by
    # flipping the sign of the representative's y
    rings = [RingCtx(d) for d in MINUS6_D] + [family_d(a).ctx for a in range(-100, 300)]
    for ctx in rings:
        classes = solve_norm_eq(ctx, -6)
        solutions = enumerate_solutions(classes, 8)
        first = next(sol for sol in solutions if sol.b % 6 == CHOICE_SIGN_Y[choice] % 6)
        _, trace = construct_quadruple(ctx, 0, 0, factorization_choice=choice)
        assert trace.gamma_delta == first, ctx.d
        # gamma^2 = 6 * unit: the producers take the unit from the walk behind
        # gamma unchecked, and verify_report_doc reads it off gamma
        assert unit_from_norm6(classes.representatives[0]) == fundamental_unit(ctx), ctx.d


@pytest.mark.parametrize("choice", CHOICE_SIGN_Y)
@pytest.mark.parametrize("d", MINUS6_D)
def test_construction_unit_is_gamma_delta_squared_over_6(d, choice):
    # the construction takes (gamma, delta)^2/6 as the conjugate of gamma^2/6
    # when delta flips gamma's y; derive it from (gamma, delta) directly
    quad, trace = construct_quadruple(RingCtx(d), 0, 0, factorization_choice=choice)
    assert quad.elements[0] == unit_from_norm6(trace.gamma_delta)


# ---------------------------------------------------------------------------
# norm6_witness, against independent solvers

# d = 15 (mod 60), square-free or not, below the oracle's bound
RADICANDS_15_MOD_60 = range(15, 200_000, 60)


def _scan_bound(ctx):
    # solve_norm_eq's y bound for N = -6
    return isqrt(6 * (fundamental_unit(ctx).a + 1) // (2 * ctx.d)) + 1


def test_norm6_witness_matches_diop_DN():
    # sympy's diop_DN(d, -6) lists one solution per class, found by its own
    # method; the witness is the one with the least |y|, both coordinates
    # positive, gamma^2/6 is the fundamental unit, and the classes hold it
    solvable = 0
    for d in RADICANDS_15_MOD_60:
        ctx = RingCtx(d)
        classes = norm6_witness(ctx)
        assert classes.unit == fundamental_unit(ctx), d
        least = min(((abs(y), abs(x)) for x, y in diop_DN(d, -6)), default=None)
        if least is None:
            assert classes.representatives == (), d
            continue
        (witness,) = classes.representatives
        assert (witness.b, witness.a) == least, d
        assert unit_from_norm6(witness) == classes.unit, d
        # 9 | d rules -6 out: x^2 = d*y^2 - 6 = 3 (mod 9)
        assert d % 9, d
        solvable += 1
    assert solvable == 267


def test_norm6_witness_is_the_canonical_representative():
    # the family, whose gamma is (|60 alpha + 3|, 1), every d = 15 (mod 60)
    # up to 20000 whose y-scan stops by 10^4 (270 of 334 rings), and every
    # one below 200000 whose scan stops by 3000 (1288 rings, 250 of them in
    # the second set): the classes, representatives and unit, are the
    # solve's, as one value
    rings = [family_d(alpha).ctx for alpha in range(-300, 300)]
    rings += [RingCtx(d) for d in range(15, 20_001, 60)]
    rings = [ctx for ctx in rings if _scan_bound(ctx) <= 10**4]
    rings += [ctx for ctx in map(RingCtx, RADICANDS_15_MOD_60) if _scan_bound(ctx) <= 3000]
    assert len(rings) == 600 + 270 + 1288
    solvable = 0
    for ctx in rings:
        classes = solve_norm_eq(ctx, -6)
        assert norm6_witness(ctx) == classes, ctx.d
        solvable += bool(classes.representatives)
    assert solvable == 600 + 24 + 89


def test_norm6_witness_refuses_a_d_not_15_mod_60(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("norm6_witness walked before checking d")

    monkeypatch.setattr(quadtuple.pellsolve, "fundamental_unit", forbidden)
    for d in (2, 3, 7, 42, 45, 105, 285, 10**29 + 3):
        with pytest.raises(ValueError, match=f"d = {d} is not 15 mod 60"):
            norm6_witness(RingCtx(d))


def test_unit_from_norm6(ring15, ring735, ring3975):
    assert unit_from_norm6(QuadInt(3, 1, ring15)) == QuadInt(4, 1, ring15)
    assert unit_from_norm6(QuadInt(27, 1, ring735)) == QuadInt(244, 9, ring735)
    assert unit_from_norm6(QuadInt(63, 1, ring3975)) == QuadInt(1324, 21, ring3975)
    assert QuadInt(1324, 21, ring3975).norm() == 1
    with pytest.raises(ValueError):
        unit_from_norm6(QuadInt(4, 1, ring15))


@pytest.mark.parametrize("d", MINUS6_D)
def test_unit_from_norm6_parity(d):
    ctx = RingCtx(d)
    for sol in enumerate_solutions(solve_norm_eq(ctx, -6), 12):
        u = unit_from_norm6(sol)
        assert u.norm() == 1
        assert u.a % 2 == 0
        assert u.b % 2 == 1


def test_fundamental_shape(ring15, ring735, ring3975):
    # the fundamental unit is (6a +- 4, 6b +- 1) or (6a +- 4, 6b + 3)
    for ctx, y_mod6 in ((ring15, {1, 5}), (ring735, {3}), (ring3975, {3})):
        fu = fundamental_unit(ctx)
        assert fu.a % 6 in (2, 4)
        assert fu.b % 6 in y_mod6


def test_d_congruence_check(ring735, ring3975):
    # d = 15 (mod 360) wherever -6 is attained
    attained = []
    for ctx in [RingCtx(d) for d in SQUAREFREE_D] + [ring735, ring3975]:
        reps = solve_norm_eq(ctx, -6).representatives
        if reps:
            assert ctx.d % 360 == 15, ctx.d
            # gamma^2 = 6 * unit for the canonical representative gamma
            assert unit_from_norm6(reps[0]) == fundamental_unit(ctx), ctx.d
            attained.append(ctx.d)
    assert attained == MINUS6_D + [735, 3975]


def test_pm2_agrees_with_brute_force_on_sampled_d():
    # 100 consecutive members of d = 15 (mod 60), square-free or not
    for d in range(15, 15 + 60 * 100, 60):
        ctx = RingCtx(d)
        assert check_pm2_unsolvable(ctx)
        assert not brute_norm_solutions(ctx, 2, 1000)
        assert not brute_norm_solutions(ctx, -2, 1000)


def test_no_norm_minus_one_among_unit_powers():
    for d in MINUS6_D + [195, 255]:
        ctx = RingCtx(d)
        u = fundamental_unit(ctx)
        for k in range(7):
            assert (u**k).norm() == 1
            assert (-(u**k)).norm() == 1
        assert solve_norm_eq(ctx, -1).representatives == ()


# ---------------------------------------------------------------------------
# unit_power, against QuadInt.__pow__


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.integers(min_value=-300, max_value=299),
    conjugate=st.booleans(),
    t=st.integers(min_value=0, max_value=1000),
)
def test_unit_power_matches_the_generic_power(alpha, conjugate, t):
    # the family's unit (x^2 + 3)/3 + (x/3)*sqrt(d), x = 60*alpha + 3, or its
    # inverse; the ring need not be square-free
    cand = family_d(alpha)
    eps = unit_from_norm6(QuadInt(cand.x, 1, cand.ctx))
    if conjugate:
        eps = eps.conjugate()
    assert unit_power(eps, t) == (eps**t, eps ** (2 * t))


@pytest.mark.parametrize("t", [0, 1, 2, 3, 17, 64, 1000])
def test_unit_power_of_a_negated_unit(ring15, t):
    eps = -fundamental_unit(ring15)
    assert unit_power(eps, t) == (eps**t, eps ** (2 * t))


@pytest.mark.parametrize("t", [0, 1, 2, 5])
def test_unit_power_of_plus_minus_one(ring15, t):
    # b = 0 is +-1: no division by d*b, and the exact power
    one = QuadInt(1, 0, ring15)
    assert unit_power(one, t) == (one, one)
    assert unit_power(-one, t) == ((-one) ** t, one)


def test_unit_power_refuses_what_is_not_a_norm_1_unit(ring15):
    for bad in [(0, 0), (2, 0), (-2, 0), (3, 1), (4, 2), (1, 1), (0, 1)]:
        with pytest.raises(ValueError, match="expected 1"):
            unit_power(QuadInt(*bad, ring15), 3)
    for t in (-1, 1.0, "2", None):
        with pytest.raises(ValueError, match="nonnegative integer"):
            unit_power(fundamental_unit(ring15), t)
