from __future__ import annotations

from math import isqrt

import pytest
from sympy.solvers.diophantine.diophantine import diop_DN

import quadtuple.pellsolve
from quadtuple import (
    RingCtx,
    ShapeViolation,
    check_pm2_unsolvable,
    construct_quadruple,
    enumerate_solutions,
    family_d,
    fundamental_unit,
    is_square_free,
    norm6_sign_y,
    solutions_within,
    solve_norm_eq,
    unit_from_norm6,
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
    assert fundamental_unit(ring15) == ring15.element(4, 1)
    ring3 = RingCtx(3)
    assert fundamental_unit(ring3) == ring3.element(2, 1)
    # sqrt(13) = [3; 1, 1, 1, 1, 6]: the first pass ends at 18^2 - 13*5^2 = -1
    ring13 = RingCtx(13)
    assert fundamental_unit(ring13) == ring13.element(649, 180)
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
    assert fundamental_unit(ctx) == ctx.element(h0, k0)


@pytest.mark.parametrize("d", SQUAREFREE_D + ODD_PERIOD_D)
def test_fundamental_unit_matches_diop_DN(d):
    # sympy's diop_DN(d, 1) gives the fundamental solution, found independently
    ((x, y),) = diop_DN(d, 1)
    ctx = RingCtx(d)
    assert fundamental_unit(ctx) == ctx.element(x, y)


def test_fundamental_unit_examples(ring15, ring735, ring3975):
    assert fundamental_unit(ring15) == ring15.element(4, 1)
    assert fundamental_unit(ring735) == ring735.element(244, 9)
    assert fundamental_unit(ring3975) == ring3975.element(1324, 21)


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
    assert ring15.element(3, 1) in reps15
    reps735 = solve_norm_eq(ring735, -6).representatives
    assert ring735.element(27, 1) in reps735
    assert solve_norm_eq(ring15, 2).representatives == ()
    assert solve_norm_eq(ring15, -2).representatives == ()
    assert solve_norm_eq(ring15, 1).representatives == (ring15.element(1, 0),)


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
    assert walk(ring13) == ring13.element(649, 180)
    monkeypatch.setattr(quadtuple.pellsolve, "PERIOD_CAP", 9)
    with pytest.raises(ValueError, match="cap of 9 steps"):
        walk(ring13)


def test_enumerate_solutions(ring15):
    classes = solve_norm_eq(ring15, -6)
    first_two = enumerate_solutions(classes, 2)
    assert first_two == [ring15.element(3, 1), ring15.element(3, -1)]
    assert enumerate_solutions(solve_norm_eq(ring15, 1), 1) == [ring15.element(1, 0)]
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


def test_solutions_within_bound_below_every_representative(ring15):
    # the representative (3, 1) already has |y| above the bound: no walk starts
    assert solutions_within(solve_norm_eq(ring15, -6), 0) == []
    one = ring15.element(1, 0)
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


def test_norm6_sign_y_examples(ring15, ring735):
    assert norm6_sign_y(ring15.element(3, 1)) == 1
    assert norm6_sign_y(ring15.element(-3, 1)) == 1
    assert norm6_sign_y(ring15.element(3, -1)) == -1
    assert norm6_sign_y(ring735.element(27, 1)) == 1
    with pytest.raises(ValueError):
        norm6_sign_y(ring15.element(4, 1))


def test_norm6_shape_reconstructs():
    # x = 6 alpha + 3 and y = 6 beta + s for integers alpha, beta; norm6_sign_y
    # reads s off y % 6 == 1 alone, so this is the check that y = +-1 (mod 6)
    for d in MINUS6_D:
        for sol in enumerate_solutions(solve_norm_eq(RingCtx(d), -6), 20):
            sign_y = norm6_sign_y(sol)
            alpha, beta = (sol.a - 3) // 6, (sol.b - sign_y) // 6
            assert 6 * alpha + 3 == sol.a, (d, sol)
            assert 6 * beta + sign_y == sol.b, (d, sol)


def test_norm6_without_the_shape_raises():
    # 1 - 7 = -6, but x = 1 is not 3 (mod 6): 7 is not 15 (mod 60)
    sol = RingCtx(7).element(1, 1)
    assert sol.norm() == -6
    with pytest.raises(ShapeViolation):
        norm6_sign_y(sol)
    with pytest.raises(ShapeViolation):
        unit_from_norm6(sol)
    # 36 - 42 = -6 with 3 | x, so the division is exact, but (6, 1)^2/6 = (13, 2)
    # lacks the even/odd parity: 42 is even
    sol = RingCtx(42).element(6, 1)
    assert sol.norm() == -6
    with pytest.raises(ShapeViolation, match="parity"):
        unit_from_norm6(sol)


@pytest.mark.parametrize("d", MINUS6_D)
def test_every_norm6_solution_has_the_shape(d):
    ctx = RingCtx(d)
    for sol in enumerate_solutions(solve_norm_eq(ctx, -6), 24):
        assert sol.a % 6 == 3
        assert sol.b % 6 in (1, 5)
        assert sol.b % 6 == norm6_sign_y(sol) % 6


@pytest.mark.parametrize("choice", CHOICE_SIGN_Y)
def test_construction_gamma_matches_enumeration(choice):
    # oracle: the first solution in the canonical enumeration whose y is
    # +-1 (mod 6) as the choice asks, found by a scan rather than by
    # flipping the sign of the representative's y
    rings = [RingCtx(d) for d in MINUS6_D] + [family_d(a).ctx for a in range(-100, 300)]
    for ctx in rings:
        classes = solve_norm_eq(ctx, -6)
        solutions = enumerate_solutions(classes, 8)
        first = next(sol for sol in solutions if norm6_sign_y(sol) == CHOICE_SIGN_Y[choice])
        _, trace = construct_quadruple(ctx, 0, 0, factorization_choice=choice)
        assert trace.gamma_delta == first, ctx.d
        # gamma^2 = 6 * unit: the construction and verify_report_doc read the unit off it
        assert unit_from_norm6(classes.representatives[0]) == fundamental_unit(ctx), ctx.d


@pytest.mark.parametrize("choice", CHOICE_SIGN_Y)
@pytest.mark.parametrize("d", MINUS6_D)
def test_construction_unit_is_gamma_delta_squared_over_6(d, choice):
    # the construction takes (gamma, delta)^2/6 as the conjugate of gamma^2/6
    # when delta flips gamma's y; derive it from (gamma, delta) directly
    _, trace = construct_quadruple(RingCtx(d), 0, 0, factorization_choice=choice)
    assert trace.unit_a == unit_from_norm6(trace.gamma_delta)


def test_unit_from_norm6(ring15, ring735, ring3975):
    assert unit_from_norm6(ring15.element(3, 1)) == ring15.element(4, 1)
    assert unit_from_norm6(ring735.element(27, 1)) == ring735.element(244, 9)
    assert unit_from_norm6(ring3975.element(63, 1)) == ring3975.element(1324, 21)
    assert ring3975.element(1324, 21).norm() == 1
    with pytest.raises(ValueError):
        unit_from_norm6(ring15.element(4, 1))


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
