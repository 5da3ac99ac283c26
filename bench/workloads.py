"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of ops, sized to run for about 15 s on a
2-core 2.1 GHz Xeon VM, and every run makes all of them: a faster program
does the same work sooner, not more work on larger inputs.

Nothing here imports quadtuple: the family radicand and the ring list are
restated bench-side, so set-up time measures only the program's own start-up
and the inputs cannot inherit a bug from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

T_CAP = 1000  # quadtuple.counterex.T_CAP_DEFAULT

NEAR_OPS = 3000
LARGE_T_SPACING = 250  # windows start at 0, 250, 500 and 750
LARGE_T_WINDOW = 60
RING_BOUND = 20_000


class FamilyOp(NamedTuple):
    """One `counterexamples --alpha a..a --t t` invocation."""

    alpha: int
    t: int


class RingOp(NamedTuple):
    """`pell --d d --norm -6`, then `construct --m m --k k` and
    `checkrepr --n 2,0` when -6 is a norm."""

    d: int
    m: int
    k: int


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list


def family_d(alpha: int) -> int:
    """d = 360(10 alpha^2 + alpha) + 15, the radicand of family member alpha."""
    return 360 * (10 * alpha * alpha + alpha) + 15


def is_square_free(n: int) -> bool:
    """Trial division by p^2; only used on ring radicands below 2 * 10^4."""
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def near_window(seed: int) -> Workload:
    """alpha = 0 .. NEAR_OPS - 1 at t = 1, consecutive from a seeded start in [0, 10^3).

    The run wraps round to 0 after NEAR_OPS - 1, so every seed covers the
    same alpha. Cost per op grows with alpha, and windows of NEAR_OPS alpha
    from different starts differed by about 20% in goodput.
    """
    start = _rng("near_window", seed).randrange(1000)
    alphas = [*range(start, NEAR_OPS), *range(start)]
    return Workload("near_window", [FamilyOp(alpha, 1) for alpha in alphas])


def large_t(seed: int) -> Workload:
    """t = 1000 on 60 consecutive alpha from each of 0, 250, 500 and 750, in seeded order.

    Cost grows with alpha and only ineligible alpha succeed while the
    4300-digit defect stands, so seeded windows made goodput swing by 20%
    from seed to seed; the windows are fixed and the seed sets the order.
    alpha = 0 (d = 15) is the one eligible member whose t = 1000 report fits
    under Python's 4300-digit str() limit; it always runs first.
    """
    alphas = [lo + i for lo in range(LARGE_T_SPACING, 1000, LARGE_T_SPACING) for i in range(LARGE_T_WINDOW)]
    alphas += range(1, LARGE_T_WINDOW)
    _rng("large_t", seed).shuffle(alphas)
    # d = 15 first, so that the re-checks of its document spread over the sweep
    return Workload("large_t", [FamilyOp(alpha, T_CAP) for alpha in [0] + alphas])


def ring_list(bound: int = RING_BOUND) -> list[int]:
    """Square-free d = 15 (mod 60) with 15 <= d <= bound."""
    return [d for d in range(15, bound + 1, 60) if is_square_free(d)]


def ring_sweep(seed: int) -> Workload:
    """Every ring of ring_list() in one fixed shuffled order, each with a seeded (m, k), m + k even.

    The order is the same for every seed. The 20 rings that produce a
    construct document have check costs that differ by half, and the
    order sets how often each one is re-checked: with a seeded order,
    verify_ms_tail moved by 15-20% from seed to seed.
    """
    rings = ring_list()
    random.Random("ring_sweep order").shuffle(rings)
    rng = _rng("ring_sweep", seed)
    ops = []
    for d in rings:
        m = rng.randrange(-100, 101)
        k = rng.randrange(-100, 101)
        if (m + k) % 2:
            k += 1 if k < 100 else -1
        ops.append(RingOp(d, m, k))
    return Workload("ring_sweep", ops)


WORKLOADS = {
    "near_window": near_window,
    "large_t": large_t,
    "ring_sweep": ring_sweep,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
