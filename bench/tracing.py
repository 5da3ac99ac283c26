"""Spans around the quadtuple layers, recorded from outside the package.

Tracer.install() replaces each traced function at every quadtuple module
that holds it (its home module and each importer, e.g. both
quadtuple.pellsolve.solve_norm_eq and quadtuple.cli.solve_norm_eq) with a
wrapper that records a span; uninstall() puts the originals back. Nothing
under src/ changes, and only the process that installs the tracer sees it.
Span times are the thread's CPU time, like the benchmark's op latencies.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import thread_time

# The public names the per-layer metrics need. Helpers called once per inner
# loop iteration (is_perfect_square, QuadInt arithmetic, element_to_json) are
# left out: a span per call would cost more than the call, and their time
# shows as the self time of the function that loops.
TRACED = {
    "quadring": ("factorize", "is_square_free", "sqrt_in_ring"),
    "pellsolve": (
        "solve_norm_eq",
        "fundamental_unit",
        "enumerate_solutions",
        "check_pm2_unsolvable",
    ),
    "construct": (
        "construct_quadruple",
        "verify_quadruple",
        "scale_quadruple",
        "quadruple_from_json",
    ),
    "represent": ("certify_nonrepresentable",),
    "counterex": ("build_report", "report_to_json", "verify_report_doc"),
    "cli": ("main",),
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one Span per call of a traced function, nested by call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.raised: Counter[str] = Counter()
        self.op: int | None = None  # id of the benchmark op being run
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "quadtuple" or name.startswith("quadtuple.")
        ]
        for module, names in TRACED.items():
            home = sys.modules[f"quadtuple.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, raised = self.spans, self._stack, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.op, name, thread_time())
            spans.append(span)
            stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                span.end = thread_time()
                stack.pop()

        return traced


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(span.start, span.end, children[span.id])
        for span in spans
    }


def by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per traced name: number of calls and total self time in seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["self_s"] += selfs[span.id]
    return dict(out)

