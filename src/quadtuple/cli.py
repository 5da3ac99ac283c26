"""Command-line front end.

Subcommands cover each pipeline stage: pell (norm-equation solving),
construct (quadruple construction), verify (pairwise checking), checkrepr
(difference-of-two-squares status), counterexamples (the full report
pipeline over the d-family).  JSON output is deterministic: fixed key
order, string-encoded integers.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
from functools import cache

from .construct import (
    ParityError,
    Quadruple,
    WITNESS_KEYS,
    construct_quadruple,
    quadruple_to_json,
    verify_quadruple,
)
from .counterex import (
    T_CAP_DEFAULT,
    build_report,
    enumerate_counterexample_rings,
    report_to_json,
)
from .pellsolve import LIMIT_CAP, enumerate_solutions, solve_norm_eq
from .quadring import RingCtx, element_to_json, parse_element
from .represent import (
    BOUND_CAP,
    certificate_to_json,
    certify_nonrepresentable,
    search_repr,
)

EXIT_OK = 0
EXIT_FAIL = 1  # disproved / representation found / verification failed
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3  # also: norm equation unsolvable
EXIT_HYPOTHESIS = 5  # m + k odd


def _emit(args, doc: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)


def cmd_pell(args) -> int:
    if not 1 <= args.limit <= LIMIT_CAP:
        raise ValueError(f"limit must be in [1, {LIMIT_CAP}], got {args.limit}")
    ctx = RingCtx(args.d)
    classes = solve_norm_eq(ctx, args.norm)
    solvable = bool(classes.representatives)
    solutions = enumerate_solutions(classes, args.limit) if solvable else []
    doc = {
        "d": str(ctx.d),
        "norm": str(args.norm),
        "solvable": solvable,
        "fundamental_unit": {"x": str(classes.unit.a), "y": str(classes.unit.b)},
        "representatives": [element_to_json(r) for r in classes.representatives],
        "solutions": [element_to_json(s) for s in solutions],
    }
    lines = [f"d = {ctx.d}", f"fundamental unit: {classes.unit}"]
    if solvable:
        lines.append("representatives: " + " ".join(map(str, classes.representatives)))
        lines.append(f"first {len(solutions)} solutions: " + " ".join(map(str, solutions)))
    else:
        lines.append(f"x^2 - {ctx.d}*y^2 = {args.norm} has no integer solutions")
    _emit(args, doc, lines)
    return EXIT_OK if solvable else EXIT_INCONCLUSIVE


def cmd_construct(args) -> int:
    ctx = RingCtx(args.d)
    quad, trace = construct_quadruple(
        ctx, args.m, args.k, args.unit_index, args.factorization
    )
    if not verify_quadruple(ctx, quad).ok:  # construction guarantees this
        print("internal error: constructed quadruple failed verification", file=sys.stderr)
        return EXIT_FAIL
    doc = quadruple_to_json(quad)
    doc["trace"] = {
        "gamma_delta": element_to_json(trace.gamma_delta),
        "factorization_choice": args.factorization,
        "alpha1": element_to_json(trace.alpha1),
        "alpha2": element_to_json(trace.alpha2),
        "unit_a": element_to_json(trace.unit_a),
        "r": element_to_json(trace.r),
        "b": element_to_json(trace.b),
        "alpha_sym": element_to_json(trace.alpha_sym),
        "unit_index": trace.unit_index,
    }
    doc["verified"] = True
    lines = [
        f"d = {ctx.d}",
        f"n = {quad.n}",
        "elements: " + " ".join(map(str, quad.elements)),
        "witnesses: "
        + " ".join(f"{i}{j}={quad.witnesses[(i, j)]}" for (i, j) in sorted(quad.witnesses)),
        f"unit index used: {trace.unit_index}",
        "verified: all six pairwise products plus n are squares",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _parse_witnesses(items, ctx):
    witnesses = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or key not in WITNESS_KEYS:
            raise ValueError(f"malformed witness {item!r}: expected e.g. 12=a,b")
        if WITNESS_KEYS[key] in witnesses:
            raise ValueError(f"witness {key} given more than once")
        witnesses[WITNESS_KEYS[key]] = parse_element(value, ctx)
    return witnesses


def cmd_verify(args) -> int:
    ctx = RingCtx(args.d)
    n = parse_element(args.n, ctx)
    elements = tuple(parse_element(e, ctx) for e in args.elements)
    witnesses = _parse_witnesses(args.witness or [], ctx)
    report = verify_quadruple(ctx, Quadruple(elements, n, witnesses))
    doc = {
        "d": str(ctx.d),
        "n": element_to_json(n),
        "pairs": [
            {
                "pair": f"{p.i}{p.j}",
                "witness_ok": p.witness_ok,
                "root": element_to_json(p.root) if p.root is not None else None,
                "ok": p.ok,
            }
            for p in report.pairs
        ],
        "distinct": report.distinct,
        "ok": report.ok,
    }
    lines = []
    for p in report.pairs:
        root = p.root if p.root is not None else "none"
        wit = {None: "-", True: "ok", False: "BAD"}[p.witness_ok]
        lines.append(
            f"pair {p.i}{p.j}: {'pass' if p.ok else 'FAIL'}  root={root}  witness={wit}"
        )
    if not report.distinct:
        lines.append("elements are not nonzero and pairwise distinct")
    lines.append("all pairs pass" if report.ok else "verification failed")
    _emit(args, doc, lines)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_checkrepr(args) -> int:
    if not 1 <= args.bound <= BOUND_CAP:
        raise ValueError(f"bound must be in [1, {BOUND_CAP}], got {args.bound}")
    ctx = RingCtx(args.d)
    n = parse_element(args.n, ctx)
    certificate = certify_nonrepresentable(n)
    if certificate is not None:
        doc = {"certified": True, "certificate": certificate_to_json(certificate)}
        lines = [
            f"n = {n} is certified not a difference of two squares",
            f"u = {certificate.u} has norm 1; d = {ctx.d} = 15 (mod 60); "
            f"-6 = N({certificate.minus6}); +-2 unattained",
        ]
        _emit(args, doc, lines)
        return EXIT_OK
    found = search_repr(n, args.bound)
    if found is not None:
        p, q = found
        doc = {
            "certified": False,
            "found": {"p": element_to_json(p), "q": element_to_json(q)},
            "bound": args.bound,
        }
        lines = [f"n = {n} = ({p})^2 - ({q})^2"]
        _emit(args, doc, lines)
        return EXIT_FAIL
    doc = {"certified": False, "found": None, "bound": args.bound}
    _emit(args, doc, [f"no representation with coordinates up to {args.bound}; inconclusive"])
    return EXIT_INCONCLUSIVE


_RANGE_RE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")


def cmd_counterexamples(args) -> int:
    m = _RANGE_RE.fullmatch(args.alpha)
    if m is None:
        raise ValueError(f"malformed range {args.alpha!r}: expected lo..hi")
    lo, hi = int(m.group(1)), int(m.group(2))
    if not 0 <= args.t <= T_CAP_DEFAULT:
        raise ValueError(f"t must be in [0, {T_CAP_DEFAULT}], got {args.t}")
    candidates = enumerate_counterexample_rings(lo, hi)
    reports, lines = [], []
    eligible = ineligible = verified = 0
    # Opened before any report is built, so a bad path fails before any work,
    # and without O_TRUNC: a regular file is rewritten in place and cut to
    # this run's bytes, so the filesystem does not free and reallocate its
    # blocks. Each report is serialised once, where it is written: its line
    # goes to the archive as soon as it is built, and text mode serialises
    # none. Only the archive does I/O here, so any OSError is the archive's.
    try:
        fd = None if args.out is None else os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
        # the archive is cut to size, set only once every line is written, so
        # a run that fails or is interrupted keeps no bytes
        written = size = 0
        try:
            for cand in candidates:
                ctx = cand.ctx
                if not ctx.square_free:
                    ineligible += 1
                    lines.append(f"alpha={cand.alpha} d={ctx.d} ineligible (not square-free)")
                    continue
                eligible += 1
                report = build_report(ctx, args.t)
                if fd is not None:
                    view = memoryview((json.dumps(report_to_json(report)) + "\n").encode())
                    written += len(view)
                    while view:
                        view = view[os.write(fd, view) :]
                elif args.format == "json":
                    reports.append(report_to_json(report))
                if report.verified:
                    verified += 1
                lines.append(
                    f"alpha={cand.alpha} d={ctx.d} t={report.t} verified={report.verified}"
                )
            size = written
        finally:
            if fd is not None:
                try:
                    if stat.S_ISREG(os.fstat(fd).st_mode):
                        os.ftruncate(fd, size)
                finally:
                    os.close(fd)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    lines.append(f"eligible={eligible} ineligible={ineligible} verified={verified}")
    doc: dict = {"summary": {"eligible": eligible, "ineligible": ineligible, "verified": verified}}
    if args.out is not None:
        doc["archive"] = args.out
    else:
        doc["reports"] = reports
    _emit(args, doc, lines)
    return EXIT_OK if verified == eligible else EXIT_FAIL


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process and shared by every
    main call: parse_args leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="quadtuple",
        description="Diophantine quadruples with property D(n) in Z[sqrt(d)]: "
        "construction, verification, and counterexample reports.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    ring = argparse.ArgumentParser(add_help=False)
    ring.add_argument("--d", type=int, required=True)

    p = sub.add_parser("pell", parents=[ring], help="solve x^2 - d*y^2 = N")
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--limit", type=int, default=8)
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser(
        "construct", parents=[ring], help="build a verified D((4m+2)+4k*sqrt(d)) quadruple"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--unit-index", type=int, default=0)
    p.add_argument("--factorization", choices=("first", "second"), default="first")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "verify",
        parents=[ring],
        help="check the six pairwise products of a quadruple",
        epilog="Elements with a leading minus need '--' first, e.g. "
        "verify --d 15 --n 2,0 -- -4,-1 8,-2 8,-1 28,-7; "
        "negative --n values need the '=' form (--n=-2,0).",
    )
    p.add_argument("--n", required=True, help="target n as 'a,b'")
    p.add_argument("elements", nargs=4, metavar="a,b", help="the four elements")
    p.add_argument("--witness", action="append", metavar="IJ=a,b")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("checkrepr", parents=[ring], help="difference-of-two-squares status of n")
    p.add_argument("--n", required=True, help="target n as 'a,b'")
    p.add_argument("--bound", type=int, default=500)
    p.set_defaults(func=cmd_checkrepr)

    p = sub.add_parser("counterexamples", help="reports over the d-family")
    p.add_argument("--alpha", required=True, help="range lo..hi")
    p.add_argument("--t", type=int, default=0)
    p.add_argument(
        "--out",
        help="rewrite this JSON-lines archive in place with exactly this run's "
        "reports; a run that fails after opening it leaves it empty. Each line "
        "is written as its report is built, so memory holds about one report; "
        "--format json without --out keeps every report until the end, as its "
        "summary comes first, so send large runs here. Text output serialises "
        "no report",
    )
    p.set_defaults(func=cmd_counterexamples)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS if isinstance(exc, ParityError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
