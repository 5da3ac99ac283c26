"""Command-line front end.

Subcommands cover each pipeline stage: pell (norm-equation solving),
construct (quadruple construction), verify (pairwise checking), checkrepr
(difference-of-two-squares status), counterexamples (the full report
pipeline over the d-family).  JSON output is deterministic: fixed key
order, string-encoded integers.

main(argv) runs one command in this process and returns its exit code, so
a caller can run many without starting an interpreter for each. A
well-formed line of pell, construct, checkrepr or counterexamples is read
from a table that build_parser records as it declares each option; argparse
reads every other line (help, abbreviations, verify, and every usage error),
so its help and messages are the only ones printed.
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
    # what the run prints per member, kept until its summary is known: text
    # lines, or the reports of --format json without --out
    text, kept = args.format == "text", []
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
                    if text:
                        kept.append(f"alpha={cand.alpha} d={ctx.d} ineligible (not square-free)")
                    continue
                eligible += 1
                report = build_report(ctx, args.t)
                if fd is not None:
                    view = memoryview((json.dumps(report_to_json(report)) + "\n").encode())
                    written += len(view)
                    while view:
                        view = view[os.write(fd, view) :]
                if text:
                    kept.append(
                        f"alpha={cand.alpha} d={ctx.d} t={report.t} verified={report.verified}"
                    )
                elif fd is None:
                    kept.append(report_to_json(report))
                if report.verified:
                    verified += 1
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
    if text:
        kept.append(f"eligible={eligible} ineligible={ineligible} verified={verified}")
    doc: dict = {"summary": {"eligible": eligible, "ineligible": ineligible, "verified": verified}}
    if args.out is not None:
        doc["archive"] = args.out
    else:
        doc["reports"] = kept
    _emit(args, doc, kept)
    return EXIT_OK if verified == eligible else EXIT_FAIL


def _record(parser: argparse.ArgumentParser, *actions: argparse.Action, **defaults):
    """Set the parser's defaults, and return its actions as _read matches
    them: (defaults, {option string: action}, required dests)."""
    parser.set_defaults(**defaults)
    return (
        {**{a.dest: a.default for a in actions}, **defaults},
        {o: a for a in actions for o in a.option_strings},
        {a.dest for a in actions if a.required},
    )


@cache
def build_parser() -> tuple[argparse.ArgumentParser, tuple]:
    """The command's parser, and the table _read matches lines against,
    built once per process and shared by every main call: parse_args leaves
    no state on the parser.

    The table, (the top level's options, the subcommand's dest, {subcommand:
    its options}, {subcommand: its parser}), is recorded by _record from
    the actions add_argument returns; the parsers are the subparsers
    action's own choices. verify, whose positionals and --witness append
    _read cannot match, has a parser but no options there.
    """
    parser = argparse.ArgumentParser(
        prog="quadtuple",
        description="Diophantine quadruples with property D(n) in Z[sqrt(d)]: "
        "construction, verification, and counterexample reports.",
    )
    top = _record(parser, parser.add_argument("--format", choices=("text", "json"), default="text"))
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    ring = argparse.ArgumentParser(add_help=False)
    d = ring.add_argument("--d", type=int, required=True)

    p = sub.add_parser("pell", parents=[ring], help="solve x^2 - d*y^2 = N")
    norm = p.add_argument("--norm", type=int, required=True)
    limit = p.add_argument("--limit", type=int, default=8)
    commands["pell"] = _record(p, d, norm, limit, func=cmd_pell)

    p = sub.add_parser(
        "construct", parents=[ring], help="build a verified D((4m+2)+4k*sqrt(d)) quadruple"
    )
    m = p.add_argument("--m", type=int, required=True)
    k = p.add_argument("--k", type=int, required=True)
    unit_index = p.add_argument("--unit-index", type=int, default=0)
    factorization = p.add_argument("--factorization", choices=("first", "second"), default="first")
    commands["construct"] = _record(p, d, m, k, unit_index, factorization, func=cmd_construct)

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
    n = p.add_argument("--n", required=True, help="target n as 'a,b'")
    bound = p.add_argument("--bound", type=int, default=500)
    commands["checkrepr"] = _record(p, d, n, bound, func=cmd_checkrepr)

    p = sub.add_parser("counterexamples", help="reports over the d-family")
    alpha = p.add_argument("--alpha", required=True, help="range lo..hi")
    t = p.add_argument("--t", type=int, default=0)
    out = p.add_argument(
        "--out",
        help="rewrite this JSON-lines archive in place with exactly this run's "
        "reports; a run that fails while writing it leaves it empty. Each line "
        "is written as its report is built, so memory holds about one report; "
        "--format json without --out keeps every report until the end, as its "
        "summary comes first, so send large runs here. Text output serialises "
        "no report",
    )
    commands["counterexamples"] = _record(p, alpha, t, out, func=cmd_counterexamples)
    return parser, (top, sub.dest, commands, sub.choices)


def _store(argv: list, i: int, flags: dict, given: dict) -> int | None:
    """Store the values of argv's --flag VALUE and --flag=VALUE options from
    argv[i] on in given, by dest; the index of the first token that is not
    an option, or None at a token parse_args may read otherwise: a flag not
    in flags, a missing value, a separate value that starts with '-', '--'
    as the value, a value type or choices refuse, or a non-str token."""
    while i < len(argv):
        token = argv[i]
        if type(token) is not str:
            return None
        if token[:1] != "-":
            return i
        flag, eq, text = token.partition("=")
        action = flags.get(flag)
        if action is None:
            return None
        if not eq:
            i += 1
            if i == len(argv) or type(argv[i]) is not str or argv[i][:1] == "-":
                return None
            text = argv[i]
        elif text == "--":  # parse_args drops it and stores []
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
        i += 1
    return i


def _read(argv) -> argparse.Namespace | None:
    """The Namespace parse_args(argv) returns, read from build_parser()'s
    table; None for any argv it does not cover, which parse_args then reads
    itself: -h, abbreviations, verify, '--', a missing required option, and
    every token _store leaves to it."""
    top, dest, commands, _ = build_parser()[1]
    if not isinstance(argv, list):
        return None
    top_defaults, top_flags, top_required = top
    top_given, sub_given = {}, {}
    i = _store(argv, 0, top_flags, top_given)
    if i is None or i == len(argv) or argv[i] not in commands:
        return None
    name = argv[i]
    defaults, flags, required = commands[name]
    if (
        _store(argv, i + 1, flags, sub_given) != len(argv)
        or not top_required <= top_given.keys()
        or not required <= sub_given.keys()
    ):
        return None
    return argparse.Namespace(**{**top_defaults, **top_given, dest: name, **defaults, **sub_given})


def main(argv=None) -> int:
    """Run one quadtuple command in this process and return its exit code.

    argv is the command line without the program name (sys.argv[1:] when
    None). A well-formed line of pell, construct, checkrepr or
    counterexamples is read from the table build_parser records as it
    declares each option, into the Namespace parse_args would return;
    argparse reads every other line, so it alone handles help,
    abbreviations, verify and every usage error.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        parser, (top, _, _, parsers) = build_parser()
        try:
            args = parser.parse_args(argv)
            # parse_args stores the value '--' of --n=-- as [], and appends []
            # for --witness=--; every command reads a str there.  The parser
            # that owns the option refuses it, as it refuses --n --
            for dest, value in vars(args).items():
                if value == [] or isinstance(value, list) and [] in value:
                    owner = parser if dest in top[0] else parsers[args.command]
                    owner.error(f"argument --{dest.replace('_', '-')}: expected one argument")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`); stdout is pointed at
        # devnull, so the interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS if isinstance(exc, ParityError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
