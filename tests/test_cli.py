from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadtuple.cli
import quadtuple.construct
import quadtuple.counterex
import quadtuple.pellsolve
import quadtuple.quadring
from quadtuple import SCAN_CAP, verify_report_doc
from quadtuple.cli import main
from support import child_env, run_python


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# pell


def test_pell_solvable(capsys):
    code, out, _ = run(capsys, "--format", "json", "pell", "--d", "15", "--norm", "-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["solvable"] is True
    assert doc["fundamental_unit"] == {"x": "4", "y": "1"}
    assert {"a": "3", "b": "1"} in doc["representatives"]


def test_pell_unsolvable_exits_3(capsys):
    code, out, _ = run(capsys, "--format", "json", "pell", "--d", "15", "--norm", "2")
    assert code == 3
    assert json.loads(out)["solvable"] is False


def test_pell_perfect_square_usage_error(capsys):
    code, _, err = run(capsys, "pell", "--d", "16", "--norm", "1")
    assert code == 2
    assert "perfect square" in err


@pytest.mark.parametrize(
    "argv, flagged_code",
    [
        pytest.param(["pell", "--d", "45", "--norm", "1"], 0, id="pell"),
        # 45 is not 15 mod 60, a usage error once the ring is let through
        pytest.param(["construct", "--d", "45", "--m", "0", "--k", "0"], 2, id="construct"),
        pytest.param(
            ["verify", "--d", "45", "--n", "2,0", "1,0", "2,0", "3,0", "4,0"], 1, id="verify"
        ),
        pytest.param(["checkrepr", "--d", "45", "--n", "2,0", "--bound", "20"], 3, id="checkrepr"),
    ],
)
def test_pell_nonsquarefree_gate(capsys, argv, flagged_code):
    # no gate: a d with a square factor runs like any other ring
    code, out, err = run(capsys, *argv)
    assert code == flagged_code
    if argv[0] == "construct":  # refused for its residue, not for its square factor
        assert (out, err) == ("", "error: d = 45 is not 15 mod 60\n")
    else:
        assert out != ""
    assert not re.search(r"^error: .*square-free", err, re.M)
    code, out, err = run(capsys, *argv, "--allow-nonsquarefree")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --allow-nonsquarefree" in err


# nextprime(3 * 10**14) * nextprime(2 * 10**15), 49 (mod 60): a 30-digit
# semiprime whose square-free test needs Brent's rho for seconds
SEMIPRIME_D = "600000000000184300000000001869"


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["pell", "--norm", "1"], (2, "cap of 10000 steps"), id="period_cap"),
        pytest.param(["pell", "--norm", "10000000"], (2, "exceeds the search cap"), id="norm_cap"),
        pytest.param(["verify", "--n", "2,0", "1,0", "2,0", "3,0", "4,0"], (1, ""), id="verify"),
        pytest.param(["construct", "--m", "0", "--k", "0"], (2, "is not 15 mod 60"), id="construct"),
        pytest.param(["checkrepr", "--n", "2,0", "--bound", "20"], (3, ""), id="checkrepr"),
    ],
)
def test_ring_commands_do_not_test_square_freeness(capsys, monkeypatch, argv, expected):
    def forbidden(n):
        raise AssertionError(f"is_square_free({n}) called")

    monkeypatch.setattr(quadtuple.quadring, "is_square_free", forbidden)
    start = time.process_time()
    code, _, err = run(capsys, argv[0], "--d", SEMIPRIME_D, *argv[1:])
    assert time.process_time() - start < 0.5
    assert code == expected[0]
    assert expected[1] in err


def test_pell_bad_flags(capsys, monkeypatch):
    code, _, _ = run(capsys, "pell", "--d", "notanint", "--norm", "1")
    assert code == 2
    code, _, _ = run(capsys, "pell", "--d", "15")
    assert code == 2

    def forbidden(*args, **kwargs):
        raise AssertionError("pell solved before checking --limit")

    # --limit is checked before the solver, whether or not the norm is attained
    monkeypatch.setattr(quadtuple.cli, "solve_norm_eq", forbidden)
    for d in ("15", "195"):
        for limit in ("0", "1001", "1000000"):
            code, out, err = run(capsys, "pell", "--d", d, "--norm", "-6", "--limit", limit)
            assert (code, out) == (2, "")
            assert f"limit must be in [1, 1000], got {limit}" in err


@pytest.mark.parametrize(
    "exc, expected",
    [
        (quadtuple.construct.ParityError("m + k is odd"), 5),
        (quadtuple.quadring.MixedRingError("mixing rings"), 2),
        (ValueError("bad value"), 2),
    ],
)
def test_main_maps_each_value_error_to_its_exit_code(capsys, monkeypatch, exc, expected):
    # ParityError is the one ValueError with its own code; every other
    # ValueError, MixedRingError among them, is a usage error
    def refusing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(quadtuple.cli, "solve_norm_eq", refusing)
    code, out, err = run(capsys, "pell", "--d", "15", "--norm", "-6")
    assert (code, out, err) == (expected, "", f"error: {exc}\n")


def test_main_lets_other_exceptions_propagate(monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("not a refusal")

    monkeypatch.setattr(quadtuple.cli, "solve_norm_eq", failing)
    with pytest.raises(RuntimeError, match="not a refusal"):
        main(["pell", "--d", "15", "--norm", "-6"])


def test_pell_735_example(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "pell", "--d", "735", "--norm", "-6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fundamental_unit"] == {"x": "244", "y": "9"}
    assert {"a": "27", "b": "1"} in doc["representatives"]


# ---------------------------------------------------------------------------
# construct


def test_construct_base(capsys):
    code, out, _ = run(capsys, "--format", "json", "construct", "--d", "15", "--m", "0", "--k", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["n"] == {"a": "2", "b": "0"}
    assert doc["elements"] == [
        {"a": "4", "b": "1"},
        {"a": "8", "b": "-2"},
        {"a": "8", "b": "-1"},
        {"a": "28", "b": "-7"},
    ]
    assert doc["trace"]["gamma_delta"] == {"a": "3", "b": "1"}


def test_construct_d10_golden(capsys):
    code, out, _ = run(capsys, "--format", "json", "construct", "--d", "15", "--m", "2", "--k", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == {"a": "10", "b": "0"}
    assert doc["elements"] == [
        {"a": "4", "b": "1"},
        {"a": "-6", "b": "2"},
        {"a": "0", "b": "5"},
        {"a": "-16", "b": "13"},
    ]
    assert doc["verified"] is True


def test_construct_odd_parity_exits_5(capsys):
    code, _, err = run(capsys, "construct", "--d", "15", "--m", "1", "--k", "0")
    assert code == 5
    assert "odd" in err


def test_construct_self_check_failure_exits_1(capsys, monkeypatch):
    # no quadruple the construction builds fails its check, so only a broken
    # check reaches this exit
    failed = quadtuple.construct.VerifyReport(pairs=(), distinct=True, ok=False)
    monkeypatch.setattr(quadtuple.cli, "verify_quadruple", lambda ctx, quad: failed)
    code, out, err = run(capsys, "construct", "--d", "15", "--m", "0", "--k", "0")
    assert (code, out) == (1, "")
    assert err == "internal error: constructed quadruple failed verification\n"


def test_construct_unit_index_cap_exits_2(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("construct solved before checking --unit-index")

    monkeypatch.setattr(quadtuple.pellsolve, "norm6_witness", forbidden)
    for index in ("-1", "2001", "1000000000"):
        code, out, err = run(
            capsys, "construct", "--d", "15", "--m", "0", "--k", "0", "--unit-index", index
        )
        assert (code, out) == (2, "")
        assert f"unit_index must be in [0, 2000], got {index}" in err


def test_construct_skips_a_degenerate_unit(capsys):
    argv = ("--format", "json", "construct", "--d", "15", "--m", "4", "--k", "-2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"]["unit_index"] == 1
    assert doc["verified"] is True


def test_construct_json_is_deterministic(capsys):
    argv = ("--format", "json", "construct", "--d", "15", "--m", "4", "--k", "-2")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# verify


GOLDEN = ["4,1", "8,-2", "8,-1", "28,-7"]


def test_verify_golden_passes(capsys):
    code, out, _ = run(capsys, "verify", "--d", "15", "--n", "2,0", *GOLDEN)
    assert code == 0
    assert "all pairs pass" in out


def test_verify_with_witnesses(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "verify", "--d", "15", "--n", "2,0",
        "--witness", "12=-2,0", "--witness", "14=-3,0",
        *GOLDEN,
    )
    assert code == 0
    doc = json.loads(out)
    by_pair = {p["pair"]: p for p in doc["pairs"]}
    assert by_pair["12"]["witness_ok"] is True
    assert by_pair["13"]["witness_ok"] is None
    assert doc["ok"] is True


def test_verify_negated_element_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--d", "15", "--n", "2,0", "--", "-4,-1", *GOLDEN[1:])
    assert code == 1
    assert "verification failed" in out


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--n", "1,0", "0,0", "0,0", "0,0", "0,0"], id="zero"),
        pytest.param(["--n", "0,0", "1,0", "1,0", "4,0", "9,0"], id="repeated"),
    ],
)
def test_verify_degenerate_set_exits_1(capsys, argv):
    # every product plus n is a square, but a D(n) quadruple needs four
    # nonzero, pairwise distinct elements
    code, out, _ = run(capsys, "verify", "--d", "15", *argv)
    assert code == 1
    assert out.splitlines()[-2:] == [
        "elements are not nonzero and pairwise distinct",
        "verification failed",
    ]
    assert all(line.startswith("pair") and " pass " in line for line in out.splitlines()[:6])
    code, out, _ = run(capsys, "--format", "json", "verify", "--d", "15", *argv)
    assert code == 1
    doc = json.loads(out)
    assert all(p["ok"] for p in doc["pairs"])
    assert list(doc)[-2:] == ["distinct", "ok"]
    assert (doc["distinct"], doc["ok"]) == (False, False)


def test_verify_malformed_element_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--d", "15", "--n", "2,0", "x,y", *GOLDEN[1:])
    assert code == 2
    assert "malformed" in err


def test_verify_bad_witness_key(capsys):
    code, _, err = run(
        capsys, "verify", "--d", "15", "--n", "2,0", "--witness", "21=1,0", *GOLDEN
    )
    assert code == 2
    # an item with no "=" is named whole, not by its empty value
    code, out, err = run(capsys, "verify", "--d", "15", "--n", "2,0", "--witness", "12", *GOLDEN)
    assert (code, out) == (2, "")
    assert "malformed witness '12'" in err


def test_verify_repeated_witness_key_exits_2(capsys):
    # a second 12 would silently replace the correct first one
    code, out, err = run(
        capsys, "verify", "--d", "15", "--n", "2,0",
        "--witness", "12=-2,0", "--witness", "12=5,5", *GOLDEN,
    )
    assert (code, out) == (2, "")
    assert "12 given more than once" in err


# ---------------------------------------------------------------------------
# checkrepr


def test_checkrepr_certified(capsys):
    code, out, _ = run(capsys, "--format", "json", "checkrepr", "--d", "15", "--n", "2,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["certificate"]["u"] == {"a": "1", "b": "0"}
    assert doc["certificate"]["minus6"] == {"a": "3", "b": "1"}


@pytest.mark.parametrize("d", ["735", "3975"])
def test_checkrepr_nonsquarefree_not_certified(capsys, d):
    # -6 is a norm in both rings, but d has a square factor
    code, out, _ = run(
        capsys, "--format", "json", "checkrepr", "--d", d, "--n", "2,0", "--bound", "20",
    )
    assert code == 3
    assert json.loads(out)["certified"] is False


def test_checkrepr_found(capsys):
    code, out, _ = run(capsys, "--format", "json", "checkrepr", "--d", "15", "--n", "3,0")
    assert code == 1
    doc = json.loads(out)
    assert doc["found"] == {"p": {"a": "2", "b": "0"}, "q": {"a": "1", "b": "0"}}


def test_checkrepr_6_4_golden(capsys):
    # u = (3, 2) has norm -51, so no certificate; the search finds a pair
    code, out, _ = run(
        capsys, "--format", "json", "checkrepr", "--d", "15", "--n", "6,4", "--bound", "50"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["found"] == {"p": {"a": "5", "b": "0"}, "q": {"a": "2", "b": "-1"}}


def test_checkrepr_inconclusive(capsys):
    # (2, 2) is outside every certified shape and has no small representation
    code, out, _ = run(
        capsys, "--format", "json", "checkrepr", "--d", "15", "--n", "2,2", "--bound", "8"
    )
    assert code == 3
    assert json.loads(out)["found"] is None


@pytest.mark.parametrize("n", ["2,0", "3,0"])  # certified, and found by the search
def test_checkrepr_bad_bound_exits_2(capsys, monkeypatch, n):
    def forbidden(*args, **kwargs):
        raise AssertionError("checkrepr worked before checking --bound")

    # --bound is checked before the certificate and the search, whatever n is
    monkeypatch.setattr(quadtuple.cli, "certify_nonrepresentable", forbidden)
    monkeypatch.setattr(quadtuple.cli, "search_repr", forbidden)
    for bound in ("0", "-5", "2001"):
        code, out, err = run(capsys, "checkrepr", "--d", "15", "--n", n, "--bound", bound)
        assert (code, out) == (2, "")
        assert f"bound must be in [1, 2000], got {bound}" in err


def test_checkrepr_malformed_n(capsys):
    code, _, _ = run(capsys, "checkrepr", "--d", "15", "--n", "2;0")
    assert code == 2


# ---------------------------------------------------------------------------
# counterexamples


def test_counterexamples_single(capsys):
    code, out, _ = run(capsys, "--format", "json", "counterexamples", "--alpha", "0..0", "--t", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"eligible": 1, "ineligible": 0, "verified": 1}
    assert len(doc["reports"]) == 1
    assert verify_report_doc(doc["reports"][0])


def test_counterexamples_range_with_ineligible(capsys, tmp_path):
    out_path = tmp_path / "reports.jsonl"
    code, out, _ = run(
        capsys,
        "--format", "json",
        "counterexamples", "--alpha", "0..3", "--t", "1", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"eligible": 3, "ineligible": 1, "verified": 3}
    assert doc["archive"] == str(out_path)
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        report = json.loads(line)
        assert report["verified"] is True
        assert verify_report_doc(report)
    assert [json.loads(line)["d"] for line in lines] == ["15", "15135", "33495"]


def test_counterexamples_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "counterexamples", "--alpha", "5..1")
    assert code == 2
    code, _, err = run(capsys, "counterexamples", "--alpha", "0-3")
    assert code == 2
    code, out, _ = run(capsys, "counterexamples", "--alpha", "0..1\n")
    assert (code, out) == (2, "")


def test_counterexamples_bad_range_opens_no_archive(capsys, tmp_path):
    # the candidates are built lazily, but the range is still refused before
    # --out is opened
    path = tmp_path / "archive.jsonl"
    for alpha in ("5..1", "0..100000"):
        code, out, err = run(capsys, "counterexamples", "--alpha", alpha, "--out", str(path))
        assert (code, out) == (2, "")
        assert not path.exists(), alpha


def test_counterexamples_negative_t_exits_2(capsys):
    code, _, _ = run(capsys, "counterexamples", "--alpha", "0..0", "--t", "-1")
    assert code == 2
    # the cap holds before any ring is looked at, even if none is eligible
    for alpha in ("0..0", "1..1"):
        code, _, _ = run(capsys, "counterexamples", "--alpha", alpha, "--t", "5000")
        assert code == 2


def test_counterexamples_alpha_span_cap_exits_2(capsys, monkeypatch):
    def forbidden(alpha):
        raise AssertionError("a ring was built before the span was checked")

    monkeypatch.setattr(quadtuple.counterex, "family_d", forbidden)
    code, out, err = run(capsys, "counterexamples", "--alpha", "0..100000000")
    assert (code, out) == (2, "")
    assert "over the cap 100000" in err


def test_period_cap_exits_2(capsys):
    # sqrt(10000000019) has a continued-fraction period far past PERIOD_CAP
    code, out, err = run(capsys, "pell", "--d", "10000000019", "--norm", "1")
    assert (code, out) == (2, "")
    assert f"cap of {quadtuple.pellsolve.PERIOD_CAP} steps" in err


def test_radicand_cap_exits_2(capsys):
    code, out, err = run(capsys, "pell", "--d", "1000000000000000000000000000015", "--norm", "-6")
    assert (code, out) == (2, "")
    assert "cap" in err
    # d = 360 * (10 * alpha^2 + alpha) + 15 is about 1.44 * 10**30 here
    code, out, err = run(capsys, "counterexamples", "--alpha", "20000000000000..20000000000000")
    assert (code, out) == (2, "")
    assert "cap" in err


@pytest.mark.parametrize("where", ["directory", "missing_parent", "empty"])
def test_counterexamples_unwritable_out_exits_2(capsys, monkeypatch, tmp_path, where):
    def forbidden(ctx, t):
        raise AssertionError("a report was built before --out was opened")

    monkeypatch.setattr(quadtuple.cli, "build_report", forbidden)
    # an empty path is a path that cannot be opened, not a missing --out
    path, errno_ = {
        "directory": (str(tmp_path), errno.EISDIR),
        "missing_parent": (str(tmp_path / "missing" / "reports.jsonl"), errno.ENOENT),
        "empty": ("", errno.ENOENT),
    }[where]
    code, out, err = run(capsys, "counterexamples", "--alpha", "0..3", "--out", path)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {path!r}: {os.strerror(errno_)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_counterexamples_failed_archive_write_exits_2(capsys):
    # /dev/full opens, then refuses the write with ENOSPC
    code, out, err = run(capsys, "counterexamples", "--alpha", "0..0", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: cannot write --out '/dev/full': No space left on device\n"


def test_counterexamples_out_replaces_a_longer_archive(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "counterexamples", "--alpha", "0..3", "--t", "1")
    assert code == 0
    expected = "".join(json.dumps(r) + "\n" for r in json.loads(out)["reports"]).encode()
    path = tmp_path / "reports.jsonl"
    path.write_bytes(b"a previous run's line\n" * (len(expected) // 10))
    code, _, _ = run(capsys, "counterexamples", "--alpha", "0..3", "--t", "1", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == expected


def test_counterexamples_failed_run_empties_the_archive(capsys, monkeypatch, tmp_path):
    def broken(ctx, t):
        raise ValueError("no report")

    monkeypatch.setattr(quadtuple.cli, "build_report", broken)
    path = tmp_path / "reports.jsonl"
    path.write_text("a previous run's line\n")
    code, out, err = run(capsys, "counterexamples", "--alpha", "0..0", "--out", str(path))
    assert (code, out, err) == (2, "", "error: no report\n")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
def test_counterexamples_failure_after_a_written_line_empties_the_archive(
    capsys, monkeypatch, tmp_path, exc
):
    path = tmp_path / "reports.jsonl"
    path.write_text("a previous run's line\n" * 200)
    real_open, real_close, real_build = os.open, os.close, quadtuple.cli.build_report
    opened, closed, built = [], [], []

    def spy_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def spy_close(fd):
        closed.append(fd)
        real_close(fd)

    def fails_second(ctx, t):
        built.append(ctx.d)
        if len(built) == 2:
            # alpha = 0's line is already on disk, ahead of the old bytes
            assert path.read_bytes().startswith(b'{"d": "15"')
            raise exc("no report")
        return real_build(ctx, t)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "close", spy_close)
    monkeypatch.setattr(quadtuple.cli, "build_report", fails_second)
    argv = ("counterexamples", "--alpha", "0..2", "--t", "1", "--out", str(path))
    if exc is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(list(argv))
    else:
        assert run(capsys, *argv) == (2, "", "error: no report\n")
    assert built == [15, 15135]  # alpha = 1 is not square-free
    assert path.read_bytes() == b""
    assert closed == opened and len(opened) == 1


def test_counterexamples_out_writes_each_line_before_the_next_report_is_built(
    capsys, monkeypatch, tmp_path
):
    written = []  # bytes written after each build, one entry per report
    real_write, real_build = os.write, quadtuple.cli.build_report

    def spy_write(fd, data):
        n = real_write(fd, data)
        written[-1] += n
        return n

    def spy_build(ctx, t):
        written.append(0)
        return real_build(ctx, t)

    monkeypatch.setattr(os, "write", spy_write)
    monkeypatch.setattr(quadtuple.cli, "build_report", spy_build)
    path = tmp_path / "reports.jsonl"
    code, _, _ = run(capsys, "counterexamples", "--alpha", "0..3", "--t", "1", "--out", str(path))
    assert code == 0
    # the bytes written between one build and the next are that report's line
    lines = path.read_bytes().splitlines(keepends=True)
    assert written == [len(line) for line in lines]
    assert len(lines) == 3


def test_counterexamples_text_output_serialises_no_report(capsys, monkeypatch):
    def forbidden(report):
        raise AssertionError("text output serialised a report")

    monkeypatch.setattr(quadtuple.cli, "report_to_json", forbidden)
    code, out, _ = run(capsys, "counterexamples", "--alpha", "0..3", "--t", "1")
    assert code == 0
    assert out.splitlines()[-1] == "eligible=3 ineligible=1 verified=3"


def test_counterexamples_text_output_prints_a_report_json_cannot_hold(capsys):
    # at t = 1000 the report's integers pass Python's 4300-digit str limit,
    # which only serialising it would meet
    code, out, err = run(capsys, "counterexamples", "--alpha", "2..2", "--t", "1000")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "alpha=2 d=15135 t=1000 verified=True",
        "eligible=1 ineligible=0 verified=1",
    ]


def test_counterexamples_out_holds_about_one_report_in_memory(capsys, tmp_path):
    # the archive is written line by line, so the traced peak stays a small
    # share of it; building the whole archive in memory first would need
    # several times its size
    path = tmp_path / "reports.jsonl"
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "counterexamples", "--alpha", "0..39", "--t", "200", "--out", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    size = path.stat().st_size
    assert peak < size / 2, f"traced peak {peak} B for a {size} B archive"


def test_counterexamples_out_keeps_nothing_per_ring(capsys, tmp_path):
    # a family walk leaves no ring's state behind once it returns, and under
    # JSON output with --out holds nothing per member at its peak, since it
    # prints neither text lines nor reports; an unbounded unit memo kept
    # about 360 B per ring, which a short walk at a large t hides, and text
    # lines kept for nothing about 100 B per member.  A full collection
    # empties CPython's free lists, whose freed tuples tracemalloc still
    # counts, so each run starts from, and is read against, the same floor;
    # during a run they grow by about 55 B per member, up to their own cap.
    path = tmp_path / "reports.jsonl"
    argv = ("--format", "json", "counterexamples", "--out", str(path), "--alpha")
    assert run(capsys, *argv, "0..0")[0] == 0
    sizes = {}
    for span, members in (("0..399", 400), ("0..1599", 1600)):
        gc.collect()
        tracemalloc.start()
        try:
            code = run(capsys, *argv, span)[0]
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            sizes[members] = tracemalloc.get_traced_memory()[0], peak
        finally:
            tracemalloc.stop()
        assert code == 0
    (current_lo, peak_lo), (current_hi, peak_hi) = sizes[400], sizes[1600]
    assert current_hi - current_lo < 64 * 1024, f"{current_lo} B held, then {current_hi} B"
    per_member = (peak_hi - peak_lo) / 1200
    assert per_member < 100, f"the peak grows by {per_member:.0f} B per member"


def test_commands_on_one_ring_share_its_unit(capsys):
    # the unit memo holds one ring, which is what consecutive commands on one
    # d reuse: pell computes the unit, and construct and checkrepr hit it,
    # once each, as each reads gamma and the unit off one norm6_witness
    unit = quadtuple.pellsolve.fundamental_unit
    unit.cache_clear()
    for argv in (
        ("pell", "--d", "1095", "--norm=-6"),
        ("construct", "--d", "1095", "--m", "0", "--k", "0"),
        ("checkrepr", "--d", "1095", "--n=2,0"),
    ):
        assert run(capsys, *argv)[0] == 0
    info = unit.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_counterexamples_out_to_dev_null_exits_0(capsys):
    code, _, err = run(capsys, "counterexamples", "--alpha", "0..1", "--t", "1", "--out", "/dev/null")
    assert (code, err) == (0, "")


def test_counterexamples_new_archive_gets_the_open_w_mode(capsys, tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        code, _, _ = run(capsys, "counterexamples", "--alpha", "0..0", "--out", str(tmp_path / "new"))
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_counterexamples_rewrites_the_archive_without_truncating_it(capsys, monkeypatch, tmp_path):
    # truncate-then-rewrite makes the filesystem free the archive's blocks and
    # allocate them again; an in-place rewrite cut once to its length does not
    opens, truncates = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *args, **kwargs):
        opens.append((path, flags))
        return real_open(path, flags, *args, **kwargs)

    def spy_ftruncate(fd, length):
        truncates.append(length)
        return real_ftruncate(fd, length)

    path = tmp_path / "reports.jsonl"
    path.write_text("a previous run's line\n" * 200)
    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    code, _, _ = run(capsys, "counterexamples", "--alpha", "0..0", "--t", "1", "--out", str(path))
    assert code == 0
    assert [p for p, _ in opens] == [str(path)]
    assert not any(flags & os.O_TRUNC for _, flags in opens)
    assert truncates == [path.stat().st_size]
    assert verify_report_doc(json.loads(path.read_text()))


def test_counterexamples_failed_truncate_exits_2(capsys, monkeypatch, tmp_path):
    def failing(fd, length):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "ftruncate", failing)
    path = str(tmp_path / "reports.jsonl")
    code, out, err = run(capsys, "counterexamples", "--alpha", "0..0", "--out", path)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {path!r}: {os.strerror(errno.EIO)}\n"


def test_counterexamples_unverified_report_exits_1(capsys, monkeypatch):
    # no report build_report writes fails its check, so only a broken check
    # reaches exit 1
    monkeypatch.setattr(quadtuple.counterex, "_report_holds", lambda *args: False)
    code, out, _ = run(capsys, "counterexamples", "--alpha", "0..0")
    assert code == 1
    assert out.splitlines() == [
        "alpha=0 d=15 t=0 verified=False",
        "eligible=1 ineligible=0 verified=0",
    ]


def test_counterexamples_text_summary(capsys):
    code, out, _ = run(capsys, "counterexamples", "--alpha", "0..1", "--t", "0")
    assert code == 0
    assert "ineligible (not square-free)" in out
    assert "eligible=1 ineligible=1 verified=1" in out


# ---------------------------------------------------------------------------
# one parser per process, and the option table read from it


def test_parser_is_built_once_and_keeps_no_state(capsys):
    cli = quadtuple.cli
    cli.build_parser.cache_clear()
    parser, table = cli.build_parser()
    assert cli.build_parser()[0] is parser and cli.build_parser()[1] is table

    construct = ("--format", "json", "construct", "--d", "15", "--m", "0", "--k", "0")
    code, _, _ = run(capsys, *construct, "--factorization", "second")
    assert code == 0
    code, out, _ = run(capsys, *construct)
    assert code == 0
    assert json.loads(out)["trace"]["factorization_choice"] == "first"

    pell = ("--format", "json", "pell", "--d=15", "--norm=-6")
    code, out, _ = run(capsys, *pell, "--limit=2")
    assert (code, len(json.loads(out)["solutions"])) == (0, 2)
    code, out, _ = run(capsys, *pell)
    assert (code, len(json.loads(out)["solutions"])) == (0, 8)

    family = ("--format", "json", "counterexamples", "--alpha", "0..0", "--t", "1")
    code, out, _ = run(capsys, *family, "--out", os.devnull)
    assert (code, json.loads(out)["archive"]) == (0, os.devnull)
    code, out, _ = run(capsys, *family)
    assert code == 0
    assert "archive" not in json.loads(out) and len(json.loads(out)["reports"]) == 1

    verify = ("--format", "json", "verify", "--d", "15", "--n", "2,0")
    code, _, _ = run(capsys, *verify, "--witness", "12=-2,0", *GOLDEN)
    assert code == 0
    code, out, _ = run(capsys, *verify, *GOLDEN)
    assert code == 0
    assert [p["witness_ok"] for p in json.loads(out)["pairs"]] == [None] * 6

    code, _, _ = run(capsys, "pell", "--d", "15")
    assert code == 2
    code, _, _ = run(capsys, "pell", "--d", "15", "--norm", "-6")
    assert code == 0

    # one parser and its table, built together once, from the same actions
    assert cli.build_parser.cache_info().misses == 1
    top, _, commands, parsers = table
    assert top[1]["--format"] in parser._actions
    assert commands["pell"][1]["--d"] in _commands(parser)["pell"]._actions
    assert parsers is _commands(parser)


def test_importing_the_cli_builds_neither_the_parser_nor_its_table():
    code = "import quadtuple.cli as cli; print(cli.build_parser.cache_info().currsize)"
    proc = run_python("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_the_option_table_covers_every_subcommand_but_verify():
    # build_parser records each option beside its declaration: one declared
    # and not recorded would leave _read misreading or refusing its lines
    parser, (top, dest, commands, parsers) = quadtuple.cli.build_parser()
    subparsers = _commands(parser)
    assert dest == "command" and parsers is subparsers
    assert list(commands) == [name for name in subparsers if name != "verify"]
    for (defaults, flags, required), p in [
        (top, parser),
        *((commands[name], subparsers[name]) for name in commands),
    ]:
        own = _flag_actions(p)
        assert flags == {o: a for a in own for o in a.option_strings}, p.prog
        assert required == {a.dest for a in own if a.required}, p.prog
        assert defaults == {**{a.dest: a.default for a in own}, **p._defaults}, p.prog


WELL_FORMED = [
    pytest.param(("pell", "--d", "15", "--norm=-6"), 0, id="pell"),
    pytest.param(("pell", "--d=15", "--norm=-6", "--limit=3"), 0, id="pell="),
    pytest.param(("construct", "--d", "15", "--m", "0", "--k", "0"), 0, id="construct"),
    pytest.param(
        ("construct", "--d=15", "--m=3", "--k=1", "--unit-index=1", "--factorization=second"),
        0,
        id="construct=",
    ),
    pytest.param(("checkrepr", "--d", "15", "--n", "2,0"), 0, id="checkrepr"),
    pytest.param(("checkrepr", "--d=15", "--n=3,0", "--bound=50"), 1, id="checkrepr="),
    pytest.param(("counterexamples", "--alpha", "0..1", "--t", "1"), 0, id="counterexamples"),
    pytest.param(
        ("counterexamples", "--alpha=0..0", "--t=0", f"--out={os.devnull}"), 0, id="counterexamples="
    ),
]


@pytest.mark.parametrize("fmt", [(), ("--format", "json"), ("--format=text",)], ids=["", "json", "text="])
@pytest.mark.parametrize("argv, expected", WELL_FORMED)
def test_well_formed_lines_never_reach_argparse(capsys, monkeypatch, fmt, argv, expected):
    def refused(*args, **kwargs):
        raise AssertionError("argparse read a well-formed line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refused)
    code, out, err = run(capsys, *fmt, *argv)
    assert (code, err) == (expected, "") and out
    # every other line still goes to argparse
    for other in (("verify", "--d", "15", "--n", "2,0", *GOLDEN), (*argv, "--help"), argv[:1]):
        with pytest.raises(AssertionError, match="argparse read"):
            main([*fmt, *other])


def _commands(parser: argparse.ArgumentParser) -> dict:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _flag_actions(parser: argparse.ArgumentParser) -> list:
    return [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


_PARSER = quadtuple.cli.build_parser()[0]
_OPTION_STRINGS = sorted(
    {o for p in (_PARSER, *_commands(_PARSER).values()) for a in p._actions for o in a.option_strings}
)
_ODD_VALUES = ["", " 5", "5_0", "\u0663", "-x", "a..b", "--", "-h", "=1", "+5", "1.0", "json", "-6"]
# other subcommands' flags, abbreviations (--no for --norm), -h, '--', flags
# no parser has, tokens that are not a str, values type or choices refuse
_ODD_TOKENS = st.one_of(
    st.sampled_from(
        _OPTION_STRINGS
        + sorted({o[:4] for o in _OPTION_STRINGS if len(o) > 4})
        + ["--", "-x", "--nope", "pel", 5, None, b"15"]
    ),
    st.sampled_from(_ODD_VALUES),
    st.tuples(st.sampled_from(_OPTION_STRINGS), st.sampled_from(_ODD_VALUES)).map("=".join),
)


def _values(action):
    """Mostly values the action takes; now and then one it may refuse."""
    if action.choices:
        good = st.sampled_from(action.choices)
    elif action.type is int:
        good = st.integers(-99, 9999).map(str)
    else:
        good = st.sampled_from(["2,0", "-2,0", "0..3", "12=-2,0", os.devnull])
    return st.one_of(good, good, good, good, good, st.sampled_from(_ODD_VALUES))


@st.composite
def _command_lines(draw):
    """A well-formed line of any subcommand, both spellings and values that
    start with '-' included, then up to two tokens inserted, replaced or
    dropped; or a token that names no subcommand in its place."""
    commands = _commands(_PARSER)
    command = draw(st.sampled_from([*commands, "pel", ""]))

    def options(parser):
        argv = []
        for action in draw(st.permutations(_flag_actions(parser))):
            if action.required or draw(st.booleans()):
                flag, value = draw(st.sampled_from(action.option_strings)), draw(_values(action))
                argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
        return argv

    argv = options(_PARSER) + [command] + (options(commands[command]) if command in commands else [])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "drop"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(_ODD_TOKENS))
        elif edit == "replace":
            argv[i] = draw(_ODD_TOKENS)
        else:
            del argv[i]
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=_command_lines())
@example(argv=["--format", "json", "pell", "--d=15", "--norm=-6"])
@example(argv=["checkrepr", "--d=15", "--n=--"])  # parse_args stores n = []
@example(argv=["checkrepr", "--d=15", "--n="])
def test_the_option_table_reads_a_line_as_parse_args_does(argv):
    read = quadtuple.cli._read(list(argv))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(quadtuple.cli.build_parser()[0].parse_args(list(argv)))
        except (SystemExit, TypeError):  # a usage error, or a token that is not a str
            parsed = None
    if read is not None:
        assert vars(read) == parsed


@pytest.mark.parametrize("command", ["pell", "construct", "verify", "checkrepr", "counterexamples"])
def test_help_shows_the_ring_flags_where_a_ring_is_read(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    ring_flags = ("--d D",)
    if command == "counterexamples":
        assert not any(flag in out for flag in ring_flags)
    else:
        assert all(flag in out for flag in ring_flags)
    assert "--allow-nonsquarefree" not in out


# parse_args stores the value '--' after '=' as [], and --witness=-- appends
# []; main refuses both, where a command would raise on the list, with the
# message and usage argparse gives the value '--' apart from its flag
DASHES_AS_VALUES = [
    pytest.param(("checkrepr", "--d", "15", "--n=--"), "--n", id="checkrepr"),
    pytest.param(("verify", "--d", "15", "--n=--", "1,0", "2,0", "3,0", "4,0"), "--n", id="verify"),
    pytest.param(
        ("verify", "--d", "15", "--n", "2,0", "--witness=--", "1,0", "2,0", "3,0", "4,0"),
        "--witness",
        id="witness",
    ),
    pytest.param(("counterexamples", "--alpha", "0..0", "--out=--"), "--out", id="counterexamples"),
    pytest.param(("--format=--", "pell", "--d", "15", "--norm", "-6"), "--format", id="format"),
]


@pytest.mark.parametrize("argv, flag", DASHES_AS_VALUES)
def test_dashes_as_a_value_are_a_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    # the subcommand's parser speaks for its own options, the top level's
    # for --format
    owner = "quadtuple" if flag == "--format" else f"quadtuple {argv[0]}"
    assert err.startswith(f"usage: {owner} ")
    assert err.endswith(f"\n{owner}: error: argument {flag}: expected one argument\n")
    i = argv.index(f"{flag}=--")
    assert run(capsys, *argv[:i], flag, "--", *argv[i + 1 :]) == (code, out, err)


# ---------------------------------------------------------------------------
# the entry point as a process


def _run_module(*argv, cpu_s=None):
    """python -m quadtuple in a child process (support.run_python)."""
    return run_python("-m", "quadtuple", *argv, cpu_s=cpu_s)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (
            ("construct", "--d", "14655", "--m", "0", "--k", "0"),
            2,
            "error: x^2 - 14655y^2 = -6 has no solutions\n",
        ),
        (("checkrepr", "--d", "14655", "--n", "2,0"), 3, ""),
        (("checkrepr", "--d", "18435", "--n", "2,0"), 3, ""),
    ],
    ids=["construct-14655", "checkrepr-14655", "checkrepr-18435"],
)
def test_construct_and_checkrepr_end_where_a_y_scan_would_not(argv, code, err):
    # -6 is no norm in either ring, and the y-scan's bound grows with the
    # unit: minutes at 14655, 4 s at 18435; the witness read off the unit
    # answers in one continued-fraction walk
    proc = _run_module(*argv, cpu_s=2)
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize(
    "argv, codes",
    [
        pytest.param(
            ("pell", "--d", "14655", "--norm=-6"),
            {3},
            id="pell-14655-minus-6",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 2: pell refuses at SCAN_CAP rather than scanning, "
                "and the exact answer waits for a solver that needs no y-scan",
            ),
        ),
        # N = 1 needs no scan, and each enumeration round adds a solution;
        # the default limit reaches unit^2, past the 4300-digit str() limit
        pytest.param(("pell", "--d", "100000007", "--norm", "1"), {2}, id="pell-100000007-1"),
        pytest.param(
            ("pell", "--d", "100000007", "--norm", "1", "--limit", "6"),
            {0},
            id="pell-100000007-1-limit-6",
        ),
    ],
)
def test_pell_ends_within_a_second_of_cpu(argv, codes):
    # exit 2 is a refusal at a stated cap; SIGXCPU ends a scan that runs on
    proc = _run_module(*argv, cpu_s=1)
    assert proc.returncode in codes


@pytest.mark.parametrize(
    "d, norm",
    [(14655, -6), (100000007, 10**6)],
    ids=["pell-14655-minus-6", "pell-100000007-1000000"],
)
def test_pell_refuses_a_scan_past_the_cap_within_a_second_of_cpu(d, norm):
    # the scans would test 2.9 * 10^8 values of y and a 1666-digit count of
    # them, which the message leaves out
    proc = _run_module("pell", "--d", str(d), f"--norm={norm}", cpu_s=1)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: x^2 - {d}*y^2 = {norm} needs a y-scan past the cap of {SCAN_CAP} values\n"
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 19: checkrepr reports an n it has proved not representable "
    "as inconclusive",
)
def test_checkrepr_decides_an_n_with_an_odd_sqrt_d_coordinate():
    # p^2 - q^2 always has an even sqrt(d) coordinate, so search_repr
    # returns at once for 2 + sqrt(15), and the answer is proved
    proc = _run_module("checkrepr", "--d", "15", "--n", "2,1", cpu_s=2)
    # 3 is inconclusive; a negative code, a signal such as the CPU limit's
    assert proc.returncode >= 0 and proc.returncode != 3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 3 and 24 part B: construct at UNIT_INDEX_CAP meets the "
    "4300-digit str() limit",
)
def test_construct_prints_its_quadruple_at_the_unit_index_cap():
    # alpha = 780; the elements are about the size of a t = 1000 report's
    # unit^(2t), and today the command exits 2 after about 0.3 s
    proc = _run_module(
        "construct", "--d", "2190520815", "--m", "0", "--k", "0", "--unit-index", "2000", cpu_s=2
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_module_entry_point_writes_an_archive_that_verifies(tmp_path):
    archive = tmp_path / "archive.jsonl"
    argv = ["--format", "json", "counterexamples", "--alpha", "0..2", "--t", "1"]
    proc = _run_module(*argv, "--out", str(archive))
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = archive.read_text().splitlines()
    assert lines and all(verify_report_doc(json.loads(line)) for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("counterexamples", "--alpha", "0..3000", "--t", "0"),
        ("--format", "json", "pell", "--d", "15", "--norm", "1", "--limit", "1000"),
    ],
    ids=["counterexamples", "pell"],
)
def test_module_entry_point_exits_2_when_its_reader_closes_stdout(argv):
    # both outputs pass the pipe's 64 KiB buffer, so a reader that closes its
    # end at once (as `| head` does after its lines) leaves a write failing
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadtuple", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err
    assert err == "error: stdout was closed before the output was written\n"
    assert code == 2


def test_module_entry_point_refuses_dashes_as_a_value_without_a_traceback():
    proc = _run_module("counterexamples", "--alpha", "0..0", "--out=--")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(
        "\nquadtuple counterexamples: error: argument --out: expected one argument\n"
    )


def test_module_entry_point_exits_2_on_a_usage_error():
    proc = _run_module("--format", "json", "counterexamples", "--alpha", "3..1", "--t", "1")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
