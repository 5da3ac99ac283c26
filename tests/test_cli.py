from __future__ import annotations

import errno
import json
import os
import re
import time
import tracemalloc

import pytest

import quadtuple.cli
import quadtuple.construct
import quadtuple.counterex
import quadtuple.pellsolve
import quadtuple.quadring
from quadtuple import verify_report_doc
from quadtuple.cli import main


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

    monkeypatch.setattr(quadtuple.pellsolve, "solve_norm_eq", forbidden)
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
# one parser per process


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert quadtuple.cli.build_parser() is quadtuple.cli.build_parser()
    construct = ("--format", "json", "construct", "--d", "15", "--m", "0", "--k", "0")
    code, _, _ = run(capsys, *construct, "--factorization", "second")
    assert code == 0
    code, out, _ = run(capsys, *construct)
    assert code == 0
    assert json.loads(out)["trace"]["factorization_choice"] == "first"

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
