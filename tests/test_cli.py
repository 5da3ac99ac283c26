from __future__ import annotations

import json
import os

import pytest

import quadtuple.cli
import quadtuple.construct
import quadtuple.counterex
import quadtuple.pellsolve
from quadtuple import StageError, verify_report_doc
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
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert "pass --allow-nonsquarefree" in err
    code, _, _ = run(capsys, *argv, "--allow-nonsquarefree")
    assert code == flagged_code


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


def test_pell_735_example(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "pell", "--d", "735", "--norm", "-6", "--allow-nonsquarefree",
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


def test_construct_retry_budget_exits_6(capsys, monkeypatch):
    monkeypatch.setattr(quadtuple.construct, "RETRY_BUDGET", 0)
    code, out, err = run(capsys, "construct", "--d", "15", "--m", "0", "--k", "0")
    assert (code, out) == (6, "")
    assert err == "error: no nondegenerate quadruple within 0 unit choices\n"


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
        capsys, "--format", "json", "checkrepr", "--d", d, "--n", "2,0",
        "--allow-nonsquarefree", "--bound", "20",
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


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_counterexamples_unwritable_out_exits_2(capsys, monkeypatch, tmp_path, where):
    def forbidden(ctx, t):
        raise AssertionError("a report was built before --out was opened")

    monkeypatch.setattr(quadtuple.cli, "build_report", forbidden)
    path = tmp_path if where == "directory" else tmp_path / "missing" / "reports.jsonl"
    code, out, err = run(capsys, "counterexamples", "--alpha", "0..3", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(path) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_counterexamples_failed_archive_write_exits_2(capsys):
    # /dev/full opens, then refuses the write with ENOSPC when the file is flushed
    code, out, err = run(capsys, "counterexamples", "--alpha", "0..0", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: cannot write --out '/dev/full': No space left on device\n"


def test_counterexamples_stage_error_exits_1(capsys, monkeypatch):
    def family_fails(lo, hi):
        raise StageError("family", "x^2 - d = 1 at alpha = 0")

    monkeypatch.setattr(quadtuple.cli, "enumerate_counterexample_rings", family_fails)
    code, out, err = run(capsys, "counterexamples", "--alpha", "0..0")
    assert (code, out) == (1, "")
    assert err == "error: [family] x^2 - d = 1 at alpha = 0\n"


def test_counterexamples_failed_candidate_exits_1(capsys, monkeypatch):
    def construct_fails(ctx, t):
        raise StageError("construct", f"no quadruple for d = {ctx.d}")

    monkeypatch.setattr(quadtuple.cli, "build_report", construct_fails)
    code, out, _ = run(capsys, "counterexamples", "--alpha", "0..1")
    assert code == 1
    assert out.splitlines() == [
        "alpha=0 d=15 FAILED: [construct] no quadruple for d = 15",
        "alpha=1 d=3975 ineligible (not square-free)",
        "eligible=1 ineligible=1 verified=0",
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
