"""Replay recorded command lines and compare every byte they produce.

tests/replay.json holds, per entry, an argv for quadtuple.cli.main, its exit
code, its full stdout and stderr and, when it writes a relative --out
archive, that archive's text. Each line runs in-process in a fresh working
directory, so an archive's path, and the "archive" field that names it,
read the same on every run.

The corpus holds the literal argv lists of tests/test_cli.py, the README's
command lines, each subcommand in both formats on d = 15, 1095, 735 and
3975, construct and checkrepr at d = 14655, pell on several classes
(d = 2, N = 2737 and d = 7, N = 57) and at limits up to 200, and every exit
code the command gives (0, 1, 2 at each library cap, 3 and 5). It also holds
checkrepr --n=2,0 and --n=-2,0 at --bound 20 on rings with 5 | d outside the
paper's scope, in JSON for d = 10, 30, 35, 135, 375, 2110 and in text for
d = 10, 2110: 135 and 375 have a square factor, and the others are not
15 (mod 60), so each is inconclusive (exit 3) although the lemma behind the
certificate holds there. And it holds, in both formats, the two pell lines
whose y-scan pellsolve.SCAN_CAP refuses before it starts (exit 2):
--d 14655 --norm=-6 and --d 100000007 --norm 1000000. And, in both formats,
construct and checkrepr on rings that read -6 off the unit: construct
--d 135 --m 0 --k 0 (9 | d, so -6 is not a norm: exit 2); construct
--d 17715 --m 0 --k 0 (exit 2) and checkrepr --d 17715 --n 2,0 --bound 20
(exit 3), a d = 3 (mod 8) ring the benchmark scans; and construct --d 15495
--m 2 --k 0 --unit-index 1 --factorization second and checkrepr --d 15495
--n 2,0 (exit 0), a long unit with -6 a norm. And, in both formats, the
order in which construct refuses: construct --d 45 --m 0 --k 1 exits 2 on
the residue of d before the parity of m + k; construct --d 135 --m 0 --k 1
exits 5 on that parity, and construct --d 135 --m 0 --k 0 --unit-index 5000
exits 2 on the index cap, each before finding -6 is not a norm; and
checkrepr --d 45 --n 2,0 --bound 20 (exit 3) in JSON too. Left out: argparse's help
pages and usage errors, and any line whose text is Python's or the
operating system's (the 4300-digit str() limit, strerror), since these vary
with the Python version and test_cli.py and test_lint.py pin them; lines
slower than about half a second; and archives larger than 64 KiB.

A change that alters an output on purpose edits replay.json by hand and
says so in CHANGES.md; there is no switch that rewrites it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from quadtuple.cli import main

CORPUS = json.loads(Path(__file__).with_name("replay.json").read_text(encoding="utf-8"))


def _out_path(argv):
    """The --out value of argv, or None."""
    for i, token in enumerate(argv):
        if token == "--out":
            return argv[i + 1]
        if token.startswith("--out="):
            return token.removeprefix("--out=")
    return None


@pytest.mark.parametrize("entry", CORPUS, ids=[" ".join(e["argv"])[:72] for e in CORPUS])
def test_replay(entry, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(list(entry["argv"]))
    out = capsys.readouterr()
    assert code == entry["code"]
    assert out.err == entry["stderr"]
    assert out.out == entry["stdout"]
    path = _out_path(entry["argv"])
    if path is not None and not path.startswith("/"):
        archive = tmp_path / path
        if "archive" in entry:
            assert archive.read_text(encoding="utf-8") == entry["archive"]
        else:  # refused before the archive was opened
            assert not archive.exists()


def test_the_corpus_covers_every_exit_code_and_each_subcommand_in_both_formats():
    assert {e["code"] for e in CORPUS} == {0, 1, 2, 3, 5}
    for command in ("pell", "construct", "verify", "checkrepr", "counterexamples"):
        for json_format in (False, True):
            assert any(
                command in e["argv"] and ("json" in e["argv"]) == json_format for e in CORPUS
            ), (command, json_format)
    assert any("archive" in e for e in CORPUS)
