"""Replay the report-bytes corpus that scripts/report_corpus.py writes."""

from __future__ import annotations

import hashlib
import json
import pathlib

from geomrep.cli import main

CORPUS = pathlib.Path(__file__).with_name("report_corpus.json")


def test_reports_keep_their_bytes(tmp_path, monkeypatch, capsys):
    """Every command of the table writes the bytes it wrote when the table was made.

    Commands run in order in one directory: each `build` writes the file that
    the `aut`, `check` and `export` after it read.
    """
    monkeypatch.chdir(tmp_path)
    changed = []
    for row in json.loads(CORPUS.read_text(encoding="utf-8")):
        code = main(row["argv"])
        digest = hashlib.sha256((tmp_path / row["argv"][-1]).read_bytes()).hexdigest()
        if (code, digest) != (row["exit"], row["sha256"]):
            changed.append(" ".join(row["argv"]))
    assert capsys.readouterr().err == ""
    assert changed == []
