"""Golden CLI corpus: every subcommand's exact stdout, text and JSON.

``golden_cli.json`` maps each space-joined argv to the bytes it printed when
the corpus was recorded.  Refactors must leave every entry byte-identical.
After an intended output change, re-record the same argv set with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from weightcalc.cli import _DISPATCH, main

CORPUS = pathlib.Path(__file__).with_name("golden_cli.json")
GOLDEN = json.loads(CORPUS.read_text(encoding="utf-8"))


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, f"{argv} exited {rc}"
    return buf.getvalue()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_stdout(command):
    assert _stdout(command.split()) == GOLDEN[command]


def test_corpus_covers_every_subcommand():
    for name in _DISPATCH:
        runs = [c for c in GOLDEN if f"{c} ".startswith(f"{name} ")]
        assert any(c.endswith("--format json") for c in runs), name
        assert any(not c.endswith("--format json") for c in runs), name


if __name__ == "__main__":
    recorded = {c: _stdout(c.split()) for c in GOLDEN}
    CORPUS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
