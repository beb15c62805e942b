"""The span recorder changes no answer and accounts for all of the time it spans.

    python3 -m pytest bench/test_bench_trace.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probes  # noqa: E402
import queries  # noqa: E402
from spans import Recorder, self_times, summarize  # noqa: E402

ENGINE = [
    {"op": "chern", "group": "SL3", "weight": [1, 1], "wrap": False, "k": 4},
    {"op": "swc", "group": "GL3", "weight": [1, 0, 0], "wrap": True, "k": 4},
    {"op": "spinorial", "group": "SO7", "weight": [1, 0, 0], "wrap": False},
    {"op": "swc_total", "group": "Sp4", "weight": [0, 1], "wrap": False, "k": 6},
    {"op": "powersum", "kind": "B", "rank": 2, "weight": [1, 1], "k": 4},
]
ORACLE = [{"op": "oracle", "kind": "G2", "rank": 2, "weight": [1, 1]}]


def answers(wc):
    return ([queries.digest(queries.engine_answer(wc, q)) for q in ENGINE]
            + [queries.digest(queries.oracle_answer(wc, q)) for q in ORACLE])


def test_answers_same_and_self_times_add_up():
    wc = queries.import_weightcalc()
    plain = answers(wc)
    rec = Recorder()
    patch = probes.install(rec)
    try:
        with rec.span("run"):
            traced = answers(wc)
    finally:
        patch.undo()
    assert traced == plain
    assert answers(wc) == plain and len(rec.names) > 1 + len(ENGINE)

    rows = rec.rows()
    root = rows[0][2] - rows[0][1]
    assert math.isclose(sum(self_times(rows)), root, rel_tol=1e-9, abs_tol=1e-9)
    summary = summarize(rows)
    assert summary["charclass.chern_classes"]["calls"] >= 4
    assert summary["oracle.weight_multiplicities"]["calls"] >= 2
    assert rec.counters["weylsum.fk_evaluated.orbit_terms"] > 0


def test_nested_same_name_counts_once():
    rows = [["run", 0.0, 10.0, -1], ["f", 1.0, 9.0, 0], ["f", 2.0, 5.0, 1],
            ["g", 6.0, 8.0, 1]]
    summary = summarize(rows)
    assert summary["f"] == {"calls": 2, "s": 8.0, "self_s": 6.0}
    assert self_times(rows) == [2.0, 3.0, 3.0, 2.0]


def _launch(argv, trace_out=None):
    extra = ["--trace-out", trace_out] if trace_out else []
    proc = subprocess.run(
        [*queries.CLI_PYTHON, os.path.join(queries.BENCH_DIR, "launch.py"), *extra, *argv],
        capture_output=True, timeout=120, cwd=queries.ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_stdout_same_with_tracing():
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        argv = ["powersum", "--type", "A2", "--weight", "1,1", "--k", "2"]
        assert _launch(argv) == _launch(argv, trace) == b"12*y1^2 - 12*y1*y2 + 12*y2^2\n"
        fk = ["fk", "--type", "A2", "--k", "5", "--cache-dir", os.path.join(tmp, "c")]
        cold = _launch(fk, trace)
        with open(trace, encoding="utf-8") as fh:
            child = json.load(fh)
        assert summarize(child["spans"])["weylsum.FkTable.build"]["calls"] == 1
        assert child["counters"].get("cli.cache_loads", 0) == 0
        assert _launch(fk, trace) == cold == _launch(fk)
        with open(trace, encoding="utf-8") as fh:
            child = json.load(fh)
        assert child["counters"]["cli.cache_loads"] == 1
        assert "weylsum.FkTable.build" not in summarize(child["spans"])
