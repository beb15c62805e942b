"""Every charclass query takes its power sums through the public ``power_sums``.

The benchmark's reference check (``bench/record.py``, ``oracle_route``)
rebinds each module-level ``power_sums`` in the package to one built from the
oracle's weight multiset, with the public signature (rs, lam, kmax), and
answers the query again.  That check only compares two routes if the query
really calls the rebound function, with those three arguments.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import queries  # noqa: E402
import record  # noqa: E402

QUERIES = [
    {"op": "chern", "group": "GL4", "weight": [2, 0, 0, 0], "wrap": False, "k": 6},
    {"op": "chern", "group": "SO7", "weight": [1, 0, 0], "wrap": True, "k": 4},
    {"op": "chern", "group": "Sp4", "weight": [1, 1], "wrap": False, "k": 6},
    {"op": "swc", "group": "SO8", "weight": [0, 1, 0, 0], "wrap": False, "k": 2},
    {"op": "spinorial", "group": "Spin8", "weight": [1, 0, 0, 0], "wrap": False},
    {"op": "spinorial", "group": "SO7", "weight": [1, 0, 0], "wrap": False},
    {"op": "spinorial", "group": "Spin7", "weight": [0, 0, 1], "wrap": False},
    {"op": "spinorial", "group": "SO10", "weight": [0, 1, 0, 0, 0], "wrap": False},
    {"op": "spinorial", "group": "G2", "weight": [1, 0], "wrap": False},
    {"op": "swc_total", "group": "GL3", "weight": [1, 0, -1], "wrap": False, "k": 6},
    {"op": "swc_total", "group": "SO5", "weight": [0, 2], "wrap": True, "k": 6},
]


@pytest.mark.parametrize("q", QUERIES, ids=queries.query_id)
def test_oracle_route_answers_through_the_oracle(q, monkeypatch):
    wc = queries.import_weightcalc()
    calls = []
    build = record.oracle_power_sums

    def counted(wc_):
        oracle = build(wc_)

        def power_sums(rs, lam, kmax):
            calls.append((rs.kind, rs.rank, tuple(lam), kmax))
            return oracle(rs, lam, kmax)

        return power_sums

    monkeypatch.setattr(record, "oracle_power_sums", counted)
    engine = queries.digest(queries.engine_answer(wc, q))
    assert queries.digest(record.oracle_route(wc, q)) == engine
    assert calls
    assert wc.charclass.power_sums is wc.powersum.power_sums  # the rebinding was undone
