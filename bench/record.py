"""Record the reference answer of every query the workloads can draw.

    python3 bench/record.py [--workload NAME] [--retime]

Writes ``bench/refs/<workload>.json``: the catalog, each query's recorded
time, and the SHA-256 of its canonical answer (for ``cli_cold``, of its
stdout bytes).  Each reference is checked by a route that is not the code
being timed before it is stored:

* engine_warm: the same query is answered a second time with the engine's
  power sums replaced by the oracle's (Freudenthal multiplicities and literal
  sums over the weights); both answers must agree.  The rank-5/6 tail is
  answered only this way, because the engine does not finish it.
* oracle_grid: P_k and E_k must equal the engine's ``power_sums`` and
  ``elementary_from_power``; the characters at the sign patterns must equal
  a limit of the Weyl character formula evaluated by alternating sums over W.
* cli_cold: every command must exit 0, and an ``fk`` command must print the
  same bytes when its cache is cold and when it is warm.

A query enters a catalog only if its recorded time is below its workload's
per-query budget divided by ``BUDGET_MARGIN``, and every tail query must run
out of the budget here, so that machine noise cannot move a query across the
budget.  Run this at the commit whose answers are the reference, on an idle
machine; it takes several minutes.  ``--retime`` keeps the catalog and every
digest and measures only the recorded times again (about 20 minutes for all
three workloads); an answer that changed stops it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

import calib
import queries
from queries import BENCH_DIR, REFS_DIR

#: Seconds a query may run before it is interrupted and counted as a timeout.
BUDGET_S = {"engine_warm": 5.0, "oracle_grid": 15.0, "cli_cold": 15.0}
#: Catalog queries must have been recorded at least this far below the budget.
BUDGET_MARGIN = 2.5
#: Timing passes over each catalog, after the recording pass; a query's
#: recorded cost is their median.
REPEATS = 3

# -- catalogs -------------------------------------------------------------------

ENGINE_GROUPS = [
    "SL3", "SL4", "GL3", "GL4", "Sp4", "Sp6", "SO5", "SO7", "SO6",
    "Spin5", "Spin7", "Spin6", "G2",
]
ENGINE_GROUPS_RANK4 = ["SL5", "GL5", "SO8", "Spin8"]
POWERSUM_TYPES = [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("G2", 2),
]
POWERSUM_TYPES_RANK4 = [("A", 4), ("D", 4)]
FACTORIZATION_FAMILIES = ("SL", "GL", "Sp", "SO")
#: The ROADMAP's rank-5/6 cases, appended to every engine_warm draw.
ENGINE_TAIL = [
    {"op": "chern", "group": "SL6", "weight": [1, 0, 0, 0, 0], "wrap": False, "k": 2},
    {"op": "spinorial", "group": "SO10", "weight": [1, 0, 0, 0, 0], "wrap": False},
    {"op": "chern", "group": "Spin11", "weight": [1, 0, 0, 0, 0], "wrap": False, "k": 2},
]
ORACLE_TYPES = [
    ("A", 2, 3), ("B", 2, 3), ("C", 2, 3), ("G2", 2, 3),
    ("A", 3, 3), ("B", 3, 3), ("C", 3, 3), ("D", 3, 3),
    ("A", 4, 1), ("D", 4, 1),
]


def small_weights(rank: int) -> list[tuple[int, ...]]:
    top = 2 if rank == 2 else 1
    return [w for w in itertools.product(range(top + 1), repeat=rank) if any(w)]


def gl_weights(n: int) -> list[tuple[int, ...]]:
    z = [0] * n
    return [
        tuple([1] + z[1:]),
        tuple([1, 1] + z[2:]),
        tuple(z[:-1] + [-1]),
        tuple([1] + z[2:] + [-1]),
        tuple([2] + z[1:]),
    ]


def engine_catalog(wc) -> list[dict]:
    cc = wc.charclass
    out = []
    for group in ENGINE_GROUPS + ENGINE_GROUPS_RANK4:
        lat = cc.builtin_lattice(group)
        rank4 = group in ENGINE_GROUPS_RANK4
        ks = (2,) if rank4 else (2, 4, 6)
        if lat.family == "GL":
            weights = gl_weights(lat.torus_rank)
        else:
            weights = [w for w in small_weights(lat.rank) if cc.lattice_contains(lat, w)]
        for w in weights:
            wrap = cc.lattice_orthogonality_type(lat, w) != "orthogonal"
            base = {"group": group, "weight": list(w)}
            out += [{"op": "chern", **base, "wrap": False, "k": k} for k in ks]
            out += [{"op": "swc", **base, "wrap": wrap, "k": k} for k in ks]
            out.append({"op": "spinorial", **base, "wrap": wrap})
            if not rank4 and lat.family in FACTORIZATION_FAMILIES:
                out.append({"op": "swc_total", **base, "wrap": wrap, "k": 6})
    for kind, rank in POWERSUM_TYPES + POWERSUM_TYPES_RANK4:
        ks = (2,) if rank == 4 else (2, 4, 6)
        for w in small_weights(rank):
            out += [
                {"op": "powersum", "kind": kind, "rank": rank, "weight": list(w), "k": k}
                for k in ks
            ]
    return out


def oracle_catalog() -> list[dict]:
    return [
        {"op": "oracle", "kind": kind, "rank": rank, "weight": list(w)}
        for kind, rank, top in ORACLE_TYPES
        for w in itertools.product(range(top + 1), repeat=rank)
    ]


def cli_catalog() -> list[dict]:
    out = []

    def add(cls, *argv):
        out.append({"class": cls, "argv": list(argv)})

    for t in ("A2", "B3", "C4", "D5", "G2", "A6", "B6", "D6"):
        add("cheap", "info", "--type", t)
    for g in ("SL3", "GL4", "Sp8", "SO10", "Spin11", "Spin13", "PGL2", "SO12"):
        add("cheap", "info", "--group", g, "--format", "json")
    for t, w in (("A5", "1,0,0,0,1"), ("B4", "0,0,0,1"), ("C6", "0,1,0,0,0,0"),
                 ("D6", "1,0,0,0,0,0"), ("D5", "0,0,0,1,0"), ("G2", "1,1")):
        add("cheap", "orthotype", "--type", t, "--weight", w)
    for g, w in (("SO12", "0,1,0,0,0,0"), ("Sp10", "1,0,0,0,0"), ("GL6", "1,0,0,0,0,-1")):
        add("cheap", "orthotype", "--group", g, "--weight", w)
    for g, w in (("SL3", "1,1"), ("Sp6", "0,1,0"), ("SO9", "1,0,0,0"),
                 ("SO10", "1,0,0,0,0"), ("Spin11", "0,0,0,0,1"), ("SL7", "1,0,0,0,0,1"),
                 ("Sp12", "0,1,0,0,0,0"), ("SO12", "1,0,0,0,0,0")):
        add("cheap", "chern2", "--group", g, "--weight", w)
        add("cheap", "chern2", "--group", g, "--weight", w, "--format", "json")
    for t, w in (("A5", "1,0,0,0,0"), ("A5", "0,1,0,0,0"), ("A5", "1,0,0,0,1"),
                 ("D5", "1,0,0,0,0"), ("D5", "0,0,0,0,1"), ("D5", "0,1,0,0,0"),
                 ("B5", "1,0,0,0,0"), ("B5", "0,0,0,0,1"), ("C5", "1,0,0,0,0"),
                 ("C5", "0,1,0,0,0"), ("A6", "1,0,0,0,0,0")):
        add("weyl", "oracle", "weights", "--type", t, "--weight", w)
    for t, ks in (("A2", (5, 7, 9)), ("B2", (6, 8, 10)), ("G2", (8, 10, 12)),
                  ("A3", (8, 10)), ("D3", (8, 10)), ("B3", (9, 11)), ("C3", (9, 11))):
        for k in ks:
            add("fk", "fk", "--type", t, "--k", str(k))
    add("verify", "verify")
    return out


# -- recording --------------------------------------------------------------------


def timed(fn, budget: float):
    """(seconds, answer) of fn(), or (seconds, None) if it ran out of the budget."""
    status, seconds, answer = queries.call_with_budget(fn, budget)
    if status == "error":
        raise answer
    return seconds, answer if status == "ok" else None


def retime(entries: list[dict], run_once, budget: float, dropped: list[dict]) -> list[dict]:
    """Time each entry in REPEATS passes and keep the median cost.

    ``run_once(entry)`` returns ``(seconds, digest)``, the seconds scaled to
    the reference speed of ``calib.py`` so that they order the catalog by
    work, whatever the machine's speed was while a pass ran.  The digest must
    not change between passes.  Entries whose median is too close to the
    budget move to ``dropped``.
    """
    samples: dict[str, list[float]] = {e["id"]: [] for e in entries}
    for _ in range(REPEATS):
        for e in entries:
            seconds, ref = run_once(e)
            if ref != e["digest"]:
                raise SystemExit(f"record: {e['id']} answered differently in a later pass")
            samples[e["id"]].append(seconds)
    kept = []
    for e in entries:
        e["cost_s"] = round(statistics.median(samples[e["id"]]), 4)
        (kept if e["cost_s"] <= budget / BUDGET_MARGIN else dropped).append(e)
    return kept


def library_run_once(wc, answer, budget):
    """Seconds at reference speed (slices just before and after) and digest."""
    speed = calib.Speed()

    def run_once(entry):
        speed.sample(2)
        start = time.perf_counter()
        seconds, ans = timed(lambda: answer(wc, entry["query"]), budget)
        speed.sample(2)
        seconds /= speed.factor(start, start + seconds)
        return seconds, None if ans is None else queries.digest(ans)

    return run_once


def oracle_power_sums(wc):
    """power_sums(rs, lam, kmax) computed from the oracle's weight multiset."""
    o = wc.oracle

    def power_sums(rs, lam, kmax):
        wm = o.weight_multiplicities(rs, lam, max_dim=queries.ORACLE_MAX_DIM)
        return [o.oracle_power_sum(wm, k) for k in range(kmax + 1)]

    return power_sums


def oracle_route(wc, q):
    """The engine_warm answer with every power sum taken from the oracle."""
    from spans import Patch

    if q["op"] == "powersum":
        rs = wc.rootsys.build_root_system(q["kind"], q["rank"])
        wm = wc.oracle.weight_multiplicities(rs, tuple(q["weight"]))
        return ([wc.oracle.oracle_power_sum(wm, k) for k in range(q["k"] + 1)],
                wc.oracle.oracle_elementary(wm, q["k"]))
    mods = [m for n, m in sys.modules.items() if n.startswith("weightcalc")]
    patch = Patch()
    patch.rebind(mods, wc.powersum.power_sums, oracle_power_sums(wc))
    try:
        return queries.engine_answer(wc, q)
    finally:
        patch.undo()


def record_engine(wc) -> dict:
    budget = BUDGET_S["engine_warm"]
    entries, dropped = [], []
    catalog = engine_catalog(wc)
    queries.build_systems(wc, catalog + ENGINE_TAIL)
    for q in catalog:
        qid = queries.query_id(q)
        cost, answer = timed(lambda: queries.engine_answer(wc, q), budget)
        if answer is None or cost > budget / BUDGET_MARGIN:
            dropped.append({"id": qid, "cost_s": round(cost, 4)})
            print(f"dropped {qid}: {cost:.3f} s", flush=True)
            continue
        ref = queries.digest(answer)
        if queries.digest(oracle_route(wc, q)) != ref:
            raise SystemExit(f"record: engine and oracle disagree on {qid}")
        entries.append({"id": qid, "query": q, "cost_s": cost, "digest": ref})
        print(f"{qid:45s} {cost:8.4f} s", flush=True)
    entries = retime(entries, library_run_once(wc, queries.engine_answer, budget), budget,
                     dropped)
    tail = []
    for q in ENGINE_TAIL:
        qid = queries.query_id(q)
        cost, answer = timed(lambda: queries.engine_answer(wc, q), 2 * budget)
        if answer is not None:
            raise SystemExit(f"record: tail query {qid} finished in {cost:.1f} s")
        tail.append({"id": qid, "query": q, "cost_s": None,
                     "digest": queries.digest(oracle_route(wc, q)),
                     "reference_route": "oracle power sums"})
        print(f"{qid:45s} over {2 * budget:.0f} s (tail)", flush=True)
    return {"budget_s": budget, "entries": entries, "tail": tail, "dropped": dropped}


def twisted_character(rs, lam, signs) -> int:
    """chi_lam at the order-2 element with the given signs on the fundamental weights.

    Weyl's character formula at t * exp(s * x) for a regular integral x: the
    numerator and denominator are alternating sums over W whose Taylor
    coefficients in s first become nonzero at the same order, and their
    ratio there is the character at t.  Independent of the multiplicity
    recursion.
    """
    r = rs.rank
    for c in itertools.count(1):  # a regular x: no root pairs to zero with it
        x = [1 + j * (j + c) for j in range(r)]
        if all(sum(a * b for a, b in zip(alpha, x)) for alpha in rs.positive_roots):
            break
    neg = [j for j in range(r) if signs[j] == -1]
    mats = [(w.matrix, w.sign) for w in rs.weyl]

    def images(mu):
        out = []
        for mat, sign in mats:
            v = [sum(mat[i][j] * mu[j] for j in range(r)) for i in range(r)]
            parity = sum(v[j] for j in neg) % 2
            out.append((sign * (-1) ** parity, sum(a * b for a, b in zip(v, x))))
        return out

    num_terms = images([c + 1 for c in lam])
    den_terms = images([1] * r)
    for k in range(rs.num_positive + 1):
        den = sum(c * p ** k for c, p in den_terms)
        if den:
            chi = Fraction(sum(c * p ** k for c, p in num_terms), den)
            if chi.denominator != 1:
                raise SystemExit("record: non-integral twisted character")
            return int(chi)
    raise SystemExit("record: twisted denominator vanished to order N")


def record_oracle(wc) -> dict:
    budget = BUDGET_S["oracle_grid"]
    catalog = oracle_catalog()
    queries.build_systems(wc, catalog)
    entries, dropped = [], []
    for q in catalog:
        qid = queries.query_id(q)
        cost, ans = timed(lambda: queries.oracle_answer(wc, q), budget)
        if ans is None or cost > budget / BUDGET_MARGIN:
            dropped.append({"id": qid, "cost_s": round(cost, 4)})
            print(f"dropped {qid}: {cost:.3f} s", flush=True)
            continue
        rs = wc.rootsys.build_root_system(q["kind"], q["rank"])
        lam = tuple(q["weight"])
        p = wc.powersum.power_sums(rs, lam, queries.ORACLE_KMAX)
        e = wc.powersum.elementary_from_power(p, queries.ORACLE_KMAX)
        chi = [twisted_character(rs, lam, s) for s in queries.sign_patterns(rs.rank)]
        if ans["p"] != p or ans["e"] != e or ans["chi"] != chi:
            raise SystemExit(f"record: oracle and engine disagree on {qid}")
        entries.append({"id": qid, "query": q, "cost_s": cost, "digest": queries.digest(ans)})
        print(f"{qid:30s} {cost:8.4f} s", flush=True)
    entries = retime(entries, library_run_once(wc, queries.oracle_answer, budget), budget,
                     dropped)
    return {"budget_s": budget, "entries": entries, "dropped": dropped}


def run_command(argv: list[str], budget: float, cache_dir: str | None = None):
    """(seconds at reference speed, stdout) of one command in a fresh interpreter.

    The command must exit 0.
    """
    extra = ["--cache-dir", cache_dir] if cache_dir else []
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    speed_file = os.path.join(BENCH_DIR, "results", f".speed-{os.getpid()}.json")
    status, _, proc, seconds = queries.run_launch([*argv, *extra], budget, speed_file,
                                                  capture_output=True)
    if seconds is None:
        detail = proc.stderr.decode()[-400:] if status == "ok" else status
        raise SystemExit(f"record: {argv} failed: {detail}")
    return seconds, proc.stdout


def cli_run_once(work: str):
    """Cold-cache time and stdout digest; fk must print the same bytes warm."""
    caches = itertools.count()

    def run_once(entry):
        cache = os.path.join(work, str(next(caches))) if entry["class"] == "fk" else None
        seconds, out = run_command(entry["argv"], BUDGET_S["cli_cold"], cache)
        if cache is not None and run_command(entry["argv"], BUDGET_S["cli_cold"], cache)[1] != out:
            raise SystemExit(f"record: {entry['id']} printed different bytes from its cache")
        return seconds, queries.bytes_digest(out), len(out)

    return run_once


def record_cli() -> dict:
    budget = BUDGET_S["cli_cold"]
    entries, dropped = [], []
    work = tempfile.mkdtemp(prefix="record-", dir=BENCH_DIR)
    run_once = cli_run_once(work)
    try:
        for item in cli_catalog():
            entry = {"id": " ".join(item["argv"]), **item}
            seconds, ref, nbytes = run_once(entry)
            entries.append({**entry, "cost_s": seconds, "digest": ref, "stdout_bytes": nbytes})
            print(f"{entry['id']:60s} {seconds:8.4f} s", flush=True)
        entries = retime(entries, lambda e: run_once(e)[:2], budget, dropped)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"budget_s": budget, "entries": entries, "dropped": dropped}


def retime_refs(wc, workload: str) -> dict:
    """The recorded references with every cost measured again; answers must not change."""
    refs = queries.load_refs(workload)
    budget, dropped = refs["budget_s"], []
    if workload == "cli_cold":
        work = tempfile.mkdtemp(prefix="record-", dir=BENCH_DIR)
        run_once = cli_run_once(work)
        try:
            kept = retime(refs["entries"], lambda e: run_once(e)[:2], budget, dropped)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        answer = queries.engine_answer if workload == "engine_warm" else queries.oracle_answer
        catalog = [e["query"] for e in refs["entries"] + refs.get("tail", [])]
        queries.build_systems(wc, catalog)
        kept = retime(refs["entries"], library_run_once(wc, answer, budget), budget, dropped)
    if dropped:
        raise SystemExit(f"record: {[e['id'] for e in dropped]} now too close to the budget;"
                         " record the catalog again")
    return {**refs, "entries": kept,
            "retimed": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=queries.WORKLOADS, action="append")
    ap.add_argument("--retime", action="store_true",
                    help="keep the catalog and references, measure only the costs again")
    args = ap.parse_args()
    wc = queries.import_weightcalc()
    about = {**queries.environment(),
             "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    os.makedirs(REFS_DIR, exist_ok=True)
    for workload in args.workload or queries.WORKLOADS:
        if args.retime:
            body = retime_refs(wc, workload)
        elif workload == "engine_warm":
            body = {"workload": workload, **about, **record_engine(wc)}
        elif workload == "oracle_grid":
            body = {"workload": workload, **about, **record_oracle(wc)}
        else:
            body = {"workload": workload, **about, **record_cli()}
        path = os.path.join(REFS_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}: {len(body['entries'])} queries", flush=True)


if __name__ == "__main__":
    main()
