"""Run the engine_warm or oracle_grid workload in this fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--chunks K --chunk I] --out FILE
    python3 bench/worker.py --workload NAME --setup-only --out FILE

One caller in a closed loop: each query starts when the previous one has
returned, and is interrupted when it runs out of its budget.  With
``--chunks K`` this worker runs only part I of the draw (counting from 0);
K workers, one after the other, run all of it.  Writes one JSON
object to FILE: the set-up time, the sum of the query latencies, peak
resident memory, one row per query, and with ``--trace 1`` the per-layer span
summary (the spans themselves, ``[name, start, end, parent]`` each, go to
``--spans``).  Times are scaled to the reference speed of ``calib.py``, from
slices of its reference loop run before and after the set-up and between
queries; the measured ones stay in the file.

Peak memory is read before the fixed rank-5/6 tail starts and again at the
end.  A tail query strands garbage (reference cycles that only a full
collection frees) for as long as it runs, several hundred MB in its budget
and more the faster the machine, so it is reported apart from the draw's.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import calib
import queries

#: Fewest library queries in one draw, so the tail percentile has ten beyond it.
MIN_QUERIES = 12

ANSWER = {"engine_warm": queries.engine_answer, "oracle_grid": queries.oracle_answer}


def plan(workload: str, seed: int, seconds: float, chunk: int = 0,
         chunks: int = 1) -> tuple[dict, list[dict], int]:
    """The references, this worker's part of the seeded draw, and its length.

    The draw is cut into ``chunks`` consecutive parts; the fixed tail
    follows the last part.
    """
    refs = queries.load_refs(workload)
    entries = refs["entries"]
    m = queries.draw_count(entries, seconds, MIN_QUERIES)

    def draw(rng):
        picks = queries.stratified(entries, m, rng)
        rng.shuffle(picks)
        return picks

    picks = queries.balanced(draw, workload, seed)
    part = picks[chunk * len(picks) // chunks:(chunk + 1) * len(picks) // chunks]
    tail = refs.get("tail", []) if chunk == chunks - 1 else []
    return refs, part + tail, len(part)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(ANSWER), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chunks", type=int, default=1, help="workers the draw is cut among")
    ap.add_argument("--chunk", type=int, default=0, help="this worker's part, from 0")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="with --trace 1, where to write the spans")
    args = ap.parse_args()

    refs, picks, draw_size = plan(args.workload, args.seed, args.seconds, args.chunk,
                                  args.chunks)
    catalog = [e["query"] for e in refs["entries"] + refs.get("tail", [])]
    rec = root = None
    if args.trace:
        from spans import Recorder

        rec = Recorder()
        root = rec.enter("run")

    speed = calib.Speed()
    speed.sample(3)
    start = time.perf_counter()
    wc = queries.import_weightcalc()
    if rec is not None:
        import probes

        probes.install(rec)
    queries.build_systems(wc, catalog)
    end = time.perf_counter()
    speed.sample(3)
    setup = {"setup_s": (end - start) / speed.factor(start, end),
             "setup_measured_s": end - start}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(setup, fh)
        return

    answer = ANSWER[args.workload]
    budget = refs["budget_s"]
    rows, answers, starts = [], [], []
    for i, entry in enumerate(picks):
        if i == draw_size:
            draw_rss = peak_rss_mb()
        speed.tick()
        starts.append(time.perf_counter())
        status, seconds, ans = queries.call_with_budget(
            lambda: answer(wc, entry["query"]), budget)
        rows.append({"id": entry["id"], "status": status, "seconds": seconds,
                     "budget_s": budget})
        answers.append(ans)
    speed.sample(3)
    if draw_size == len(picks):
        draw_rss = peak_rss_mb()
    if rec is not None:
        rec.exit(root)
    queries.scale_latencies(rows, starts, speed)

    # outside the timed region: compare every answer with its reference
    for row, entry, ans in zip(rows, picks, answers):
        if row["status"] == "error":
            row["error"] = repr(ans)
        elif row["status"] == "ok" and queries.digest(ans) != entry["digest"]:
            row["status"] = "mismatch"
    result = {
        **setup,
        "wall_s": sum(r["latency_s"] for r in rows),
        "peak_rss_mb": draw_rss,
        "tail_peak_rss_mb": peak_rss_mb(),
        "speed": speed.summary(),
        "rows": rows,
    }
    if rec is not None:
        from spans import summarize

        spans = rec.rows()
        result["trace"] = {"summary": summarize(spans), "counters": rec.counters}
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
