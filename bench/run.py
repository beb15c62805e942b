"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md in this
directory): ``engine_warm`` and ``oracle_grid`` run their draw in
``WORKER_CHUNKS`` fresh worker interpreters, one after the other
(``worker.py``); ``cli_cold`` starts one interpreter per command
(``launch.py``).  Every answer is compared with its recorded reference after
the timed loop; a wrong answer or an error makes ``correct`` false and the
exit code 1.

With ``--trace 0`` the last line reports the end-to-end metrics named in
``BENCHMARK.json``, every time scaled to the reference speed of ``calib.py``.
With ``--trace 1`` the same draw, sized to half of ``--seconds``, runs once
untraced and once traced, each in one worker, and the last line reports the
per-layer metrics.  Each run also writes
``bench/results/<workload>-seed<N>-trace<T>.json`` with the environment and
one row per query.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import queries
from queries import BENCH_DIR, ROOT, SRC
from spans import summarize

RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: cli_cold set-ups measured per run; setup_s is their median.
SETUP_REPEATS = 5
#: Worker processes that run a draw one after the other, each its own part.
#: The machine's speed drifts from one process to the next (fresh
#: interpreters started seconds apart ran the same query up to 1.8 times
#: apart), so a run spreads its draw over several; their set-ups are the
#: run's set-up samples.
WORKER_CHUNKS = 6
#: cli_cold draws, per round, this many commands of each class.
CLI_ROUND = {"cheap": 6, "weyl": 1, "fk": 1}
CLI_MIN_ROUNDS = 2
#: Backstops for a hung child process; healthy ones finish far inside them.
PASS_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60

#: Counters the traced run reports under their own name.
COUNTERS = (
    "rootsys.weyl.elements",
    "weylsum.fk_evaluated.orbit_terms",
    "weylsum.fk_direct.out_terms",
    "oracle.dominant_weights",
    "oracle.distinct_weights",
)


def result_path(workload: str, seed: int, trace: int, suffix: str = ".json") -> str:
    return os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}{suffix}")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WEIGHTCALC_CACHE", None)  # the user's cache must not answer for us
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    out = os.path.join(RESULTS_DIR, f".worker-{os.getpid()}.json")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args, "--out", out], cwd=ROOT,
                              env=child_env(), timeout=timeout)
        if proc.returncode != 0:
            raise SystemExit(f"bench: worker {args} exited {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(out):
            os.remove(out)


def worker_pass(workload: str, seed: int, seconds: float, trace: int,
                chunks: int = 1) -> dict:
    """The draw run by ``chunks`` workers in turn, their results merged."""
    spans = ["--spans", result_path(workload, seed, trace, ".spans.json")] if trace else []
    parts = [run_worker(["--workload", workload, "--seed", str(seed), "--seconds",
                         str(seconds), "--trace", str(trace), "--chunks", str(chunks),
                         "--chunk", str(i), *spans], PASS_TIMEOUT_S)
             for i in range(chunks)]
    if chunks == 1:
        return parts[0]
    return {
        "setups": [p["setup_s"] for p in parts],
        "wall_s": sum(p["wall_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "tail_peak_rss_mb": max(p["tail_peak_rss_mb"] for p in parts),
        "parts": [{k: v for k, v in p.items() if k != "rows"} for p in parts],
        "rows": [r for p in parts for r in p["rows"]],
    }


def setup_worker(workload: str) -> float:
    return run_worker(["--workload", workload, "--setup-only"], SETUP_TIMEOUT_S)["setup_s"]


def run_launch(args: list[str], budget: float, **kwargs):
    speed_file = os.path.join(RESULTS_DIR, f".speed-{os.getpid()}.json")
    return queries.run_launch(args, budget, speed_file, env=child_env(), **kwargs)


def setup_cli() -> float:
    """Time of a fresh interpreter that imports weightcalc.cli, scaled."""
    status, _, proc, scaled = run_launch(["--import-only"], SETUP_TIMEOUT_S)
    if scaled is None:
        raise SystemExit(f"bench: importing weightcalc.cli failed ({status})")
    return scaled


# -- cli_cold -----------------------------------------------------------------------


def cli_plan(seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Seeded commands; each fk entry appears twice, cold cache then warm."""
    refs = queries.load_refs("cli_cold")
    by_class: dict[str, list[dict]] = {}
    for e in refs["entries"]:
        by_class.setdefault(e["class"], []).append(e)

    def mean(cls):
        return statistics.fmean(e["cost_s"] for e in by_class[cls])

    round_s = sum(n * mean(cls) for cls, n in CLI_ROUND.items()) + mean("fk")
    rounds = max(CLI_MIN_ROUNDS, round(seconds / round_s))

    def draw(rng):
        picks = []
        for cls, n in CLI_ROUND.items():
            picks += queries.stratified(by_class[cls], n * rounds, rng)
        rng.shuffle(picks)
        picks.insert(rng.randrange(len(picks) + 1), by_class["verify"][0])
        return picks

    picks = queries.balanced(draw, "cli_cold", seed)
    commands = []
    for i, e in enumerate(picks):
        if e["class"] == "fk":
            cache = os.path.join(RESULTS_DIR, f".cache-{os.getpid()}", str(i))
            commands.append({**e, "cache": "cold", "argv": e["argv"] + ["--cache-dir", cache]})
            commands.append({**e, "cache": "warm", "argv": e["argv"] + ["--cache-dir", cache]})
        else:
            commands.append(e)
    return refs, commands


def cli_pass(seed: int, seconds: float, trace: bool) -> dict:
    refs, commands = cli_plan(seed, seconds)
    budget = refs["budget_s"]
    traces = []
    rows, outputs = [], []
    trace_file = os.path.join(RESULTS_DIR, f".launch-{os.getpid()}.json")
    for cmd in commands:
        extra = ["--trace-out", trace_file] if trace else []
        status, seconds, proc, scaled = run_launch([*extra, *cmd["argv"]], budget,
                                                   capture_output=True)
        out = proc.stdout if status == "ok" else b""
        row = {"id": " ".join(cmd["argv"]), "status": status, "seconds": seconds,
               "latency_s": seconds if scaled is None else scaled, "budget_s": budget}
        if status == "timeout":
            row["latency_s"] = budget
        if "cache" in cmd:
            row["cache"] = cmd["cache"]
        if status == "ok" and proc.returncode != 0:
            row["status"] = "error"
            row["error"] = f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
        elif status == "error":
            row["error"] = repr(proc)
        if trace and row["status"] == "ok":
            with open(trace_file, encoding="utf-8") as fh:
                traces.append((seconds, len(out), json.load(fh)))
        rows.append(row)
        outputs.append(out)
    shutil.rmtree(os.path.join(RESULTS_DIR, f".cache-{os.getpid()}"), ignore_errors=True)
    if os.path.exists(trace_file):
        os.remove(trace_file)

    for row, cmd, out in zip(rows, commands, outputs):
        if row["status"] == "ok" and queries.bytes_digest(out) != cmd["digest"]:
            row["status"] = "mismatch"
    result = {
        "wall_s": sum(r["latency_s"] for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "rows": rows,
    }
    if trace:
        result["trace"] = merge_cli_traces(traces)
        with open(result_path("cli_cold", seed, 1, ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump([child["spans"] for _, _, child in traces], fh)
    return result


def merge_cli_traces(traces) -> dict:
    """One per-layer summary over every traced child process."""
    summary: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    process_s = import_s = stdout_bytes = 0.0
    for seconds, nbytes, child in traces:
        process_s += seconds
        import_s += child["import_s"]
        stdout_bytes += nbytes
        for name, agg in summarize(child["spans"]).items():
            tot = summary.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in agg.items():
                tot[key] += value
        for key, value in child["counters"].items():
            counters[key] = counters.get(key, 0) + value
    counters.update({"cli.process_s": process_s, "cli.import_s": import_s,
                     "cli.stdout_bytes": stdout_bytes})
    return {"summary": summary, "counters": counters}


# -- metrics ----------------------------------------------------------------------------


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    lat = [r["latency_s"] for r in result["rows"]]
    tail, pct = queries.tail_value(lat)
    completed = sum(r["status"] == "ok" for r in result["rows"])
    values = {
        "wall_s": result["wall_s"],
        "query_p50_ms": 1000 * queries.quantile(lat, 0.5),
        "query_tail_ms": 1000 * tail,
        "completed_frac": completed / len(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {"query_tail_ms": f"p{pct:.1f} of {len(lat)} queries",
             "setup_s": f"median of {len(setups)} set-ups"}
    return values, notes


def per_layer(traced: dict, untraced: dict) -> dict:
    summary = traced["trace"]["summary"]
    counters = traced["trace"]["counters"]

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    values = {
        "trace.overhead_frac": (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"],
        # span times are measured, not scaled, and so is the base of their shares
        "trace.wall_s": sum(r["seconds"] for r in traced["rows"]),
        "weylsum.fk_evaluated.repeat_frac": (
            counters.get("weylsum.fk_evaluated.repeats", 0)
            / max(1, span("weylsum.fk_evaluated", "calls"))),
        "cli.main.s": span("cli.main", "s"),
        "cli.cache_hit_frac": (counters.get("cli.cache_loads", 0)
                               / max(1, counters.get("cli.cache_lookups", 0))),
    }
    for key in COUNTERS + ("cli.process_s", "cli.import_s", "cli.stdout_bytes"):
        values[key] = counters.get(key, 0)
    for name, agg in summary.items():
        for key, value in agg.items():
            values.setdefault(f"{name}.{key}", value)
    return values


# -- main ------------------------------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Every pass of one run; returns (main result, extra fields for the file)."""
    worker = workload != "cli_cold"
    setup = (lambda: setup_worker(workload)) if worker else setup_cli
    setup()  # untimed warm-up: compiles bytecode so no timed pass pays for it
    if trace:
        half = seconds / 2
        if worker:
            untraced = worker_pass(workload, seed, half, 0)
            traced = worker_pass(workload, seed, half, 1)
        else:
            untraced = cli_pass(seed, half, False)
            traced = cli_pass(seed, half, True)
        return traced, {"untraced": untraced}
    if worker:
        result = worker_pass(workload, seed, seconds, 0, WORKER_CHUNKS)
        return result, {"setups": result["setups"]}
    # set-ups before and after the timed pass, so a slow minute skews fewer of them
    setups = [setup() for _ in range(SETUP_REPEATS // 2)]
    result = cli_pass(seed, seconds, False)
    setups += [setup() for _ in range(SETUP_REPEATS - len(setups))]
    return result, {"setups": setups}


def main() -> int:
    ap = argparse.ArgumentParser(description="weightcalc benchmark")
    ap.add_argument("--workload", choices=queries.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "weightcalc", "__init__.py")):
        print(f"bench: no weightcalc sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(RESULTS_DIR, exist_ok=True)

    result, extra = run(args.workload, args.seed, args.seconds, args.trace)
    passes = [result] + ([extra["untraced"]] if "untraced" in extra else [])
    rows = [r for p in passes for r in p["rows"]]
    counts = {s: sum(r["status"] == s for r in rows)
              for s in ("ok", "timeout", "error", "mismatch")}
    if args.trace:
        values, notes = per_layer(result, extra["untraced"]), {}
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(result, extra["setups"])
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values
               and not m["name"].endswith((".calls", ".s", ".self_s"))]
    if missing:
        print(f"bench: no measurement for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    path = result_path(args.workload, args.seed, args.trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**queries.environment(), "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "counts": counts,
                   "metrics": metrics, "notes": notes, "all_values": values,
                   **{k: v for k, v in result.items() if k in ("speed", "parts")},
                   **extra, "rows": result["rows"]}, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(rows)} queries; "
          + ", ".join(f"{n} {s}" for s, n in counts.items()) + f"; rows in {path}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{note}")
    failed = counts["error"] + counts["mismatch"]
    print(json.dumps({"correct": failed == 0, "attempted": len(rows), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
