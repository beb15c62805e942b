"""Queries of the three workloads: how each query runs under its budget, the
digest of its answer, and the seeded draw.

Every query a workload can draw is listed in ``refs/<workload>.json`` with the
digest of its reference answer and the time it took when the reference was
recorded (``record.py``).  The recorded time orders the catalog for the
stratified draw, so a seed always picks the same queries on any machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFS_DIR = os.path.join(BENCH_DIR, "refs")
LAUNCH = os.path.join(BENCH_DIR, "launch.py")

WORKLOADS = ("engine_warm", "oracle_grid", "cli_cold")

#: How a cli_cold child interpreter starts.  ``-S`` leaves out site-packages:
#: the package needs only the standard library, and ``.pth`` start-up hooks of
#: the surrounding environment would otherwise count, and vary, as if they
#: were weightcalc's own start-up.
CLI_PYTHON = [sys.executable, "-S"]

#: Truncation order of every oracle_grid query (P_0..P_6, E_0..E_6).
ORACLE_KMAX = 6
#: Dimension guard passed to the oracle; the grid peaks at 262144.
ORACLE_MAX_DIM = 500000


def import_weightcalc():
    """Import the package from this checkout's ``src`` and nowhere else."""
    pkg = os.path.join(SRC, "weightcalc", "__init__.py")
    if not os.path.isfile(pkg):
        raise SystemExit(f"bench: no weightcalc sources at {pkg}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import weightcalc
    import weightcalc.cli  # noqa: F401  (loads every layer module)

    if os.path.realpath(weightcalc.__file__) != os.path.realpath(pkg):
        raise SystemExit(f"bench: weightcalc imported from {weightcalc.__file__}")
    return weightcalc


def environment() -> dict:
    """Interpreter, core count and the exact sources being measured."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "weightcalc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": h.hexdigest()}


def load_refs(workload: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- running one query ----------------------------------------------------------


def query_id(q: dict) -> str:
    """Readable unique name of a library query."""
    w = ",".join(str(c) for c in q["weight"])
    if q["op"] in ("powersum", "oracle"):
        head = f"{q['op']} {q['kind']}{q['rank'] if q['kind'] != 'G2' else ''} {w}"
    else:
        head = f"{q['op']} {q['group']} {w}" + (" wrap" if q["wrap"] else "")
    return head + (f" k={q['k']}" if "k" in q else "")


def engine_answer(wc, q: dict):
    """Answer of one engine_warm query through the public API."""
    op = q["op"]
    if op == "powersum":
        rs = wc.rootsys.build_root_system(q["kind"], q["rank"])
        p = wc.powersum.power_sums(rs, tuple(q["weight"]), q["k"])
        return p, wc.powersum.elementary_from_power(p, q["k"])
    cc = wc.charclass
    lat = cc.builtin_lattice(q["group"])
    pi = cc.PiSpec(tuple(q["weight"]), q["wrap"])
    if op == "chern":
        return cc.chern_classes(lat, pi, q["k"])
    if op == "swc":
        return cc.swc_restrict(lat, pi, q["k"])
    if op == "spinorial":
        return cc.is_spinorial(lat, pi)
    if op == "swc_total":
        return cc.total_swc_factorization(lat, pi, q["k"])
    raise ValueError(f"unknown engine query {op!r}")


def sign_patterns(rank: int) -> list[tuple[int, ...]]:
    """The nested order-2 elements b_0..b_r: b_i inverts the first i generators."""
    return [tuple(-1 if j < i else 1 for j in range(rank)) for i in range(rank + 1)]


def oracle_answer(wc, q: dict) -> dict:
    """Answer of one oracle_grid query: multiplicities, P_k, E_k, characters."""
    o = wc.oracle
    rs = wc.rootsys.build_root_system(q["kind"], q["rank"])
    wm = o.weight_multiplicities(rs, tuple(q["weight"]), max_dim=ORACLE_MAX_DIM)
    return {
        "dominant": wm.dominant,
        "p": [o.oracle_power_sum(wm, k) for k in range(ORACLE_KMAX + 1)],
        "e": o.oracle_elementary(wm, ORACLE_KMAX),
        "chi": [o.character_at_order2(wm, s) for s in sign_patterns(q["rank"])],
    }


def build_systems(wc, qs) -> None:
    """Build every lattice, root system and Weyl group the queries touch."""
    for q in qs:
        if "group" in q:
            rs = wc.charclass.builtin_lattice(q["group"]).root_system()
        else:
            rs = wc.rootsys.build_root_system(q["kind"], q["rank"])
        rs.weyl


class Timeout(BaseException):
    """Raised inside a query when its budget runs out.

    A BaseException, so that no handler in the program under test catches it.
    """


def _alarm(signum, frame):
    raise Timeout()


def call_with_budget(fn, budget: float):
    """Run ``fn()``, interrupting it after ``budget`` seconds.

    Returns ``(status, seconds, answer)``: status ``"ok"`` with the answer,
    ``"timeout"``, or ``"error"`` with the exception ``fn`` raised.
    """
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            answer = fn()
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Timeout:
        return "timeout", time.perf_counter() - start, None
    except Exception as exc:  # a failed query is reported, not fatal
        return "error", time.perf_counter() - start, exc
    return "ok", end - start, answer


def scale_latencies(rows: list[dict], starts: list[float], speed) -> None:
    """Give each row its speed factor and its latency at the reference speed.

    ``speed`` is a ``calib.Speed`` sampled around the queries.  A query
    stopped at its budget counts at the budget, unscaled, since the budget is
    wall time.
    """
    for row, start in zip(rows, starts):
        row["factor"] = speed.factor(start, start + row["seconds"])
        row["latency_s"] = (row["budget_s"] if row["status"] == "timeout"
                            else row["seconds"] / row["factor"])


def run_child(argv: list[str], budget: float, **kwargs):
    """``subprocess.run`` under ``call_with_budget``, from the checkout root.

    When the budget runs out the child is killed and reaped.  The wait is a
    blocking one: ``subprocess.run(timeout=...)`` polls with a back-off of up
    to 50 ms, which would round the measured time up by as much.
    """
    return call_with_budget(lambda: subprocess.run(argv, cwd=ROOT, **kwargs), budget)


def run_launch(args: list[str], budget: float, speed_file: str, **kwargs):
    """One ``launch.py`` child: (status, measured seconds, proc, scaled seconds).

    The child times the reference loop of ``calib.py`` itself after its
    command and writes the result to ``speed_file``.  The scaled time takes
    those seconds off the measured wall time and divides the rest by the
    child's own speed factor; it is None unless the command exited 0.
    """
    status, seconds, proc = run_child(
        [*CLI_PYTHON, LAUNCH, "--speed-out", speed_file, *args], budget, **kwargs)
    scaled = None
    if status == "ok" and proc.returncode == 0:
        with open(speed_file, encoding="utf-8") as fh:
            speed = json.load(fh)
        scaled = (seconds - speed["calib_s"]) / speed["factor"]
    if os.path.exists(speed_file):
        os.remove(speed_file)
    return status, seconds, proc, scaled


# -- answers ---------------------------------------------------------------------


def canonical(obj):
    """JSON-ready form of an answer that two equal answers share exactly."""
    from weightcalc.polyalg import BiPoly, Mod2Poly

    if isinstance(obj, BiPoly):
        terms = sorted((list(e), str(c)) for e, c in obj.terms.items())
        return {"bipoly": [obj.na, obj.ny], "terms": terms}
    if isinstance(obj, Mod2Poly):
        return {"mod2": obj.nv, "terms": sorted(list(e) for e in obj.terms)}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return sorted([canonical(k), canonical(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- the seeded draw ------------------------------------------------------------------


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def stratified(entries: list[dict], m: int, rng: random.Random) -> list[dict]:
    """Pick ``m`` entries, one from each of ``m`` equal-count cost bins.

    The catalog is ordered by recorded cost, so every draw spans the whole
    cost range in the same proportions and seeds differ only inside bins.
    """
    ordered = sorted(entries, key=lambda e: (e["cost_s"], e["id"]))
    n = len(ordered)
    picks = []
    for i in range(m):
        lo = i * n // m
        hi = max(lo + 1, (i + 1) * n // m)
        picks.append(ordered[rng.randrange(lo, hi)])
    return picks


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A mean of all order statistics, weighted by how much of a Beta(p(n+1),
    (1-p)(n+1)) distribution falls on each one's share of [0, 1].  The
    catalogs' costs have gaps (k = 2 to k = 4, rank 3 to rank 4) next to the
    median and the tail rank, and a single order statistic would jump across
    a gap when one query moves, so seeds of the same code would differ by
    half the gap; this estimate moves by a small part of it.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 8  # midpoint-rule points per order statistic
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((j + 0.5) / (n * steps) for j in range(n * steps))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_value(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    p = (n - 10) / n
    return quantile(values, p), 100.0 * p


def _cost_profile(picks: list[dict]) -> tuple[float, float, float]:
    costs = [e["cost_s"] for e in picks]
    return sum(costs), quantile(costs, 0.5), tail_value(costs)[0]


def balanced(draw, workload: str, seed: int, tries: int = 32) -> list[dict]:
    """The seed's draw whose recorded costs look most like a typical draw.

    ``draw(rng)`` makes one stratified draw.  Of ``tries`` draws from the
    seed, the one whose total, median and tail recorded cost lie closest to
    the medians of ``tries`` reference draws is kept.  A few expensive
    queries dominate these three figures, and without this step seeds would
    differ in them by several per cent before any timing noise.
    """
    ref_rng = rng_for(workload, -1)
    target = [statistics.median(col)
              for col in zip(*(_cost_profile(draw(ref_rng)) for _ in range(tries)))]
    rng = rng_for(workload, seed)

    def distance(picks):
        return sum(abs(v - t) / t for v, t in zip(_cost_profile(picks), target))

    return min((draw(rng) for _ in range(tries)), key=distance)


def draw_count(entries: list[dict], seconds: float, minimum: int) -> int:
    """How many stratified picks fill ``seconds`` at the recorded mean cost."""
    mean = sum(e["cost_s"] for e in entries) / len(entries)
    return max(minimum, round(seconds / mean))
