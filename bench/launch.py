"""Run one weightcalc command in this fresh interpreter, as a user would.

    python3 bench/launch.py [--speed-out FILE] [--trace-out FILE] <weightcalc arguments>
    python3 bench/launch.py [--speed-out FILE] --import-only

The package is imported from this checkout's ``src``.  ``--import-only``
stops after importing ``weightcalc.cli``.  With ``--speed-out`` this process
times slices of the reference loop of ``calib.py`` after the command (more
for a longer command), and writes their median speed factor and the seconds
they took to FILE as JSON, so that the caller can take those seconds off the
process's wall time and scale the rest by the speed of the very process that
did the work.  The slices come after the command so that the command imports
every module itself, as it would for a user.  With ``--trace-out`` the layer
functions are wrapped in spans first, and the spans, counters, and the time
spent importing ``weightcalc.cli`` and inside ``main`` are written to FILE as
JSON when the command returns.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
#: Slices of the reference loop timed after the command (one more warms up):
#: enough to take this share of the command's own time, and at least this many.
SLICE_SHARE = 0.02
MIN_SLICES = 3


def option(args: list[str], name: str):
    if args[:1] == [name]:
        return args[1], args[2:]
    return None, args


def main() -> int:
    args = sys.argv[1:]
    speed_out, args = option(args, "--speed-out")
    trace_out, args = option(args, "--trace-out")
    started = time.perf_counter()
    code = run(args, trace_out)
    if speed_out is not None:
        sys.stdout.flush()
        ran_s = time.perf_counter() - started
        started = time.perf_counter()
        sys.path.insert(0, BENCH_DIR)
        import json
        import statistics

        import calib

        calib.slice_s()  # warms up; not kept
        n = max(MIN_SLICES, round(SLICE_SHARE * ran_s / calib.NOMINAL_SLICE_S))
        slices = [calib.slice_s() for _ in range(n)]
        with open(speed_out, "w", encoding="utf-8") as fh:
            json.dump({"factor": statistics.median(slices) / calib.NOMINAL_SLICE_S,
                       "slices": n, "calib_s": time.perf_counter() - started}, fh)
    return code


def run(args: list[str], trace_out) -> int:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import weightcalc.cli

    imported = time.perf_counter()
    if args == ["--import-only"]:
        return 0
    if trace_out is None:
        return weightcalc.cli.main(args)

    sys.path.insert(1, BENCH_DIR)
    import json

    import probes
    from spans import Recorder

    rec = Recorder()
    probes.install(rec)
    with rec.span("cli.main"):
        code = weightcalc.cli.main(args)
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": imported - start, "spans": rec.rows(),
                   "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
