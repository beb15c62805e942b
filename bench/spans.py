"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer: its name, its start and end on the
``time.perf_counter`` clock, and the span that was open when it began.
Spans stay in memory until the run ends; counters are a plain dict.

``wrap`` turns a function into one that records a span per call, and
``Patch`` swaps such wrappers into module namespaces and puts the originals
back afterwards, so the program under test is traced from the benchmark's
own files without editing it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Recorder:
    """Spans of one process plus a counter dict."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._open = -1  # innermost open span, -1 when none is open

    def enter(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open)
        self.ends.append(0.0)
        self._open = sid
        self.starts.append(_clock())
        return sid

    def exit(self, sid: int) -> None:
        self.ends[sid] = _clock()
        self._open = self.parents[sid]

    @contextmanager
    def span(self, name: str):
        sid = self.enter(name)
        try:
            yield sid
        finally:
            self.exit(sid)

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def rows(self) -> list[list]:
        """Every span as ``[name, start, end, parent]``, in start order."""
        return [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


def self_times(rows: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    One thread runs every span, so children never overlap and their
    durations simply add up.
    """
    out = [end - start for _, start, end, _ in rows]
    for _, start, end, parent in rows:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(rows: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Inclusive time counts only the outermost span of a name, so a layer that
    calls itself is not counted twice.
    """
    selfs = self_times(rows)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(rows):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        p = parent
        while p >= 0 and rows[p][0] != name:
            p = rows[p][3]
        if p < 0:
            agg["s"] += end - start
    return out


def wrap(rec: Recorder, name: str, fn, after=None):
    """``fn`` recording one span per call; ``after(args, result)`` may count."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(sid)
        if after is not None:
            after(args, result)
        return result

    return traced


class Patch:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, modules, original, replacement) -> None:
        """Point every module-level name bound to ``original`` at ``replacement``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
