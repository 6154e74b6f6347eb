"""Spans around calls into the program, their rollups and their file format.

A :class:`SpanRecorder` keeps spans in memory (name, start, end, parent
span, thread, request id, attributes); nothing is written until
:func:`write_chrome_trace` is called at exit.  :class:`Patcher` installs
timing wrappers on public functions and methods from outside the
program and restores the originals afterwards, so the code under test
is never edited and an untraced run executes it unwrapped.

Self time is a span's duration minus the part of that interval covered
by its direct children (:func:`self_time`); children that overlap each
other, as spans from different threads can, are counted once.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Span", "SpanRecorder", "Patcher", "Rollup", "timed",
           "union_length", "self_time", "rollup", "root_of",
           "write_chrome_trace", "read_chrome_trace"]


class Span:
    """One timed call; ``parent`` is the enclosing span's ``id`` or None."""

    __slots__ = ("id", "name", "start", "end", "parent", "tid", "rid", "attrs")

    def __init__(self, id: int, name: str, start: float, end: float | None,
                 parent: int | None = None, tid: int = 0,
                 rid: str | None = None, attrs: dict | None = None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tid = tid
        self.rid = rid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with one open-span stack per thread.

    ``count(n)`` attributes one created object of ``n`` elements to the
    outermost span open on the calling thread (``None`` when no span is
    open); per-thread tallies are merged by :meth:`counts`.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._tallies: list[dict] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), None,
                    stack[-1].id if stack else None, threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} ended out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def add(self, name: str, start: float, end: float, rid: str | None = None,
            attrs: dict | None = None) -> Span:
        """Record a span measured elsewhere (e.g. across two threads)."""
        span = Span(next(self._ids), name, start, end, None,
                    threading.get_ident(), rid, attrs)
        self.spans.append(span)
        return span

    def count(self, elements: int) -> None:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = {}
            self._tallies.append(tally)
        stack = self._stack()
        key = stack[0].name if stack else None
        slot = tally.get(key)
        if slot is None:
            slot = tally[key] = [0, 0]
        slot[0] += 1
        slot[1] += elements

    def counts(self) -> dict:
        """``{outermost span name: (objects, elements)}`` over all threads."""
        merged: dict = {}
        for tally in self._tallies:
            for key, (n, elems) in list(tally.items()):
                old = merged.get(key, (0, 0))
                merged[key] = (old[0] + n, old[1] + elems)
        return merged


def timed(recorder: SpanRecorder, name: str, fn, attrs=None):
    """Wrap ``fn`` so every call records a span called ``name``.

    ``attrs(args, kwargs, result)``, when given, returns a dict stored
    on the span after the call returns.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result
    return wrapper


class Patcher:
    """Replace attributes of modules or classes; undo in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ----------------------------------------------------------------------
# Rollups
# ----------------------------------------------------------------------

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children) -> float:
    """``span``'s duration minus the time its direct children cover."""
    covered = union_length([(c.start, c.end) for c in children],
                           span.start, span.end)
    return span.duration - covered


@dataclass
class Rollup:
    """Per-name totals: ``count``/``total`` over outermost calls only (a
    call nested in a same-name call is part of it), ``self_total`` over
    every call."""

    count: int = 0
    total: float = 0.0
    self_total: float = 0.0


def _index(spans) -> tuple[dict, dict]:
    by_id = {s.id: s for s in spans}
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return by_id, children


def root_of(span: Span, by_id: dict) -> Span:
    """The outermost recorded ancestor of ``span`` (itself if none)."""
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
    return span


def rollup(spans) -> dict[str, Rollup]:
    """Roll spans up by name (see :class:`Rollup`)."""
    spans = list(spans)
    by_id, children = _index(spans)
    out: dict[str, Rollup] = {}
    for s in spans:
        r = out.setdefault(s.name, Rollup())
        r.self_total += self_time(s, children.get(s.id, ()))
        nested = False
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name == s.name:
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            r.count += 1
            r.total += s.duration
    return out


# ----------------------------------------------------------------------
# Chrome trace_event files (the format repro.obs exports and Perfetto opens)
# ----------------------------------------------------------------------

def write_chrome_trace(path: str | Path, spans, other: dict | None = None,
                       process: str = "garlbench") -> Path:
    """Write spans as ``X`` events (µs ``ts``/``dur``); ids ride in args."""
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": process}}]
    for s in spans:
        args = {"id": s.id, "parent": s.parent}
        if s.rid is not None:
            args["rid"] = s.rid
        if s.attrs:
            args.update(s.attrs)
        events.append({"ph": "X", "pid": 1, "tid": s.tid, "name": s.name,
                       "cat": "span", "ts": s.start * 1e6,
                       "dur": (s.end - s.start) * 1e6, "args": args})
    payload = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": {"producer": "garlbench", **(other or {})}}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")
    return path


def read_chrome_trace(path: str | Path) -> tuple[list[Span], dict]:
    """Inverse of :func:`write_chrome_trace`: ``(spans, otherData)``."""
    payload = json.loads(Path(path).read_text())
    spans = []
    for ev in payload["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        sid = args.pop("id")
        parent = args.pop("parent", None)
        rid = args.pop("rid", None)
        start = ev["ts"] / 1e6
        spans.append(Span(sid, ev["name"], start, start + ev["dur"] / 1e6,
                          parent, ev["tid"], rid, args or None))
    return spans, payload.get("otherData", {})
