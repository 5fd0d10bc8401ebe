"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into each
hamext module; nothing inside the library is instrumented. A disabled
recorder hands out one shared no-op context, so the untraced run pays
only an attribute lookup and a `with` per call.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from typing import NamedTuple

_NULL = nullcontext()


class Span(NamedTuple):
    sid: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float


class _Open:
    __slots__ = ("rec", "name", "op", "sid", "parent", "start")

    def __init__(self, rec: "Recorder", name: str, op: int | None):
        self.rec, self.name, self.op = rec, name, op

    def __enter__(self):
        rec = self.rec
        self.sid = rec._opened
        rec._opened += 1
        if rec._stack:
            top = rec._stack[-1]
            self.parent = top.sid
            if self.op is None:
                self.op = top.op
        else:
            self.parent = None
        rec._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self.rec
        rec._stack.pop()
        rec.spans.append(Span(self.sid, self.parent, self.op, self.name, self.start, end))
        return False


class Recorder:
    """Spans and counters of one traced batch; a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[_Open] = []
        self._opened = 0

    def span(self, name: str, op: int | None = None):
        """Context manager timing `name`; `op` tags a root span and its
        descendants with the operation they belong to."""
        if not self.enabled:
            return _NULL
        return _Open(self, name, op)

    def count(self, name: str, k: int = 1) -> None:
        if self.enabled:
            self.counts[name] += k

    def dump(self) -> dict:
        return {"spans": [s._asdict() for s in sorted(self.spans, key=lambda s: s.sid)],
                "counts": dict(self.counts)}

    @classmethod
    def load(cls, data: dict, enabled: bool) -> "Recorder":
        """The recorder `dump` described, e.g. one sent by another process."""
        rec = cls(enabled)
        rec.spans = [Span(**s) for s in data["spans"]]
        rec.counts = Counter(data["counts"])
        return rec


def self_times(spans) -> dict[int, float]:
    """Per span id: its duration minus the part of its interval that
    its direct children cover (overlapping children count once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.sid], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out[s.sid] = (s.end - s.start) - covered
    return out


def write_json(path, batches: list["Recorder"], meta: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "batches": [r.dump() for r in batches]}, fh)
