"""In-memory spans and counts recorded around calls into the program.

A span has a name, start, end, parent and op id.  Spans nest through a
stack (the traced code paths are single-threaded), are kept in memory,
and are written out once when the run ends.  A layer's *self time* is
its span's duration minus the part of that interval covered by its
child spans; an op's *uncovered* time is the self time of the op's root
span, i.e. latency no layer span accounts for.

:func:`patched` wraps a public function or method for the duration of a
``with`` block so calls the program makes internally (for instance
``Simulator.run`` calling ``Simulator.project``) are recorded as child
spans without editing the program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time (seconds) of every span: duration minus child coverage."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Span stack plus counters; disabled tracers record nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(sid, name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int, name: str = "op"):
        """Root span of one op; nested spans carry its id."""
        previous, self._op = self._op, op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = previous

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += value

    # -- reduction -----------------------------------------------------
    def self_ms_by_name(self) -> dict[str, list[float]]:
        """Per span name, the self time (ms) of each occurrence."""
        st = self_times(self.spans)
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            out[s.name].append(st[s.id] * 1e3)
        return out

    def write(self, path) -> None:
        """Write every span and count as JSON (called once, at run end)."""
        payload = {
            "spans": [s.__dict__ for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


@contextlib.contextmanager
def patched(tracer: Tracer, owner, attr: str, name: str):
    """Record every call of ``owner.attr`` as a ``name`` span while active."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)
