"""In-memory spans around calls into the library's public functions.

Wrappers rebind module or class attributes inside the benchmark process
only; no library source is edited.  A span records its name, start, end,
parent span and op id, plus an optional count taken from the call's result
(array elements, iterations).  Spans stay in memory until ``write`` at the
end of the run.  Calls made while no op is open are not recorded, so checks
and set-up never show up in an op's spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    count: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op: int | None = None

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span named ``name``; ``count(result)``
        gives the span's count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = float(count(result))
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        """Rebind ``owner.attr`` to a traced wrapper until ``restore``."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        return [sp.duration - c for sp, c in zip(self.spans, child)]

    def totals(self):
        """Per op: {name: [calls, total seconds, self seconds, count sum]}."""
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0.0]))
        for sp, own in zip(self.spans, self.self_times()):
            row = out[sp.op][sp.name]
            row[0] += 1
            row[1] += sp.duration
            row[2] += own
            row[3] += sp.count or 0.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")

