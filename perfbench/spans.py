"""In-memory spans around calls into the program's public functions.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span (or None) and ``request`` the id shared by
the spans of one request or round.  Spans stay in a list until
:meth:`Tracer.write` puts them in a JSON-lines file at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield idx
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, request)

    def add(self, name: str, start: float, end: float, parent=None,
            request=None) -> int:
        """Record a span timed elsewhere (an asyncio request)."""
        self.spans.append((name, start, end, parent, request))
        return len(self.spans) - 1

    def self_times(self) -> dict:
        """Seconds per span name: each span's duration minus the part of
        its interval that its children cover."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for cs, ce in sorted(children.get(i, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out[name] += (end - start) - covered
        return dict(out)

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")


class NullTracer:
    """The untraced stand-in: same calls, no records."""

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        yield None
