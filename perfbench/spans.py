"""Spans recorded from the benchmark's side of every call into the program.

A span is ``[name, start, end, parent, item]``: the parent is the index of the
enclosing span (-1 at top level) and ``item`` the id of the workload item it
belongs to (None during set-up).  Spans stay in memory and are written out
once, when the run ends.  The untraced runs use ``NULL``, whose calls forward
straight to the program.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per name: span time minus the time covered by its child spans.

        Only spans with index in ``[first, last)`` count; children always
        close before their parent, so one pass over the list suffices.
        """
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class _Null:
    item = None

    def begin(self, name: str) -> None:
        return None

    def end(self, idx) -> None:
        return None

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = _Null()
