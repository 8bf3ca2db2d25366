"""In-memory spans around calls into the gaids layers.

A span is ``[name, start, end, parent, record, rows]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``record`` the test-record
index the span works for (None outside per-record work), and ``rows`` the
number of rows a kernel call scanned (None elsewhere). Spans stay in memory
and are written out once, when the run ends.

Spans are recorded only from the benchmark's own files: around the calls it
makes, and around module functions it replaces for the length of a run
(`Tracer.patch`). An entry point that the package no longer has is recorded
as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

def lookup(dotted: str):
    """The object at a dotted path such as ``gaids.metrics.ConfusionMatrix.from_pairs``,
    or None when the package no longer has it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class NullTracer:
    """Records nothing: the same job with tracing off."""

    def span(self, name: str, record=None):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._record = None
        self._restore: list = []

    def _open(self, name: str, rows=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._record, rows])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, record=None):
        outer = self._record
        if record is not None:
            self._record = record
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._record = outer

    def patch(self, name: str, dotted: str, rows_arg: int | None = None) -> None:
        """Replace the module function at `dotted` by a wrapper that records
        a span called `name` per call, until `unpatch`.

        Callers that look the attribute up at call time go through the
        wrapper. `rows_arg` is the positional argument whose length is
        stored as the span's row count.
        """
        module_name, _, attr = dotted.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(dotted)
            return
        opened, closed = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = opened(name, len(args[rows_arg]) if rows_arg is not None else None)
            try:
                return original(*args, **kwargs)
            finally:
                closed(idx)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unpatch(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- reading spans -------------------------------------------------------

    def named(self, name: str, parent_name: str | None = None) -> list[list]:
        """Spans called `name`, optionally only those directly inside a span
        called `parent_name`."""
        return [
            s for s in self.spans
            if s[0] == name and (parent_name is None or (s[3] >= 0 and self.spans[s[3]][0] == parent_name))
        ]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, time in its outermost spans, and self time
        (a span's duration minus what its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0})
        for i, s in enumerate(self.spans):
            layer = s[0].split(".", 1)[0]
            row = table[layer]
            row["spans"] += 1
            row["self_s"] += (s[2] - s[1]) - child_time[i]
            if s[3] < 0 or self.spans[s[3]][0].split(".", 1)[0] != layer:
                row["total_s"] += s[2] - s[1]
        return dict(table)

    def write(self, path, **meta) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "record", "rows"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")
