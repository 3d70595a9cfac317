"""In-memory spans around the benchmark's calls into rankone.

A span is (name, start, end, parent, op id).  Spans are recorded only
while ``enabled`` is set; with it cleared, ``call`` costs one Python call
and a ``try`` on top of the call it wraps.  Either way the name of the
innermost call that raised is kept in ``failed_layer`` so that failures
are charged to the module that raised them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.failed_layer = None
        # (name, start, end, parent index or -1, op id); parents precede children.
        self.spans: list[tuple[str, float, float, int, int]] = []
        # Per-call times measured outside this process (child interpreters), in ms.
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.failed_layer = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            try:
                yield
            except Exception:
                self.failed_layer = self.failed_layer or name
                raise
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(idx)
        try:
            yield
        except Exception:
            self.failed_layer = self.failed_layer or name
            raise
        finally:
            self._stack.pop()
            name_, start, _, parent_, op = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_, op)

    def call(self, name: str, fn, *args):
        if not self.enabled:
            try:
                return fn(*args)
            except Exception:
                self.failed_layer = self.failed_layer or name
                raise
        with self.span(name):
            return fn(*args)

    def record(self, name: str, ms: float):
        if self.enabled:
            self.samples.setdefault(name, []).append(ms)

    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover.

        Children of one parent run one after another in this process, so
        the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out.setdefault(name, []).append(1e3 * (end - start - child))
        for name, values in self.samples.items():
            out.setdefault(name, []).extend(values)
        return out

    def write(self, path):
        """Write every span as one JSON line, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "op": op,
                }) + "\n")
