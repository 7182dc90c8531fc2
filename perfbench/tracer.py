"""In-memory spans around the benchmark's calls into each layer.

A span is ``(id, name, parent, start_ns, end_ns)``; names are
``<layer>.<call>`` and layers are the package modules.  Layer calls made
inside an op are children of the op's span, so a layer's self time is its
span's duration and the op's self time (the benchmark's own overhead) is its
duration minus its children.  Spans stay in memory; every one feeds the
per-name durations, and the first ``keep`` are kept raw for the trace file.
"""

from __future__ import annotations

import time
from array import array

_now = time.perf_counter_ns


def direct(name, fn, *args):
    """The untraced call path: no clock reads, no records."""
    return fn(*args)


class Tracer:
    def __init__(self, keep: int = 20000):
        self.keep = keep
        self.rows: list[tuple[int, str, int, int, int]] = []
        self.durations: dict[str, array] = {}
        self.self_ns: dict[str, int] = {}
        self.next_id = 0
        self.parent = -1
        self._child_ns = 0

    def _record(self, sid: int, name: str, parent: int, t0: int, t1: int,
                self_ns: int, in_op: bool) -> None:
        self.durations.setdefault(name, array("q")).append(t1 - t0)
        if in_op:  # self time counts the work of ops only, not set-up
            layer = name.split(".", 1)[0]
            self.self_ns[layer] = self.self_ns.get(layer, 0) + self_ns
        if len(self.rows) < self.keep:
            self.rows.append((sid, name, parent, t0, t1))

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span that is a child of the open op."""
        sid = self.next_id
        self.next_id += 1
        t0 = _now()
        try:
            return fn(*args)
        finally:
            t1 = _now()
            self._child_ns += t1 - t0
            self._record(sid, name, self.parent, t0, t1, t1 - t0, self.parent >= 0)

    def op(self, name: str, fn, *args):
        """Run one op as a root span; layer calls inside become its children."""
        sid = self.next_id
        self.next_id += 1
        self.parent, self._child_ns = sid, 0
        t0 = _now()
        try:
            return fn(*args)
        finally:
            t1 = _now()
            self.parent = -1
            self._record(sid, name, -1, t0, t1, (t1 - t0) - self._child_ns, True)

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "parent", "start_ns", "end_ns"],
            "spans": [list(r) for r in self.rows],
            "recorded": self.next_id,
            "kept": len(self.rows),
        }
