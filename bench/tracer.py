"""In-memory spans around the benchmark's calls into primeframes.

A span records a name, start and end (perf_counter seconds), the span that
was open when it began, and the op it belongs to.  Setup repetition r
uses op id -(r + 1); checks run under their op's id inside a "check" span.
With tracing off, ``call`` is a plain call and nothing is stored.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np


class SpanStats(dict):
    """Per span name: calls, busy_s, durations, op_id; a name with no spans
    reads as zero calls."""

    def __missing__(self, name):
        return {"calls": 0, "busy_s": 0.0, "durations": np.zeros(0),
                "op_id": np.zeros(0, dtype=np.int32)}


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.names = []
        self._ids = {}
        self._stack = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def arrays(self) -> dict:
        """Spans as numpy arrays, with each span's self time (its duration
        minus the part its child spans cover)."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": name_id,
            "parent": parent,
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "self_s": dur - child,
        }

    def stats(self, op_scale, setup_scale: float) -> dict:
        """Per span name: call count, summed self time and the durations.

        Times are multiplied by ``op_scale[op]`` for spans of op ``op`` and
        by ``setup_scale`` for set-up spans."""
        a = self.arrays()
        ops = a["op_id"]
        scale = np.where(ops >= 0, np.asarray(op_scale)[np.maximum(ops, 0)],
                         setup_scale)
        dur = (a["end"] - a["start"]) * scale
        self_s = a["self_s"] * scale
        out = SpanStats()
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "busy_s": float(self_s[sel].sum()),
                "durations": dur[sel],
                "op_id": ops[sel],
            }
        return out

    def save(self, path: str):
        np.savez_compressed(path, **self.arrays())
