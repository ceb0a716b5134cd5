"""Layer spans for the traced benchmark run.

The tracer wraps public entry points from the outside: it replaces the name
where callers look it up (a class attribute, or a module global that another
module imported by name) with a wrapper that counts calls and accumulates
self time. Self time is a call's duration minus the duration of the wrapped
calls it made, so time spent inside a nested layer is charged to that layer
only. Hot per-call boundaries aggregate in memory; the only individual spans
kept are one per benchmark unit, and they are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.cells: dict = {}      # entry-point key -> [calls, self seconds]
        self.counts: dict = {}     # named counters filled by observers
        self.spans: list = []      # one per unit: (id, name, start, end, self_s)
        self._stack = [0.0]        # child time of each open span; [0] is the root
        self._patched: list = []
        self._t0 = perf_counter()

    def wrap(self, owner, attr: str, key: str, observe=None):
        """Replace owner.attr by a counting, self-timing wrapper.

        `observe(args, result)` runs after each call, outside the timed region.
        """
        orig = vars(owner)[attr]
        cell = self.cells.setdefault(key, [0, 0.0])
        stack = self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                cell[0] += 1
                cell[1] += dt - stack.pop()
                stack[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def restore(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def bump(self, name: str, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def peak(self, name: str, value):
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def unit(self, name: str, fn, *args):
        """Run one benchmark unit as a root span; its self time is the
        benchmark's own work around the layer calls."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            child = stack.pop()
            self.spans.append((len(self.spans), name, t0 - self._t0, t1 - self._t0,
                               (t1 - t0) - child))

    def layer_totals(self) -> dict:
        """Layer name (the key's prefix) -> [calls, self seconds]."""
        out: dict = {}
        for key, (calls, self_s) in self.cells.items():
            agg = out.setdefault(key.split(".", 1)[0], [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        agg = out.setdefault("bench", [0, 0.0])
        agg[0] += len(self.spans)
        agg[1] += sum(s[4] for s in self.spans)
        return out

    def write(self, path):
        payload = {
            "entry_points": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(self.cells.items())},
            "counts": self.counts,
            "unit_spans": [dict(zip(("id", "name", "start_s", "end_s", "self_s"), s))
                           for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
