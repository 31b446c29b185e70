"""In-memory spans and counters for the traced benchmark run.

A span is recorded around each call the benchmark makes into an ``l2mult``
module.  Its name is ``<layer>.<metric>``; the layer is the module.  A
*replica* span re-runs, on the same input, a public sub-step that the
preceding call performed internally (``ExperimentContext`` builds the chain,
``luck_bound_check`` computes the characteristic polynomial).  Replicas are
recorded as children of the span that hid the sub-step, so the parent's self
time is its duration minus its nested children and minus its replicas.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class NullTracer:
    """Tracer used by the untraced passes: records nothing, runs no replica."""

    on = False

    @contextmanager
    def span(self, name, replica_of=None):
        yield None

    def count(self, name, value=1):
        pass

    def maximum(self, name, value):
        pass


class Tracer:
    on = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        self._pass = 0

    def begin_pass(self, index: int):
        self._pass = index

    @contextmanager
    def span(self, name: str, replica_of: int | None = None):
        """Time one call; an exception leaving the span counts one error
        against the innermost span's layer and propagates."""
        sid = len(self.spans)
        parent = replica_of if replica_of is not None else \
            (self._stack[-1] if self._stack else None)
        rec = {"id": sid, "name": name, "layer": name.split(".")[0],
               "parent": parent, "replica": replica_of is not None,
               "run": self.run_id, "pass": self._pass,
               "start": time.perf_counter(), "end": None, "error": False}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        except Exception as exc:
            rec["error"] = True
            if exc is not self._last_error:
                self._last_error = exc
                self.count(f"{rec['layer']}.errors")
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def pass_counters(self) -> dict[str, float]:
        """Counters accumulated since the last call; resets them."""
        out, self.counters = self.counters, {}
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize_pass(spans: list[dict], start: float, end: float):
    """Inclusive time per span name, self time per layer, and the part of
    the pass ``[start, end]`` that no top-level span covers."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    replica_s = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        inclusive[s["name"]] = inclusive.get(s["name"], 0.0) + dur
        kids = children.get(s["id"], [])
        nested = _covered([(k["start"], k["end"]) for k in kids
                           if not k["replica"]])
        replicas = sum(k["end"] - k["start"] for k in kids if k["replica"])
        own = max(0.0, dur - nested - replicas)
        self_time[s["layer"]] = self_time.get(s["layer"], 0.0) + own
        if s["replica"]:
            replica_s += dur
    # replicas run after the span that hid their sub-step, not inside it
    top = [(s["start"], s["end"]) for s in spans
           if s["parent"] is None or s["replica"]]
    uncovered = max(0.0, (end - start) - _covered(top))
    return inclusive, self_time, replica_s, uncovered
