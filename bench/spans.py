"""In-memory spans recorded by the benchmark around its calls into the
library.  Nothing inside the library is instrumented: a span covers one
call as seen from outside, so a layer's self time is its spans' time
minus the time of the spans the benchmark opened inside them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records (name, start, end, parent, run id) for every span while
    enabled; when disabled, span() records nothing.  Hot loops test
    `enabled` themselves, so that untraced runs carry no span calls."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        record = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span that was timed before the tracer existed."""
        if self.enabled:
            self.spans.append({
                "id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "start": start, "end": end,
            })


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer, where a span named 'mod.func'
    belongs to layer 'mod': each span's duration minus the time its
    direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child_time[s["id"]]
    return out
