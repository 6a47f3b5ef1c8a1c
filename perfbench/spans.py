"""In-memory spans for the traced run: name, start, end, parent and run id,
recorded around calls into the library's public functions and written out
when the run ends. A disabled tracer records nothing."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool, run_id: str = ""):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append({
            "id": sid,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        })
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it its child spans cover. Spans
        come from one thread at a time, so children never overlap."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans
               if s["end"] is not None}
        for s in self.spans:
            p = s["parent"]
            if p is not None and s["end"] is not None and p in out:
                out[p] -= s["end"] - s["start"]
        return out

    def dump(self, path: str) -> None:
        selft = self.self_times()
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "self": selft.get(s["id"])}) + "\n")
