"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, input id); times are seconds from the
recorder's creation.  Spans are kept in memory and written once, when the run
ends.  The time spent inside the recorder itself is accumulated, so the cost
of tracing is measured rather than guessed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Recorder:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: List[list] = []       # [name, start, end, parent index, input id]
        self.counts: Dict[str, float] = defaultdict(float)
        self.recorder_s = 0.0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, input_id: str):
        t_in = time.perf_counter()
        parent: Optional[int] = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, input_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            t1 = time.perf_counter()
            rec[1], rec[2] = t0 - self.origin, t1 - self.origin
            self._stack.pop()
            self.recorder_s += (t0 - t_in) + (time.perf_counter() - t1)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "input_id"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
