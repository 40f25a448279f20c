"""In-memory spans recorded from outside the program, around calls into it.

A span is (name, start_ns, end_ns, parent, query id), kept in parallel
lists of strings and ints so that recording creates no objects the cyclic
garbage collector has to walk.  Spans nest on one thread, so a span's self
time is its duration minus the durations of its direct children.  Nothing
is written until `dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

now_ns = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.qids: list[int] = []
        self._stack: list[int] = []

    def begin(self, name: str, qid: int = -1) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.qids.append(qid)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(now_ns())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = now_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, qid: int = -1) -> Iterator[None]:
        sid = self.begin(name, qid)
        try:
            yield
        finally:
            self.end(sid)

    @contextmanager
    def patched(self, module, attr: str, name: str) -> Iterator[None]:
        """Record calls to module.attr, including calls the module's own code
        makes through its global name, while the block runs."""
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.end(sid)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, orig)

    def mark(self) -> int:
        return len(self.names)

    def seconds(self, sid: int) -> float:
        return (self.ends[sid] - self.starts[sid]) / 1e9

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds of self time per span name, over spans recorded since `since`."""
        child: dict[int, int] = defaultdict(int)
        for i in range(since, len(self.names)):
            if self.parents[i] >= since:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(since, len(self.names)):
            out[self.names[i]] += (self.ends[i] - self.starts[i] - child[i]) / 1e9
        return dict(out)

    def durations_us(self, name: str, since: int = 0) -> list[float]:
        return [(self.ends[i] - self.starts[i]) / 1e3
                for i in range(since, len(self.names)) if self.names[i] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"id": i, "name": name, "start_ns": self.starts[i],
                                    "end_ns": self.ends[i], "parent": self.parents[i],
                                    "qid": self.qids[i]}) + "\n")
