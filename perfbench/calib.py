"""Times scaled to a reference machine speed.

On a shared machine the speed one process gets drifts by up to 2x within
seconds, so raw wall times of the same code spread too widely to compare
two commits.  A Speedometer therefore runs a fixed probe, a breadth-first
search over a small random graph held in Python lists, sets and a deque
like the program's own, about every INTERVAL_S (from a SIGALRM handler,
or inline between chunks of queries).  A timed block's wall time, less the
probes that ran inside it, is scaled by REF_PROBE_S over the median probe
time in and around it: the result reads as seconds on a machine on which
the probe takes REF_PROBE_S.  Raw times and probe times go to the run's
metadata too.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from collections import deque

PROBE_VERTICES = 600
REF_PROBE_S = 180e-6
INTERVAL_S = 0.05

pc = time.perf_counter


class Speedometer:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.graph = [[rng.randrange(PROBE_VERTICES) for _ in range(3)]
                      for _ in range(PROBE_VERTICES)]
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        graph = self.graph
        t0 = pc()
        seen = {0}
        queue = deque((0,))
        while queue:
            for w in graph[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        self.starts.append(t0)
        self.durations.append(pc() - t0)

    def _tick(self, _signum, _frame) -> None:
        self.probe()

    def start(self) -> None:
        """Probe every INTERVAL_S from a SIGALRM handler until stop()."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def sample(self) -> "Sample":
        return Sample(self)


class Sample:
    """`with speedo.sample() as s:` times the block, with a probe just before
    and just after it.  Afterwards s.raw is its wall time less the probes
    that ran inside it, s.loop the median probe time, s.scale = REF_PROBE_S /
    s.loop and s.norm = s.raw * s.scale."""

    def __init__(self, speedo: Speedometer):
        self.speedo = speedo

    def __enter__(self) -> "Sample":
        self.speedo.probe()
        self.first = len(self.speedo.starts)
        self.t0 = pc()
        return self

    def __exit__(self, *exc) -> None:
        t1 = pc()
        sp = self.speedo
        inside = sp.durations[self.first : bisect.bisect_left(sp.starts, t1, self.first)]
        sp.probe()
        used = [sp.durations[self.first - 1], *inside, sp.durations[-1]]
        self.raw = t1 - self.t0 - sum(inside)
        self.loop = statistics.median(used)
        self.scale = REF_PROBE_S / self.loop
        self.norm = self.raw * self.scale
