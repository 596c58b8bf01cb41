"""Host-speed calibration: a fixed pure-Python loop timed during each pass.

Host speed drifts by up to 1.7x within a minute on shared machines, and
each CPU drifts on its own: the same loop takes 19 ms on one CPU while
it takes 31 ms on the other, and the states swap within seconds.
Process CPU time drifts with it, so the cause is a slower CPU, not
preemption.  Raw host times would pass that drift on to every metric:
over 20 s windows of one five-minute study on a 2-CPU host, the median
pktgen_remote simulation time varied with an interquartile spread of
57% of its median.

So a pass runs pinned to one CPU (see passes.py) and times this loop on
that CPU every SAMPLE_INTERVAL_S while it runs (a SIGALRM handler), and
the benchmark reports *reference seconds*: each stretch of host time
between two samples, scaled to a host on which one loop iteration takes
REFERENCE_S_PER_ITERATION, with the time spent in the samples left out.
In one 90 s study, per-pass simulation times of pktgen_remote varied
with an interquartile spread of 22% unscaled, 11% scaled by loops at
the ends of the pass only, and 4% scaled by samples taken during it.

The loop shares no code with the simulator, so a change to the simulator
cannot move it, but it exercises the same interpreter paths a
discrete-event simulation does: object allocation, method calls,
attribute updates, dict writes and a binary heap.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Tuple

#: Host seconds per loop iteration on the reference host.
REFERENCE_S_PER_ITERATION = 1.5e-6
#: Iterations of one sample taken during a pass (about 12 ms).
SAMPLE_ITERATIONS = 8_000
SAMPLE_INTERVAL_S = 0.2
#: Iterations, and best-of repeats, of a calibration outside a pass.
ITERATIONS = 20_000
REPEATS = 3


class _Server:
    __slots__ = ("free_at", "busy", "bytes")

    def __init__(self):
        self.free_at = 0
        self.busy = 0
        self.bytes = 0

    def account(self, now: int, nbytes: int) -> int:
        start = self.free_at if self.free_at > now else now
        service = nbytes // 8 + 1
        self.free_at = start + service
        self.busy += service
        self.bytes += nbytes
        return self.free_at - now


def _loop(iterations: int) -> int:
    servers = [_Server() for _ in range(64)]
    queue = []
    now = 0
    for i in range(iterations):
        server = servers[i & 63]
        delay = server.account(now, 256 + (i & 255))
        heapq.heappush(queue, (now + delay, i, server))
        if len(queue) > 512:
            now, _seq, _server = heapq.heappop(queue)
            _server.bytes += len({"t": now, "i": i})
    return now


def seconds_per_iteration(iterations: int = ITERATIONS,
                          repeats: int = REPEATS) -> float:
    """Host seconds per loop iteration, best of ``repeats`` loops."""
    best = float("inf")
    for _ in range(repeats):
        began = time.monotonic()
        _loop(iterations)
        best = min(best, time.monotonic() - began)
    return best / iterations


class Sampler:
    """Calibration samples taken during a pass, on the pass's CPU."""

    def __init__(self):
        #: (start, end, host seconds per iteration), monotonic clock.
        self.samples: List[Tuple[float, float, float]] = []

    def sample(self) -> None:
        began = time.monotonic()
        _loop(SAMPLE_ITERATIONS)
        ended = time.monotonic()
        self.samples.append((began, ended,
                             (ended - began) / SAMPLE_ITERATIONS))

    def start(self) -> None:
        """Sample every SAMPLE_INTERVAL_S until :meth:`stop`."""
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample_seconds(self, start: float, end: float) -> float:
        """Host seconds spent sampling within [start, end]."""
        return sum(max(0.0, min(b, end) - max(a, start))
                   for a, b, _ in self.samples)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the host time in [start, end], less the
        time spent sampling.  Each stretch between two samples is scaled
        by the mean speed the two samples read; [start, end] must lie
        between the first and the last sample."""
        samples = sorted(self.samples)
        if not samples or start < samples[0][1] or end > samples[-1][0]:
            raise ValueError("interval not bracketed by samples")
        total = 0.0
        for (_, gap_start, before), (gap_end, _, after) in zip(
                samples, samples[1:]):
            low, high = max(gap_start, start), min(gap_end, end)
            if high > low:
                total += ((high - low) * 2 * REFERENCE_S_PER_ITERATION
                          / (before + after))
        return total
