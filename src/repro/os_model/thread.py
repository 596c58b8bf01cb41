"""Simulated threads.

A :class:`SimThread` wraps a generator body and a current core.  Bodies
yield events produced by the thread's helpers::

    def body(thread):
        while True:
            yield thread.compute(500)          # busy CPU time
            yield thread.overlap(cpu_ns, dev_ns)  # pipelined CPU + device

``overlap`` models the steady-state pipelining of CPU work with device
work: the wall time of a batch is the *max* of the two, but only the CPU
part is charged to the core (this is why a QPI-throttled NIC lowers
throughput while CPU utilisation drops, as in Fig 11).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.engine import Event, Process
from repro.topology.machine import Core


class SimThread:
    """A schedulable thread pinned to (at most) one core at a time."""

    def __init__(self, scheduler, name: str,
                 body_fn: Callable[["SimThread"], Generator],
                 core: Core):
        self.scheduler = scheduler
        self.machine = scheduler.machine
        self.env = scheduler.machine.env
        self.name = name
        self.body_fn = body_fn
        self.core = core
        self.process: Optional[Process] = None
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        self.migrations = 0

    # ------------------------------------------------------------- state

    @property
    def node_id(self) -> int:
        return self.core.node_id

    @property
    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive

    def start(self) -> Process:
        if self.process is not None:
            raise RuntimeError(f"thread {self.name!r} already started")
        self.started_at = self.env.now
        self.process = self.env.process(self._run(), name=self.name)
        return self.process

    def _run(self):
        try:
            result = yield from self.body_fn(self)
        finally:
            self.finished_at = self.env.now
            self.scheduler._thread_finished(self)
        return result

    # ----------------------------------------------------------- helpers

    def compute(self, ns: int) -> Event:
        """Busy the current core for ``ns``.

        The returned event is pooled: yield it immediately, don't store it.
        """
        self.core.charge(int(ns))
        return self.env.pooled_timeout(int(ns))

    def overlap(self, cpu_ns: int, dev_ns: int) -> Event:
        """One pipelined batch: wall time max(cpu, dev), core charged cpu.

        The returned event is pooled: yield it immediately, don't store it.
        """
        cpu_ns = int(cpu_ns)
        dev_ns = int(dev_ns)
        self.core.charge(cpu_ns)
        return self.env.pooled_timeout(dev_ns if dev_ns > cpu_ns else cpu_ns)

    def sleep(self, ns: int) -> Event:
        """Block without using CPU (pooled: yield immediately)."""
        return self.env.pooled_timeout(int(ns))

    def __repr__(self) -> str:
        return f"<SimThread {self.name} core={self.core.core_id}>"
