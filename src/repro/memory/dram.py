"""Per-node DRAM controllers.

Each node's memory controller is a processor-sharing bandwidth server (many
agents interleave on a real controller) plus read/write byte counters used
to report "memory bandwidth" exactly the way the paper's figures do.
"""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.sim.resources import ProcessorSharingServer, RateEstimator

#: Latency inflation strength: fill latency grows as 1 + ALPHA * u^2 with
#: controller utilisation u (classic open-queue approximation).
_ALPHA = 3.0


class DramController:
    """One NUMA node's memory controller."""

    def __init__(self, env: Environment, node_id: int,
                 bytes_per_sec: float, miss_latency_ns: int):
        self.env = env
        self.node_id = node_id
        self.miss_latency_ns = int(miss_latency_ns)
        self.server = ProcessorSharingServer(
            env, bytes_per_sec, name=f"dram{node_id}")
        self.estimator = RateEstimator(env, bytes_per_sec)
        self.read_bytes = 0
        self.write_bytes = 0
        self._window_start = 0
        self._window_read = 0
        self._window_write = 0

    def read(self, nbytes: int) -> int:
        """Charge a read burst; returns its bandwidth-limited service ns."""
        self.read_bytes += nbytes
        self._window_read += nbytes
        return self._charge(nbytes)

    def write(self, nbytes: int) -> int:
        """Charge a write burst; returns its bandwidth-limited service ns."""
        self.write_bytes += nbytes
        self._window_write += nbytes
        return self._charge(nbytes)

    def _charge(self, nbytes: int) -> int:
        """``estimator.update(nbytes)`` then ``server.account(nbytes)``,
        with the exact-tier bucket update and the server's memo hit in
        line (bit-identical to the pair; a steady-interval charge goes
        through ``estimator.update``)."""
        env = self.env
        est = self.estimator
        if env.fluid_span_ns > 0:
            est.update(nbytes)
        else:
            now = env._now
            elapsed = now - est._bucket_start
            if elapsed >= est.bucket_ns:
                last = (est._bucket_bytes * 1e9
                        / (est.bytes_per_sec * elapsed))
                est._last_utilization = last if last < 1.0 else 1.0
                est._bucket_start = now
                est._bucket_bytes = nbytes
            else:
                est._bucket_bytes += nbytes
        server = self.server
        active = server._active
        key = nbytes * active if active > 1 else nbytes
        duration = server._durations.get(key)
        if duration is None:
            duration = server._duration(nbytes, key)
        server._bytes_total += nbytes
        server._window_bytes += nbytes
        return duration

    def load_factor(self) -> float:
        """Multiplier applied to miss latencies under load (>= 1)."""
        u = self.estimator.utilization()
        return 1.0 + _ALPHA * u * u

    def loaded_miss_latency(self) -> int:
        """Miss latency inflated by the controller's current load."""
        return int(self.miss_latency_ns * self.load_factor())

    def enter(self) -> None:
        """Declare a long-running bandwidth consumer (slows everyone)."""
        self.server.enter()

    def leave(self) -> None:
        self.server.leave()

    # ---------------------------------------------------------- reporting

    def reset_window(self) -> None:
        self._window_start = self.env.now
        self._window_read = 0
        self._window_write = 0

    def window_bytes(self) -> int:
        return self._window_read + self._window_write

    def window_bandwidth_bps(self) -> float:
        """Bytes/sec of combined read+write traffic since the last reset."""
        elapsed = self.env.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.window_bytes() * 1e9 / elapsed

    def __repr__(self) -> str:
        return (f"<DramController node={self.node_id} "
                f"r={self.read_bytes} w={self.write_bytes}>")
