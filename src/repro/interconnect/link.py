"""CPU interconnect (QPI/UPI) links.

A socket-to-socket interconnect is modelled as a pair of directional
:class:`~repro.sim.resources.BandwidthServer` channels plus a fixed crossing
latency.  Congestion is emergent: when STREAM antagonists saturate a
direction, every remote DMA or remote memory access that crosses it sees the
server's queueing delay, which is exactly the effect §5.2 of the paper
measures.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sim.engine import Environment
from repro.sim.resources import BandwidthServer, RateEstimator

#: Crossing latency grows as 1 + BETA * u / (1 - u) with utilisation u,
#: capped per-spec (an M/M/1-style waiting-time approximation for the
#: link's flit arbitration).
_BETA = 0.6


class InterconnectLink:
    """One directional aggregate channel between two sockets.

    Real machines have 2 QPI/UPI links between sockets; traffic is striped
    across them, so we aggregate them into a single byte server per
    direction with the summed bandwidth.
    """

    def __init__(self, env: Environment, src_node: int, dst_node: int,
                 bytes_per_sec: float, crossing_latency_ns: int,
                 max_latency_inflation: float = 12.0):
        self.env = env
        self.src_node = src_node
        self.dst_node = dst_node
        self.crossing_latency_ns = int(crossing_latency_ns)
        self.max_latency_inflation = float(max_latency_inflation)
        self.server = BandwidthServer(
            env, bytes_per_sec, name=f"qpi{src_node}->{dst_node}")
        self.estimator = RateEstimator(env, bytes_per_sec)
        self._base_bytes_per_sec = float(bytes_per_sec)
        self.throttle_factor = 1.0

    # -------------------------------------------------------- throttling

    def throttle(self, factor: float) -> None:
        """Clamp the link to ``factor`` of its rated bandwidth (thermal /
        fault throttling).  Crossings also see the matching latency
        inflation because the estimator's capacity shrinks with it."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"throttle factor must be in (0, 1], "
                             f"got {factor}")
        self.throttle_factor = float(factor)
        rate = self._base_bytes_per_sec * factor
        self.server.set_rate(rate)
        self.estimator.bytes_per_sec = rate

    def unthrottle(self) -> None:
        self.throttle(1.0)

    @property
    def is_throttled(self) -> bool:
        return self.throttle_factor < 1.0

    # The two per-burst methods below fuse the estimator's exact-tier
    # arithmetic (and, in traverse, the server charge) in line: every
    # builtin min/max becomes a conditional with the same argument order
    # and ties, and service times come from the server's memo, so the
    # results are bit-identical to estimator.update_utilization() +
    # server.account().  With fluid reservations in play they call the
    # estimator's own methods instead.

    def loaded_crossing_ns(self) -> int:
        """Congestion-inflated crossing latency, without charging."""
        est = self.estimator
        if est._pending:
            u = est.utilization()
        else:
            u = est._last_utilization
            elapsed = self.env._now - est._bucket_start
            if elapsed > 0:
                current = (est._bucket_bytes * 1e9
                           / (est.bytes_per_sec * elapsed))
                current = current if current < 1.0 else 1.0
                weight = elapsed / est.bucket_ns
                weight = weight if weight < 1.0 else 1.0
                u = (1.0 - weight) * u + weight * current
        headroom = 1.0 - u
        inflation = 1.0 + _BETA * u / (headroom if headroom > 1e-6
                                       else 1e-6)
        if inflation > self.max_latency_inflation:
            inflation = self.max_latency_inflation
        return int(self.crossing_latency_ns * inflation)

    def traverse(self, nbytes: int) -> int:
        """Charge a transfer; return its total delay (latency + queue +
        service) in ns."""
        env = self.env
        est = self.estimator
        now = env._now
        if est._pending or env.fluid_span_ns > 0:
            u = est.update_utilization(nbytes)
        else:
            elapsed = now - est._bucket_start
            if elapsed >= est.bucket_ns:
                # A new bucket opens: utilization() would return the
                # closed bucket's figure (elapsed >= bucket_ns >= 1).
                u = (est._bucket_bytes * 1e9
                     / (est.bytes_per_sec * elapsed))
                u = u if u < 1.0 else 1.0
                est._last_utilization = u
                est._bucket_start = now
                est._bucket_bytes = nbytes
            else:
                bucket = est._bucket_bytes + nbytes
                est._bucket_bytes = bucket
                u = est._last_utilization
                if elapsed > 0:
                    current = bucket * 1e9 / (est.bytes_per_sec * elapsed)
                    current = current if current < 1.0 else 1.0
                    # 0 < elapsed < bucket_ns: the weight is below 1.
                    weight = elapsed / est.bucket_ns
                    u = (1.0 - weight) * u + weight * current
        headroom = 1.0 - u
        inflation = 1.0 + _BETA * u / (headroom if headroom > 1e-6
                                       else 1e-6)
        if inflation > self.max_latency_inflation:
            inflation = self.max_latency_inflation
        # BandwidthServer.account in line.
        server = self.server
        duration = server._durations.get(nbytes)
        if duration is None:
            duration = server.service_time(nbytes)
        free_at = server._free_at
        start = free_at if free_at > now else now
        server._free_at = start + duration
        server._busy_ns += duration
        server._bytes_total += nbytes
        server._window_bytes += nbytes
        return (int(self.crossing_latency_ns * inflation)
                + ((start - now) + duration))

    def probe_delay(self, nbytes: int = 64) -> int:
        """Delay a transfer *would* see, without charging bandwidth.

        Used for latency estimates (e.g. deciding whether congestion makes
        remote placement worse) without perturbing the measurement.
        """
        return (self.crossing_latency_ns + self.server.queueing_delay()
                + self.server.service_time(nbytes))

    def utilization(self, since: int = 0) -> float:
        return self.server.utilization(since)


class Interconnect:
    """The full-socket interconnect: directional links between node pairs."""

    def __init__(self, env: Environment, num_nodes: int,
                 bytes_per_sec_per_direction: float,
                 crossing_latency_ns: int,
                 max_latency_inflation: float = 12.0):
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.env = env
        self.num_nodes = num_nodes
        self._links: Dict[Tuple[int, int], InterconnectLink] = {}
        for src in range(num_nodes):
            for dst in range(num_nodes):
                if src != dst:
                    self._links[(src, dst)] = InterconnectLink(
                        env, src, dst, bytes_per_sec_per_direction,
                        crossing_latency_ns, max_latency_inflation)

    def link(self, src_node: int, dst_node: int) -> InterconnectLink:
        try:
            return self._links[(src_node, dst_node)]
        except KeyError:
            raise KeyError(
                f"no interconnect link {src_node}->{dst_node} "
                f"(same node, or node out of range)") from None

    def traverse(self, src_node: int, dst_node: int, nbytes: int) -> int:
        """Charge a crossing src->dst; 0 ns if src == dst."""
        if src_node == dst_node:
            return 0
        link = self._links.get((src_node, dst_node))
        if link is None:
            link = self.link(src_node, dst_node)   # raises the friendly error
        return link.traverse(nbytes)

    def loaded_round_trip_ns(self, a: int, b: int) -> int:
        """Congestion-inflated latency of one a->b->a line round trip."""
        if a == b:
            return 0
        links = self._links
        try:
            return (links[(a, b)].loaded_crossing_ns()
                    + links[(b, a)].loaded_crossing_ns())
        except KeyError:
            self.link(a, b)          # re-raise with the friendly message
            raise

    def round_trip(self, src_node: int, dst_node: int,
                   request_bytes: int, response_bytes: int) -> int:
        """Charge a request/response pair (e.g. a remote cache-line fill:
        small request out, data back)."""
        if src_node == dst_node:
            return 0
        links = self._links
        try:
            out = links[(src_node, dst_node)].traverse(request_bytes)
            back = links[(dst_node, src_node)].traverse(response_bytes)
        except KeyError:
            self.link(src_node, dst_node)
            self.link(dst_node, src_node)
            raise
        return out + back

    def links(self):
        return list(self._links.values())
