"""pktgen: the in-kernel packet generator (§5.1.1, Fig 8).

pktgen repeatedly transmits the *same* packet without touching its data,
so the per-packet cost is dominated by descriptor/doorbell work plus the
completion-entry read — an LLC hit with a local PF (DDIO), a ~80 ns DRAM
miss with a remote one.  That single miss is the paper's entire 4.1 vs
3.08 Mpps story, and it emerges here from the memory system.
"""

from __future__ import annotations

from repro.nic.packet import Flow
from repro.workloads.base import Workload, measured_meter
from repro.workloads.train import make_governor

#: pktgen posts descriptors in bursts of this many packets.
BURST_PKTS = 64


class Pktgen(Workload):
    """Single-core pktgen transmit loop."""

    def __init__(self, host, core, packet_bytes: int, duration_ns: int,
                 warmup_ns: int = 0, driver=None,
                 ring_home_node: int = None):
        super().__init__(host, duration_ns, warmup_ns)
        if packet_bytes < 20:
            raise ValueError(f"packet too small: {packet_bytes}")
        self.core = core
        self.packet_bytes = packet_bytes
        self.driver = driver or host.driver
        self.meter = measured_meter(self)
        self._ring_home_node = ring_home_node
        #: Packet-train coalescing state (drives the adaptive/fluid fast
        #: paths; idle in exact mode).  Tests read its counters.
        self.governor = make_governor(host.machine.env)
        self.thread = self._spawn("pktgen", self._body, core)

    def _body(self, thread):
        machine = self.host.machine
        costs = machine.spec.software
        txq = self.driver.tx_queue_for_core(thread.core)
        if self._ring_home_node is not None:
            # §2.4 experiment: place the completion ring on a chosen node
            # (e.g. local to the NIC, remote to the CPU) to probe whether
            # remote DDIO-like placement helps.
            txq.ring = machine.alloc_region(
                "pktgen-ring", self._ring_home_node, txq.ring.size)
        node = thread.core.node_id
        device = self.driver.device

        # pktgen transmits the SAME packet over and over: a tiny buffer
        # that stays pinned in the LLC (and is never touched per send).
        packet = machine.alloc_region("pktgen-pkt", node,
                                      self.packet_bytes)
        machine.memory.cpu_stream_write(node, packet, self.packet_bytes)

        if self.env.adaptive:
            yield from self._train_body(thread, machine, costs, txq, node,
                                        device, packet)
            return

        # One iteration per burst: done() and in_measurement() are read
        # off the clock in line.
        env = self.env
        tracer = machine.tracer
        memory = machine.memory
        meter = self.meter
        stack = BURST_PKTS * costs.pktgen_pkt_ns
        burst_bytes = BURST_PKTS * self.packet_bytes
        while env._now < self.duration_ns:
            bflow = tracer.begin_blame(env._now)
            door = txq.pf.mmio_latency(node)  # doorbell per burst
            cpu = stack + door
            dev = device.tx(txq, packet, BURST_PKTS, self.packet_bytes,
                            ndesc=BURST_PKTS)
            cq = BURST_PKTS * memory.read_fresh_dma_line(node, txq.ring)
            cpu += cq
            if bflow is not None:
                self._charge_burst(bflow, machine, txq, node, stack, door,
                                   cq, cpu + dev, 1)
            if self.warmup_ns <= env._now < self.duration_ns:
                meter.record(burst_bytes, BURST_PKTS)
            yield thread.overlap(cpu, dev)
        self.meter.finish(min(self.env.now, self.duration_ns))

    @staticmethod
    def _charge_burst(bflow, machine, txq, node, stack, door, cq, total,
                      represented):
        """Blame charges for one pktgen burst (or K-burst train): loop
        CPU work, the doorbell MMIO, and the completion-entry reads; the
        device DMA/wire stages were charged inside ``device.tx``."""
        bflow.charge("stack", stack)
        loc = "local" if txq.pf.is_local_to(node) else "qpi"
        bflow.charge(f"doorbell.{loc}", door)
        tag = machine.memory.dma_read_class(node, txq.ring)
        bflow.charge("cq.hit" if tag == "ddio_hit" else "cq.miss", cq)
        bflow.seal(total, represented=represented)

    def _train_body(self, thread, machine, costs, txq, node, device, packet):
        """Adaptive fast path: coalesce K identical bursts per event.

        Every cost below is the exact per-burst charge scaled by K (the
        model layer is closed-form in the packet count), so the train is
        numerically the sum of K exact bursts; only the event count —
        and the doorbell/propagation amortisation the paper's drivers
        also batch away — changes.
        """
        governor = self.governor
        wire = device.wire
        byte_cap = max(1, governor.max_train_bytes
                       // (BURST_PKTS * self.packet_bytes))
        while not self.done():
            token = (thread.core, txq, txq.pf, txq.pf.alive,
                     device.firmware.steering_epoch(),
                     wire.is_impaired if wire is not None else False)
            cap = min(governor.max_bursts, byte_cap)
            if not governor.cross_ring_wraps:
                cap = min(cap, max(1, txq.descriptors_until_wrap()
                                   // BURST_PKTS))
            cap = governor.clip_to_boundaries(cap, self.env.now,
                                              self.warmup_ns,
                                              self.duration_ns)
            k = governor.plan(token, cap)
            pkts = k * BURST_PKTS
            bflow = machine.tracer.begin_blame(self.env.now)
            with governor.interval(k):
                stack = pkts * costs.pktgen_pkt_ns
                door = k * txq.pf.mmio_latency(node)
                cpu = stack + door
                dev = device.tx(txq, packet, pkts, self.packet_bytes,
                                ndesc=pkts, nbursts=k)
                cq = pkts * machine.memory.read_fresh_dma_line(
                    node, txq.ring)
                cpu += cq
            if bflow is not None:
                self._charge_burst(bflow, machine, txq, node, stack, door,
                                   cq, cpu + dev, k)
            wall = max(cpu, dev)
            if self.in_measurement():
                # Progressive start/finish: the train's bytes are
                # recorded at its *start*, so align the meter's window
                # to [first train start, projected last train end] — the
                # convergence loop may stop the run mid-train, and the
                # first post-warmup train may start a little after
                # warmup.
                if self.meter.messages_total == 0:
                    self.meter.start_ns = self.env.now
                self.meter.record(pkts * self.packet_bytes, pkts)
                self.meter.finish(min(self.env.now + wall,
                                      self.duration_ns))
            governor.observe(wall, k)
            yield thread.overlap(cpu, dev)
        self.meter.finish(min(self.env.now, self.duration_ns))

    def throughput_gbps(self) -> float:
        return self.meter.gbps()

    def mpps(self) -> float:
        return self.meter.mpps()
