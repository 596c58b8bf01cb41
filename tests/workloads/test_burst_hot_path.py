"""The exact tier's per-burst DMA path: a deterministic call budget and
the service-time memo under mid-run rate changes.

The call budget is a timing-free regression guard: it counts Python
calls with ``sys.setprofile`` (as ``tests/obs/test_session.py`` does),
so it gives the same answer on any host.
"""

import sys

from repro.core import Testbed
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.workloads import Pktgen

#: Python calls per pktgen burst on the remote testbed: 64 when this
#: budget was set, plus about 10% headroom.
CALLS_PER_BURST = 70

#: Builtins the per-burst charge path replaced with conditionals and
#: memoised service times, and the files that may not call them there.
BANNED = {"min", "max", "round", "getattr", "divmod"}
HOT_FILES = ("interconnect/link.py", "sim/resources.py", "memory/dram.py",
             "pcie/fabric.py")


def _profiled_pktgen_window():
    testbed = Testbed("remote", seed=0, accuracy="exact")
    Pktgen(testbed.server, testbed.server_core(0), 256, 10_000_000, 0)
    # Warm up first: the first burst of each size fills the memos.
    testbed.run(1_000_000)
    calls = [0]
    bursts = [0]
    banned = []

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1
            code = frame.f_code
            if code.co_name == "tx" and code.co_filename.endswith(
                    "device.py"):
                bursts[0] += 1
        elif event == "c_call" and arg.__name__ in BANNED:
            filename = frame.f_code.co_filename.replace("\\", "/")
            if filename.endswith(HOT_FILES):
                banned.append((arg.__name__, filename, frame.f_lineno))

    sys.setprofile(count)
    try:
        testbed.run(3_000_000)
    finally:
        sys.setprofile(None)
    return calls[0], bursts[0], banned


def test_pktgen_remote_burst_stays_within_its_call_budget():
    calls, bursts, banned = _profiled_pktgen_window()
    assert bursts > 50
    assert calls <= CALLS_PER_BURST * bursts, calls / bursts
    assert banned == []


def _faulted_pktgen_fingerprint():
    testbed = Testbed("remote", seed=0, accuracy="exact")
    machine = testbed.server.machine
    nic = testbed.server.nic
    plan = (FaultPlan()
            .add(FaultSpec("qpi_throttle", at_ns=400_000,
                           duration_ns=500_000, src_node=1, dst_node=0,
                           throttle_factor=0.3))
            .add(FaultSpec("qpi_throttle", at_ns=600_000,
                           duration_ns=300_000, src_node=0, dst_node=1,
                           throttle_factor=0.5))
            .add(FaultSpec("pcie_degrade", at_ns=700_000,
                           duration_ns=600_000, pf_id=nic.pfs[0].pf_id,
                           lanes=2)))
    FaultInjector(testbed.env, plan, device=nic, wire=testbed.wire,
                  machine=machine, rng=machine.rng).start()
    pktgen = Pktgen(testbed.server, testbed.server_core(0), 256,
                    2_000_000, 200_000)
    testbed.run(2_400_000)
    servers = [link.server for link in machine.interconnect.links()]
    for pf in nic.pfs:
        servers += [pf.link.upstream, pf.link.downstream]
    return (testbed.env.events_processed, pktgen.meter.messages_total,
            pktgen.meter.bytes_total,
            [(s._free_at, s._busy_ns, s._bytes_total) for s in servers],
            [(d.read_bytes, d.write_bytes,
              d.estimator._last_utilization)
             for d in machine.memory.drams])


def test_memo_follows_fault_rate_changes(monkeypatch):
    """qpi_throttle and pcie_degrade call set_rate mid-run; a memoised
    run must equal one with the memo switched off."""
    import repro.sim.resources as resources
    memoised = _faulted_pktgen_fingerprint()
    monkeypatch.setattr(resources, "MEMO_CAP", 0)
    fresh = _faulted_pktgen_fingerprint()
    assert memoised == fresh
