"""ObsSession end-to-end: attach, report, export — and the determinism
golden proving observability never changes simulated results."""

import json
import os
import sys

import pytest

from repro.core.configurations import Testbed
from repro.experiments.runners import run_pktgen, run_tcp_rr, warmup_of
from repro.obs import ObsSession
from repro.workloads.pktgen import Pktgen

#: PR 2 exact-mode pktgen golden (tests/experiments/test_batching.py);
#: must hold bit-identically with a full ObsSession attached.
PKTGEN_GOLDEN = {
    "throughput_gbps": 6.214354823529412,
    "mpps": 3.0343529411764707,
    "membw_gbps": 9.34580705882353,
}


def run_point(obs=None):
    return run_pktgen("remote", 256, 10_000_000, seed=0,
                      accuracy="exact", obs=obs)


def test_exact_golden_unchanged_with_obs_enabled():
    obs = ObsSession(enabled=True, trace=True)
    assert run_point(obs) == PKTGEN_GOLDEN


def test_exact_golden_unchanged_with_obs_disabled():
    assert run_point(ObsSession(enabled=False)) == PKTGEN_GOLDEN


def test_rr_golden_unchanged_with_obs():
    baseline = run_tcp_rr("remote", "local", True, 1024, 5_000_000,
                          seed=0, accuracy="exact")
    obs = ObsSession(enabled=True, trace=True)
    traced = run_tcp_rr("remote", "local", True, 1024, 5_000_000,
                        seed=0, accuracy="exact", obs=obs)
    assert traced == baseline


def test_registry_reports_paper_metrics():
    obs = ObsSession(enabled=True)
    run_point(obs)
    flat = obs.collect(include_detail=False)
    # The §5.1 headline channels: QPI occupancy, DDIO hit rate,
    # per-PF queue depth.
    assert 0.0 < flat["srv.qpi.1to0.occupancy"] < 1.0
    assert "srv.node1.ddio.hit_rate" in flat
    assert flat["srv.nic.pf0.queue_depth_hwm"] > 0
    assert flat["srv.nic.pf0.tx_bytes"] > 0
    table = obs.utilization_table()
    assert "srv.qpi.1to0" in table and "occupancy" in table


def test_sampler_fills_series():
    obs = ObsSession(enabled=True, sample_interval_ns=1_000_000)
    run_point(obs)
    assert obs.sampler is not None
    assert obs.sampler.samples_taken >= 9
    series = obs.sampler.series["srv.qpi.1to0.util"]
    assert series.max() > 0.0


def test_flow_crosses_four_components():
    obs = ObsSession(enabled=True, trace=True)
    run_tcp_rr("remote", "local", True, 1024, 2_000_000,
               seed=0, accuracy="exact", obs=obs)
    doc = json.loads(obs.perfetto_json())
    events = doc["traceEvents"]
    tid_name = {e["tid"]: e["args"]["name"] for e in events
                if e.get("ph") == "M" and e.get("name") == "thread_name"}
    chains = {}
    for e in events:
        if e.get("cat") == "flow":
            chains.setdefault(e["id"], []).append(tid_name[e["tid"]])
    # At least one rx flow connects wire -> PF DMA -> IRQ -> stack -> app.
    rx = [c for c in chains.values() if any("irq" in s for s in c)]
    assert rx, "no rx flows traced"
    chain = rx[0]
    assert len(set(chain)) >= 4
    assert chain[0] == "wire"
    assert any("pf" in s for s in chain)
    assert chain[-1].endswith(".app")


def test_prometheus_dump_format():
    obs = ObsSession(enabled=True)
    run_point(obs)
    text = obs.prometheus()
    assert "# TYPE repro_srv_qpi_1to0_occupancy gauge" in text
    line = [ln for ln in text.splitlines()
            if ln.startswith("repro_srv_nic_pf0_tx_bytes ")][0]
    assert float(line.split()[-1]) > 0


def test_double_attach_rejected():
    obs = ObsSession(enabled=True)
    run_point(obs)
    with pytest.raises(ValueError, match="already attached"):
        run_point(obs)


def test_disabled_session_registers_nothing():
    obs = ObsSession(enabled=False)
    run_point(obs)
    assert obs.registry.instruments == {}
    assert obs.sampler is None
    assert obs.tracer is None


def test_disabled_session_does_no_work_during_the_run():
    """The "observability is free unless you ask for it" contract, held
    structurally rather than by timing: a disabled session attached to
    a run leaves the event stream identical and makes zero Python calls
    into ``repro/obs`` while the simulation runs."""
    duration = 20_000_000
    needle = os.sep + os.path.join("repro", "obs") + os.sep

    def run(with_session):
        testbed = Testbed("remote", seed=0, accuracy="exact")
        Pktgen(testbed.server, testbed.server_core(0), 256, duration,
               warmup_of(duration))
        if with_session:
            ObsSession(enabled=False).attach(testbed, horizon_ns=duration)
        calls = [0]

        def count(frame, event, arg):
            if event == "call" and needle in frame.f_code.co_filename:
                calls[0] += 1

        sys.setprofile(count)
        try:
            testbed.run(duration + duration // 5)
        finally:
            sys.setprofile(None)
        return testbed.env.events_processed, calls[0]

    off_events, _ = run(False)
    disabled_events, obs_calls = run(True)
    assert disabled_events == off_events
    assert obs_calls == 0


def test_prometheus_labels_stamped_on_every_sample():
    from repro.obs.export import to_prometheus
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("nic.rx_bytes").inc(7)
    hist = registry.histogram("lat")
    hist.observe(5.0)
    text = to_prometheus(registry, labels={"server": "3"})
    assert 'repro_nic_rx_bytes{server="3"} 7' in text
    assert 'repro_lat{server="3",quantile="0.5"}' in text
    assert 'repro_lat_count{server="3"} 1' in text
    # No labels -> the historical bare format.
    bare = to_prometheus(registry)
    assert "repro_nic_rx_bytes 7" in bare
