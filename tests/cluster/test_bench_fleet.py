"""Fleet smoke check: an inline and a process-sharded run of the same
small rack must merge to the same fingerprint."""

from repro.cluster import FleetSpec, run_fleet
from repro.experiments import sweep


def test_bench_fleet_smoke_fingerprints_match():
    """A tiny rack run inline (jobs=1) and fanned out over two worker
    processes must merge to bit-identical fingerprints.  The sweep
    cache is off so the sharded leg really runs in the workers."""
    spec = FleetSpec(servers=2, connections=2048, duration_ns=4_000_000,
                     epochs=4)
    previous_cache = sweep._cache_dir
    sweep.configure(cache_dir="")
    try:
        serial = run_fleet(spec, master_seed=0, accuracy="fluid", jobs=1)
        parallel = run_fleet(spec, master_seed=0, accuracy="fluid", jobs=2)
    finally:
        sweep.shutdown_pool()
        sweep.configure(cache_dir=previous_cache or "")
    assert serial.served > 0
    assert parallel.fingerprint() == serial.fingerprint()
