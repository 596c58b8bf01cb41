"""FleetSpec: validation, epoch structure, health timeline, round trip."""

import pytest

from repro.cluster.spec import FLEET_BLOCKS, FleetSpec


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        FleetSpec(servers=0)
    with pytest.raises(ValueError):
        FleetSpec(config="nonsense")
    with pytest.raises(ValueError):
        FleetSpec(connections=0)
    with pytest.raises(ValueError):
        FleetSpec(diurnal_amplitude=1.0)
    with pytest.raises(ValueError):
        FleetSpec(set_fraction=1.5)
    with pytest.raises(ValueError):
        FleetSpec(servers=4, server_down=(4, 1000))  # server out of range
    with pytest.raises(ValueError):
        FleetSpec(duration_ns=1000, pf_flap=(0, 1000, 10))  # at end
    with pytest.raises(ValueError):
        FleetSpec(pf_flap=(0, 10, 0))  # zero flap duration


@pytest.mark.parametrize("duration_ns, epochs", [
    (10_000_001, 7), (1, 1), (5, 1), (7, 3), (10, 10), (1_000_003, 8),
    (10_000_000, 7), (10_000_000, 8)])
def test_epoch_bounds_partition_the_run(duration_ns, epochs):
    spec = FleetSpec(duration_ns=duration_ns, epochs=epochs)
    bounds = spec.epoch_bounds()
    assert len(bounds) == epochs
    assert bounds[0][0] == 0
    assert bounds[-1][1] == duration_ns
    for (_, end), (start, _) in zip(bounds, bounds[1:]):
        assert end == start

    # epoch_of inverts the bounds at every edge, clamped to the run.
    def expected(t):
        if t < 0:
            return 0
        if t >= duration_ns:
            return epochs - 1
        return next(e for e, (start, end) in enumerate(bounds)
                    if start <= t < end)

    probes = {-1, duration_ns + 1, duration_ns + 5}
    for start, _ in bounds + [(duration_ns, None)]:
        probes.update(range(start - 2, start + 3))
    for t in sorted(probes):
        assert spec.epoch_of(t) == expected(t), t


def test_block_sizes_sum_to_connections():
    spec = FleetSpec(connections=1_000_003)
    sizes = spec.block_sizes()
    assert len(sizes) == FLEET_BLOCKS
    assert sum(sizes) == 1_000_003
    assert max(sizes) - min(sizes) <= 1
    tiny = FleetSpec(connections=5)
    assert sum(tiny.block_sizes()) == 5


def test_death_semantics():
    spec = FleetSpec(servers=4, server_down=(1, 5_000_000))
    assert spec.death_ns(1) == 5_000_000
    assert spec.death_ns(0) is None

    # A serving-PF flap kills only when there is no failover path.
    flap = dict(servers=4, pf_flap=(2, 3_000_000, 1_000_000))
    remote = FleetSpec(config="remote", **flap)
    assert remote.death_ns(2) == 3_000_000
    assert remote.flap_for(2) is None
    ioct = FleetSpec(config="ioctopus", **flap)
    assert ioct.death_ns(2) is None
    assert ioct.flap_for(2) == (3_000_000, 1_000_000)
    assert ioct.flap_for(0) is None


def test_dict_round_trip_preserves_fault_tuples():
    spec = FleetSpec(servers=4, connections=1024,
                     server_down=(3, 7_000_000),
                     pf_flap=(1, 2_000_000, 500_000))
    clone = FleetSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.server_down == (3, 7_000_000)
    # to_dict is JSON-plain (tuples become lists).
    import json
    json.dumps(spec.to_dict())
