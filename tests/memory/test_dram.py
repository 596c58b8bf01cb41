"""DRAM controller charges: the fused per-burst path against the
estimator and processor-sharing server calls it folds in line."""

import random

import pytest

from repro.memory.dram import DramController
from repro.sim import Environment


def _twins(env):
    return (DramController(env, 0, 60e9 / 7, 80),
            DramController(env, 0, 60e9 / 7, 80))


def _reference_charge(dram, nbytes, write):
    if write:
        dram.write_bytes += nbytes
        dram._window_write += nbytes
    else:
        dram.read_bytes += nbytes
        dram._window_read += nbytes
    dram.estimator.update(nbytes)
    return dram.server.account(nbytes)


def _state(dram):
    est, server = dram.estimator, dram.server
    return (dram.read_bytes, dram.write_bytes, dram._window_read,
            dram._window_write, est._bucket_start, est._bucket_bytes,
            est._last_utilization,
            {fid: list(slot) for fid, slot in est._pending.items()},
            server._bytes_total, server._window_bytes, server._active)


@pytest.mark.parametrize("seed", range(3))
def test_fused_read_write_match_estimator_and_server_calls(seed):
    rng = random.Random(seed)
    env = Environment()
    fused, reference = _twins(env)
    for index in range(600):
        env._now += rng.choice([0, 1, 640, 19_999, 20_000, 20_001,
                                rng.randrange(70_000)])
        # Long-running consumers come and go: the share changes.
        if index % 40 == 0 and fused.server._active < 3:
            fused.enter()
            reference.enter()
        elif index % 40 == 20 and fused.server._active:
            fused.leave()
            reference.leave()
        # Steady-interval charges for a while, then the exact tier.
        in_span = index % 100 < 15
        env.fluid_span_ns = 150_000 if in_span else 0
        env.fluid_flow_id = 3 if in_span else 0
        nbytes = rng.choice([0, 64, 128, 4096, 65_536, 1_500_000])
        write = rng.random() < 0.5
        charge = fused.write if write else fused.read
        assert charge(nbytes) == _reference_charge(reference, nbytes, write)
        assert _state(fused) == _state(reference)
        assert fused.loaded_miss_latency() == reference.loaded_miss_latency()


def test_dram_rejects_negative_bursts_before_charging_the_server():
    dram = DramController(Environment(), 0, 1e9, 80)
    with pytest.raises(ValueError):
        dram.read(-64)
    assert dram.server.bytes_total == 0
