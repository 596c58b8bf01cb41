"""Utilization sampler unit behaviour."""

import pytest

from repro.obs import UtilizationSampler
from repro.sim.engine import Environment


def test_sampler_rate_and_gauge_channels():
    env = Environment()
    state = {"bytes": 0, "level": 0.0}

    def producer():
        while True:
            yield env.timeout(50)
            state["bytes"] += 500
            state["level"] = 0.25

    env.process(producer(), name="producer")
    sampler = UtilizationSampler(env, interval_ns=100)
    rate = sampler.add_rate("bytes", lambda: state["bytes"])
    gauge = sampler.add_gauge("level", lambda: state["level"])
    sampler.start(1000)
    env.run(until=2000)
    assert sampler.samples_taken == 10
    # 500 bytes / 50 ns => 10 bytes/ns per interval delta.
    assert rate.value_at(1000) == pytest.approx(10.0)
    assert gauge.value_at(1000) == 0.25
    tracks = sampler.counter_tracks()
    assert len(tracks["bytes"]) == 10


def test_sampler_stops_at_horizon():
    env = Environment()
    sampler = UtilizationSampler(env, interval_ns=300)
    sampler.add_gauge("x", lambda: 1.0)
    sampler.start(1000)
    env.run(until=5000)
    # 300, 600, 900 fit under 1000; the next tick would overshoot.
    assert sampler.samples_taken == 3


def test_sampler_rejects_duplicates_and_bad_interval():
    env = Environment()
    sampler = UtilizationSampler(env, interval_ns=10)
    sampler.add_gauge("x", lambda: 1.0)
    with pytest.raises(ValueError):
        sampler.add_rate("x", lambda: 1.0)
    with pytest.raises(ValueError):
        UtilizationSampler(env, interval_ns=0)
