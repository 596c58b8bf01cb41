"""Tests for QPI/UPI interconnect links."""

import pytest

from repro.interconnect import Interconnect
from repro.sim import Environment


@pytest.fixture
def qpi():
    return Interconnect(Environment(), num_nodes=2,
                        bytes_per_sec_per_direction=28e9,
                        crossing_latency_ns=30)


def test_same_node_traverse_is_free(qpi):
    assert qpi.traverse(0, 0, 10_000) == 0


def test_crossing_includes_latency_and_service(qpi):
    delay = qpi.traverse(0, 1, 2800)
    # 30 ns crossing + 2800 B / 28 GB/s = 100 ns
    assert delay == 30 + 100


def test_directions_are_independent(qpi):
    qpi.traverse(0, 1, 28_000_000)  # load 0->1 heavily
    # 1->0 unaffected
    assert qpi.traverse(1, 0, 2800) == 130


def test_backlog_accumulates(qpi):
    first = qpi.traverse(0, 1, 28_000)
    second = qpi.traverse(0, 1, 28_000)
    assert second > first


def test_round_trip_charges_both_directions(qpi):
    delay = qpi.round_trip(0, 1, 64, 2800)
    fwd = qpi.link(0, 1).server.bytes_total
    back = qpi.link(1, 0).server.bytes_total
    assert (fwd, back) == (64, 2800)
    assert delay >= 60  # two crossings


def test_round_trip_same_node_free(qpi):
    assert qpi.round_trip(1, 1, 64, 2800) == 0


def test_missing_link_raises(qpi):
    with pytest.raises(KeyError):
        qpi.link(0, 0)
    with pytest.raises(KeyError):
        qpi.link(0, 5)


def test_probe_delay_does_not_charge(qpi):
    before = qpi.link(0, 1).server.bytes_total
    qpi.link(0, 1).probe_delay(64)
    assert qpi.link(0, 1).server.bytes_total == before


def test_num_links_for_n_nodes():
    ic = Interconnect(Environment(), num_nodes=4,
                      bytes_per_sec_per_direction=1e9,
                      crossing_latency_ns=10)
    assert len(ic.links()) == 12  # 4*3 directed pairs


def test_invalid_node_count():
    with pytest.raises(ValueError):
        Interconnect(Environment(), num_nodes=0,
                     bytes_per_sec_per_direction=1e9, crossing_latency_ns=1)


def test_throttle_reduces_rate_and_estimates(qpi):
    link = qpi.link(0, 1)
    base = link.server.bytes_per_sec
    link.throttle(0.5)
    assert link.is_throttled
    assert link.server.bytes_per_sec == pytest.approx(base * 0.5)
    assert link.estimator.bytes_per_sec == pytest.approx(base * 0.5)
    link.unthrottle()
    assert not link.is_throttled
    assert link.server.bytes_per_sec == pytest.approx(base)


def test_throttled_crossing_is_slower(qpi):
    fast = qpi.traverse(0, 1, 28_000)
    qpi.link(0, 1).throttle(0.25)
    slow = qpi.traverse(0, 1, 28_000)
    assert slow > fast


def test_throttle_validates_factor(qpi):
    link = qpi.link(0, 1)
    with pytest.raises(ValueError):
        link.throttle(0.0)
    with pytest.raises(ValueError):
        link.throttle(1.5)


def test_traverse_to_a_missing_link_raises(qpi):
    with pytest.raises(KeyError, match="no interconnect link"):
        qpi.traverse(0, 5, 64)


# ------------------------------------------------ fused per-burst path
#
# InterconnectLink.traverse and loaded_crossing_ns fold the estimator's
# exact-tier arithmetic and the server charge in line.  The references
# below are the unfused calls with the builtin min/max they replaced; the
# fused code must match them bit for bit, state included.

def _reference_inflation(link, u):
    from repro.interconnect.link import _BETA
    return min(link.max_latency_inflation,
               1.0 + _BETA * u / max(1e-6, 1.0 - u))


def _reference_traverse(link, nbytes):
    u = link.estimator.update_utilization(nbytes)
    return (int(link.crossing_latency_ns * _reference_inflation(link, u))
            + link.server.account(nbytes))


def _reference_crossing(link):
    u = link.estimator.utilization()
    return int(link.crossing_latency_ns * _reference_inflation(link, u))


def _state(link):
    est, server = link.estimator, link.server
    return (est._bucket_start, est._bucket_bytes, est._last_utilization,
            {fid: list(slot) for fid, slot in est._pending.items()},
            server._free_at, server._busy_ns, server._bytes_total,
            server._window_bytes)


def _twin_links(env, rate=1e9):
    from repro.interconnect.link import InterconnectLink
    return (InterconnectLink(env, 0, 1, rate, 30),
            InterconnectLink(env, 0, 1, rate, 30))


def _charge_steps(seed, steps):
    """(time step, bytes) pairs that cross bucket boundaries, land on
    them exactly, repeat timestamps and saturate a 1 B/ns link."""
    import random
    rng = random.Random(seed)
    for _ in range(steps):
        dt = rng.choice([0, 0, 1, 64, 5_000, 19_999, 20_000, 20_001,
                         rng.randrange(60_000)])
        yield dt, rng.choice([0, 8, 64, 72, 4096, 30_000, 90_000])


@pytest.mark.parametrize("seed", range(4))
def test_fused_traverse_matches_estimator_and_server_calls(seed):
    env = Environment()
    fused, reference = _twin_links(env)
    for dt, nbytes in _charge_steps(seed, 400):
        env._now += dt
        assert fused.loaded_crossing_ns() == _reference_crossing(reference)
        assert fused.traverse(nbytes) == _reference_traverse(reference,
                                                             nbytes)
        assert _state(fused) == _state(reference)


def test_fused_traverse_matches_with_fluid_reservations_pending():
    env = Environment()
    fused, reference = _twin_links(env)
    steps = list(_charge_steps(7, 300))
    branches = set()
    for index, (dt, nbytes) in enumerate(steps):
        env._now += dt
        # Steady intervals of two flows open every 50 charges; between
        # them the reservations stay pending, then expire.
        phase = index % 50
        if phase < 10:
            env.fluid_span_ns = 200_000
            env.fluid_flow_id = 1 + index % 2
        else:
            env.fluid_span_ns = 0
            env.fluid_flow_id = 0
        branches.add((env.fluid_span_ns > 0, bool(fused.estimator._pending)))
        assert fused.loaded_crossing_ns() == _reference_crossing(reference)
        assert fused.traverse(nbytes) == _reference_traverse(reference,
                                                             nbytes)
        assert _state(fused) == _state(reference)
    # In a span, pending outside one, and the exact tier after expiry.
    assert {(True, True), (False, True), (False, False)} <= branches


def test_throttle_mid_run_drops_memoised_service_times(qpi):
    link = qpi.link(0, 1)
    qpi.env._now = 1_000_000
    fast = link.traverse(28_000)            # 1000 ns at 28 GB/s
    assert link.server._durations == {28_000: 1000}
    link.throttle(0.25)
    assert link.server._durations == {}
    qpi.env._now = 2_000_000                # the backlog has drained
    slow = link.traverse(28_000)
    assert link.server._durations == {28_000: 4000}
    assert slow - fast >= 3000
