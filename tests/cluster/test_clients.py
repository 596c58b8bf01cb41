"""Client-fleet generators: determinism, Zipf skew, churn, diurnal,
incast — everything the arrival planner consumes."""

import hashlib

import pytest

import repro.cluster.clients as clients
from repro.cluster.clients import (diurnal_factor, fleet_rng,
                                   generate_block, incast_schedule,
                                   server_seed)
from repro.cluster.spec import FleetSpec

SPEC = FleetSpec(servers=4, connections=32768, duration_ns=8_000_000,
                 epochs=4)

#: sha256 of repr([generate_block(123, b, 2048, SPEC) for b in 0..7]),
#: taken from the per-connection reference.  The float totals go
#: through the built-in sum(), which Python 3.12 made compensated, so
#: this value holds only where sum() adds floats plainly.
BLOCKS_SHA256 = (
    "90c95ee548b19764f162e515a62f8388866ca37733f51dca283489ac99498073")
#: The same blocks' (block_id, connections, churn_by_epoch): integer
#: fields only, so this value holds on every Python.
CHURN_SHA256 = (
    "527335caa3a8a8d9e213dacf8eb530d653ebb0dc451381c293c635d259324825")
PLAIN_FLOAT_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0

needs_numpy = pytest.mark.skipif(clients._np is None,
                                 reason="numpy unavailable")


@pytest.fixture(params=[True, False], ids=["numpy", "scalar"])
def numpy_mode(request, monkeypatch):
    if not request.param:
        monkeypatch.setattr(clients, "_np", None)
    elif clients._np is None:
        pytest.skip("numpy unavailable")
    return request.param


def scalar_block(monkeypatch, *args) -> clients.BlockProfile:
    """``generate_block(*args)`` through the per-connection reference."""
    with monkeypatch.context() as patch:
        patch.setattr(clients, "_np", None)
        return generate_block(*args)


# Short lifetimes (most connections churn), epochs that do not divide
# the duration, and a mean lifetime so long that an unclamped int64
# cast of the lifetime would overflow.
SPEC_VARIANTS = [
    dict(duration_ns=8_000_000, epochs=4),
    dict(duration_ns=8_000_000, epochs=4, churn_lifetime_ns=50_000),
    dict(duration_ns=1_000_003, epochs=7),
    dict(duration_ns=1_000_003, epochs=7, churn_lifetime_ns=10**19),
]


@pytest.mark.parametrize("slow_fraction", [0.0, 0.02, 1.0])
@pytest.mark.parametrize("zipf_s", [0.0, 1.1])
def test_vector_and_scalar_blocks_agree_exactly(numpy_mode, monkeypatch,
                                                zipf_s, slow_fraction):
    for variant in SPEC_VARIANTS:
        spec = FleetSpec(connections=32768, zipf_s=zipf_s,
                         slow_fraction=slow_fraction, **variant)
        for size in (1, 7, 2048):
            for block in (0, 5):
                got = generate_block(11, block, size, spec)
                assert got == scalar_block(monkeypatch, 11, block, size,
                                           spec), (variant, size, block)
                assert len(got.churn_by_epoch) == spec.epochs
                assert all(isinstance(n, int) for n in got.churn_by_epoch)


@needs_numpy
def test_vector_and_scalar_agree_over_a_rack_of_blocks(monkeypatch):
    """numpy's own pow differs from libm's in the last place on about 5%
    of draws, which moves a block's totals or top weight on roughly one
    block in seven: 64 full-size blocks are enough to catch it."""
    spec = FleetSpec()
    for block in range(64):
        assert generate_block(0, block, 2048, spec) == scalar_block(
            monkeypatch, 0, block, 2048, spec), block


@needs_numpy
def test_libm_fallback_for_lifetimes_near_an_integer(monkeypatch):
    """Widen the band so that most lifetimes take the libm fallback: the
    blocks must still equal the reference, short and long lived alike."""
    monkeypatch.setattr(clients, "_LOG_BAND", 1e-4)
    for variant in SPEC_VARIANTS:
        spec = FleetSpec(connections=32768, **variant)
        for block in range(4):
            assert generate_block(3, block, 2048, spec) == scalar_block(
                monkeypatch, 3, block, 2048, spec), (variant, block)


@needs_numpy
def test_lifetime_on_the_run_end_takes_libm():
    """A lifetime that libm's log puts exactly on the run end and
    numpy's log one ulp short of it (on an AVX-512 host; elsewhere the
    two may agree): the vector path must drop it, as the reference
    does."""
    spec = FleetSpec(duration_ns=2_280_183_067_470,
                     churn_lifetime_ns=1_000_000_000_211)
    u_life = float.fromhex("0x1.cba3dbc92276bp-1")
    draws = [[0.5], [0.5], [0.0], [u_life]]
    expected = clients._reduce_block(*draws, spec)
    assert sum(expected[3]) == 0
    assert clients._reduce_block_vector(
        *[clients._np.array(d) for d in draws], spec) == expected


def test_blocks_match_the_pinned_reference(numpy_mode):
    blocks = [generate_block(123, b, 2048, SPEC) for b in range(8)]
    churn = [(p.block_id, p.connections, p.churn_by_epoch) for p in blocks]
    assert hashlib.sha256(repr(churn).encode()).hexdigest() == CHURN_SHA256
    if PLAIN_FLOAT_SUM:
        assert (hashlib.sha256(repr(blocks).encode()).hexdigest()
                == BLOCKS_SHA256)


def test_block_regeneration_is_deterministic():
    first = generate_block(123, 7, 512, SPEC)
    again = generate_block(123, 7, 512, SPEC)
    assert first == again
    other_block = generate_block(123, 8, 512, SPEC)
    assert other_block != first
    other_seed = generate_block(124, 7, 512, SPEC)
    assert other_seed != first


def test_server_seeds_are_decorrelated():
    seeds = {server_seed(9, s) for s in range(16)}
    assert len(seeds) == 16
    assert server_seed(9, 0) == server_seed(9, 0)
    assert server_seed(10, 0) != server_seed(9, 0)


def test_zipf_weights_are_skewed_but_normalized():
    profile = generate_block(5, 0, 2048, SPEC)
    assert profile.total_weight == pytest.approx(2048)
    # Zipf: the hottest connection is far above the mean weight of 1.
    assert profile.top_weight > 5.0
    uniform = generate_block(
        5, 0, 2048, FleetSpec(connections=32768, zipf_s=0.0))
    assert uniform.top_weight == pytest.approx(1.0)


def test_slow_weight_tracks_slow_fraction():
    profile = generate_block(5, 3, 4096, SPEC)
    share = profile.slow_weight / profile.total_weight
    assert 0.2 * SPEC.slow_fraction < share < 5 * SPEC.slow_fraction
    none_slow = generate_block(
        5, 3, 4096, FleetSpec(connections=32768, slow_fraction=0.0))
    assert none_slow.slow_weight == 0.0


def test_churn_scales_with_lifetime():
    short = FleetSpec(connections=32768, duration_ns=8_000_000, epochs=4,
                      churn_lifetime_ns=1_000_000)
    long = FleetSpec(connections=32768, duration_ns=8_000_000, epochs=4,
                     churn_lifetime_ns=800_000_000)
    churny = generate_block(1, 0, 2048, short)
    stable = generate_block(1, 0, 2048, long)
    assert sum(churny.churn_by_epoch) > 10 * max(
        1, sum(stable.churn_by_epoch))
    assert len(churny.churn_by_epoch) == short.epochs
    assert sum(churny.churn_by_epoch) <= 2048


def test_diurnal_curve_spans_trough_to_peak():
    amp = SPEC.diurnal_amplitude
    assert diurnal_factor(SPEC, 0) == pytest.approx(1 - amp)
    assert diurnal_factor(SPEC, SPEC.duration_ns // 2) == (
        pytest.approx(1 + amp))
    flat = FleetSpec(connections=1024, diurnal_amplitude=0.0)
    assert diurnal_factor(flat, 12345) == 1.0


def test_incast_schedule_is_deterministic_and_in_bounds():
    first = incast_schedule(77, 2, SPEC)
    assert first == incast_schedule(77, 2, SPEC)
    assert first != incast_schedule(77, 3, SPEC)
    assert len(first) == SPEC.epochs
    for epoch, bursts in enumerate(first):
        start, end = SPEC.epoch_bounds()[epoch]
        assert len(bursts) == SPEC.incast_per_epoch
        for t, fanin in bursts:
            assert start <= t < end
            assert fanin == SPEC.incast_fanin


def test_fleet_rng_streams_are_order_independent():
    root = fleet_rng(3)
    a_then_b = (root.child("block-1").random(),
                root.child("block-2").random())
    root2 = fleet_rng(3)
    b_then_a = (root2.child("block-2").random(),
                root2.child("block-1").random())
    assert a_then_b == (b_then_a[1], b_then_a[0])
