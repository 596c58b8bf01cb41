"""Unit tests for the LLC model."""

import pytest

from repro.memory.llc import LastLevelCache
from repro.memory.region import Region


def make_llc(capacity=1000, ddio_fraction=0.1):
    return LastLevelCache(node_id=0, capacity=capacity,
                          ddio_fraction=ddio_fraction)


def region(name="r", node=0, size=500, nt=False):
    return Region(name=name, home_node=node, size=size, non_temporal=nt)


def test_empty_cache_zero_residency():
    llc = make_llc()
    assert llc.residency(region()) == 0.0


def test_load_establishes_residency():
    llc = make_llc()
    r = region(size=500)
    llc.load(r, 250)
    assert llc.residency(r) == pytest.approx(0.5)
    llc.load(r, 250)
    assert llc.residency(r) == pytest.approx(1.0)


def test_load_cannot_exceed_region_size():
    llc = make_llc()
    r = region(size=100)
    llc.load(r, 500)
    assert llc.resident_bytes(r) == 100
    assert llc.occupied == 100


def test_lru_eviction_on_overflow():
    llc = make_llc(capacity=1000)
    old = region("old", size=600)
    new = region("new", size=600)
    llc.load(old, 600)
    llc.load(new, 600)
    assert llc.residency(old) == 0.0
    assert llc.resident_bytes(new) == 600


def test_touch_protects_from_eviction():
    llc = make_llc(capacity=1000)
    a = region("a", size=500)
    b = region("b", size=400)
    llc.load(a, 500)
    llc.load(b, 400)
    llc.touch(a)  # now b is LRU
    llc.load(region("c", size=500), 500)
    assert llc.residency(b) == 0.0
    assert llc.resident_bytes(a) == 500


def test_single_region_larger_than_cache_clamps():
    llc = make_llc(capacity=1000)
    big = region("big", size=5000)
    llc.load(big, 5000)
    assert llc.occupied == 1000
    assert llc.residency(big) == pytest.approx(0.2)


def test_non_temporal_regions_never_allocate():
    llc = make_llc()
    nt = region("stream", size=500, nt=True)
    llc.load(nt, 500)
    assert llc.residency(nt) == 0.0
    assert llc.ddio_write(nt, 500) == 0


def test_ddio_write_capped_by_slice():
    llc = make_llc(capacity=1000, ddio_fraction=0.1)  # slice = 100
    r = region(size=500)
    absorbed = llc.ddio_write(r, 400)
    assert absorbed == 100
    assert llc.resident_bytes(r) == 100


def test_ddio_slice_evicts_older_ddio_allocations():
    llc = make_llc(capacity=1000, ddio_fraction=0.2)  # slice = 200
    a = region("a", size=300)
    b = region("b", size=300)
    assert llc.ddio_write(a, 150) == 150
    assert llc.ddio_write(b, 150) == 150
    # a's DDIO bytes were squeezed to keep the slice at 200
    assert llc.resident_bytes(a) + llc.resident_bytes(b) <= 1000
    total_ddio = llc._ddio_occupied
    assert total_ddio <= 200


def test_invalidate_reduces_residency():
    llc = make_llc()
    r = region(size=500)
    llc.load(r, 500)
    dropped = llc.invalidate(r, 200)
    assert dropped == 200
    assert llc.resident_bytes(r) == 300
    assert llc.invalidated_bytes == 200


def test_invalidate_whole_region():
    llc = make_llc()
    r = region(size=500)
    llc.load(r, 500)
    assert llc.invalidate(r) == 500
    assert llc.residency(r) == 0.0


def test_invalidate_absent_region_is_noop():
    llc = make_llc()
    assert llc.invalidate(region()) == 0


def test_record_access_counts_hits_and_misses():
    llc = make_llc()
    r = region(size=1000)
    llc.load(r, 500)
    fraction = llc.record_access(r, 1000)
    assert fraction == pytest.approx(0.5)
    assert llc.hits_bytes == 500
    assert llc.miss_bytes == 500


def test_invalid_construction():
    with pytest.raises(ValueError):
        LastLevelCache(0, capacity=0, ddio_fraction=0.1)
    with pytest.raises(ValueError):
        LastLevelCache(0, capacity=100, ddio_fraction=0.0)
    with pytest.raises(ValueError):
        LastLevelCache(0, capacity=100, ddio_fraction=1.5)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(name="bad", home_node=0, size=0)
    with pytest.raises(ValueError):
        Region(name="bad", home_node=-1, size=10)


def test_occupancy_never_negative_after_mixed_ops():
    llc = make_llc(capacity=500, ddio_fraction=0.5)
    regions = [region(f"r{i}", size=200) for i in range(5)]
    for i, r in enumerate(regions):
        if i % 2:
            llc.ddio_write(r, 200)
        else:
            llc.load(r, 200)
        llc.invalidate(regions[i // 2], 50)
    assert llc.occupied >= 0
    assert llc._ddio_occupied >= 0
    assert llc.occupied <= llc.capacity


# ------------------------------------------- DDIO eviction, no snapshot

class _SnapshotEvictionLLC(LastLevelCache):
    """The DDIO eviction as it was written before: a snapshot of the
    LRU order walked with a re-check per region, then a clamp of
    ``keep``.  The reference for the copy-free walk."""

    def _evict_ddio_overflow(self, keep):
        if self._ddio_occupied <= self.ddio_capacity:
            return
        for victim in list(self._entries):
            if self._ddio_occupied <= self.ddio_capacity:
                break
            entry = self._entries[victim]
            if entry.ddio == 0 or victim is keep:
                continue
            drop = min(entry.ddio,
                       self._ddio_occupied - self.ddio_capacity)
            entry.ddio -= drop
            entry.resident -= drop
            self._occupied -= drop
            self._ddio_occupied -= drop
            if entry.resident <= 0:
                del self._entries[victim]
        if self._ddio_occupied > self.ddio_capacity:
            entry = self._entries[keep]
            drop = min(self._ddio_occupied - self.ddio_capacity, entry.ddio)
            entry.ddio -= drop
            entry.resident -= drop
            self._occupied -= drop
            self._ddio_occupied -= drop


def _llc_state(llc, regions):
    return ([(r.name, e.resident, e.ddio) for r, e in llc._entries.items()],
            llc.occupied, llc.ddio_occupied, llc.invalidated_bytes,
            [r.dma_llc_node for r in regions])


def _llc_ops():
    from hypothesis import strategies as st
    return st.tuples(
        st.sampled_from([600, 1000, 4096]),                 # capacity
        st.sampled_from([0.1, 0.25, 0.5, 1.0]),             # ddio fraction
        st.lists(st.integers(min_value=1, max_value=900),   # region sizes
                 min_size=1, max_size=5),
        st.lists(st.tuples(
            st.sampled_from(["load", "ddio", "ddio", "invalidate",
                             "invalidate_all", "touch"]),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=1200)),
            min_size=1, max_size=80))


def test_ddio_eviction_matches_the_snapshot_walk():
    from hypothesis import given, settings

    @given(_llc_ops())
    @settings(max_examples=300, deadline=None)
    def check(case):
        capacity, fraction, sizes, ops = case
        new = LastLevelCache(node_id=0, capacity=capacity,
                             ddio_fraction=fraction)
        old = _SnapshotEvictionLLC(node_id=0, capacity=capacity,
                                   ddio_fraction=fraction)
        # One region list per cache: dma_llc_node lives on the region.
        new_regions = [region(f"r{i}", size=s) for i, s in enumerate(sizes)]
        old_regions = [region(f"r{i}", size=s) for i, s in enumerate(sizes)]
        for op, index, nbytes in ops:
            index %= len(sizes)
            for llc, regions in ((new, new_regions), (old, old_regions)):
                r = regions[index]
                if op == "load":
                    llc.load(r, nbytes)
                elif op == "ddio":
                    r.dma_llc_node = 0
                    llc.ddio_write(r, nbytes)
                elif op == "invalidate":
                    llc.invalidate(r, nbytes)
                elif op == "invalidate_all":
                    llc.invalidate(r)
                else:
                    llc.touch(r)
            assert (_llc_state(new, new_regions)
                    == _llc_state(old, old_regions))

    check()


def test_ddio_overflow_with_keep_as_only_holder_clamps_keep():
    llc = make_llc(capacity=1000, ddio_fraction=0.1)
    plain, hot = region("plain", size=500), region("hot", size=500)
    llc.load(plain, 300)
    llc.ddio_write(hot, 80)
    llc.ddio_write(hot, 80)                 # 160 B of DDIO > 100 B slice
    assert llc.ddio_occupied == 100
    assert llc.resident_bytes(hot) == 100
    assert llc.resident_bytes(plain) == 300
