"""Tests for the private L1/L2 caches, driven through the hierarchy.

Lookups, fills and evictions of the private levels live in
:meth:`MemoryHierarchy.access_level` and its fills; these tests check
their outcomes on the scripted hierarchy of ``tests/_hierarchy.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from _hierarchy import A, B, C, D, build, read

from repro.cache.hierarchy import Level


def test_miss_then_hit():
    h = build("bh")
    stats = h.stats.core(0)
    assert h.access(0, A, False).level == Level.MEMORY
    assert h.access(0, A, False).level == Level.L1
    assert stats.l1_hits == 1 and stats.memory_accesses == 1
    read(h, B)                  # one-way L1: B displaces A, L2 keeps it
    assert h.access(0, A, False).level == Level.L2
    assert stats.l2_hits == 1 and stats.memory_accesses == 2
    assert stats.accesses == 4


def test_store_to_clean_line_signals_upgrade():
    h = build("bh")
    read(h, A)
    h.access(0, A, True)        # store hits the clean L1 line: upgrade
    assert h.llc.stats.upgrades == 1
    h.access(0, A, True)        # the line is already dirty: no upgrade
    assert h.llc.stats.upgrades == 1
    assert h.l1[0].is_dirty(A)
    read(h, C, D)               # C stays clean in L2, L1 keeps only D
    h.access(0, C, True)        # store hits the clean L2 line: upgrade
    assert h.llc.stats.upgrades == 2
    assert h.l1[0].is_dirty(C)


def test_lru_eviction_order():
    h = build("bh", l1_ways=2, l2_ways=4)
    read(h, A, B, A)            # A becomes the L1's MRU
    read(h, C)                  # so C evicts B
    assert h.l1[0].contains(A) and h.l1[0].contains(C)
    assert not h.l1[0].contains(B)


def test_eviction_carries_dirtiness():
    h = build("bh")
    h.access(0, A, True)        # dirty in L1, clean in L2
    assert not h.l2[0].is_dirty(A)
    read(h, B)                  # L1 evicts A: its dirt moves to the L2 copy
    assert not h.l1[0].contains(A) and h.l2[0].is_dirty(A)
    read(h, C)                  # L2 evicts A: the LLC receives it dirty
    cs = h.llc.set_of(A)
    assert cs.dirty[cs.find(A)]


def test_fill_refreshes_existing_entry():
    h = build("bh")
    read(h, A, B)               # L2 holds A (LRU) and B
    read(h, A)                  # L2 hit: A becomes the L2's MRU
    read(h, C)                  # so C's L2 miss evicts B, not A
    assert h.l2[0].contains(A) and not h.l2[0].contains(B)
    assert h.llc.contains(B) and not h.llc.contains(A)


def test_set_isolation():
    h = build("bh", l1_sets=4, l2_sets=4, l2_ways=1)
    read(h, 0, 1, 2, 3)         # one block per set: nothing is evicted
    assert h.l1[0].occupancy() == 4 and h.l2[0].occupancy() == 4
    assert h.llc.stats.fills == 0


def test_invalidate():
    h = build("bh")
    h.access(0, A, True)        # core 0 owns A, dirty
    assert h.access(1, A, True).level == Level.PEER
    # the GetX revoked both of core 0's copies and forwarded the dirt
    assert not h.l1[0].contains(A) and not h.l2[0].contains(A)
    assert h.stats.coherence_invalidations == 1
    assert h.l1[1].is_dirty(A) and h.l2[1].is_dirty(A)
    assert h.sharer_masks(A) == (0b10, 0b10)
    assert h.l1[0].invalidate(A) == (False, False)


def test_resident_blocks():
    h = build("bh")
    read(h, 1, 2)
    assert sorted(h.l2[0].resident_blocks()) == [1, 2]
    assert h.l1[0].resident_blocks() == [2]


ACCESSES = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 63), st.booleans()),
    max_size=300,
)


@given(ACCESSES)
@settings(max_examples=60, deadline=None)
def test_occupancy_never_exceeds_geometry(ops):
    """Property: per-set occupancy is bounded by associativity."""
    h = build("bh", l1_ways=2, l1_sets=2, l2_ways=2, l2_sets=4)
    for core, addr, is_write in ops:
        h.access(core, addr, is_write)
        for cache in (h.l1[core], h.l2[core]):
            assert cache.occupancy() <= cache.ways * cache.n_sets
            assert all(len(entries) <= cache.ways for entries in cache._sets)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 31)),
                min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_most_recent_block_always_resident(ops):
    """Property: the block just accessed is resident in the accessing
    core's L1, and in its L2 unless L1 serviced it (L2 does not
    include L1)."""
    h = build("bh", l1_ways=2, l1_sets=2, l2_ways=2, l2_sets=2)
    for core, addr in ops:
        level = h.access(core, addr, False).level
        assert h.l1[core].contains(addr)
        assert level == Level.L1 or h.l2[core].contains(addr)
