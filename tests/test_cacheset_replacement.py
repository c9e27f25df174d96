"""Tests for the LLC set structure and its (fit-)LRU replacement.

The victim and free-frame choices are made by ``HybridLLC._insert`` and
the policies' ``choose_victim``; these tests check them through live
fills on the scripted hierarchy of ``tests/_hierarchy.py``.  The linked
recency list is checked against a plain-list LRU model under scripted
fills, promotions and invalidations, and its invariants after every
access of a random storm.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hierarchy import A, B, C, D, E, build, part_of, read

from repro.cache.block import ReuseClass
from repro.cache.cacheset import NVM, SRAM, CacheSet
from repro.core import registered_policies
from repro.core.policy import FillContext


def order(h, set_index=0):
    """Blocks of one LLC set from LRU to MRU."""
    cs = h.llc.sets[set_index]
    return [cs.tags[way] for way in cs.lru_order()]


def test_part_mapping():
    cs = CacheSet(0, 4, 12)
    assert cs.part_of(0) == SRAM
    assert cs.part_of(3) == SRAM
    assert cs.part_of(4) == NVM
    assert cs.part_of(15) == NVM
    assert cs.nvm_way(4) == 0
    assert cs.nvm_way(15) == 11
    with pytest.raises(ValueError):
        cs.nvm_way(2)


def test_insert_find_evict():
    h = build("ca_rwr", size=30)
    h.access(0, A, True)
    read(h, B, C)               # dirty A fills an NVM frame
    cs = h.llc.sets[0]
    way = cs.find(A)
    assert cs.part_of(way) == NVM and cs.free_nvm == 3
    assert cs.evict(way) == (A, True, 30, ReuseClass.NONE)
    assert cs.find(A) is None
    assert cs.lru_order() == []
    assert cs.free_nvm == 4 and cs.ecb[way] == 0


def test_evict_empty_rejected():
    cs = CacheSet(0, 4, 12)
    with pytest.raises(ValueError):
        cs.evict(0)


def test_touch_moves_to_mru():
    h = build("bh")
    read(h, A, B, C, D, E)      # A, B and C spill in that order
    assert order(h) == [A, B, C]
    read(h, A)                  # GetS hit: A becomes MRU, then D spills
    assert order(h) == [B, C, A, D]
    read(h, 0x10, 0x11)         # E spills; then A's clean refill
    assert h.llc.stats.silent_drops == 1
    assert order(h) == [B, C, D, E, A]  # a silent drop promotes A too


def test_lru_victim_respects_subset():
    """Each part replaces its own LRU block, even when the other part
    holds an older one.  Under CA (CP_th 37) the 30-byte blocks s* go
    to NVM, the incompressible g* to SRAM."""
    s1, s2, s3, s4, s5, p1, p2 = 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16
    g1, g2 = 0x20, 0x21
    h = build("ca", size=lambda addr: 64 if addr >= 0x20 else 30, cpth=37,
              sram=1, nvm=2)
    read(h, s1, g1, s2, g2, s3)
    assert order(h) == [s1, g1, s2]
    read(h, s4)                 # g2 spills: SRAM evicts g1, not older s1
    assert order(h) == [s1, s2, g2]
    read(h, s5, p1)             # s3, then s4: NVM evicts s1, then s2
    assert order(h) == [g2, s3, s4]
    read(h, p2)                 # s5 spills: NVM evicts s3, not older g2
    assert order(h) == [g2, s4, s5]


def test_fit_lru_skips_small_frames():
    x0, tiny, x2, x3, p1, p2 = 0x10, 0x11, 0x12, 0x13, 0x14, 0x15
    h = build("ca", size=lambda addr: 16 if addr == tiny else 30, cpth=64,
              sram=0, nvm=4)    # ECB 18 for tiny, 32 for the rest
    h.llc.faultmap.set_capacity(0, 1, 20)
    h.llc.faultmap.set_capacity(0, 2, 40)
    read(h, x0, tiny, x2, x3, p1, p2)
    cs = h.llc.sets[0]
    assert [cs.tags[w] for w in range(4)] == [x0, tiny, x2, x3]
    read(h, x0)                 # GetS hit: x0 becomes MRU, p1 spills
    # the LRU block sits in the 20-byte frame, too small for p1's 32
    # bytes: fit-LRU passes over it and takes x2's 40-byte frame
    assert [cs.tags[w] for w in range(4)] == [x0, tiny, p1, x3]
    assert order(h) == [tiny, x3, x0, p1]


def test_usable_invalid_way_fit_aware():
    h = build("ca", size=23, cpth=64, sram=0, nvm=3)  # ECB 25
    for way, capacity in enumerate((10, 30, 64)):
        h.llc.faultmap.set_capacity(0, way, capacity)
    cs = h.llc.sets[0]
    read(h, A, B, C)
    assert cs.find(A) == 1      # the 10-byte frame is passed over
    read(h, D)
    assert cs.find(B) == 2
    read(h, E)                  # no free frame fits: C replaces LRU A
    assert cs.find(C) == 1 and not h.llc.contains(A)
    assert cs.tags[0] is None and cs.free_nvm == 1


def test_mru_victim_where():
    p1, p2 = 0x10, 0x11
    h = build("lhybrid", sram=4, nvm=2)
    read(h, A, B, C, p1, p2)    # A, B, C spill into SRAM as NLBs
    read(h, A)                  # A turns LB (MRU); p1 takes the last way
    read(h, C)                  # C turns LB (MRU); p2 must displace
    # the most recent loop-block, C, migrates to NVM; neither the
    # older loop-block A nor the LRU block B is touched
    assert part_of(h, C) == NVM
    assert part_of(h, A) == SRAM and part_of(h, B) == SRAM
    assert part_of(h, p2) == SRAM
    assert h.llc.stats.migrations_to_nvm == 1


def test_occupancy_per_part():
    h = build("ca_rwr", size=lambda addr: 64 if addr == A else 30, cpth=37)
    read(h, A, B, C, D)         # A spills into SRAM, B into NVM
    cs = h.llc.sets[0]
    assert cs.occupancy(SRAM) == 1 and cs.occupancy(NVM) == 1
    assert cs.free_sram == 1 and cs.free_nvm == 3
    h.access(0, A, True)        # GetX hit invalidates A's LLC copy
    assert cs.occupancy(SRAM) == 0 and cs.free_sram == 2


def check_sets(llc):
    """The linked recency order, way_of and free counters of every set
    agree with the tag array."""
    for cs in llc.sets:
        sentinel = cs.total_ways
        nxt, prv = cs.rec_next, cs.rec_prev
        linked = []
        way = sentinel
        while True:
            assert prv[nxt[way]] == way and nxt[prv[way]] == way
            way = nxt[way]
            if way == sentinel:
                break
            linked.append(way)
            assert len(linked) <= cs.total_ways
        valid = [w for w in range(cs.total_ways) if cs.tags[w] is not None]
        assert sorted(linked) == valid
        assert cs.lru_order() == linked
        assert cs.way_of == {cs.tags[w]: w for w in valid}
        assert cs.free_sram == sum(
            cs.tags[w] is None for w in range(cs.sram_ways)
        )
        assert cs.free_nvm == sum(
            cs.tags[w] is None for w in range(cs.sram_ways, cs.total_ways)
        )


@given(
    policy_name=st.sampled_from(registered_policies()),
    seed=st.integers(0, 2**16),
    n_ops=st.integers(100, 400),
    addr_space=st.integers(8, 64),
    write_prob=st.floats(0.0, 0.8),
    capacities=st.lists(st.integers(0, 64), min_size=6, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_recency_is_permutation_of_valid_ways(
    policy_name, seed, n_ops, addr_space, write_prob, capacities
):
    """Property: after every access of a two-core storm, every LLC set's
    linked recency list is consistent and holds exactly its valid ways,
    and its way_of map and free counters match a scan of the tags."""
    h = build(policy_name, size=lambda addr: 1 + (addr * 37) % 64,
              l1_sets=2, llc_sets=2, sram=2, nvm=3)
    for i, capacity in enumerate(capacities):
        h.llc.faultmap.set_capacity(i % 2, i // 2, capacity)
    rng = random.Random(seed)
    for _ in range(n_ops):
        h.access(rng.randrange(2), rng.randrange(addr_space),
                 rng.random() < write_prob)
        check_sets(h.llc)


# ----------------------------------------------------------------------
# Scripted single LLC events.  Private caches of 256 ways never evict
# within one test, so no access spills a victim into the LLC: each step
# below is exactly one fill, promotion or invalidation of the one set.

def event_hierarchy(sram, nvm):
    return build("bh", l1_ways=256, l2_ways=256, sram=sram, nvm=nvm,
                 n_cores=4)


def part_ways(cs, part):
    if part == SRAM:
        return range(cs.sram_ways)
    return range(cs.sram_ways, cs.total_ways)


def fill(h, addr, part):
    """Fill a clean ``addr`` into ``part`` through HybridLLC._insert;
    returns the way it took."""
    cs = h.llc.sets[0]
    ctx = FillContext(addr, False, 64, 64, ReuseClass.NONE, cs.index)
    assert h.llc._insert(cs, ctx, migrating=False, parts=(part,))
    return cs.find(addr)


def invalidate(h, addr, core=0):
    """A store that removes the LLC copy: an upgrade (CacheSet.evict)
    when ``core`` holds a clean copy, else a GetX hit (the unlink
    written out in access_level)."""
    h.access(core, addr, True)
    assert not h.llc.contains(addr)


class ShadowLRU:
    """A plain-list recency model: remove/append on a Python list.

    The linked list that the fill, hit and invalidation paths splice
    must be observationally identical to this: the same LRU->MRU
    sequence after any interleaving of fills, promotions and
    invalidations.
    """

    def __init__(self):
        self.order = []

    def insert(self, way):
        self.order.append(way)

    def touch(self, way):
        if self.order and self.order[-1] == way:
            return
        self.order.remove(way)
        self.order.append(way)

    def evict(self, way):
        self.order.remove(way)


@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "touch", "evict"]),
                  st.integers(0, 15)),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=120, deadline=None)
def test_linked_list_recency_matches_shadow_list(ops):
    """Property: linked-list recency == plain-list recency on any
    sequence of live fills (with part-LRU eviction when the part is
    full), GetS-hit promotions and invalidations.  A fill goes to the
    part of way ``i``; a promotion or invalidation picks the ``i``-th
    valid way (mod the count)."""
    h = event_hierarchy(4, 12)
    cs = h.llc.sets[0]
    shadow = ShadowLRU()
    next_addr = 1
    for op, i in ops:
        valid = [w for w in range(cs.total_ways) if cs.tags[w] is not None]
        way = valid[i % len(valid)] if valid else None
        addr = None if way is None else cs.tags[way]
        if op == "insert":
            part = cs.part_of(i)
            free = [w for w in part_ways(cs, part) if cs.tags[w] is None]
            victim = free[0] if free else next(
                w for w in shadow.order if cs.part_of(w) == part
            )
            assert fill(h, next_addr, part) == victim
            if not free:
                shadow.evict(victim)
            shadow.insert(victim)
            next_addr += 1
        elif op == "touch" and addr is not None:
            cores = [c for c in range(4) if not h.l1[c].contains(addr)]
            if cores:
                assert h.access(cores[0], addr, False).llc_hit
                shadow.touch(way)
        elif op == "evict" and addr is not None:
            holders = [c for c in range(4) if h.l1[c].contains(addr)]
            invalidate(h, addr, holders[0] if holders else 0)
            shadow.evict(way)
        assert cs.lru_order() == shadow.order
        backward, w = [], cs.rec_prev[cs.total_ways]
        while w != cs.total_ways:
            backward.append(w)
            w = cs.rec_prev[w]
        assert backward == shadow.order[::-1]
    stats = h.llc.stats
    assert stats.fills == stats.silent_drops == stats.updates_in_place == 0


@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "getx", "upgrade"]),
                  st.integers(0, 7)),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=120, deadline=None)
def test_invalid_way_and_occupancy_match_scan(ops):
    """Property: the free-frame counters, occupancy and the fill's
    free-frame choice == a full scan of the tags.  A fill goes to the
    part of way ``i`` while that way is empty; an invalidation picks
    the ``i``-th valid way (mod the count)."""
    h = event_hierarchy(4, 4)
    cs = h.llc.sets[0]
    next_addr = 1
    for op, i in ops:
        valid = [w for w in range(cs.total_ways) if cs.tags[w] is not None]
        addr = cs.tags[valid[i % len(valid)]] if valid else None
        if op == "insert" and cs.tags[i] is None:
            part = cs.part_of(i)
            invalid = [w for w in part_ways(cs, part) if cs.tags[w] is None]
            assert fill(h, next_addr, part) == invalid[0]
            next_addr += 1
        elif op == "getx" and addr is not None:
            invalidate(h, addr)
        elif op == "upgrade" and addr is not None:
            read(h, addr, core=1)           # GetS hit: a clean copy
            invalidate(h, addr, core=1)
        for part, free in ((SRAM, cs.free_sram), (NVM, cs.free_nvm)):
            ways = part_ways(cs, part)
            invalid = [w for w in ways if cs.tags[w] is None]
            assert free == len(invalid)
            assert cs.occupancy(part) == len(ways) - len(invalid)
