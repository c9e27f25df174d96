"""Scripted protocol walkthroughs: exact expected behaviour, step by step.

Each scenario drives the full hierarchy through a hand-written access
sequence and asserts the precise intermediate states the paper's
Sec. III/IV machinery must produce — these are the executable version
of the paper's prose examples.
"""

from _hierarchy import build, part_of

from repro.cache.block import ReuseClass
from repro.cache.cacheset import NVM, SRAM
from repro.cache.hierarchy import Level


# ----------------------------------------------------------------------
# Sec. III-A: the non-inclusive, mostly-exclusive flow
# ----------------------------------------------------------------------
def test_block_journey_memory_to_llc_and_back():
    """A read block travels mem -> L1/L2 -> (L2 evict) -> LLC -> L2."""
    h = build("ca_rwr", size=30)
    # A: miss everywhere; fills L1+L2, NOT the LLC
    assert h.access(0, 0xA, False).level == Level.MEMORY
    assert part_of(h, 0xA) is None
    # B, C: push A out of the 2-way L2 (L1 is 1-way so L2 holds A)
    h.access(0, 0xB, False)
    h.access(0, 0xC, False)
    # A's L2 eviction filled the LLC; compressed 30 <= 58 -> NVM
    assert part_of(h, 0xA) == NVM
    # re-read A: LLC GetS hit, copy stays, block now read-reused
    assert h.access(0, 0xA, False).level == Level.LLC_NVM
    assert part_of(h, 0xA) == NVM
    assert h.meta.get(0xA).reuse is ReuseClass.READ


def test_getx_invalidate_on_hit_then_dirty_return():
    """Sec. III-A: a write-permission hit invalidates the LLC copy;
    the dirty block is written back into the LLC on its next L2 exit."""
    h = build("ca_rwr", size=30)
    h.access(0, 0xA, False)
    h.access(0, 0xB, False)
    h.access(0, 0xC, False)            # A now in LLC (NVM)
    assert part_of(h, 0xA) == NVM
    h.access(0, 0xA, True)             # GetX hit -> invalidate
    assert part_of(h, 0xA) is None
    assert h.meta.get(0xA).reuse is ReuseClass.WRITE
    # force A's dirty eviction from L2: it must come back as a
    # write-reused block and therefore land in SRAM (Table II)
    h.access(0, 0xB, False)
    h.access(0, 0xC, False)
    assert part_of(h, 0xA) == SRAM
    cs = h.llc.set_of(0xA)
    assert cs.dirty[cs.find(0xA)]


def test_store_to_l1_resident_clean_line_upgrades():
    h = build("ca_rwr", size=30)
    h.access(0, 0xA, False)
    h.access(0, 0xB, False)
    h.access(0, 0xC, False)            # A in LLC
    h.access(0, 0xA, False)            # A back in L1 (clean), LLC copy kept
    assert part_of(h, 0xA) == NVM
    h.access(0, 0xA, True)             # store hits clean L1 line
    assert part_of(h, 0xA) is None     # upgrade invalidated the LLC copy
    assert h.llc.stats.upgrade_hits == 1


# ----------------------------------------------------------------------
# Sec. IV-B: CA_RWR migration mechanics
# ----------------------------------------------------------------------
def test_read_reused_sram_victim_migrates_to_nvm():
    h = build("ca_rwr", size=64)  # incompressible -> SRAM when non-reused
    # A becomes resident in SRAM (big, no reuse)
    h.access(0, 0xA, False)
    h.access(0, 0xB, False)
    h.access(0, 0xC, False)
    assert part_of(h, 0xA) == SRAM
    # hit A -> read-reused; stays in SRAM until replaced
    h.access(0, 0xA, False)
    assert h.meta.get(0xA).reuse is ReuseClass.READ
    assert part_of(h, 0xA) == SRAM
    # flood SRAM with more big blocks until A is the LRU victim
    for addr in (0xD, 0xE, 0xF, 0x10, 0x11, 0x12):
        h.access(0, addr, False)
    # A must have been migrated into the NVM part, not dropped
    assert part_of(h, 0xA) == NVM
    assert h.llc.stats.migrations_to_nvm >= 1


def test_read_reuse_of_a_resident_sram_block_never_fills_nvm():
    """Table II sends read-reused blocks to NVM, but only a block that
    enters the LLC can be placed.  A GetS hit keeps the LLC copy, and
    the block's next clean L2 exit finds that copy and is dropped, so
    the read->NVM rule never acts on it; only a later migration can
    move it (see test_read_reused_sram_victim_migrates_to_nvm)."""
    h = build("ca_rwr", size=50, cpth=37, sram=8, nvm=4)
    h.access(0, 0xA, False)
    h.access(0, 0xB, False)
    h.access(0, 0xC, False)            # no reuse and 50 > 37: SRAM
    assert part_of(h, 0xA) == SRAM
    h.access(0, 0xA, False)            # GetS hit: read-reused, stays
    assert h.meta.get(0xA).reuse is ReuseClass.READ
    assert part_of(h, 0xA) == SRAM
    h.access(0, 0xD, False)
    stats = h.llc.stats
    drops, fills_nvm = stats.silent_drops, stats.fills_nvm
    h.access(0, 0xE, False)            # A's next L2 exit
    assert not h.l2[0].contains(0xA)
    assert stats.silent_drops == drops + 1
    assert stats.fills_nvm == fills_nvm == 0
    assert stats.migrations_to_nvm == 0
    assert part_of(h, 0xA) == SRAM


# ----------------------------------------------------------------------
# LHybrid: loop-block detection and SRAM replacement preference
# ----------------------------------------------------------------------
def test_lhybrid_loop_block_lifecycle():
    h = build("lhybrid")
    # A enters the hierarchy, gets evicted to LLC as NLB -> SRAM
    h.access(0, 0xA, False)
    h.access(0, 0xB, False)
    h.access(0, 0xC, False)
    assert part_of(h, 0xA) == SRAM
    # clean read hit -> tagged LB
    h.access(0, 0xA, False)
    assert h.meta.get(0xA).is_loop_block
    # on the next SRAM replacement, the MRU LB (A) is migrated to NVM
    for addr in (0xD, 0xE, 0xF, 0x10, 0x11, 0x12):
        h.access(0, addr, False)
    assert part_of(h, 0xA) == NVM


def test_lhybrid_dirty_blocks_never_tagged_lb():
    h = build("lhybrid")
    h.access(0, 0xA, True)             # dirty from the start
    h.access(0, 0xB, False)
    h.access(0, 0xC, False)            # A evicted dirty -> LLC SRAM
    assert part_of(h, 0xA) == SRAM
    h.access(0, 0xA, False)            # hit on a dirty copy
    assert not h.meta.get(0xA).is_loop_block
    assert h.meta.get(0xA).reuse is ReuseClass.WRITE


# ----------------------------------------------------------------------
# TAP: thrashing qualification
# ----------------------------------------------------------------------
def test_tap_requires_repeated_hits_before_nvm():
    h = build("tap", hit_threshold=1)
    tap = h.llc.policy

    def cycle(addr):
        h.access(0, addr, False)
        h.access(0, 0xB0, False)
        h.access(0, 0xC0, False)

    cycle(0xA)                         # A -> LLC (SRAM: unqualified)
    assert part_of(h, 0xA) == SRAM
    h.access(0, 0xA, False)            # first LLC hit (count 1)
    assert not tap.is_thrashing(0xA)
    h.access(0, 0xB0, False)
    h.access(0, 0xC0, False)           # A back out of L2... still in LLC
    h.access(0, 0xA, False)            # second LLC hit (count 2 > 1)
    assert tap.is_thrashing(0xA)


# ----------------------------------------------------------------------
# BH: global LRU is technology-blind
# ----------------------------------------------------------------------
def test_bh_fills_all_ways_in_lru_order():
    h = build("bh", sram=1, nvm=2, l2_ways=2)
    # touch enough distinct blocks to fill all 3 LLC ways via L2 spills
    for addr in range(0xA, 0xA + 8):
        h.access(0, addr, False)
    cs = h.llc.sets[0]
    assert cs.occupancy(SRAM) == 1
    assert cs.occupancy(NVM) == 2
    assert h.llc.stats.evictions > 0
