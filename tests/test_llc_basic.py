"""The hybrid LLC's Sec. III-A protocol, driven through the hierarchy.

Every test runs :meth:`MemoryHierarchy.access` on the scripted
hierarchy of ``tests/_hierarchy.py``.  The three refill outcomes —
fresh insert, silent drop, update in place — are checked at both
places an L2 victim reaches the LLC: ``access_level``'s own spill
(site 1) and ``_fill_l2``'s (site 2).
"""

from _hierarchy import (
    A, B, C, D, E, build, part_of, read, stage_site1_dirty_refill,
    stage_site2_refill,
)

from repro.cache.block import ReuseClass
from repro.cache.cacheset import NVM, SRAM
from repro.cache.hierarchy import Level
from repro.compression.encodings import ecb_size

ECB_30 = ecb_size(30)  # 32 bytes


def assert_writes_are_fills(h):
    """Every frame write so far was a fill: no refill wrote a frame."""
    stats = h.llc.stats
    assert stats.updates_in_place == 0
    assert stats.nvm_writes == stats.fills_nvm
    assert stats.sram_writes == stats.fills_sram
    assert stats.nvm_bytes_written == ECB_30 * stats.fills_nvm
    assert h.llc.wear.total_bytes_written() == stats.nvm_bytes_written


def frame_bytes(h, addr):
    """Bytes the wear tracker charged to the NVM frame holding ``addr``."""
    cs = h.llc.set_of(addr)
    return h.llc.wear.bytes_written[cs.index, cs.nvm_way(cs.find(addr))]


def test_miss_then_fill_then_hit():
    h = build("bh_cp")
    assert h.access(0, A, False).level == Level.MEMORY
    # a demand miss bypasses the LLC: GetS counted, nothing filled
    assert h.llc.stats.gets == 1 and h.llc.stats.fills == 0
    assert not h.llc.contains(A)
    read(h, B, C)               # site 1: C's L2 miss spills A, a fresh insert
    assert h.llc.contains(A) and h.llc.stats.fills == 1
    outcome = h.access(0, A, False)
    assert outcome.llc_hit and h.llc.stats.gets_hits == 1
    assert h.llc.contains(A)    # GetS leaves the copy

    # site 2: _fill_l2's spill of D is a fresh insert too
    h = stage_site2_refill("bh_cp")
    assert h.llc.contains(D) and h.llc.stats.fills == 3


def test_getx_invalidate_on_hit():
    h = build("bh_cp")
    h.access(0, A, True)
    read(h, B, C)               # A's dirty L2 exit fills the LLC
    cs = h.llc.set_of(A)
    assert cs.dirty[cs.find(A)]
    outcome = h.access(0, A, True)
    assert outcome.llc_hit and h.llc.stats.getx_hits == 1
    assert not h.llc.contains(A)
    assert h.l2[0].is_dirty(A)  # the dirty data went to the requester
    assert h.llc.stats.writebacks_to_memory == 0


def test_upgrade_invalidates_copy():
    h = build("bh_cp")
    read(h, A, B, C)            # A in the LLC
    read(h, A)                  # GetS hit: A back in L1, clean
    assert h.llc.contains(A)
    h.access(0, A, True)        # a store to the clean L1 line upgrades
    assert not h.llc.contains(A)
    assert h.meta.get(A).reuse is ReuseClass.WRITE
    assert h.llc.stats.upgrades == 1 and h.llc.stats.upgrade_hits == 1
    read(h, D)
    h.access(0, D, True)        # upgrade of a block the LLC never held
    assert h.llc.stats.upgrades == 2 and h.llc.stats.upgrade_hits == 1


def test_clean_refill_is_silent_drop():
    # site 1: E's L2 miss evicts A, which a GetS hit brought back clean
    h = build("ca_rwr", size=30)
    read(h, A, B, C)            # C's L2 miss spills A into NVM
    read(h, A, D)               # GetS hit keeps the LLC copy
    fills = h.llc.stats.fills
    read(h, E)
    assert not h.l2[0].contains(A)
    assert h.llc.stats.silent_drops == 1 and h.llc.stats.fills == fills
    assert part_of(h, A) == NVM
    assert frame_bytes(h, A) == ECB_30
    assert_writes_are_fills(h)

    # site 2: _fill_l2 evicts clean A while the LLC still holds it
    h = stage_site2_refill("ca_rwr", size=30)
    read(h, E)
    assert not h.l2[0].contains(A)
    assert h.llc.stats.silent_drops == 1
    assert part_of(h, A) == NVM
    assert frame_bytes(h, A) == ECB_30
    assert_writes_are_fills(h)


def test_dirty_refill_updates_in_place():
    for h, last in (
        (stage_site1_dirty_refill("ca_rwr", size=30), D),
        (stage_site2_refill("ca_rwr", dirty=True, size=30), E),
    ):
        stats = h.llc.stats
        cs = h.llc.set_of(A)
        assert not cs.dirty[cs.find(A)]
        nvm_bytes, fills_nvm = stats.nvm_bytes_written, stats.fills_nvm
        read(h, last)
        assert not h.l2[0].contains(A)
        assert stats.updates_in_place == 1 and stats.silent_drops == 0
        assert cs.dirty[cs.find(A)]
        # one more write of A's resident ECB, besides any fresh fills
        assert stats.nvm_writes == stats.fills_nvm + 1
        assert stats.nvm_bytes_written == (
            nvm_bytes + ECB_30 * (stats.fills_nvm - fills_nvm + 1)
        )
        assert frame_bytes(h, A) == 2 * ECB_30


def test_reuse_classification_on_hits():
    h = build("bh_cp")
    read(h, A, B, C)
    read(h, A)                  # clean GetS hit
    assert h.meta.get(A).reuse is ReuseClass.READ
    read(h, D, E)               # A's clean L2 exit: silent drop
    assert h.llc.contains(A)
    h.access(0, A, True)        # GetX hit
    assert h.meta.get(A).reuse is ReuseClass.WRITE


def test_eviction_writes_back_dirty_blocks():
    h = build("bh_cp", sram=1, nvm=1)  # global fit-LRU over 2 frames
    h.access(0, A, True)
    read(h, B, C)               # A leaves L2 dirty
    read(h, D, E)               # B, then C: the LLC evicts LRU A
    assert not h.llc.contains(A)
    assert h.llc.stats.evictions == 1
    assert h.llc.stats.writebacks_to_memory == 1


def test_on_block_to_memory_callback():
    seen = []
    h = build("bh", sram=1, nvm=0)
    forward = h.llc.on_block_to_memory
    h.llc.on_block_to_memory = lambda addr: (seen.append(addr), forward(addr))
    read(h, A, B, C, D)         # D's spill of B displaces A
    assert seen == [A]
    assert h.meta.get(A) is None  # no copy left anywhere: tag dropped


def test_nvm_write_charges_wear_and_stats():
    h = build("ca", size=30, cpth=37)
    read(h, A, B, C)            # 30 B <= 37: NVM
    assert h.llc.stats.fills_nvm == 1
    assert h.llc.stats.nvm_bytes_written == ECB_30
    assert h.llc.wear.total_bytes_written() == ECB_30


def test_sram_write_not_charged_to_wear():
    h = build("ca", size=64, cpth=37)
    read(h, A, B, C)            # 64 B > 37: SRAM
    assert h.llc.stats.fills_sram == 1
    assert h.llc.stats.nvm_bytes_written == 0
    assert h.llc.stats.sram_writes == 1
    assert h.llc.wear.total_bytes_written() == 0


def test_fit_lru_fallback_to_sram_when_frames_too_small():
    h = build("ca", size=58, cpth=64)   # ECB 60
    for w in range(4):
        h.llc.faultmap.set_capacity(0, w, 40)
    read(h, A, B, C)
    assert part_of(h, A) == SRAM    # paper: unfit NVM blocks go to SRAM


def test_bypass_when_nothing_fits():
    h = build("ca", size=58, cpth=64, sram=0, nvm=4)
    for w in range(4):
        h.llc.faultmap.set_capacity(0, w, 10)
    h.access(0, A, True)
    read(h, B, C)               # A leaves L2 dirty: no frame can hold it
    assert h.llc.stats.bypasses == 1
    assert h.llc.stats.writebacks_to_memory == 1
    assert not h.llc.contains(A)


def test_frame_disabling_policy_needs_full_frames():
    h = build("bh", sram=0, nvm=2)
    h.llc.faultmap.kill_bytes(0, 0, 1)  # frame granularity: whole frame dies
    assert h.llc.faultmap.capacity(0, 0) == 0
    read(h, A, B, C, D)         # A, then B spill into the one usable frame
    assert h.llc.stats.evictions == 1
    assert len(h.llc.sets[0].way_of) == 1 and h.llc.contains(B)


def test_reconcile_faults_evicts_unfit_blocks():
    h = build("ca", size=30, cpth=37)
    h.access(0, A, True)
    read(h, B, C)               # dirty A in NVM
    cs = h.llc.set_of(A)
    h.llc.faultmap.set_capacity(cs.index, cs.nvm_way(cs.find(A)), 10)
    assert h.llc.reconcile_faults() == 1
    assert not h.llc.contains(A)
    assert h.llc.stats.writebacks_to_memory == 1
