"""Edge-path tests for the LLC: dead parts, failed migrations, mixes
of granularities and geometries, driven through the hierarchy."""

from _hierarchy import A, B, C, D, E, build, part_of, read, stage_site1_dirty_refill

from repro.cache.block import ReuseClass
from repro.cache.cacheset import NVM, SRAM
from repro.cache.hierarchy import Level


def test_migration_fails_when_nvm_dead_victim_goes_to_memory():
    h = build("ca_rwr", size=64, sram=1, nvm=2)  # incompressible: SRAM
    for w in range(2):
        h.llc.faultmap.disable_frame(0, w)
    h.access(0, A, True)
    read(h, B, C)               # dirty A takes the single SRAM way
    cs = h.llc.set_of(A)
    assert part_of(h, A) == SRAM and cs.dirty[cs.find(A)]
    cs.reuse[cs.find(A)] = ReuseClass.READ  # force the migration path
    # B's spill displaces A: migration to the dead NVM part fails, so
    # A's dirty data goes to memory exactly once
    read(h, D)
    assert not h.llc.contains(A) and part_of(h, B) == SRAM
    assert h.llc.stats.writebacks_to_memory == 1
    assert h.llc.stats.migrations_to_nvm == 0


def test_gets_hit_on_dirty_copy_keeps_ownership():
    h = build("ca_rwr")
    h.access(0, A, True)
    read(h, B, C)               # dirty A in the LLC
    outcome = h.access(0, A, False)
    assert outcome.llc_hit
    cs = h.llc.set_of(A)
    assert cs.dirty[cs.find(A)]  # LLC stays the owner (O state)
    assert not h.l2[0].is_dirty(A)  # the requester gets a clean copy
    assert h.meta.get(A).reuse is ReuseClass.WRITE  # dirty hit: WRITE


def test_bh_with_every_frame_dead_bypasses():
    h = build("bh", sram=0, nvm=2)
    for w in range(2):
        h.llc.faultmap.disable_frame(0, w)
    h.access(0, A, True)
    read(h, B, C)
    assert h.llc.stats.bypasses == 1
    assert h.llc.stats.writebacks_to_memory == 1


def test_sram_policy_on_hybrid_geometry_ignores_nvm():
    h = build("sram", sram=1, nvm=2)
    read(h, A, B, C, D, E)      # A, B and C spill
    cs = h.llc.sets[0]
    assert cs.occupancy(SRAM) == 1
    assert cs.occupancy(NVM) == 0
    assert h.llc.stats.nvm_writes == 0


def test_partial_capacity_prefers_fitting_invalid_frame():
    h = build("ca_rwr", size=44)  # ECB 46
    h.llc.faultmap.set_capacity(0, 0, 40)  # NVM way 0 cannot hold it
    read(h, A, B, C)
    cs = h.llc.set_of(A)
    way = cs.find(A)
    assert cs.part_of(way) == NVM
    assert cs.nvm_way(way) == 1  # skipped the 40-byte frame


def test_update_in_place_charges_resident_ecb():
    h = stage_site1_dirty_refill("ca_rwr", size=30)
    cs = h.llc.set_of(A)
    way = cs.find(A)
    resident_ecb = cs.ecb[way]
    assert resident_ecb == 32
    nvm_bytes = h.llc.stats.nvm_bytes_written
    frame = h.llc.wear.bytes_written[cs.index, cs.nvm_way(way)]
    read(h, D)                  # dirty A returns to its resident copy
    assert cs.find(A) == way
    assert h.llc.stats.nvm_bytes_written == nvm_bytes + resident_ecb
    assert h.llc.wear.bytes_written[cs.index, cs.nvm_way(way)] == (
        frame + resident_ecb
    )


def test_getx_miss_counts():
    h = build("ca_rwr")
    assert h.access(0, A, True).level == Level.MEMORY
    assert h.llc.stats.getx == 1 and h.llc.stats.getx_hits == 0
    assert h.llc.stats.gets == 0


def test_eviction_of_clean_block_is_silent_to_memory():
    h = build("bh", sram=1, nvm=1)
    read(h, A, B, C, D, E)      # the third spill evicts clean LRU A
    assert h.llc.stats.evictions >= 1 and not h.llc.contains(A)
    assert h.llc.stats.writebacks_to_memory == 0
