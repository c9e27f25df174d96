"""Unit tests for every insertion policy's placement logic."""

import pytest

from _hierarchy import build

from repro.cache.block import ReuseClass
from repro.cache.cacheset import NVM, SRAM, CacheSet
from repro.cache.llc import EvictedBlock
from repro.compression.encodings import ecb_size
from repro.core import make_policy, registered_policies
from repro.core.policy import GLOBAL, FillContext


class FakeLLC:
    """Minimal LLC stand-in: full-capacity frames, migration recorder."""

    n_sets = 64

    def __init__(self):
        self.migrated = []

    def capacity_of(self, cache_set, way):
        return 64

    def sizes_of(self, addr):
        return (64, 64)

    def migrate_to_nvm(self, cache_set, victim):
        self.migrated.append(victim.addr)
        return True


def ctx(csize=30, reuse=ReuseClass.NONE, dirty=False, addr=0):
    return FillContext(addr, dirty, csize, ecb_size(csize), reuse, 0)


def bound(name, **kw):
    policy = make_policy(name, **kw)
    policy.bind(FakeLLC())
    return policy


def cache_set():
    return CacheSet(0, 4, 12)


def live_set(name, **kw):
    """A policy bound to a real one-set LLC (4 SRAM + 12 NVM ways)."""
    llc = build(name, sram=4, nvm=12, **kw).llc
    return llc.policy, llc.sets[0]


def insert_sram(policy, cs, addr, reuse=ReuseClass.NONE):
    """Fill ``addr`` into the set's first free SRAM way via the LLC."""
    llc = policy.llc
    ctx = FillContext(addr, False, 64, 64, reuse, cs.index)
    assert llc._insert(cs, ctx, migrating=False, parts=(SRAM,))


# ----------------------------------------------------------------------
def test_registry_contains_all_policies():
    names = registered_policies()
    for expected in ("bh", "bh_cp", "ca", "ca_rwr", "cp_sd", "cp_sd_th",
                     "lhybrid", "tap", "sram"):
        assert expected in names


def test_registry_rejects_unknown():
    with pytest.raises(KeyError):
        make_policy("no_such_policy")


def test_bh_is_global_and_uncompressed():
    policy = bound("bh")
    assert policy.placement(cache_set(), ctx()) == (GLOBAL,)
    assert policy.granularity == "frame"
    assert not policy.compressed and not policy.nvm_aware


def test_bh_cp_is_global_with_compression():
    policy = bound("bh_cp")
    assert policy.placement(cache_set(), ctx()) == (GLOBAL,)
    assert policy.granularity == "byte"
    assert policy.compressed and not policy.nvm_aware


def test_sram_only_placement():
    policy = bound("sram")
    assert policy.placement(cache_set(), ctx()) == (SRAM,)


# ----------------------------------------------------------------------
def test_ca_threshold_split():
    policy = bound("ca", cpth=37)
    assert policy.placement(cache_set(), ctx(csize=37)) == (NVM, SRAM)
    assert policy.placement(cache_set(), ctx(csize=38)) == (SRAM,)
    assert policy.current_cpth() == 37


def test_ca_ignores_reuse():
    policy = bound("ca", cpth=37)
    assert policy.placement(cache_set(), ctx(csize=64, reuse=ReuseClass.READ)) == (SRAM,)


def test_ca_rejects_bad_threshold():
    with pytest.raises(ValueError):
        make_policy("ca", cpth=65)


# ----------------------------------------------------------------------
def test_ca_rwr_table2():
    policy = bound("ca_rwr", cpth=37)
    cs = cache_set()
    # read reuse -> NVM regardless of size
    assert policy.placement(cs, ctx(csize=64, reuse=ReuseClass.READ)) == (NVM, SRAM)
    assert policy.placement(cs, ctx(csize=1, reuse=ReuseClass.READ)) == (NVM, SRAM)
    # write reuse -> SRAM regardless of size
    assert policy.placement(cs, ctx(csize=1, reuse=ReuseClass.WRITE)) == (SRAM,)
    # no reuse -> by size
    assert policy.placement(cs, ctx(csize=30)) == (NVM, SRAM)
    assert policy.placement(cs, ctx(csize=58)) == (SRAM,)


def test_ca_rwr_migrates_read_reused_sram_victims():
    policy = bound("ca_rwr", cpth=37)
    cs = cache_set()
    victim = EvictedBlock(7, False, ReuseClass.READ)
    assert policy.handle_sram_eviction(cs, victim)
    assert policy.llc.migrated == [7]
    assert not policy.handle_sram_eviction(
        cs, EvictedBlock(8, True, ReuseClass.WRITE)
    )
    assert not policy.handle_sram_eviction(
        cs, EvictedBlock(9, False, ReuseClass.NONE)
    )


# ----------------------------------------------------------------------
def test_lhybrid_inserts_only_loop_blocks_to_nvm():
    policy = bound("lhybrid")
    cs = cache_set()
    assert policy.placement(cs, ctx(reuse=ReuseClass.READ)) == (NVM, SRAM)
    assert policy.placement(cs, ctx(reuse=ReuseClass.NONE)) == (SRAM,)
    assert policy.placement(cs, ctx(reuse=ReuseClass.WRITE)) == (SRAM,)


def test_lhybrid_sram_victim_prefers_mru_loop_block():
    policy, cs = live_set("lhybrid")
    insert_sram(policy, cs, 10, ReuseClass.READ)
    insert_sram(policy, cs, 11, ReuseClass.NONE)
    insert_sram(policy, cs, 12, ReuseClass.READ)
    assert policy.choose_victim(cs, SRAM, ctx()) == 2  # MRU LB
    # no loop blocks: plain LRU
    policy, cs2 = live_set("lhybrid")
    insert_sram(policy, cs2, 10, ReuseClass.NONE)
    insert_sram(policy, cs2, 11, ReuseClass.WRITE)
    assert policy.choose_victim(cs2, SRAM, ctx()) == 0


def test_lhybrid_migrates_loop_blocks():
    policy = bound("lhybrid")
    victim = EvictedBlock(5, False, ReuseClass.READ)
    assert policy.handle_sram_eviction(cache_set(), victim)
    assert policy.llc.migrated == [5]


# ----------------------------------------------------------------------
def test_tap_requires_clean_and_thrashing():
    policy, cs = live_set("tap", hit_threshold=1)
    addr = 42
    assert policy.placement(cs, ctx(addr=addr)) == (SRAM,)
    insert_sram(policy, cs, addr)
    policy.on_hit(cs, 0, False)
    assert policy.placement(cs, ctx(addr=addr)) == (SRAM,)  # 1 hit: not yet
    policy.on_hit(cs, 0, False)
    assert policy.is_thrashing(addr)
    assert policy.placement(cs, ctx(addr=addr)) == (NVM, SRAM)
    # dirty blocks never go to NVM under TAP
    assert policy.placement(cs, ctx(addr=addr, dirty=True)) == (SRAM,)


def test_tap_counters_decay_periodically():
    policy, cs = live_set("tap", hit_threshold=1, decay_epochs=1)
    insert_sram(policy, cs, 42)
    for _ in range(2):
        policy.on_hit(cs, 0, False)
    assert policy.is_thrashing(42)
    policy.end_epoch()  # 2 -> 1
    assert not policy.is_thrashing(42)
    policy.end_epoch()  # 1 -> 0, dropped
    assert policy._hit_counts == {}


def test_tap_decay_period_respected():
    policy, cs = live_set("tap", hit_threshold=1, decay_epochs=3)
    insert_sram(policy, cs, 42)
    for _ in range(2):
        policy.on_hit(cs, 0, False)
    policy.end_epoch()
    policy.end_epoch()
    assert policy.is_thrashing(42)  # not yet decayed
    policy.end_epoch()
    assert not policy.is_thrashing(42)


def test_tap_validation():
    with pytest.raises(ValueError):
        make_policy("tap", hit_threshold=0)
    with pytest.raises(ValueError):
        make_policy("tap", decay_epochs=0)


# ----------------------------------------------------------------------
def test_taxonomy_complete():
    for name in ("bh", "bh_cp", "lhybrid", "tap", "cp_sd"):
        tax = make_policy(name).taxonomy()
        assert set(tax) == {"name", "disabling", "compression", "nvm_aware"}
