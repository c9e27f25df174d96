"""Property-based stress tests of hierarchy-wide invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import MemoryHierarchy
from repro.config import (
    CacheGeometry,
    CoreConfig,
    HybridGeometry,
    SystemConfig,
)
from repro.core import make_policy


def tiny_config(n_cores=2):
    return SystemConfig(
        cores=CoreConfig(n_cores=n_cores),
        l1=CacheGeometry(2 * 2 * 64, 2),
        l2=CacheGeometry(4 * 4 * 64, 4),
        llc=HybridGeometry(n_sets=8, sram_ways=2, nvm_ways=4, n_banks=2),
    )


def check_invariants(h: MemoryHierarchy) -> None:
    llc = h.llc
    # 1. a block is never resident in two LLC ways
    for cs in llc.sets:
        assert len(set(cs.way_of.values())) == len(cs.way_of)
        for addr, way in cs.way_of.items():
            assert cs.tags[way] == addr
        # 2. recency is a permutation of the valid ways
        valid = [w for w in range(cs.total_ways) if cs.tags[w] is not None]
        assert sorted(cs.lru_order()) == sorted(valid)
        # 3. resident blocks fit their frames
        for way in range(cs.sram_ways, cs.total_ways):
            if cs.tags[way] is not None:
                assert cs.ecb[way] <= llc.capacity_of(cs, way)
    # 4. hit counters are consistent
    llc_stats = llc.stats
    assert llc_stats.gets_hits <= llc_stats.gets
    assert llc_stats.getx_hits <= llc_stats.getx
    assert llc_stats.hits_sram + llc_stats.hits_nvm == llc_stats.hits
    assert llc_stats.upgrade_hits <= llc_stats.upgrades


POLICY_STRATEGY = st.sampled_from(
    ["bh", "bh_cp", "lhybrid", "tap", "ca", "ca_rwr", "cp_sd"]
)


@given(
    policy_name=POLICY_STRATEGY,
    seed=st.integers(0, 2**16),
    n_ops=st.integers(200, 800),
    addr_space=st.integers(16, 96),
    write_prob=st.floats(0.0, 0.8),
)
@settings(max_examples=30, deadline=None)
def test_invariants_hold_under_access_storm(
    policy_name, seed, n_ops, addr_space, write_prob
):
    config = tiny_config()
    size_fn = lambda addr: ((addr % 4) * 16 + 10, (addr % 4) * 16 + 12)
    h = MemoryHierarchy(config, make_policy(policy_name), size_fn=size_fn)
    rng = random.Random(seed)
    for _ in range(n_ops):
        core = rng.randrange(2)
        shared = rng.random() < 0.2  # some sharing to exercise snoops
        addr = rng.randrange(addr_space) if shared else (
            (core << 28) | rng.randrange(addr_space)
        )
        h.access(core, addr, rng.random() < write_prob)
    check_invariants(h)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_invariants_hold_with_aging_between_bursts(seed):
    """Capacities shrink mid-run; reconcile keeps residents legal."""
    import numpy as np

    config = tiny_config()
    size_fn = lambda addr: (30, 32)
    h = MemoryHierarchy(config, make_policy("cp_sd"), size_fn=size_fn)
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    for _round in range(4):
        for _ in range(300):
            core = rng.randrange(2)
            addr = (core << 28) | rng.randrange(64)
            h.access(core, addr, rng.random() < 0.3)
        caps = np_rng.integers(0, 65, size=(8, 4))
        h.llc.faultmap.load_capacities(caps)
        h.llc.reconcile_faults()
        check_invariants(h)


def _nonzero_masks(masks):
    return {addr: mask for addr, mask in masks.items() if mask}


@given(
    policy_name=POLICY_STRATEGY,
    seed=st.integers(0, 2**16),
    n_ops=st.integers(300, 900),
    addr_space=st.integers(8, 64),
    write_prob=st.floats(0.0, 0.9),
)
@settings(max_examples=30, deadline=None)
def test_sharer_index_matches_brute_force(
    policy_name, seed, n_ops, addr_space, write_prob
):
    """The O(1) directory index never drifts from the cache contents.

    Heavy sharing plus a high write probability exercises every index
    transition: fills into L1/L2, silent and dirty L2 evictions, GetX
    revocation of peer copies, and LLC evictions to memory (the tiny
    LLC overflows constantly).  After the storm — and periodically
    during it — the incrementally maintained masks must equal a
    brute-force rescan of the private caches.
    """
    config = tiny_config(n_cores=3)
    size_fn = lambda addr: ((addr % 4) * 16 + 10, (addr % 4) * 16 + 12)
    h = MemoryHierarchy(config, make_policy(policy_name), size_fn=size_fn)
    rng = random.Random(seed)

    def check():
        l1_oracle, l2_oracle = h.rebuild_sharer_index()
        assert _nonzero_masks(h._sharer_l1) == l1_oracle
        assert _nonzero_masks(h._sharer_l2) == l2_oracle
        for addr in set(l1_oracle) | set(l2_oracle):
            assert h.sharer_masks(addr) == (
                l1_oracle.get(addr, 0), l2_oracle.get(addr, 0)
            )

    for op in range(n_ops):
        core = rng.randrange(3)
        shared = rng.random() < 0.5  # high contention: GetX revocations
        addr = rng.randrange(addr_space) if shared else (
            (core << 28) | rng.randrange(addr_space)
        )
        h.access(core, addr, rng.random() < write_prob)
        if op % 97 == 96:
            check()
    check()
    check_invariants(h)


def test_single_core_system():
    config = SystemConfig(
        cores=CoreConfig(n_cores=1),
        l1=CacheGeometry(2 * 2 * 64, 2),
        l2=CacheGeometry(4 * 4 * 64, 4),
        llc=HybridGeometry(n_sets=4, sram_ways=1, nvm_ways=3, n_banks=1),
    )
    h = MemoryHierarchy(config, make_policy("cp_sd"))
    for addr in range(100):
        h.access(0, addr, addr % 3 == 0)
    check_invariants(h)
    assert h.stats.core(0).accesses == 100


def test_eight_core_system():
    config = SystemConfig(
        cores=CoreConfig(n_cores=8),
        l1=CacheGeometry(2 * 2 * 64, 2),
        l2=CacheGeometry(4 * 4 * 64, 4),
        llc=HybridGeometry(n_sets=16, sram_ways=4, nvm_ways=12, n_banks=4),
    )
    h = MemoryHierarchy(config, make_policy("lhybrid"))
    rng = random.Random(1)
    for _ in range(2000):
        core = rng.randrange(8)
        h.access(core, (core << 28) | rng.randrange(128), rng.random() < 0.2)
    check_invariants(h)
    assert all(h.stats.core(c).accesses > 0 for c in range(8))
