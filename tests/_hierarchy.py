"""A tiny scripted memory hierarchy shared by the cache tests.

The LLC, private-cache and policy tests drive the code every simulation
runs — :meth:`MemoryHierarchy.access` — on a hierarchy small enough
that each eviction can be scripted by hand.  Block addresses are block
numbers, so ``addr % n_sets`` picks the set at every level.

An L2 victim reaches the LLC by two routes, and both run ``_fill_l2``'s
one spill: the refill of an L2-missing access ("site 1" in the helper
names) and the write-back of an L1 victim that L2 no longer holds
("site 2").  The ``stage_*`` scripts leave a hierarchy one access away
from a refill of a block the LLC still holds, by either route.
"""

from repro.cache.hierarchy import MemoryHierarchy
from repro.compression.encodings import ecb_size
from repro.config import CacheGeometry, CoreConfig, HybridGeometry, SystemConfig
from repro.core import make_policy

A, B, C, D, E, F = 0xA, 0xB, 0xC, 0xD, 0xE, 0xF


def build(policy_name, size=30, l1_ways=1, l1_sets=1, l2_ways=2, l2_sets=1,
          llc_sets=1, sram=2, nvm=4, n_cores=2, **policy_kw):
    """A deliberately tiny hierarchy so evictions are scriptable.

    Under a compressing policy every block compresses to ``size`` bytes
    (``ecb_size(size)`` in an NVM frame); ``size`` may also be a
    function of the block address.  The defaults give two cores with
    one-way L1s and two-way L2s over one LLC set of 2 SRAM + 4 NVM ways.
    """
    config = SystemConfig(
        cores=CoreConfig(n_cores=n_cores),
        l1=CacheGeometry(l1_sets * l1_ways * 64, l1_ways),
        l2=CacheGeometry(l2_sets * l2_ways * 64, l2_ways),
        llc=HybridGeometry(n_sets=llc_sets, sram_ways=sram, nvm_ways=nvm,
                           n_banks=1),
    )
    policy = make_policy(policy_name, **policy_kw)
    size_of = size if callable(size) else (lambda addr: size)
    size_fn = (
        (lambda addr: (size_of(addr), ecb_size(size_of(addr))))
        if policy.compressed else None
    )
    return MemoryHierarchy(config, policy, size_fn=size_fn)


def part_of(h, addr):
    """SRAM or NVM for a block resident in the LLC, else None."""
    cs = h.llc.set_of(addr)
    way = cs.find(addr)
    return None if way is None else cs.part_of(way)


def read(h, *addrs, core=0):
    """Load each block in turn on one core."""
    for addr in addrs:
        h.access(core, addr, False)


def stage_site1_dirty_refill(policy_name, **build_kw):
    """Next ``read(h, D)``: D's own L2 refill spills a dirty A onto the
    clean copy the LLC holds.

    Four one-way L1 sets let L1 keep A's dirty data after L2 spilled
    A's clean line.  E's access evicts A from L1 back into L2.  C and D
    go to L1 sets that were empty, so only their own L2 refills spill:
    C's spills E and leaves A at L2's LRU, and D's spills A.
    """
    h = build(policy_name, l1_sets=4, **build_kw)
    h.access(0, A, True)      # L1 holds the dirty data, L2 a clean line
    read(h, B, F)             # F's L2 miss spills clean A; L1 keeps A
    assert h.llc.contains(A) and h.l1[0].is_dirty(A)
    read(h, E, C)             # E evicts dirty A from L1 into L2
    assert h.l2[0].is_dirty(A) and not h.l1[0].contains(A)
    assert h.l2[0].resident_blocks() == [A, C]    # A is L2's LRU
    return h


def stage_site2_refill(policy_name, dirty=False, **build_kw):
    """Next ``read(h, E)``: the write-back of E's L1 victim evicts A
    from L2, whose first copy the LLC still holds.

    Two one-way L1 sets (even and odd blocks) let L1 keep A after L2
    spilled it.  C's access evicts A from L1 into L2, which spills D (a
    fresh insert by the L1-victim route).  E's own L2 miss then spills
    C, and E's L1 victim C, gone from L2, is refilled into L2 and
    evicts A.  With ``dirty`` the first access to A is a store, so A's
    second L2 exit carries the L1's dirty data.
    """
    h = build(policy_name, l1_sets=2, **build_kw)
    h.access(0, A, dirty)
    read(h, B, D)             # D's L2 miss spills A; A's L1 copy stays
    assert h.llc.contains(A) and h.l1[0].contains(A)
    assert not h.l2[0].contains(A)
    fills = h.llc.stats.fills
    read(h, C)                # L1 evicts A into L2, which spills D
    assert h.l2[0].contains(A) and h.llc.contains(D)
    assert h.llc.stats.fills == fills + 2      # B by C's refill, D by A's
    return h
