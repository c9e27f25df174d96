"""Non-inclusive multi-core memory hierarchy (Sec. III-A, Fig. 3).

Implements the NVM-friendly mostly-exclusive flow the paper adopts
from the gem5 MOESI_CMP_directory protocol:

* a miss in all levels fetches the block from memory straight into the
  private L1/L2 of the requester — the LLC is *not* filled;
* the victim replaced in L2 (clean or dirty) is sent to the LLC and
  written there if absent — this is the only LLC fill path;
* a GetX (write-permission) request that hits the LLC returns the
  block and invalidates the LLC copy immediately;
* GetX also invalidates copies in other cores' private caches
  (directory semantics); a dirty peer copy is forwarded to the
  requester.  GetS misses in the LLC probe peer L2s before going to
  memory (cache-to-cache transfer), with the owner keeping its copy.

Multi-programmed mixes never share addresses, so the directory paths
mostly idle there, but they are implemented and tested so shared
workloads behave correctly.

**Directory sharer index.**  The hierarchy maintains two dicts mapping
block address to a per-core presence bitmask — one for L1 contents,
one for L2 — updated on every private fill, eviction and invalidation.
This is the precise sharer tracking a MOESI directory keeps in
hardware; with it, GetX snoops (:meth:`_snoop_peers`), GetS
cache-to-cache probes (a mask check in :meth:`access_level`) and
metadata garbage-collection on LLC eviction
(:meth:`_on_llc_eviction_to_memory`) are O(1) dictionary lookups
instead of linear scans over every private cache per event.  The
invariant — each mask equals the brute-force scan of the corresponding
caches — is enforced by property tests
(``tests/test_hierarchy_properties.py``).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..config import SystemConfig
from ..core.policy import FillContext, InsertionPolicy
from .block import BlockMeta, MetadataTable, ReuseClass
from .llc import HybridLLC, SizeFn
from .private_cache import PrivateCache
from .stats import HierarchyStats


class Level(IntEnum):
    """Where an access was serviced (drives the latency model)."""

    L1 = 0
    L2 = 1
    LLC_SRAM = 2
    LLC_NVM = 3
    PEER = 4       # cache-to-cache transfer from another core's L2
    MEMORY = 5


# Hot-path constants.  ``access_level`` returns the *plain int* value
# of a Level: an exact int keeps the engine's penalty-table subscript
# on CPython's specialised tuple-index path (an IntEnum falls back to
# the generic __index__ protocol), and the engine only ever indexes
# with it.  ``access`` re-wraps the int as a Level for the outcome API.
_L1 = int(Level.L1)
_L2 = int(Level.L2)
_LLC_SRAM = int(Level.LLC_SRAM)
_LLC_NVM = int(Level.LLC_NVM)
_PEER = int(Level.PEER)
_MEMORY = int(Level.MEMORY)
_WRITE = ReuseClass.WRITE
_READ = ReuseClass.READ
_NONE = ReuseClass.NONE


class AccessOutcome(NamedTuple):
    level: Level
    llc_hit: bool


class MemoryHierarchy:
    """Private L1D/L2 per core + shared hybrid LLC + flat main memory."""

    def __init__(
        self,
        config: SystemConfig,
        policy: InsertionPolicy,
        size_fn: Optional[SizeFn] = None,
    ) -> None:
        self.config = config
        n_cores = config.cores.n_cores
        self.l1: List[PrivateCache] = [PrivateCache(config.l1) for _ in range(n_cores)]
        self.l2: List[PrivateCache] = [PrivateCache(config.l2) for _ in range(n_cores)]
        self.meta = MetadataTable()
        self.llc = HybridLLC(config, policy, size_fn=size_fn)
        self.stats = HierarchyStats(llc=self.llc.stats)
        for core in range(n_cores):
            self.stats.core(core)
        self.llc.on_block_to_memory = self._on_llc_eviction_to_memory
        # Directory sharer index: addr -> bitmask of cores holding the
        # block in their L1 / L2 (see module docstring).  A key is
        # present iff its mask is non-zero.
        self._sharer_l1: Dict[int, int] = {}
        self._sharer_l2: Dict[int, int] = {}
        # Hot-path caches: per-core stat objects (refreshed by
        # reset_stats) and the L1/L2 set arrays the access fast path
        # indexes directly.
        self._core_stats = [self.stats.core(core) for core in range(n_cores)]
        self._l1_sets = [cache._sets for cache in self.l1]
        self._l2_sets = [cache._sets for cache in self.l2]
        self._l1_mask = self.l1[0]._set_mask
        self._l2_mask = self.l2[0]._set_mask
        self._l1_ways = self.l1[0].ways
        self._l2_ways = self.l2[0].ways

    # ------------------------------------------------------------------
    def access(self, core: int, addr: int, is_write: bool) -> AccessOutcome:
        """One demand access from a core; returns where it was serviced."""
        level = self.access_level(core, addr, is_write)
        return AccessOutcome(
            Level(level), level == _LLC_SRAM or level == _LLC_NVM
        )

    def access_level(self, core: int, addr: int, is_write: bool) -> int:
        """:meth:`access` without the outcome-tuple allocation.

        This is the engine's entry point: one call per demand access,
        with the L1/L2 hit paths written out on the private caches'
        per-set dicts (the dict-recency trick of :class:`PrivateCache`)
        so the common case costs a handful of dict operations and no
        nested method calls.
        """
        core_stats = self._core_stats[core]
        core_stats.accesses += 1

        l1 = self.l1[core]
        entries = self._l1_sets[core][addr & self._l1_mask]
        if addr in entries:
            was_dirty = entries.pop(addr)
            entries[addr] = was_dirty or is_write
            l1.hits += 1
            core_stats.l1_hits += 1
            if is_write and not was_dirty:
                self._upgrade(core, addr)
            return _L1
        l1.misses += 1

        l2 = self.l2[core]
        l2_entries = self._l2_sets[core][addr & self._l2_mask]
        if addr in l2_entries:
            # Recency refresh; dirtiness is untouched by a read lookup.
            was_dirty = l2_entries.pop(addr)
            l2_entries[addr] = was_dirty
            l2.hits += 1
            core_stats.l2_hits += 1
            if is_write and not was_dirty:
                # store to a clean L2 line: acquire write permission
                self._upgrade(core, addr)
            self._fill_l1(core, addr, is_write)
            return _L2

        l2.misses += 1

        # L2 miss: issue GetS/GetX to the shared LLC (directory home).
        # The LLC lookup — classification, recency and invalidate-on-hit
        # — is written out here on the LLC's set arrays, as is the
        # zero-sharers fast path of the GetX snoop / GetS peer probe;
        # this region runs once per private-level miss.
        llc = self.llc
        cache_set = llc.sets[addr & llc._set_mask]
        llc_stats = llc.stats
        way = cache_set.way_of.get(addr)
        if is_write:
            llc_stats.getx += 1
        else:
            llc_stats.gets += 1

        if way is not None:
            copy_dirty = cache_set.dirty[way]
            table = self.meta._table
            meta = table.get(addr)
            if meta is None:
                meta = BlockMeta()
                table[addr] = meta
            meta.llc_hits += 1
            if is_write or copy_dirty:
                meta.reuse = _WRITE
            elif meta.reuse is not _WRITE:
                meta.reuse = _READ
            cache_set.reuse[way] = meta.reuse
            in_sram = way < cache_set.sram_ways
            if in_sram:
                llc_stats.hits_sram += 1
                ret = _LLC_SRAM
            else:
                llc_stats.hits_nvm += 1
                ret = _LLC_NVM
            on_hit = llc._on_hit
            if is_write:
                llc_stats.getx_hits += 1
                if on_hit is not None:
                    on_hit(cache_set, way, True)
                # Invalidate-on-hit: the block (with its dirty data)
                # moves into the requester's L2 (inlined CacheSet.evict).
                cache_set.tags[way] = None
                cache_set.dirty[way] = False
                cache_set.csize[way] = 0
                cache_set.ecb[way] = 0
                cache_set.reuse[way] = _NONE
                # Inlined recency unlink (CacheSet.evict's link surgery).
                prv = cache_set.rec_prev
                nxt = cache_set.rec_next
                before, after = prv[way], nxt[way]
                nxt[before] = after
                prv[after] = before
                del cache_set.way_of[addr]
                if in_sram:
                    cache_set.free_sram += 1
                else:
                    cache_set.free_nvm += 1
                # GetX revokes peer copies; a dirty copy is forwarded.
                others = (
                    self._sharer_l1.get(addr, 0) | self._sharer_l2.get(addr, 0)
                ) & ~(1 << core)
                peer_dirty = self._snoop_peers(core, addr) if others else None
                l2_dirty = copy_dirty or bool(peer_dirty)
            else:
                llc_stats.gets_hits += 1
                if on_hit is not None:
                    on_hit(cache_set, way, False)
                # Promote the way to MRU unless it is there already.
                nxt = cache_set.rec_next
                sentinel = cache_set.total_ways
                if nxt[way] != sentinel:
                    prv = cache_set.rec_prev
                    before, after = prv[way], nxt[way]
                    nxt[before] = after
                    prv[after] = before
                    mru = prv[sentinel]
                    nxt[mru] = way
                    prv[way] = mru
                    nxt[way] = sentinel
                    prv[sentinel] = way
                l2_dirty = False
            core_stats.llc_hits += 1
        else:
            # LLC miss: try a cache-to-cache transfer from a peer L2.
            # The sharer index makes both the GetX snoop and the GetS
            # probe a mask check when no peer holds the block (the
            # common case).
            l2_dirty = False
            ret = _MEMORY
            if is_write:
                others = (
                    self._sharer_l1.get(addr, 0) | self._sharer_l2.get(addr, 0)
                ) & ~(1 << core)
                peer_dirty = self._snoop_peers(core, addr) if others else None
                if peer_dirty is not None:
                    # GetX revoked the peer copy; its data (possibly
                    # dirty) is forwarded to the requester.
                    l2_dirty = peer_dirty
                    ret = _PEER
            elif self._sharer_l2.get(addr, 0) & ~(1 << core):
                # The lowest-numbered sharing core answers and keeps its
                # copy (O/S states); the forwarded L2 copy is clean.
                ret = _PEER
            if ret == _MEMORY:
                # Memory fetch straight into the private levels
                # (non-inclusive).
                core_stats.memory_accesses += 1
                self.stats.memory_reads += 1

        # Refill both private levels — every L2-missing access ends
        # here.  This repeats the bodies of _fill_l2 + _fill_l1 (the
        # methods below serve the other paths).
        # ---- L2 fill ----
        entries = self._l2_sets[core][addr & self._l2_mask]
        sharers = self._sharer_l2
        bit = 1 << core
        sharers[addr] = sharers.get(addr, 0) | bit
        if addr in entries:
            entries[addr] = entries.pop(addr) or l2_dirty
        elif len(entries) >= self._l2_ways:
            v_addr = next(iter(entries))
            v_dirty = entries.pop(v_addr)
            entries[addr] = l2_dirty
            mask = sharers[v_addr] & ~bit
            if mask:
                sharers[v_addr] = mask
            else:
                del sharers[v_addr]
            # Spill the L2 victim to the LLC: resident update / silent
            # drop / fresh insert, as in _fill_l2.
            cache_set = llc.sets[v_addr & llc._set_mask]
            way = cache_set.way_of.get(v_addr)
            if way is not None:
                if v_dirty:
                    cache_set.dirty[way] = True
                    llc._charge_write(cache_set, way, cache_set.ecb[way])
                    llc_stats.updates_in_place += 1
                else:
                    llc_stats.silent_drops += 1
                # Promote the resident way to MRU.
                nxt = cache_set.rec_next
                sentinel = cache_set.total_ways
                if nxt[way] != sentinel:
                    prv = cache_set.rec_prev
                    before, after = prv[way], nxt[way]
                    nxt[before] = after
                    prv[after] = before
                    mru = prv[sentinel]
                    nxt[mru] = way
                    prv[way] = mru
                    nxt[way] = sentinel
                    prv[sentinel] = way
            else:
                meta = self.meta._table.get(v_addr)
                reuse = meta.reuse if meta is not None else _NONE
                if llc._compressed and llc._size_fn is not None:
                    csize, ecb = llc._size_fn(v_addr)
                else:
                    csize = ecb = llc.block_size
                llc_stats.fills += 1
                llc._insert(
                    cache_set,
                    FillContext(v_addr, v_dirty, csize, ecb, reuse,
                                cache_set.index),
                    migrating=False,
                )
        else:
            entries[addr] = l2_dirty
        # ---- L1 fill ----
        entries = self._l1_sets[core][addr & self._l1_mask]
        sharers = self._sharer_l1
        sharers[addr] = sharers.get(addr, 0) | bit
        if addr in entries:
            entries[addr] = entries.pop(addr) or is_write
        elif len(entries) >= self._l1_ways:
            v_addr = next(iter(entries))
            v_dirty = entries.pop(v_addr)
            entries[addr] = is_write
            mask = sharers[v_addr] & ~bit
            if mask:
                sharers[v_addr] = mask
            else:
                del sharers[v_addr]
            l2_entries = self._l2_sets[core][v_addr & self._l2_mask]
            if v_addr in l2_entries:
                if v_dirty:
                    l2_entries[v_addr] = True
            else:
                self._fill_l2(core, v_addr, v_dirty)
        else:
            entries[addr] = is_write

        if ret == _MEMORY:
            table = self.meta._table  # enters the hierarchy untagged (NLB)
            if addr not in table:
                table[addr] = BlockMeta()
        return ret

    # ------------------------------------------------------------------
    def _fill_l1(self, core: int, addr: int, dirty: bool) -> None:
        # Dict-recency LRU fill of this core's L1 + sharer upkeep.
        entries = self._l1_sets[core][addr & self._l1_mask]
        sharers = self._sharer_l1
        bit = 1 << core
        sharers[addr] = sharers.get(addr, 0) | bit
        if addr in entries:
            entries[addr] = entries.pop(addr) or dirty
            return
        if len(entries) >= self._l1_ways:
            v_addr = next(iter(entries))
            v_dirty = entries.pop(v_addr)
            entries[addr] = dirty
            # The victim left this core's L1; fix the index before any
            # downstream spill consults it.
            mask = sharers[v_addr] & ~bit
            if mask:
                sharers[v_addr] = mask
            else:
                del sharers[v_addr]
            # Write back into L2; if L2 no longer holds it (inclusion is
            # not enforced), the refill may spill an L2 victim to the LLC.
            l2_entries = self._l2_sets[core][v_addr & self._l2_mask]
            if v_addr in l2_entries:
                if v_dirty:
                    l2_entries[v_addr] = True
            else:
                self._fill_l2(core, v_addr, v_dirty)
            return
        entries[addr] = dirty

    def _fill_l2(self, core: int, addr: int, dirty: bool) -> None:
        entries = self._l2_sets[core][addr & self._l2_mask]
        sharers = self._sharer_l2
        bit = 1 << core
        sharers[addr] = sharers.get(addr, 0) | bit
        if addr in entries:
            entries[addr] = entries.pop(addr) or dirty
            return
        if len(entries) >= self._l2_ways:
            v_addr = next(iter(entries))
            v_dirty = entries.pop(v_addr)
            entries[addr] = dirty
            mask = sharers[v_addr] & ~bit
            if mask:
                sharers[v_addr] = mask
            else:
                del sharers[v_addr]
            # Spill the L2 victim to the LLC — the only LLC fill path:
            # resident update / silent drop / fresh insert, one spill
            # per L2 eviction.
            llc = self.llc
            cache_set = llc.sets[v_addr & llc._set_mask]
            llc_stats = llc.stats
            way = cache_set.way_of.get(v_addr)
            if way is not None:
                if v_dirty:
                    cache_set.dirty[way] = True
                    llc._charge_write(cache_set, way, cache_set.ecb[way])
                    llc_stats.updates_in_place += 1
                else:
                    llc_stats.silent_drops += 1
                # Promote the resident way to MRU.
                nxt = cache_set.rec_next
                sentinel = cache_set.total_ways
                if nxt[way] != sentinel:
                    prv = cache_set.rec_prev
                    before, after = prv[way], nxt[way]
                    nxt[before] = after
                    prv[after] = before
                    mru = prv[sentinel]
                    nxt[mru] = way
                    prv[way] = mru
                    nxt[way] = sentinel
                    prv[sentinel] = way
                return
            meta = self.meta._table.get(v_addr)
            reuse = meta.reuse if meta is not None else _NONE
            if llc._compressed and llc._size_fn is not None:
                csize, ecb = llc._size_fn(v_addr)
            else:
                csize = ecb = llc.block_size
            llc_stats.fills += 1
            llc._insert(
                cache_set,
                FillContext(v_addr, v_dirty, csize, ecb, reuse, cache_set.index),
                migrating=False,
            )
            return
        entries[addr] = dirty

    def _upgrade(self, core: int, addr: int) -> None:
        """GetX/Upgrade for a store that hit a clean private line.

        Invalidates the (now stale) LLC copy — the invalidate-on-hit
        rule of Sec. III-A — and revokes any shared peer copies.  The
        request is off the critical path (store buffer), so no latency
        is charged.
        """
        self.llc.upgrade(addr, self.meta)
        self._snoop_peers(core, addr)

    # ------------------------------------------------------------------
    def _snoop_peers(self, requester: int, addr: int) -> Optional[bool]:
        """GetX: revoke all other cores' copies; returns the dirtiness of
        a found copy (forwarded to the requester), or None if no peer
        held the block."""
        sharers_l1 = self._sharer_l1
        sharers_l2 = self._sharer_l2
        mask_l1 = sharers_l1.get(addr, 0)
        mask_l2 = sharers_l2.get(addr, 0)
        others = (mask_l1 | mask_l2) & ~(1 << requester)
        if not others:
            return None
        found = False
        stats = self.stats
        remaining = others
        while remaining:
            low = remaining & -remaining
            core = low.bit_length() - 1
            remaining -= low
            _present1, dirty1 = self.l1[core].invalidate(addr)
            _present2, dirty2 = self.l2[core].invalidate(addr)
            stats.coherence_invalidations += 1
            if dirty1 or dirty2:
                found = True
        mask_l1 &= ~others
        mask_l2 &= ~others
        if mask_l1:
            sharers_l1[addr] = mask_l1
        elif addr in sharers_l1:
            del sharers_l1[addr]
        if mask_l2:
            sharers_l2[addr] = mask_l2
        elif addr in sharers_l2:
            del sharers_l2[addr]
        return found

    # ------------------------------------------------------------------
    def _on_llc_eviction_to_memory(self, addr: int) -> None:
        """Drop the block tag once no hierarchy copy remains."""
        if addr in self._sharer_l1 or addr in self._sharer_l2:
            return
        self.meta._table.pop(addr, None)

    # ------------------------------------------------------------------
    def sharer_masks(self, addr: int) -> Tuple[int, int]:
        """(L1 mask, L2 mask) of cores holding ``addr`` (index view)."""
        return self._sharer_l1.get(addr, 0), self._sharer_l2.get(addr, 0)

    def rebuild_sharer_index(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Brute-force recomputation from cache contents (test oracle)."""
        l1_masks: Dict[int, int] = {}
        l2_masks: Dict[int, int] = {}
        for core, (l1, l2) in enumerate(zip(self.l1, self.l2)):
            bit = 1 << core
            for block in l1.resident_blocks():
                l1_masks[block] = l1_masks.get(block, 0) | bit
            for block in l2.resident_blocks():
                l2_masks[block] = l2_masks.get(block, 0) | bit
        return l1_masks, l2_masks

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all counters (end of warm-up) without touching contents."""
        n_cores = self.config.cores.n_cores
        new = HierarchyStats()
        self.llc.stats = new.llc
        self.stats = new
        for core in range(n_cores):
            self.stats.core(core)
        self._core_stats = [self.stats.core(core) for core in range(n_cores)]
        for cache in (*self.l1, *self.l2):
            cache.hits = 0
            cache.misses = 0
        self.llc.wear.reset()

    def end_epoch(self) -> None:
        self.llc.end_epoch()
