"""The shared hybrid SRAM/NVM last-level cache (Sec. III).

The LLC owns the set array, the NVM fault map, the wear tracker and
the statistics; all *decisions* (where to insert, which victim, when
to migrate) are delegated to the bound insertion policy.  The
Sec. III-A protocol rules run in
:meth:`~repro.cache.hierarchy.MemoryHierarchy.access_level` and the
fills it calls, which work on this object's sets directly:

* non-inclusive / mostly-exclusive: the LLC is only filled by L2
  evictions (the hierarchy spills each L2 victim into
  :meth:`HybridLLC._insert`); demand misses bypass it;
* GetX requests that hit invalidate the LLC copy immediately
  (invalidate-on-hit), handing the block — and responsibility for its
  dirty data — back to the private levels; :meth:`HybridLLC.upgrade`
  does the same for a store to a clean private line;
* a dirty L2 eviction that finds a stale resident copy updates it in
  place (one frame write); a clean one is dropped silently.

Fault-awareness: frames are usable for a block only if their effective
capacity (live bytes, from the fault map) can hold its extended
compressed block; non-compressing policies need the full 64 bytes.
Every NVM frame write is charged to the wear tracker with the number
of bytes the rearrangement circuitry would actually write.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from ..config import SystemConfig
from ..core.policy import GLOBAL, FillContext, InsertionPolicy
from ..nvm.faultmap import FaultMap
from ..nvm.wear import WearTracker
from .block import MetadataTable, ReuseClass
from .cacheset import NVM, SRAM, CacheSet
from .stats import LLCStats

SizeFn = Callable[[int], Tuple[int, int]]
"""``size_fn(addr) -> (compressed_size, ecb_size)`` from the data model."""


class EvictedBlock(NamedTuple):
    """A block removed from the LLC by replacement."""

    addr: int
    dirty: bool
    csize: int
    reuse: ReuseClass
    part: int


class HybridLLC:
    """One shared hybrid LLC (all banks; sets are bank-interleaved)."""

    def __init__(
        self,
        config: SystemConfig,
        policy: InsertionPolicy,
        size_fn: Optional[SizeFn] = None,
        stats: Optional[LLCStats] = None,
    ) -> None:
        geom = config.llc
        self.config = config
        self.geom = geom
        self.policy = policy
        self.block_size = geom.block_size
        self.n_sets = geom.n_sets
        self._set_mask = geom.n_sets - 1
        self.sets: List[CacheSet] = [
            CacheSet(i, geom.sram_ways, geom.nvm_ways) for i in range(geom.n_sets)
        ]
        self.faultmap = FaultMap(
            geom.n_sets, geom.nvm_ways, geom.block_size, policy.granularity
        )
        self.wear = WearTracker(geom.n_sets, geom.nvm_ways)
        self.stats = stats if stats is not None else LLCStats()
        self._size_fn = size_fn
        # ``policy.compressed`` is a plain class attribute fixed at
        # construction; sizes_of runs once per fill, so cache it.
        self._compressed = bool(policy.compressed)
        #: called with (addr,) when a block leaves the LLC toward memory;
        #: the hierarchy uses it to garbage-collect block metadata.
        self.on_block_to_memory: Optional[Callable[[int], None]] = None
        policy.bind(self)
        # Policy-hook fast path: most policies keep the base-class no-op
        # hooks, so detect that once and skip the virtual call per
        # hit / NVM write / SRAM eviction entirely.
        base = InsertionPolicy
        hook = policy.on_hit
        self._on_hit = None if hook.__func__ is base.on_hit else hook
        hook = policy.on_nvm_write
        self._on_nvm_write = (
            None if hook.__func__ is base.on_nvm_write else hook
        )
        hook = policy.handle_sram_eviction
        self._handle_sram_eviction = (
            None if hook.__func__ is base.handle_sram_eviction else hook
        )
        # Fill-path devirtualisation: a constant placement tuple skips
        # the placement call, and the base-class (fit-)LRU victim scan
        # is inlined when the policy doesn't override choose_victim.
        self._static_placement = policy.static_placement
        self._default_victim = (
            policy.choose_victim.__func__ is base.choose_victim
        )

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def set_of(self, addr: int) -> CacheSet:
        return self.sets[addr & self._set_mask]

    def sizes_of(self, addr: int) -> Tuple[int, int]:
        """(compressed size, ECB size) the LLC would store for ``addr``."""
        if not self._compressed or self._size_fn is None:
            return self.block_size, self.block_size
        return self._size_fn(addr)

    def capacity_of(self, cache_set: CacheSet, way: int) -> int:
        """Effective capacity of a frame: 64 for SRAM, fault-map for NVM."""
        if way < cache_set.sram_ways:
            return self.block_size
        return self.faultmap.rows[cache_set.index][way - cache_set.sram_ways]

    def contains(self, addr: int) -> bool:
        return self.set_of(addr).find(addr) is not None

    # ------------------------------------------------------------------
    def upgrade(self, addr: int, meta_table: MetadataTable) -> bool:
        """A store hit a clean private line: acquire write permission.

        Behaves like a GetX for the directory state — if the LLC holds
        a copy it is invalidated (the requester already has the data)
        and the block is classified as write-reused.  Returns True if a
        copy was invalidated.
        """
        cache_set = self.set_of(addr)
        self.stats.upgrades += 1
        way = cache_set.find(addr)
        if way is None:
            return False
        self.stats.upgrade_hits += 1
        meta_table.classify_llc_hit(addr, True, cache_set.dirty[way])
        cache_set.evict(way)
        return True

    # ------------------------------------------------------------------
    def _insert(
        self,
        cache_set: CacheSet,
        ctx: FillContext,
        migrating: bool,
        parts: Optional[Tuple[int, ...]] = None,
    ) -> bool:
        """Generic insertion: try parts in order, evict, write, account.

        Runs once per LLC fill; the invalid-way scan (the common case),
        the victim eviction and the insert bookkeeping are written out
        here on the set's arrays rather than called.  Policy decisions
        (``placement`` / ``choose_victim`` / migration) stay virtual
        calls — they are the policies' interface.
        """
        stats = self.stats
        if parts is None:
            parts = self._static_placement
            if parts is None:
                parts = self.policy.placement(cache_set, ctx)
        ecb = ctx.ecb
        tags = cache_set.tags
        sram_ways = cache_set.sram_ways
        total_ways = cache_set.total_ways
        sram_fits = self.block_size >= ecb
        for part in parts:
            # Slot: first usable invalid frame of the part, else a
            # policy-chosen victim (same order as the part arguments).
            # The free-frame counters skip the scans outright for full
            # sets — the steady-state common case.
            way = None
            if part != NVM and sram_fits and cache_set.free_sram:
                for w in range(sram_ways):
                    if tags[w] is None:
                        way = w
                        break
            if way is None and part != SRAM and cache_set.free_nvm:
                row = self.faultmap.rows[cache_set.index]
                for w in range(sram_ways, total_ways):
                    if tags[w] is None and row[w - sram_ways] >= ecb:
                        way = w
                        break
            if way is None:
                if self._default_victim:
                    # Inlined InsertionPolicy.choose_victim: (fit-)LRU
                    # walk of the linked recency order (LRU -> MRU),
                    # restricted to the part.
                    nxt = cache_set.rec_next
                    w = nxt[total_ways]
                    if part == SRAM:
                        while w != total_ways:
                            if w < sram_ways:
                                way = w
                                break
                            w = nxt[w]
                    elif part == GLOBAL:
                        block_size = self.block_size
                        row = self.faultmap.rows[cache_set.index]
                        while w != total_ways:
                            cap = (
                                block_size if w < sram_ways
                                else row[w - sram_ways]
                            )
                            if cap >= ecb:
                                way = w
                                break
                            w = nxt[w]
                    else:
                        row = self.faultmap.rows[cache_set.index]
                        while w != total_ways:
                            if w >= sram_ways and row[w - sram_ways] >= ecb:
                                way = w
                                break
                            w = nxt[w]
                else:
                    way = self.policy.choose_victim(cache_set, part, ctx)
                if way is None:
                    continue
            v_addr = tags[way]
            if v_addr is not None:
                # Inlined CacheSet.evict + victim retirement.  The
                # EvictedBlock record is only materialised when an
                # SRAM-eviction handler might consume the victim — the
                # migrating policies.
                dirty_l = cache_set.dirty
                v_dirty = dirty_l[way]
                v_in_sram = way < sram_ways
                handler = self._handle_sram_eviction
                if v_in_sram and not migrating and handler is not None:
                    victim = EvictedBlock(
                        v_addr, v_dirty, cache_set.csize[way],
                        cache_set.reuse[way], SRAM,
                    )
                else:
                    victim = None
                tags[way] = None
                dirty_l[way] = False
                cache_set.csize[way] = 0
                cache_set.ecb[way] = 0
                cache_set.reuse[way] = ReuseClass.NONE
                # Inlined recency unlink.
                prv = cache_set.rec_prev
                nxt = cache_set.rec_next
                before, after = prv[way], nxt[way]
                nxt[before] = after
                prv[after] = before
                del cache_set.way_of[v_addr]
                if v_in_sram:
                    cache_set.free_sram += 1
                else:
                    cache_set.free_nvm += 1
                stats.evictions += 1
                if victim is None or not handler(cache_set, victim):
                    # Inlined _to_memory.
                    if v_dirty:
                        stats.writebacks_to_memory += 1
                    cb = self.on_block_to_memory
                    if cb is not None:
                        cb(v_addr)
            # Place the block in the (now empty) way.
            tags[way] = ctx.addr
            cache_set.dirty[way] = ctx.dirty
            cache_set.csize[way] = ctx.csize
            cache_set.ecb[way] = ecb
            cache_set.reuse[way] = ctx.reuse
            # Inlined recency link at MRU (before the sentinel).
            prv = cache_set.rec_prev
            nxt = cache_set.rec_next
            mru = prv[total_ways]
            nxt[mru] = way
            prv[way] = mru
            nxt[way] = total_ways
            prv[total_ways] = way
            cache_set.way_of[ctx.addr] = way
            # Inlined _charge_write + fill-side counters.
            if way < sram_ways:
                cache_set.free_sram -= 1
                stats.sram_writes += 1
                stats.fills_sram += 1
            else:
                cache_set.free_nvm -= 1
                # Inlined WearTracker.record_write.
                set_index = cache_set.index
                nvm_way = way - sram_ways
                wear = self.wear
                wear._bytes_rows[set_index][nvm_way] += ecb
                wear._writes_rows[set_index][nvm_way] += 1
                stats.nvm_writes += 1
                stats.nvm_bytes_written += ecb
                if self._on_nvm_write is not None:
                    self._on_nvm_write(set_index, ecb)
                stats.fills_nvm += 1
            if migrating:
                stats.migrations_to_nvm += 1
            return True

        # No usable frame anywhere the policy allowed.
        if migrating:
            # Failed migration: the caller still owns the victim and
            # will write it back; charging memory here would double it.
            return False
        stats.bypasses += 1
        self._to_memory(ctx.addr, ctx.dirty)
        return False

    def _to_memory(self, addr: int, dirty: bool) -> None:
        if dirty:
            self.stats.writebacks_to_memory += 1
        if self.on_block_to_memory is not None:
            self.on_block_to_memory(addr)

    def migrate_to_nvm(self, cache_set: CacheSet, victim: EvictedBlock) -> bool:
        """Insert an SRAM victim into the NVM part (policy helper).

        Used by CA_RWR-style migration and LHybrid's loop-block
        replacement.  Returns True if the block found an NVM frame; on
        failure the caller's victim falls through to memory.
        """
        csize, ecb = self.sizes_of(victim.addr)
        ctx = FillContext(
            victim.addr, victim.dirty, csize, ecb, victim.reuse, cache_set.index
        )
        return self._insert(cache_set, ctx, migrating=True, parts=(NVM,))

    # ------------------------------------------------------------------
    def _charge_write(self, cache_set: CacheSet, way: int, n_bytes: int) -> None:
        stats = self.stats
        if way < cache_set.sram_ways:
            stats.sram_writes += 1
            return
        nvm_way = way - cache_set.sram_ways
        self.wear.record_write(cache_set.index, nvm_way, n_bytes)
        stats.nvm_writes += 1
        stats.nvm_bytes_written += n_bytes
        if self._on_nvm_write is not None:
            self._on_nvm_write(cache_set.index, n_bytes)

    # ------------------------------------------------------------------
    def end_epoch(self) -> None:
        """Propagate an epoch boundary to the policy (Set Dueling)."""
        self.policy.end_epoch()

    def reconcile_faults(self) -> int:
        """Evict blocks whose frame can no longer hold them.

        Called by the forecaster after aging the fault map: a frame
        that lost bytes (or died, under frame-disabling) while holding
        a block loses that block — dirty data is written back to
        memory.  Returns the number of evictions.
        """
        evicted = 0
        for cache_set in self.sets:
            for way in range(cache_set.sram_ways, cache_set.total_ways):
                if cache_set.tags[way] is None:
                    continue
                if cache_set.ecb[way] > self.capacity_of(cache_set, way):
                    addr, dirty, _csize, _reuse = cache_set.evict(way)
                    self._to_memory(addr, dirty)
                    evicted += 1
        return evicted

    def resident_blocks(self) -> List[int]:
        return [addr for s in self.sets for addr in s.way_of]
