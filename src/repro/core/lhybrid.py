"""LHybrid — loop-block aware insertion [9] in a fault-aware setting.

LHybrid (Cheng et al.) tags blocks as loop-blocks (LB: clean blocks
that showed read reuse in the LLC) or non-loop-blocks (NLB) and keeps
the NVM part for LBs:

* insertion: an L2 eviction tagged LB goes to NVM, everything else to
  SRAM;
* NVM replacement: plain local LRU;
* SRAM replacement: if the set holds LBs, the most recent LB (in LRU
  order) is *migrated* to the NVM part and its frame hosts the
  incoming block; otherwise the LRU block is evicted.

Per Sec. I (contributions), the policy is evaluated here in the same
fault-aware environment as the proposals: frame-disabling tolerates
hard errors, and blocks are stored uncompressed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..cache.block import ReuseClass
from ..cache.cacheset import NVM, SRAM, CacheSet
from ..cache.llc import EvictedBlock
from .policy import FillContext, InsertionPolicy, register_policy

_NVM_FIRST = (NVM, SRAM)
_SRAM_ONLY = (SRAM,)


@register_policy("lhybrid")
class LHybridPolicy(InsertionPolicy):
    """Loop-block aware insertion with frame-disabling."""

    name = "lhybrid"
    granularity = "frame"
    compressed = False
    nvm_aware = True

    def placement(self, cache_set: CacheSet, ctx: FillContext) -> Tuple[int, ...]:
        if ctx.reuse is ReuseClass.READ:  # loop-block
            return _NVM_FIRST
        return _SRAM_ONLY

    def choose_victim(
        self, cache_set: CacheSet, part: int, ctx: FillContext
    ) -> Optional[int]:
        if part == SRAM:
            # Most recent LB in SRAM (migration candidate), else SRAM LRU,
            # as two walks of the linked recency order (rec_prev walks
            # MRU-first), once per replacement.
            sram_ways = cache_set.sram_ways
            reuse = cache_set.reuse
            sentinel = cache_set.total_ways
            prv = cache_set.rec_prev
            way = prv[sentinel]
            while way != sentinel:
                if way < sram_ways and reuse[way] is ReuseClass.READ:
                    return way
                way = prv[way]
            nxt = cache_set.rec_next
            way = nxt[sentinel]
            while way != sentinel:
                if way < sram_ways:
                    return way
                way = nxt[way]
            return None
        return super().choose_victim(cache_set, part, ctx)

    def handle_sram_eviction(
        self, cache_set: CacheSet, victim: EvictedBlock
    ) -> bool:
        if victim.reuse is not ReuseClass.READ:
            return False
        assert self.llc is not None
        return self.llc.migrate_to_nvm(cache_set, victim)
