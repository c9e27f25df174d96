"""Private set-associative write-back caches (L1D, L2) with LRU.

These caches filter the core reference stream before it reaches the
shared LLC; their organisation follows Table IV.  Implementation note:
per-set storage is a plain dict from block address to dirty flag —
Python dicts preserve insertion order, so the first key is the LRU
entry and re-inserting a key on every hit maintains recency with O(1)
operations.

Lookups, fills and evictions live in
:class:`~repro.cache.hierarchy.MemoryHierarchy`, which works on the
per-set dicts directly on its access fast path (a set-indexing helper
alone cost ~3.1M calls per short simulation).  ``_sets`` and
``_set_mask`` are therefore a stable internal interface for the
hierarchy, not an implementation accident; this class keeps the
geometry, the hit/miss counters, invalidation (GetX snoops) and
read-only views.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import CacheGeometry


class PrivateCache:
    """One private cache level, addressed by block address."""

    __slots__ = ("geometry", "n_sets", "ways", "_set_mask", "_sets", "hits", "misses")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.n_sets = geometry.n_sets
        self.ways = geometry.ways
        self._set_mask = self.n_sets - 1
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        return addr in self._sets[addr & self._set_mask]

    def is_dirty(self, addr: int) -> bool:
        return self._sets[addr & self._set_mask].get(addr, False)

    def invalidate(self, addr: int) -> Tuple[bool, bool]:
        """Remove a block; returns (was_present, was_dirty)."""
        entries = self._sets[addr & self._set_mask]
        if addr in entries:
            return True, entries.pop(addr)
        return False, False

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_blocks(self) -> List[int]:
        return [addr for entries in self._sets for addr in entries]
