"""One set of the hybrid LLC: tags, per-way state, recency order.

Ways ``0 .. sram_ways-1`` are SRAM frames, ways ``sram_ways ..
total_ways-1`` are NVM frames.  A single recency order per set supports
both the global LRU of BH/BH_CP and the per-part local LRU of the
NVM-aware policies (a local LRU is the global order filtered to one
part, which is how the victim walks in ``HybridLLC._insert`` and the
policies' ``choose_victim`` read it).

The order is kept in an array-backed doubly-linked list rather than a
Python list: the old representation paid ``list.remove`` — an O(ways)
scan plus an O(ways) element shift — on every hit promotion and every
eviction.  The linked list does the same mutations with a constant
number of array reads/writes.  ``tests/test_cacheset_replacement.py``
checks the list against a plain-list LRU model under live fills, hit
promotions and invalidations, and its invariants after every access of
a random storm through the hierarchy; the golden digests pin the whole
engine.

Representation: ``rec_next[w]`` / ``rec_prev[w]`` link way ``w`` into a
circular list through a sentinel slot at index ``total_ways``.
``rec_next[sentinel]`` is the LRU way, ``rec_prev[sentinel]`` the MRU
way; an empty set links the sentinel to itself.  A way is linked iff
its frame holds a block.  The hot paths (``llc.py`` / ``hierarchy.py``)
do every link, unlink and MRU promotion directly on the two arrays;
this class keeps the storage, :meth:`CacheSet.evict` for the cold
paths and read-only views.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .block import ReuseClass

SRAM = 0
NVM = 1
PART_NAMES = {SRAM: "sram", NVM: "nvm"}


class CacheSet:
    """Tag/state storage for one LLC set."""

    __slots__ = (
        "index",
        "sram_ways",
        "total_ways",
        "tags",
        "dirty",
        "csize",
        "ecb",
        "reuse",
        "rec_prev",
        "rec_next",
        "way_of",
        "free_sram",
        "free_nvm",
    )

    def __init__(self, index: int, sram_ways: int, nvm_ways: int) -> None:
        self.index = index
        self.sram_ways = sram_ways
        self.total_ways = sram_ways + nvm_ways
        n = self.total_ways
        self.tags: List[Optional[int]] = [None] * n
        self.dirty: List[bool] = [False] * n
        self.csize: List[int] = [0] * n      # compressed size of the resident block
        self.ecb: List[int] = [0] * n        # bytes occupied in the frame
        self.reuse: List[ReuseClass] = [ReuseClass.NONE] * n
        # Doubly-linked recency order (LRU -> MRU) through the sentinel
        # slot ``n``; only valid ways are linked.
        self.rec_prev: List[int] = [n] * (n + 1)
        self.rec_next: List[int] = [n] * (n + 1)
        self.way_of = {}                     # addr -> way
        # Count of *empty* frames per part (disabled NVM frames still
        # count — they hold no block).  Lets the fill path skip the
        # invalid-way scan for full sets, the steady-state common case.
        # Every tag transition (here and at the inlined hot-path sites)
        # keeps these in step.
        self.free_sram = sram_ways
        self.free_nvm = nvm_ways

    # ------------------------------------------------------------------
    def part_of(self, way: int) -> int:
        return SRAM if way < self.sram_ways else NVM

    def nvm_way(self, way: int) -> int:
        """Index of a way within the NVM part (for fault-map lookup)."""
        if way < self.sram_ways:
            raise ValueError(f"way {way} is SRAM")
        return way - self.sram_ways

    # ------------------------------------------------------------------
    def find(self, addr: int) -> Optional[int]:
        return self.way_of.get(addr)

    def lru_order(self) -> List[int]:
        """Valid ways from LRU to MRU (freshly materialised)."""
        nxt = self.rec_next
        sentinel = self.total_ways
        order = []
        way = nxt[sentinel]
        while way != sentinel:
            order.append(way)
            way = nxt[way]
        return order

    def evict(self, way: int) -> Tuple[int, bool, int, ReuseClass]:
        """Remove the block at ``way``; returns (addr, dirty, csize, reuse)."""
        addr = self.tags[way]
        if addr is None:
            raise ValueError(f"way {way} is empty")
        info = (addr, self.dirty[way], self.csize[way], self.reuse[way])
        self.tags[way] = None
        self.dirty[way] = False
        self.csize[way] = 0
        self.ecb[way] = 0
        self.reuse[way] = ReuseClass.NONE
        prv = self.rec_prev
        nxt = self.rec_next
        before, after = prv[way], nxt[way]
        nxt[before] = after
        prv[after] = before
        del self.way_of[addr]
        if way < self.sram_ways:
            self.free_sram += 1
        else:
            self.free_nvm += 1
        return info

    def occupancy(self, part: int) -> int:
        """Valid blocks in a part — from the free counters, no scan."""
        if part == SRAM:
            return self.sram_ways - self.free_sram
        return (self.total_ways - self.sram_ways) - self.free_nvm
