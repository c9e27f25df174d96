"""Per-block metadata that travels through the cache hierarchy.

The insertion policies classify blocks by their *reuse* behaviour
(Sec. IV-B): a block starts without reuse when it enters the hierarchy
from main memory; an LLC hit promotes it to read-reused (clean hit) or
write-reused (GetX hit, or hit on a dirty copy).  LHybrid's loop-block
tag maps onto the same lattice (LB == read-reused, NLB == the rest),
and TAP's thrashing detection adds a saturating LLC-hit counter.

Metadata is keyed by block address and lives as long as the block is
anywhere in the hierarchy; when the last copy is evicted to memory the
tag is dropped (blocks re-enter as non-reused, matching LHybrid's
"blocks entering L2 from main memory are marked NLB").  TAP's hit
counter is kept in a separate persistent table, since thrashing
detection must survive evictions to be able to fire at all.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, Optional


class ReuseClass(IntEnum):
    """Reuse category of a block (Sec. IV-B)."""

    NONE = 0
    READ = 1
    WRITE = 2


class BlockMeta:
    """Mutable per-block tag carried between L2 and LLC."""

    __slots__ = ("reuse", "llc_hits")

    def __init__(self) -> None:
        self.reuse: ReuseClass = ReuseClass.NONE
        self.llc_hits: int = 0

    @property
    def is_loop_block(self) -> bool:
        """LHybrid LB tag: clean blocks that showed reuse in the LLC."""
        return self.reuse is ReuseClass.READ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockMeta(reuse={self.reuse.name}, llc_hits={self.llc_hits})"


class MetadataTable:
    """Tags for all blocks currently resident somewhere in the hierarchy."""

    def __init__(self) -> None:
        self._table: Dict[int, BlockMeta] = {}

    def get(self, addr: int) -> Optional[BlockMeta]:
        return self._table.get(addr)

    def get_or_create(self, addr: int) -> BlockMeta:
        meta = self._table.get(addr)
        if meta is None:
            meta = BlockMeta()
            self._table[addr] = meta
        return meta

    def classify_llc_hit(self, addr: int, is_getx: bool, copy_dirty: bool) -> BlockMeta:
        """Apply the Sec. IV-B hit rule and return the updated tag.

        A hit classifies the block as read-reused if it has not been
        modified, write-reused if it has been written at least once
        (GetX request or dirty resident copy).
        """
        meta = self.get_or_create(addr)
        meta.llc_hits += 1
        if is_getx or copy_dirty:
            meta.reuse = ReuseClass.WRITE
        elif meta.reuse is not ReuseClass.WRITE:
            meta.reuse = ReuseClass.READ
        return meta

    def __len__(self) -> int:
        return len(self._table)
