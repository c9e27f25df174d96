"""Cache hierarchy substrate: private caches, hybrid LLC, protocol."""

from .block import BlockMeta, MetadataTable, ReuseClass
from .cacheset import NVM, PART_NAMES, SRAM, CacheSet
from .hierarchy import AccessOutcome, Level, MemoryHierarchy
from .llc import EvictedBlock, HybridLLC
from .private_cache import PrivateCache
from .stats import CoreStats, HierarchyStats, LLCStats

__all__ = [
    "AccessOutcome",
    "BlockMeta",
    "CacheSet",
    "CoreStats",
    "EvictedBlock",
    "HierarchyStats",
    "HybridLLC",
    "LLCStats",
    "Level",
    "MemoryHierarchy",
    "MetadataTable",
    "NVM",
    "PART_NAMES",
    "PrivateCache",
    "ReuseClass",
    "SRAM",
]
