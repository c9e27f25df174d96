"""Statistics counters for the hierarchy and the hybrid LLC.

The counters stay *plain int attributes* — the engine's inlined hot
path bumps them directly and nothing may sit in that path.  What this
module adds on top is declaration: every counter is registered once in
the :mod:`repro.metrics.registry` (name, unit, layer, docstring,
aggregation), and the collection helpers (``snapshot`` and friends)
are thin forwards to the registry's attribute walker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..metrics.registry import REGISTRY, register_metric


@dataclass
class LLCStats:
    """Counters the LLC maintains; the paper's metrics derive from these."""

    gets: int = 0
    getx: int = 0
    gets_hits: int = 0
    getx_hits: int = 0
    upgrades: int = 0
    upgrade_hits: int = 0
    hits_sram: int = 0
    hits_nvm: int = 0
    fills: int = 0
    fills_sram: int = 0
    fills_nvm: int = 0
    bypasses: int = 0
    updates_in_place: int = 0
    silent_drops: int = 0
    migrations_to_nvm: int = 0
    evictions: int = 0
    writebacks_to_memory: int = 0
    nvm_writes: int = 0
    nvm_bytes_written: int = 0
    sram_writes: int = 0

    @property
    def accesses(self) -> int:
        return self.gets + self.getx

    @property
    def hits(self) -> int:
        return self.gets_hits + self.getx_hits

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    # Thin wrappers over the registry collector (see
    # repro.metrics.registry).  The engine snapshots at every epoch
    # boundary and takes per-epoch deltas, and the golden digests hash
    # snapshot(), so its dict must stay byte-identical to the
    # historical field-walking implementation.
    def snapshot(self) -> Dict[str, int]:
        return REGISTRY.collect_raw("llc", self)

    def delta_since(self, snap: Dict[str, int]) -> Dict[str, int]:
        return {k: getattr(self, k) - v for k, v in snap.items()}


@dataclass
class CoreStats:
    """Per-core counters of the analytical core model."""

    instructions: int = 0
    cycles: float = 0.0
    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    memory_accesses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class HierarchyStats:
    """Aggregate statistics of one simulation run."""

    llc: LLCStats = field(default_factory=LLCStats)
    cores: List[CoreStats] = field(default_factory=list)
    memory_reads: int = 0
    memory_writes: int = 0
    coherence_invalidations: int = 0

    def core(self, core_id: int) -> CoreStats:
        while len(self.cores) <= core_id:
            self.cores.append(CoreStats())
        return self.cores[core_id]

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    @property
    def mean_ipc(self) -> float:
        """Arithmetic mean of per-core IPCs (the paper's workload IPC)."""
        ipcs = [c.ipc for c in self.cores if c.cycles]
        return sum(ipcs) / len(ipcs) if ipcs else 0.0


# ----------------------------------------------------------------------
# Metric declarations.  Order matters for the llc layer: it must match
# the dataclass field order so collect_raw() reproduces the historical
# snapshot() dict exactly (repro export --check enforces this).
_LLC_DOCS = {
    "gets": ("count", "Read (GETS) requests reaching the LLC"),
    "getx": ("count", "Write/ownership (GETX) requests reaching the LLC"),
    "gets_hits": ("count", "GETS requests that hit"),
    "getx_hits": ("count", "GETX requests that hit"),
    "upgrades": ("count", "Upgrade requests (S->M) reaching the LLC"),
    "upgrade_hits": ("count", "Upgrade requests that hit"),
    "hits_sram": ("count", "Hits served by the SRAM part"),
    "hits_nvm": ("count", "Hits served by the NVM part"),
    "fills": ("count", "Blocks filled into the LLC"),
    "fills_sram": ("count", "Fills placed in the SRAM part"),
    "fills_nvm": ("count", "Fills placed in the NVM part"),
    "bypasses": ("count", "Fills bypassed around the LLC"),
    "updates_in_place": ("count", "Dirty updates rewritten in place"),
    "silent_drops": ("count", "Clean evictions dropped without writeback"),
    "migrations_to_nvm": ("count", "SRAM->NVM demotions (migration policy)"),
    "evictions": ("count", "Blocks evicted from the LLC"),
    "writebacks_to_memory": ("count", "Dirty evictions written to memory"),
    "nvm_writes": ("count", "Frame writes charged to the NVM part"),
    "nvm_bytes_written": ("bytes", "Bytes actually written to NVM frames "
                                   "(compression and byte-disabling save these)"),
    "sram_writes": ("count", "Frame writes charged to the SRAM part"),
}
for _name, (_unit, _doc) in _LLC_DOCS.items():
    register_metric("llc", _name, _unit, _doc)

for _name, _unit, _doc in (
    ("instructions", "count", "Instructions retired by the core"),
    ("cycles", "cycles", "Core cycles accumulated by the analytical model"),
    ("accesses", "count", "Demand accesses issued by the core"),
    ("l1_hits", "count", "Demand accesses that hit in the L1"),
    ("l2_hits", "count", "Demand accesses that hit in the L2"),
    ("llc_hits", "count", "Demand accesses that hit in the LLC"),
    ("memory_accesses", "count", "Demand accesses served by main memory"),
):
    register_metric("core", _name, _unit, _doc)

register_metric("hierarchy", "memory_reads", "count",
                "LLC misses read from main memory")
register_metric("hierarchy", "memory_writes", "count",
                "Writebacks received by main memory")
register_metric("hierarchy", "coherence_invalidations", "count",
                "Back-invalidations sent to private caches")
register_metric("hierarchy", "total_instructions", "count",
                "Instructions retired across all cores",
                aggregation="derived")
register_metric("hierarchy", "mean_ipc", "instructions/cycle",
                "Arithmetic mean of per-core IPCs (the paper's workload IPC)",
                aggregation="derived")
