"""Energy accounting for the hybrid LLC (Sec. I/II context).

Hybrid LLCs exist because SRAM leakage at LLC capacities "is becoming
prohibitive" while NVM writes are energy-hungry — TAP's original goal
is a 25 % LLC energy reduction.  This model charges:

* **dynamic energy** per event: L1/L2 accesses, LLC SRAM/NVM reads,
  SRAM writes, NVM writes (scaled by the *bytes actually written*, so
  compression and byte-disabling directly save write energy), and main
  memory accesses;
* **leakage power** over the simulated wall-clock time: SRAM cells leak
  heavily, NVM cells essentially not at all — the hybrid's density
  argument in energy form.

Default per-event numbers are in the range NVSim reports for ~22 nm
SRAM/STT-MRAM LLC banks; they are configuration, not truth — the
experiments only consume *relative* energies between policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.stats import HierarchyStats
from ..config import SystemConfig
from ..metrics.registry import register_metric


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (nJ) and leakage powers (mW per MiB)."""

    l1_access_nj: float = 0.01
    l2_access_nj: float = 0.05
    llc_sram_read_nj: float = 0.20
    llc_sram_write_nj: float = 0.25
    llc_nvm_read_nj: float = 0.30
    llc_nvm_write_nj: float = 1.20      # full 64-byte frame write
    memory_access_nj: float = 15.0
    sram_leakage_mw_per_mib: float = 25.0
    nvm_leakage_mw_per_mib: float = 0.5


@dataclass
class EnergyBreakdown:
    """Energy totals of one simulation window (nJ)."""

    l1_dynamic: float = 0.0
    l2_dynamic: float = 0.0
    llc_sram_read: float = 0.0
    llc_sram_write: float = 0.0
    llc_nvm_read: float = 0.0
    llc_nvm_write: float = 0.0
    memory_dynamic: float = 0.0
    sram_leakage: float = 0.0
    nvm_leakage: float = 0.0

    @property
    def llc_dynamic(self) -> float:
        return (
            self.llc_sram_read
            + self.llc_sram_write
            + self.llc_nvm_read
            + self.llc_nvm_write
        )

    @property
    def llc_total(self) -> float:
        return self.llc_dynamic + self.sram_leakage + self.nvm_leakage

    @property
    def total(self) -> float:
        return (
            self.l1_dynamic
            + self.l2_dynamic
            + self.llc_dynamic
            + self.memory_dynamic
            + self.sram_leakage
            + self.nvm_leakage
        )


for _name, _doc in (
    ("l1_dynamic", "Dynamic energy of all L1 accesses"),
    ("l2_dynamic", "Dynamic energy of all L2 accesses"),
    ("llc_sram_read", "Dynamic energy of LLC SRAM-part reads"),
    ("llc_sram_write", "Dynamic energy of LLC SRAM-part writes"),
    ("llc_nvm_read", "Dynamic energy of LLC NVM-part reads"),
    ("llc_nvm_write", "Dynamic energy of LLC NVM-part writes "
                      "(scaled by bytes actually written)"),
    ("memory_dynamic", "Dynamic energy of main-memory accesses"),
    ("sram_leakage", "SRAM leakage over the measured window"),
    ("nvm_leakage", "NVM leakage over the measured window"),
):
    register_metric("energy", _name, "nJ", _doc)
register_metric("energy", "llc_total", "nJ",
                "LLC dynamic energy plus both leakage terms",
                aggregation="derived")
register_metric("energy", "total", "nJ",
                "Total energy of the measured window",
                aggregation="derived")


class EnergyModel:
    """Derives an :class:`EnergyBreakdown` from run statistics."""

    def __init__(self, config: SystemConfig, params: EnergyParams = EnergyParams()):
        self.config = config
        self.params = params
        block = config.llc.block_size
        mib = 1024 * 1024
        self._sram_bytes = (
            config.llc.n_sets * config.llc.sram_ways * block
            + config.l1.size_bytes * config.cores.n_cores
            + config.l2.size_bytes * config.cores.n_cores
        )
        self._nvm_bytes = config.llc.nvm_bytes
        self._sram_mib = self._sram_bytes / mib
        self._nvm_mib = self._nvm_bytes / mib

    def evaluate(self, stats: HierarchyStats, seconds: float) -> EnergyBreakdown:
        """Energy of a measured window of ``seconds`` wall-clock time."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        p = self.params
        llc = stats.llc
        out = EnergyBreakdown()

        l1_accesses = sum(c.accesses for c in stats.cores)
        l2_accesses = sum(c.accesses - c.l1_hits for c in stats.cores)
        out.l1_dynamic = l1_accesses * p.l1_access_nj
        out.l2_dynamic = l2_accesses * p.l2_access_nj

        out.llc_sram_read = llc.hits_sram * p.llc_sram_read_nj
        out.llc_nvm_read = llc.hits_nvm * p.llc_nvm_read_nj
        out.llc_sram_write = llc.sram_writes * p.llc_sram_write_nj
        # NVM write energy scales with the bytes the rearrangement
        # circuitry actually writes: compression saves write energy.
        block = self.config.llc.block_size
        out.llc_nvm_write = (llc.nvm_bytes_written / block) * p.llc_nvm_write_nj

        out.memory_dynamic = (
            stats.memory_reads + llc.writebacks_to_memory
        ) * p.memory_access_nj

        # leakage: P[mW] * t[s] = mJ -> nJ
        out.sram_leakage = p.sram_leakage_mw_per_mib * self._sram_mib * seconds * 1e6
        out.nvm_leakage = p.nvm_leakage_mw_per_mib * self._nvm_mib * seconds * 1e6
        return out
