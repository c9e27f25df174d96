"""System configuration for the hybrid-LLC reproduction.

The defaults encode Table IV of the paper (4-core ARMv8-class system,
private L1D/L2, shared non-inclusive hybrid LLC with 4 SRAM and 12 NVM
ways, DDR4 main memory).  Every experiment builds a
:class:`SystemConfig` and tweaks only what its sensitivity study
changes (way split, L2 size, NVM latency, endurance variability, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

BLOCK_SIZE = 64
"""Cache block size in bytes at every level (Table IV)."""


def resolve_backend_name(explicit: Optional[str] = None) -> str:
    """Name of the one simulation engine (read by perfbench's host metadata)."""
    return "reference"


def _check_power_of_two(value: int, name: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity of one set-associative cache."""

    size_bytes: int
    ways: int
    block_size: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.block_size):
            raise ValueError(
                f"size {self.size_bytes} not divisible by ways*block "
                f"({self.ways}*{self.block_size})"
            )
        _check_power_of_two(self.n_sets, "number of sets")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.ways * self.block_size)

    @property
    def set_index_bits(self) -> int:
        return int(math.log2(self.n_sets))


@dataclass(frozen=True)
class HybridGeometry:
    """Geometry of the shared hybrid LLC.

    Ways ``0 .. sram_ways-1`` of every set are SRAM frames; ways
    ``sram_ways .. sram_ways+nvm_ways-1`` are NVM frames.  The paper's
    default is 4 SRAM + 12 NVM ways in 4 banks.
    """

    n_sets: int = 1024
    sram_ways: int = 4
    nvm_ways: int = 12
    n_banks: int = 4
    block_size: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        _check_power_of_two(self.n_sets, "n_sets")
        _check_power_of_two(self.n_banks, "n_banks")
        if self.sram_ways < 0 or self.nvm_ways < 0 or not self.total_ways:
            raise ValueError("need at least one way")
        if self.n_sets % self.n_banks:
            raise ValueError("n_sets must be divisible by n_banks")

    @property
    def total_ways(self) -> int:
        return self.sram_ways + self.nvm_ways

    @property
    def size_bytes(self) -> int:
        return self.n_sets * self.total_ways * self.block_size

    @property
    def nvm_bytes(self) -> int:
        return self.n_sets * self.nvm_ways * self.block_size

    @property
    def sets_per_bank(self) -> int:
        return self.n_sets // self.n_banks


@dataclass(frozen=True)
class LatencyConfig:
    """Load-use / write latencies in core cycles (Table IV + NVSim).

    ``llc_nvm_extra`` charges the block-rearrangement crossbar and BDI
    decompression on NVM reads (Sec. III-B3: +2 cycles).
    """

    l1_hit: int = 3
    l2_hit: int = 12
    llc_sram_load: int = 28
    llc_nvm_load: int = 32
    llc_nvm_extra: int = 2
    llc_write: int = 20
    memory: int = 250
    cpu_freq_hz: float = 3.5e9

    @property
    def llc_nvm_total_load(self) -> int:
        return self.llc_nvm_load + self.llc_nvm_extra

    def scaled_nvm(self, factor: float) -> "LatencyConfig":
        """Return a copy with the NVM data-array read latency scaled.

        Fig. 11b scales only the NVM D-array portion (8 -> 12 cycles for
        factor 1.5); the remaining 24 cycles are tag/NoC and unchanged.
        """
        d_array = 8
        new_load = (self.llc_nvm_load - d_array) + int(round(d_array * factor))
        return replace(self, llc_nvm_load=new_load)


@dataclass(frozen=True)
class EnduranceConfig:
    """NVM bitcell endurance model (Sec. II-A).

    Per-byte write endurance is drawn from a normal distribution with
    ``mean`` writes and coefficient of variation ``cv``; draws are
    clipped at ``min_fraction * mean`` to avoid non-physical negative
    endurance for large cv.
    """

    mean: float = 1e10
    cv: float = 0.2
    min_fraction: float = 0.01
    seed: int = 0xE0D

    @property
    def sigma(self) -> float:
        return self.mean * self.cv


@dataclass(frozen=True)
class SetDuelingConfig:
    """Set-Dueling parameters (Sec. IV-C/IV-D).

    Candidate thresholds are the modified-BDI compressed sizes from 30
    to 64 bytes (Sec. IV-C: "a fixed value of CP_th, from 30 to 64").
    Each candidate owns ``n_sets / leader_groups`` leader sets; the
    paper dedicates N/32 sets per candidate.
    """

    cpth_candidates: Tuple[int, ...] = (30, 37, 44, 51, 58, 64)
    leader_groups: int = 32
    epoch_cycles: int = 2_000_000
    hit_loss_pct: float = 0.0   # Th  (CP_SD_Th only)
    write_gain_pct: float = 5.0  # Tw  (CP_SD_Th only)

    def with_th(self, th: float, tw: float = 5.0) -> "SetDuelingConfig":
        return replace(self, hit_loss_pct=th, write_gain_pct=tw)


@dataclass(frozen=True)
class CoreConfig:
    """Analytical core model parameters (Sec. V-A system, 8-wide OoO).

    ``base_cpi`` is the CPI of non-memory work; ``mlp`` divides miss
    penalties to model overlap in the out-of-order window.
    """

    n_cores: int = 4
    base_cpi: float = 0.4
    mlp: float = 8.0


@dataclass(frozen=True)
class SystemConfig:
    """Complete system: cores, private caches, hybrid LLC, NVM model."""

    cores: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheGeometry = field(default_factory=lambda: CacheGeometry(32 * 1024, 4))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(128 * 1024, 16))
    llc: HybridGeometry = field(default_factory=HybridGeometry)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    endurance: EnduranceConfig = field(default_factory=EnduranceConfig)
    dueling: SetDuelingConfig = field(default_factory=SetDuelingConfig)

    def with_nvm_latency_factor(self, factor: float) -> "SystemConfig":
        return replace(self, latency=self.latency.scaled_nvm(factor))
