"""Analytical out-of-order core model.

The paper runs gem5 with 8-wide ARMv8 OoO cores; this reproduction
charges time analytically: non-memory instructions cost ``base_cpi``
cycles each, and every demand access adds the service latency of the
level that supplied it, divided by an MLP factor that models the
overlap the OoO window extracts.  L1 hits are considered fully hidden
by the pipeline (their cost is part of ``base_cpi``).

This keeps IPC *responsive to exactly what the insertion policies
change* — LLC hit rate, SRAM-vs-NVM hit split, memory traffic — which
is what the paper's normalised IPC curves measure.
"""

from __future__ import annotations

from ..cache.stats import CoreStats
from ..config import CoreConfig, LatencyConfig


class AnalyticalCore:
    """Time accounting state for one core.

    The engine's burst loop (``Simulation._run``) does the charging: an
    access and the ``gap`` non-memory instructions before it add
    ``gap * base_cpi + base_cpi`` cycles, plus ``_penalty[level]`` for
    the level that serviced the access.
    """

    def __init__(
        self, core_id: int, core_config: CoreConfig, latency: LatencyConfig
    ) -> None:
        self.core_id = core_id
        self.base_cpi = core_config.base_cpi
        self.mlp = core_config.mlp
        # Indexed by Level's integer value (L1=0 .. MEMORY=5): a flat
        # tuple beats a dict keyed by enum members on the hot path.
        self._penalty = (
            0.0,                                           # L1
            latency.l2_hit / core_config.mlp,              # L2
            latency.llc_sram_load / core_config.mlp,       # LLC_SRAM
            latency.llc_nvm_total_load / core_config.mlp,  # LLC_NVM
            latency.llc_sram_load / core_config.mlp,       # PEER
            latency.memory / core_config.mlp,              # MEMORY
        )
        self.cycles = 0.0
        self.instructions = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def export(self, stats: CoreStats) -> None:
        stats.instructions = self.instructions
        stats.cycles = self.cycles
