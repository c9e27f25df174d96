"""Process-wide storage health counters, registered in the spine.

Every durability event the fsio layer observes — a checksum that
failed, an artefact moved to quarantine, an injected fault firing —
bumps a plain ``int`` attribute here, exactly the declare-once /
collect-at-boundaries discipline the rest of the metrics spine
follows.  ``repro doctor`` and the tests
read them; nothing in the hot path ever does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.registry import register_metric

register_metric("storage", "quarantined", "count",
                "Artefacts moved to a quarantine/ directory after failing "
                "an integrity check")
register_metric("storage", "checksum_failures", "count",
                "Envelope payloads whose recorded SHA-256 or length no "
                "longer matched their bytes")
register_metric("storage", "faults_injected", "count",
                "Disk faults the deterministic injector actually fired "
                "(chaos and test harness use only)")


@dataclass
class StorageHealth:
    """Counters for every durability event the fsio layer observes."""

    quarantined: int = 0
    checksum_failures: int = 0
    faults_injected: int = 0

    def reset(self) -> None:
        self.quarantined = 0
        self.checksum_failures = 0
        self.faults_injected = 0


#: The process-wide health ledger (one per worker process).
HEALTH = StorageHealth()
