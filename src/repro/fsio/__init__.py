"""Crash-consistent artifact I/O (the storage reliability floor).

The reproduction is deeply stateful on disk — campaign results,
checkpoints, manifests, quarantine records — and a torn write, ENOSPC or
bit flip in any of them could silently poison a resume.  This
package is the one place all of that state flows through:

* :mod:`~repro.fsio.durable` — atomic writes (tmp + fsync + rename +
  parent-dir fsync) and the checksummed ``repro-blob/1`` envelope
  (schema tag + payload length + payload SHA-256) every persisted
  artefact is wrapped in;
* :mod:`~repro.fsio.faults` — a deterministic filesystem fault
  injector in the style of :mod:`repro.harness.chaos` (a pure function
  of ``(seed, path, op, attempt)``) that tears writes, shortens reads,
  and raises ENOSPC/EIO *behind* the fsio API, so every recovery path
  is testable;
* :mod:`~repro.fsio.quarantine` — graceful degradation: detected
  corruption moves the entry into a ``quarantine/`` subdirectory with
  a structured reason record and the owning layer degrades (a corrupt
  result → recompute, checkpoint damage → resume from the last valid
  record) instead of raising;
* :mod:`~repro.fsio.doctor` — the audit behind ``repro doctor``:
  verify every artefact class's envelopes, re-validate RunRecord
  schemas, report a failure taxonomy.

Per-class health counters live in :mod:`~repro.fsio.health` and are
registered in the metrics spine (``storage.*``).

See ``docs/harness.md`` ("Failure taxonomy & durability").
"""

from .durable import (
    BLOB_FORMAT,
    BlobError,
    atomic_write_bytes,
    dump_json,
    is_blob_payload,
    read_bytes,
    unwrap_json,
    wrap_json,
)
from .faults import (
    DISK_CHAOS_KINDS,
    DISK_EIO,
    DISK_ENOSPC,
    DISK_FAULT_KINDS,
    DISK_FLIP,
    DISK_SHORT_READ,
    DISK_TORN,
    DiskFaultConfig,
    FaultInjector,
    OneShotFault,
    active_injector,
    injected_faults,
)
from .health import HEALTH, StorageHealth
from .quarantine import QUARANTINE_DIRNAME, quarantine_file

__all__ = [
    "BLOB_FORMAT",
    "BlobError",
    "DISK_CHAOS_KINDS",
    "DISK_EIO",
    "DISK_ENOSPC",
    "DISK_FAULT_KINDS",
    "DISK_FLIP",
    "DISK_SHORT_READ",
    "DISK_TORN",
    "DiskFaultConfig",
    "FaultInjector",
    "HEALTH",
    "OneShotFault",
    "QUARANTINE_DIRNAME",
    "StorageHealth",
    "active_injector",
    "atomic_write_bytes",
    "dump_json",
    "injected_faults",
    "is_blob_payload",
    "quarantine_file",
    "read_bytes",
    "unwrap_json",
    "wrap_json",
]
