"""Crash-consistent artifact I/O (the storage reliability floor).

The reproduction is deeply stateful on disk — campaign results,
checkpoints, manifests, quarantine records — and a torn write, ENOSPC or
bit flip in any of them could silently poison a resume.  This
package is the one place all of that state flows through:

* :mod:`~repro.fsio.durable` — atomic writes (tmp + fsync + rename +
  parent-dir fsync) and the checksummed ``repro-blob/1`` envelope
  (schema tag + payload length + payload SHA-256) every persisted
  artefact is wrapped in;
* :mod:`~repro.fsio.faults` — one-shot disk-write faults (a torn
  write, ENOSPC, a payload bit flip) fired *behind* the fsio API, so
  every recovery path is testable; ``--chaos`` workers arm one from
  the task-level chaos digest (:mod:`repro.harness.chaos`);
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
    unwrap_json,
    wrap_json,
)
from .faults import (
    DISK_CHAOS_KINDS,
    DISK_ENOSPC,
    DISK_FLIP,
    DISK_TORN,
    OneShotFault,
)
from .health import HEALTH, StorageHealth
from .quarantine import QUARANTINE_DIRNAME, quarantine_file

__all__ = [
    "BLOB_FORMAT",
    "BlobError",
    "DISK_CHAOS_KINDS",
    "DISK_ENOSPC",
    "DISK_FLIP",
    "DISK_TORN",
    "HEALTH",
    "OneShotFault",
    "QUARANTINE_DIRNAME",
    "StorageHealth",
    "atomic_write_bytes",
    "dump_json",
    "is_blob_payload",
    "quarantine_file",
    "unwrap_json",
    "wrap_json",
]
