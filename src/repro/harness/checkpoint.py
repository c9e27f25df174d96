"""Atomic, verifiable result checkpoints.

Every campaign artefact — task results and the manifest itself — is
written through :mod:`repro.fsio`: serialise to a temporary file in
the *same directory*, ``fsync`` it, then ``rename`` over the final
path (and ``fsync`` the directory so the rename survives a power
cut).  A reader therefore only ever sees either the previous complete
version or the new complete version, never a torn write.

On top of atomicity, results now carry the ``repro-blob/1`` envelope
(schema tag + payload length + payload SHA-256), so a record that
*did* get torn or bit-flipped by real hardware — atomic rename can't
defend against media faults — is detected at read time instead of
poisoning a resume.  Files written before the envelope existed load
via legacy passthrough.

Integrity checking uses :func:`repro.fsio.durable.file_sha256_cached`
— a streamed content hash memoized by
``(path, size, mtime_ns, inode, ctime_ns)`` — so resuming a large
campaign verifies unchanged artefacts from the stat cache instead of
re-hashing every byte, while any rewrite re-hashes in full.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..fsio.durable import (
    BlobError,
    atomic_write_bytes,
    dump_json,
    file_sha256_cached,
    unwrap_json,
    wrap_json,
)
from .errors import CorruptResultError

PathLike = Union[str, Path]

#: Envelope schema tags for the two worker-written artefact classes.
RESULT_SCHEMA = "repro-task-result/1"
ERROR_SCHEMA = "repro-task-error/1"

__all__ = [
    "ERROR_SCHEMA",
    "RESULT_SCHEMA",
    "dump_json",
    "load_result",
    "verify_result",
    "write_atomic",
    "write_json_atomic",
]


def write_atomic(path: PathLike, data: bytes) -> str:
    """Write ``data`` to ``path`` atomically; return its hex SHA-256."""
    return atomic_write_bytes(path, data)


def write_json_atomic(
    path: PathLike, obj: Any, schema: Optional[str] = None
) -> str:
    """Atomically write canonical JSON; return the file's SHA-256.

    With ``schema`` the object is wrapped in a checksummed
    ``repro-blob/1`` envelope; without it the bytes are the bare
    document (manifest and ad-hoc artefacts keep their own formats).
    """
    if schema is not None:
        obj = wrap_json(obj, schema)
    return atomic_write_bytes(path, dump_json(obj))


def load_result(path: PathLike) -> Dict[str, Any]:
    """Load a task result file, raising ``CorruptResultError`` if bad.

    Reads the bytes, then validates the envelope when present: a
    record whose payload no longer matches its recorded checksum is
    corrupt even though it parses cleanly.
    """
    path = Path(path)
    if not path.exists():
        raise CorruptResultError(path, "missing")
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CorruptResultError(path, f"unreadable ({exc})") from None
    try:
        data = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptResultError(path, f"unparsable JSON ({exc})") from None
    try:
        payload = unwrap_json(data, path=path)
    except BlobError as exc:
        raise CorruptResultError(path, exc.reason) from None
    if not isinstance(payload, dict):
        raise CorruptResultError(path, "not a JSON object")
    return payload


def verify_result(
    path: PathLike, task_id: str, expected_sha256: str = None
) -> Tuple[Dict[str, Any], str]:
    """Check a result file's integrity; return ``(payload, sha256)``.

    Validates — in order — that the file exists, parses and its
    envelope checksum holds, that it belongs to ``task_id``, that it
    reports success, and (when a manifest hash is supplied) that its
    bytes still match it.
    """
    payload = load_result(path)
    if payload.get("task_id") != task_id:
        raise CorruptResultError(
            path, f"task_id mismatch: {payload.get('task_id')!r} != {task_id!r}"
        )
    if payload.get("status") != "ok":
        raise CorruptResultError(path, f"status is {payload.get('status')!r}")
    actual = file_sha256_cached(path)
    if expected_sha256 is not None and actual != expected_sha256:
        raise CorruptResultError(
            path, f"sha256 mismatch: {actual} != {expected_sha256}"
        )
    return payload, actual
