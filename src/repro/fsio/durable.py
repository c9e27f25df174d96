"""Atomic writes and the checksummed ``repro-blob/1`` envelope.

Two primitives everything else builds on:

* :func:`atomic_write_bytes` — serialise to a temporary file in the
  *same directory*, ``fsync`` it, ``os.replace`` over the final path,
  then ``fsync`` the parent directory so the rename survives a power
  cut.  A reader only ever sees the previous complete version or the
  new complete version, never a torn write.  It returns the file's
  SHA-256 through :func:`file_sha256_cached`, the stat-keyed hash
  memo that checkpoint verification reads back.
* the **blob envelope** — a versioned wrapper carrying a schema tag,
  the payload's canonical length and its SHA-256, so a reader can
  prove an artefact is the artefact its writer finished, not a prefix
  of it or a bit-rotted sibling.  JSON artefacts use the JSON form::

      {"format": "repro-blob/1", "schema": "<tag>",
       "length": N, "sha256": "<hex>", "payload": {...}}

  where length/sha256 are computed over the *canonical JSON* rendering
  of the payload (sorted keys, compact separators), so they are stable
  under any outer pretty-printing.

The reader accepts **legacy passthrough**: a document that is not an
envelope is returned unchanged, so artefacts committed before this
layer existed keep loading.

Every write consults the armed disk faults
(:mod:`~repro.fsio.faults`), which is how ``--chaos`` disk kinds and
the crash-consistency tests reach inside this API.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..manifest import canonical_json
from . import faults
from .health import HEALTH

PathLike = Union[str, Path]

BLOB_FORMAT = "repro-blob/1"


class BlobError(ValueError):
    """An envelope failed integrity validation.

    ``defect`` is a stable taxonomy token (``truncated``,
    ``checksum-mismatch``, ``length-mismatch``, ``schema-mismatch``,
    ``malformed-envelope``) the doctor's failure report groups by.
    """

    def __init__(self, path: Optional[PathLike], reason: str, defect: str):
        prefix = f"{path}: " if path is not None else ""
        super().__init__(f"{prefix}{reason}")
        self.path = str(path) if path is not None else None
        self.reason = reason
        self.defect = defect


# ----------------------------------------------------------------------
# atomic primitives


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def file_sha256(path: PathLike, chunk_size: int = 1 << 20) -> str:
    """Hex SHA-256 of a file's bytes (streamed, any size)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


#: ``path -> (size, mtime_ns, ino, ctime_ns, digest)`` memo behind
#: :func:`file_sha256_cached`; bounded so a huge campaign cannot grow
#: it without limit.
_SHA256_CACHE: Dict[str, Tuple[int, int, int, int, str]] = {}
_SHA256_CACHE_MAX = 65536


def file_sha256_cached(path: PathLike) -> str:
    """:func:`file_sha256` memoized by the file's full stat identity.

    Resuming a large campaign re-verifies every completed artefact;
    re-hashing gigabytes of unchanged results dominates that startup.
    A file whose size, mtime (nanosecond resolution), inode *and*
    ctime are all unchanged since the last hash is served from the
    memo; any stat change invalidates the entry and re-hashes.

    Size+mtime alone is not enough: an atomic rewrite (``os.replace``
    of a same-sized temp file) can land within one mtime tick on
    coarse-granularity filesystems, leaving size and mtime identical
    while the bytes changed.  The rename gives the path a *new inode*
    (and a fresh ctime), so keying on those too closes the hole.
    """
    key = os.fspath(path)
    stat = os.stat(key)
    identity = (stat.st_size, stat.st_mtime_ns, stat.st_ino, stat.st_ctime_ns)
    entry = _SHA256_CACHE.get(key)
    if entry is not None and entry[:4] == identity:
        return entry[4]
    digest = file_sha256(key)
    if len(_SHA256_CACHE) >= _SHA256_CACHE_MAX:
        _SHA256_CACHE.clear()
    _SHA256_CACHE[key] = identity + (digest,)
    return digest


def atomic_write_bytes(path: PathLike, data: bytes) -> str:
    """Write ``data`` to ``path`` atomically; return its hex SHA-256.

    The temporary file carries the writer's PID so concurrent workers
    retrying the same artefact never collide on the tmp name either.
    An armed disk fault may tear the write (partial bytes land at the
    final path, non-atomically), flip payload bytes, or raise
    ``ENOSPC`` before anything is written.
    """
    path = Path(path)
    plan = faults.consult(path)
    if plan is not None:
        HEALTH.faults_injected += 1
        if plan.kind == faults.DISK_ENOSPC:
            raise OSError(
                errno.ENOSPC, f"injected ENOSPC (disk fault) writing {path}"
            )
        if plan.kind == faults.DISK_TORN:
            # A torn write: a prefix lands at the final path with no
            # tmp+rename — exactly the failure the envelope must catch.
            torn = data[: plan.cut_length(len(data))]
            with open(path, "wb") as fh:
                fh.write(torn)
            return file_sha256_cached(path)
        if plan.kind == faults.DISK_FLIP:
            data = plan.flip(data)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed; don't litter
            tmp.unlink()
    _fsync_dir(path.parent)
    # Through the stat memo, so a write primes the hash the checkpoint
    # verifier reads back.
    return file_sha256_cached(path)


def dump_json(obj: Any) -> bytes:
    """Canonical pretty JSON (sorted keys, stable layout).

    Determinism matters: a resumed campaign must reproduce the bytes
    of an uninterrupted one, so artefacts must serialise identically
    run-to-run.
    """
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


# ----------------------------------------------------------------------
# JSON envelope


def payload_bytes(payload: Any) -> bytes:
    """The canonical byte rendering the envelope checksums cover."""
    return canonical_json(payload).encode("utf-8")


def wrap_json(payload: Any, schema: str) -> dict:
    """Wrap a JSON-able payload in a checksummed envelope document."""
    blob = payload_bytes(payload)
    return {
        "format": BLOB_FORMAT,
        "schema": schema,
        "length": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "payload": payload,
    }


def is_blob_payload(data: Any) -> bool:
    """Does this parsed JSON document look like an envelope?"""
    return (
        isinstance(data, dict)
        and data.get("format") == BLOB_FORMAT
        and "payload" in data
    )


def unwrap_json(
    data: Any, schema: Optional[str] = None, path: Optional[PathLike] = None
) -> Any:
    """Validate an envelope document and return its payload.

    A document that is not an envelope at all passes through unchanged
    (legacy artefacts); a document that *claims* to be one must verify
    or :class:`BlobError` is raised (and the checksum-failure counter
    bumped).  ``schema``, when given, must match the recorded tag.
    """
    if not is_blob_payload(data):
        return data
    recorded_schema = data.get("schema")
    if not isinstance(recorded_schema, str) or not recorded_schema:
        raise BlobError(path, "envelope has no schema tag", "malformed-envelope")
    if schema is not None and recorded_schema != schema:
        raise BlobError(
            path,
            f"schema mismatch: {recorded_schema!r} != {schema!r}",
            "schema-mismatch",
        )
    payload = data["payload"]
    blob = payload_bytes(payload)
    length = data.get("length")
    if length != len(blob):
        HEALTH.checksum_failures += 1
        raise BlobError(
            path,
            f"length mismatch: recorded {length}, payload is {len(blob)} bytes",
            "length-mismatch",
        )
    digest = hashlib.sha256(blob).hexdigest()
    if data.get("sha256") != digest:
        HEALTH.checksum_failures += 1
        raise BlobError(
            path,
            f"payload sha256 mismatch: recorded {data.get('sha256')!r}, "
            f"bytes hash to {digest}",
            "checksum-mismatch",
        )
    return payload
