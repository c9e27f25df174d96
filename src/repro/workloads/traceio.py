"""The trace cache's on-disk format: binary ``.trc`` trace files.

:mod:`repro.workloads.cache` persists every materialized trace in this
format, so campaign workers and later runs replay it instead of
regenerating it.  A file is a 16-byte header (magic, version, record
count) followed by little-endian records ``<IQB`` (gap:u32, block
address:u64, is_write:u8).  Addresses are block-aligned (byte address
>> 6) and carry the owning core in bits ``CORE_ADDR_SHIFT`` and up,
matching :mod:`repro.workloads.trace`.

Trace files are *validated*, not trusted: the header magic, version
and declared record count are checked against the bytes actually
present, and any mismatch raises :class:`TraceFormatError` naming the
offending file.  :func:`validate_trace` performs the same checks
without materialising records, and :func:`file_sha256` is the
content-hash helper the campaign checkpoint layer
(:mod:`repro.harness.checkpoint`) reuses for result integrity.

Two loaders share the validation path:

* :func:`load_trace` — the portable ``struct`` decoder, which copies
  every record into fresh ``array`` columns; it is the reference the
  zero-copy loader is tested against;
* :func:`load_trace_mmap` — the cache's loader: it ``mmap``\\ s the
  record region and exposes the gap/addr/write columns as strided
  NumPy views straight over the page cache.  Forked campaign workers
  mapping the same cache file then *share* the read-only pages
  instead of each materialising a private copy.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from .trace import MaterializedTrace

_MAGIC = b"REPROTRC"
_VERSION = 1
_HEADER = struct.Struct("<8sII")   # magic, version, record count
_RECORD = struct.Struct("<IQB")    # gap, block addr, is_write

#: NumPy mirror of ``_RECORD``: packed (itemsize 13), little-endian.
_RECORD_DTYPE = np.dtype([("gap", "<u4"), ("addr", "<u8"), ("write", "u1")])

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """A trace file failed integrity validation.

    Carries the offending ``path`` so callers (and the campaign
    failure report) can name the file without string-parsing the
    message.
    """

    def __init__(self, path: PathLike, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = str(path)
        self.reason = reason


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


def _validate_header(path: PathLike, header: bytes) -> Tuple[int, int]:
    if len(header) != _HEADER.size:
        raise TraceFormatError(
            path, f"truncated header ({len(header)} of {_HEADER.size} bytes)"
        )
    magic, version, count = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise TraceFormatError(path, "not a repro trace file (bad magic)")
    if version != _VERSION:
        raise TraceFormatError(path, f"unsupported version {version}")
    return version, count


def validate_trace(path: PathLike) -> Tuple[int, int]:
    """Check a binary trace's header and size without parsing records.

    Returns ``(version, record_count)``; raises
    :class:`TraceFormatError` on bad magic, unsupported version, or a
    declared record count that disagrees with the bytes actually
    present (short *or* trailing).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        version, count = _validate_header(path, fh.read(_HEADER.size))
    payload_bytes = path.stat().st_size - _HEADER.size
    expected = count * _RECORD.size
    if payload_bytes < expected:
        raise TraceFormatError(
            path,
            f"truncated records: header declares {count} records "
            f"({expected} bytes) but only {payload_bytes} bytes present",
        )
    if payload_bytes > expected:
        raise TraceFormatError(
            path,
            f"trailing data: header declares {count} records "
            f"({expected} bytes) but {payload_bytes} bytes present",
        )
    return version, count


def save_trace(trace: MaterializedTrace, path: PathLike) -> None:
    """Write a trace in the binary ``.trc`` format."""
    pack = _RECORD.pack
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, len(trace)))
        fh.write(
            b"".join(
                pack(gap, addr, 1 if write else 0)
                for gap, addr, write in zip(trace.gaps, trace.addrs, trace.writes)
            )
        )


def load_trace(path: PathLike) -> MaterializedTrace:
    """Read a binary ``.trc`` trace, validating it first."""
    from array import array

    _, count = validate_trace(path)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        payload = fh.read(count * _RECORD.size)
    gaps = array("Q")
    addrs = array("Q")
    writes = bytearray()
    try:
        for gap, addr, is_write in _RECORD.iter_unpack(payload):
            gaps.append(gap)
            addrs.append(addr)
            writes.append(1 if is_write else 0)
    except struct.error as exc:  # pragma: no cover - size already checked
        raise TraceFormatError(path, f"undecodable record: {exc}") from None
    return MaterializedTrace.from_columns(gaps, addrs, writes)


def load_trace_mmap(path: PathLike) -> MaterializedTrace:
    """Read a binary ``.trc`` trace zero-copy via ``mmap``.

    Validates exactly like :func:`load_trace`, then maps the record
    region read-only and adopts strided NumPy column views over the
    mapping — no per-record ``struct`` unpacking, no private copy of
    the payload.  Every process mapping the same cache file shares the
    OS page cache, so a fleet of forked workers replaying one trace
    holds it in physical memory *once*.

    The returned trace's columns index and iterate like the ``array``
    columns of :func:`load_trace` and convert to the identical Python
    lists in ``replay_columns`` — byte-identical statistics are gated
    by the golden-digest suite.
    """
    _, count = validate_trace(path)
    if count == 0:
        raise ValueError("empty trace")
    with open(path, "rb") as fh:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    view = np.frombuffer(
        mapped, dtype=_RECORD_DTYPE, count=count, offset=_HEADER.size
    )
    # The column views hold a reference to ``view`` (and transitively
    # the mmap), so the mapping lives exactly as long as the trace.
    return MaterializedTrace.from_columns(
        view["gap"], view["addr"], view["write"]
    )
