"""Graceful degradation: corrupt artefacts are moved aside, not lost.

When a layer detects corruption it calls :func:`quarantine_file`: the
bad entry moves into a ``quarantine/`` subdirectory (so the slot is
free for a clean rewrite and the evidence survives for post-mortem)
next to a structured *reason record* naming the artefact class and the
defect.  ``repro doctor`` reads these records to build its failure
taxonomy, and ``--repair`` routes bad entries through here too.

Quarantine never raises: if even the move fails the caller's
degradation path (corrupt result → recompute, checkpoint → resume
from last valid record) must still proceed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .durable import dump_json, wrap_json
from .health import HEALTH

PathLike = Union[str, Path]

QUARANTINE_DIRNAME = "quarantine"
REASON_SCHEMA = "repro-quarantine/1"
REASON_SUFFIX = ".reason.json"


def quarantine_dir(root: PathLike) -> Path:
    return Path(root) / QUARANTINE_DIRNAME


def quarantine_file(
    path: PathLike,
    reason: str,
    category: str,
    root: Optional[PathLike] = None,
) -> Optional[Path]:
    """Move ``path`` into ``root/quarantine/`` with a reason record.

    ``category`` is the artefact class (``campaign-result``,
    ``campaign-manifest``, ``campaign-error``, ...) and ``reason`` the
    human-readable defect.  ``root`` defaults to the artefact's own
    directory.  Returns the quarantined path, or ``None`` if the
    artefact was already gone or could not be moved.
    """
    path = Path(path)
    directory = quarantine_dir(root if root is not None else path.parent)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        dest = directory / path.name
        suffix = 0
        while dest.exists():  # keep older evidence, never clobber it
            suffix += 1
            dest = directory / f"{path.name}.{suffix}"
        path.replace(dest)
    except OSError:
        return None
    HEALTH.quarantined += 1
    record = wrap_json(
        {
            "artifact": str(path),
            "category": category,
            "quarantined_as": dest.name,
            "reason": reason,
        },
        REASON_SCHEMA,
    )
    try:
        # Plain write, not the injectable path: evidence recording must
        # not itself be torn by an installed fault injector.
        (directory / f"{dest.name}{REASON_SUFFIX}").write_bytes(
            dump_json(record)
        )
    except OSError:
        pass
    return dest


def load_reason(reason_path: PathLike) -> Optional[dict]:
    """Parse a reason record; ``None`` if unreadable (best effort)."""
    try:
        data = json.loads(Path(reason_path).read_text())
    except (OSError, ValueError):
        return None
    payload = data.get("payload") if isinstance(data, dict) else None
    return payload if isinstance(payload, dict) else None
