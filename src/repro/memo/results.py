"""On-disk campaign result cache (memo layer 1).

Campaign units are deterministic: the same ``(experiment, unit,
scale)`` on the same code version serialises to byte-identical JSON
(the contract ``experiments/campaign_tasks.py`` documents and the
resume tests enforce).  That makes completed unit payloads safe to
reuse *across campaigns* — re-running a figure, widening a matrix, or
replaying the whole evaluation at another path re-pays only the units
it has never computed.

Design mirrors the trace cache (:mod:`repro.workloads.cache`):

* keys are SHA-256 over a canonical-JSON rendering of every input that
  shapes the result, *including* :func:`~repro.memo.fingerprint.code_fingerprint`
  — a stale-code entry simply never matches a live key, exactly like a
  bumped ``GENERATOR_VERSION``;
* entries are written through :mod:`repro.fsio` — atomic rename plus
  the checksummed ``repro-blob/1`` envelope — so a crashed writer can
  at worst leave a temp file and a bit-rotted entry is *detected*,
  not served;
* readers treat anything unreadable, unparsable or shape-invalid as a
  miss — corrupt envelopes are moved to ``quarantine/`` with a reason
  record and recomputed, never fatal; pre-envelope (legacy) entries
  are a plain miss and get overwritten in place on the next put.

The scheduler stays the sole integrity authority: a cache hit is
written through the normal checkpoint/manifest machinery and verified
like a worker-produced result, so resume and ``--chaos`` semantics are
unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from ..fsio.durable import (
    BlobError,
    atomic_write_bytes,
    is_blob_payload,
    read_bytes,
    unwrap_json,
    wrap_json,
)
from ..fsio.health import HEALTH
from ..fsio.quarantine import quarantine_file
from ..manifest import canonical_json
from ..metrics import RUN_RECORD_SCHEMA, RunRecord, SchemaError
from .fingerprint import code_fingerprint

RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"

#: Envelope schema tag of result-cache entries.
CACHE_SCHEMA = "repro-result-cache/1"


def result_cache_key(
    experiment: str,
    unit: Mapping[str, Any],
    scale: str,
    fingerprint: Optional[str] = None,
    workload: Optional[Mapping[str, Any]] = None,
) -> str:
    """Hex SHA-256 over every input that shapes a campaign unit result.

    Flipping any of experiment, unit contents (policy, mix, seed, …),
    scale, or the code fingerprint produces a different key — cache
    misuse is a key mismatch, not a runtime check.

    ``workload`` is the workload-family key component
    (:func:`~repro.workloads.registry.workload_ref_fingerprint` of the
    unit's reference): ``None`` for synthetic-family units — whose
    keys must stay byte-compatible with the pre-registry key space —
    and a ``{family, target, spec_hash}`` dict otherwise, so cached
    results never cross families and a target whose spec changes (new
    spec hash) sheds its stale entries.
    """
    inputs: Dict[str, Any] = {
        "fingerprint": (
            fingerprint if fingerprint is not None else code_fingerprint()
        ),
        "experiment": experiment,
        "unit": dict(unit),
        "scale": scale,
        # A RunRecord schema bump sheds every old-shape entry at
        # the *key* level, on top of the get()-time validation.
        "record_schema": RUN_RECORD_SCHEMA,
    }
    if workload is not None:
        inputs["workload"] = dict(workload)
    blob = canonical_json(inputs)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_cache_dir() -> Optional[Path]:
    """The on-disk cache directory, or None if caching is disabled."""
    value = os.environ.get(RESULT_CACHE_ENV, "").strip()
    return Path(value) if value else None


class ResultCache:
    """Content-addressed store of verified campaign result payloads."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(
        self, key: str, task_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or None on any defect.

        ``task_id``, when given, must match the payload's recorded
        task id — a belt-and-braces check on top of the key (a
        hand-renamed entry serves a miss, not a wrong result).

        The embedded result must also parse as a *current-schema*
        :class:`~repro.metrics.RunRecord`: an entry whose keys have
        drifted from the live schema (renamed metric, old version,
        extra fields) is stale and must be recomputed, never trusted —
        the pre-spine cache passed unknown shapes through unvalidated.

        Corruption handling: an entry that fails to parse or whose
        envelope checksum no longer holds is quarantined (the shared
        store keeps serving; the evidence keeps for ``repro doctor``);
        a pre-envelope legacy entry or a stale-shape payload is a
        silent miss — the next put overwrites it under the same key.
        """
        path = self.path_for(key)
        try:
            raw = read_bytes(path)
        except FileNotFoundError:
            return None
        except OSError:
            HEALTH.read_failures += 1
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            quarantine_file(
                path, f"unparsable cache entry ({exc})", "result-cache",
                root=self.root,
            )
            return None
        if not is_blob_payload(data):
            return None  # legacy (pre-envelope) entry: plain miss
        try:
            payload = unwrap_json(data, schema=CACHE_SCHEMA, path=path)
        except BlobError as exc:
            quarantine_file(path, exc.reason, "result-cache", root=self.root)
            return None
        if not isinstance(payload, dict) or payload.get("status") != "ok":
            return None
        if task_id is not None and payload.get("task_id") != task_id:
            return None
        try:
            RunRecord.from_json(payload.get("result"))
        except SchemaError:
            return None
        return payload

    def put(
        self,
        key: str,
        payload: Mapping[str, Any],
        annotations: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """Store a payload atomically; failures are non-fatal misses.

        ``annotations`` travel outside the checksummed payload (so the
        payload bytes a hit serves are exactly what was stored) and
        give ``repro doctor`` the producing fingerprint and task id
        without re-deriving every key.
        """
        path = self.path_for(key)
        try:
            envelope = wrap_json(
                dict(payload),
                CACHE_SCHEMA,
                dict(annotations) if annotations else None,
            )
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, canonical_json(envelope).encode("utf-8"))
        except (OSError, TypeError, ValueError):
            HEALTH.write_failures += 1
            return False
        return True
