"""``repro doctor``: audit every artefact class the repo persists.

One walk over campaign directories, artefact directories and the
golden digests, checking each file at the level its format allows:

* ``repro-blob/1`` envelopes — checksum, declared length, schema tag;
* campaign manifests — envelope plus per-task ``verify_result`` of
  every COMPLETE entry against its recorded sha256;
* embedded RunRecords — validated against the *current* metric
  registry;
* committed goldens — readable JSON (their content is pinned by
  recomputation in ``tests/test_golden_determinism.py`` and in
  perfbench's ``check_goldens``).

Every finding is corruption and carries a defect token from the shared
taxonomy (``truncated``, ``checksum-mismatch``, ``schema-mismatch``,
…); legacy pre-envelope artefacts stay *valid* and produce no finding
at all.  ``--repair`` moves each flagged file to the owning
``quarantine/`` with a reason record; ``--strict`` (the CI leg) exits
nonzero on any finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .durable import BlobError, is_blob_payload, unwrap_json
from .quarantine import QUARANTINE_DIRNAME, REASON_SUFFIX, quarantine_file

PathLike = Union[str, Path]

ACTION_NONE = "none"
ACTION_QUARANTINED = "quarantined"
ACTION_REPAIR_FAILED = "repair-failed"


@dataclass
class Finding:
    """One defective artefact the audit surfaced."""

    path: str
    category: str       # artefact class: campaign-result, campaign-error, ...
    defect: str         # taxonomy token: checksum-mismatch, truncated, ...
    detail: str         # human-readable specifics
    action: str = ACTION_NONE

    def line(self) -> str:
        suffix = f" [{self.action}]" if self.action != ACTION_NONE else ""
        return (
            f"  FAIL: {self.path} ({self.category}/{self.defect}): "
            f"{self.detail}{suffix}"
        )


@dataclass
class DoctorReport:
    """Outcome of one audit: what was checked, what was wrong."""

    findings: List[Finding] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No corruption found."""
        return not self.findings

    def taxonomy(self) -> Dict[str, int]:
        """Finding count per ``category/defect`` pair."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            key = f"{finding.category}/{finding.defect}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        lines = [
            f"doctor {verdict}: {len(self.checked)} artefacts checked, "
            f"{len(self.findings)} corrupt"
        ]
        for key, count in sorted(self.taxonomy().items()):
            lines.append(f"  {key}: {count}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Envelope-level checks shared by every JSON artefact class.
def _load_json(path: Path) -> Tuple[Optional[Any], Optional[Finding]]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return None, Finding(
            str(path), "artefact", "unreadable", str(exc)
        )
    except ValueError as exc:
        return None, Finding(
            str(path), "artefact", "malformed-envelope",
            f"not JSON ({exc})",
        )
    return data, None


def _category_for_schema(schema: Optional[str]) -> str:
    """Artefact class implied by an envelope's schema tag."""
    mapping = {
        "repro-task-result/1": "campaign-result",
        "repro-task-error/1": "campaign-error",
        "repro-campaign/1": "campaign-manifest",
        "repro-campaign-meta/1": "campaign-meta",
        "repro-quarantine/1": "quarantine-reason",
    }
    return mapping.get(schema or "", "artefact")


def _check_run_record(payload: Any, source: str, category: str) -> List[Finding]:
    """Validate an embedded RunRecord against the current schema."""
    from ..metrics import RunRecord, SchemaError, is_run_record_payload

    candidate = payload
    if isinstance(payload, dict) and not is_run_record_payload(payload):
        candidate = payload.get("result")
    if not is_run_record_payload(candidate):
        return []  # nothing record-shaped to validate at this layer
    try:
        RunRecord.from_json(candidate)
    except SchemaError as exc:
        return [
            Finding(source, category, "schema-mismatch",
                    f"RunRecord fails current schema: {exc}")
        ]
    return []


def _audit_json_file(
    path: Path, category: Optional[str] = None
) -> List[Finding]:
    """Audit one ``*.json`` artefact (enveloped or legacy)."""
    data, finding = _load_json(path)
    if finding is not None:
        if category:
            finding.category = category
        return [finding]
    if not is_blob_payload(data):
        # Legacy pre-envelope artefacts are valid by contract; the only
        # check they support is the RunRecord schema, if they embed one.
        return _check_run_record(data, str(path), category or "artefact")
    schema = data.get("schema") if isinstance(data, dict) else None
    resolved = category or _category_for_schema(schema)
    try:
        payload = unwrap_json(data, path=path)
    except BlobError as exc:
        return [Finding(str(path), resolved, exc.defect, exc.reason)]
    return _check_run_record(payload, str(path), resolved)


# ----------------------------------------------------------------------
# Directory classes.
def _audit_campaign(directory: Path, report: DoctorReport) -> List[Finding]:
    from ..harness.errors import CampaignConfigError, CorruptResultError
    from ..harness.manifest import (
        COMPLETE,
        MANIFEST_NAME,
        META_NAME,
        CampaignManifest,
    )

    findings: List[Finding] = []
    report.checked.append(str(directory / MANIFEST_NAME))
    try:
        manifest = CampaignManifest.load(directory)
    except CampaignConfigError as exc:
        findings.append(
            Finding(str(directory / MANIFEST_NAME), "campaign-manifest",
                    "malformed-envelope", str(exc))
        )
        return findings

    meta = directory / META_NAME
    if meta.exists():
        report.checked.append(str(meta))
        findings.extend(_audit_json_file(meta, "campaign-meta"))

    from ..harness.checkpoint import verify_result

    for task_id, entry in sorted(manifest.tasks.items()):
        if entry.status != COMPLETE or not entry.result:
            continue
        result_path = directory / entry.result
        report.checked.append(str(result_path))
        try:
            verify_result(result_path, task_id, expected_sha256=entry.sha256)
        except CorruptResultError as exc:
            defect = "checksum-mismatch"
            if "missing" in exc.reason or "unreadable" in exc.reason:
                defect = "unreadable"
            elif "unparsable" in exc.reason or "truncated" in exc.reason:
                defect = "truncated"
            findings.append(
                Finding(str(result_path), "campaign-result", defect,
                        exc.reason)
            )
            continue
        findings.extend(_audit_json_file(result_path, "campaign-result"))

    errors_dir = directory / "errors"
    if errors_dir.is_dir():
        for error_path in sorted(errors_dir.glob("*.json")):
            report.checked.append(str(error_path))
            findings.extend(_audit_json_file(error_path, "campaign-error"))

    # The health record is a repro-run/1 RunRecord, so the registry
    # check applies too.
    from ..harness.scheduler import HEALTH_RECORD_NAME

    health = directory / HEALTH_RECORD_NAME
    if health.exists():
        report.checked.append(str(health))
        findings.extend(_audit_json_file(health, "campaign-health"))
    return findings


def _iter_auditable(directory: Path) -> Iterable[Path]:
    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        if QUARANTINE_DIRNAME in path.parts:
            continue  # quarantined evidence is known-bad by definition
        if path.name.endswith(REASON_SUFFIX):
            continue
        if ".tmp." in path.name:
            continue  # in-flight atomic writes
        yield path


def _audit_artefact_dir(directory: Path, report: DoctorReport) -> List[Finding]:
    findings: List[Finding] = []
    for path in _iter_auditable(directory):
        if path.suffix == ".json":
            report.checked.append(str(path))
            findings.extend(_audit_json_file(path))
    return findings


def _audit_path(path: Path, report: DoctorReport) -> List[Finding]:
    from ..harness.manifest import MANIFEST_NAME

    if path.is_dir():
        if (path / MANIFEST_NAME).exists():
            return _audit_campaign(path, report)
        return _audit_artefact_dir(path, report)
    if not path.exists():
        return [Finding(str(path), "artefact", "unreadable", "no such file")]
    report.checked.append(str(path))
    return _audit_json_file(path)


def default_targets(repo_root: PathLike = ".") -> List[Path]:
    """What a bare ``repro doctor`` audits: the committed goldens."""
    from ..metrics.export import CHECKED_GOLDENS

    goldens = Path(repo_root) / CHECKED_GOLDENS
    return [goldens] if goldens.exists() else []


def run_doctor(
    paths: Sequence[PathLike] = (),
    repo_root: PathLike = ".",
    repair: bool = False,
) -> DoctorReport:
    """Audit ``paths`` (or the committed artefact set when empty).

    With ``repair``, every flagged file is moved to the nearest owning
    ``quarantine/`` directory with a reason record.
    """
    # RunRecord validation checks metric names against the registry;
    # load every metric-producing module first, as the exporter does.
    from ..metrics.export import _ensure_registrations

    _ensure_registrations()
    report = DoctorReport()
    targets = [Path(p) for p in paths] or default_targets(repo_root)
    for target in targets:
        report.findings.extend(_audit_path(target, report))
    if repair:
        for finding in report.findings:
            victim = Path(finding.path)
            if not victim.exists():
                continue
            moved = quarantine_file(
                victim, f"{finding.defect}: {finding.detail}",
                finding.category, root=victim.parent,
            )
            finding.action = (
                ACTION_QUARANTINED if moved else ACTION_REPAIR_FAILED
            )
    return report
