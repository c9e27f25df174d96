"""The campaign manifest: one JSON file that owns the campaign's truth.

``campaign.json`` lives at the root of a campaign directory and
records what the campaign *is* (scale, experiments, chaos settings)
and where every task *stands* (pending / complete / failed, with the
result file's relative path and content hash).  It is rewritten
atomically after every state change, so a campaign killed at any
instant leaves a manifest describing exactly the completed work — the
foundation of ``--resume``.

Layout of a campaign directory::

    campaign.json          # this manifest
    campaign.meta.json     # immutable identity (scale, experiments)
    results/<task>.json    # one verified result per completed task
    errors/<task>.attemptN.json   # captured tracebacks of failures
    failures.json          # final report of permanently-failed tasks
    quarantine/            # corrupt artefacts moved aside, with reasons

The manifest is mutable state and therefore the artefact most exposed
to a torn write; ``campaign.meta.json`` is written once at creation
and never again, so even a manifest destroyed by real disk corruption
can be rebuilt (``load(..., recover=True)``) from the meta record plus
whatever verified results survive on disk — the checkpoint
tail-truncation story: resume from the last valid records instead of
abandoning the campaign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..fsio.durable import BlobError, unwrap_json
from ..fsio.quarantine import quarantine_file
from ..manifest import library_info
from .chaos import ChaosConfig
from .checkpoint import load_result, verify_result, write_json_atomic
from .errors import CampaignConfigError, CorruptResultError

PathLike = Union[str, Path]

MANIFEST_FORMAT = "repro-campaign/1"
MANIFEST_NAME = "campaign.json"
META_FORMAT = "repro-campaign-meta/1"
META_NAME = "campaign.meta.json"
RESULTS_DIR = "results"
ERRORS_DIR = "errors"
FAILURES_NAME = "failures.json"

PENDING = "pending"
COMPLETE = "complete"
FAILED = "failed"


@dataclass
class TaskEntry:
    """Manifest state of one task."""

    status: str = PENDING
    result: Optional[str] = None       # relative path of the result file
    sha256: Optional[str] = None
    attempts: int = 0
    error: Optional[dict] = None       # last failure, for FAILED tasks

    def to_json(self) -> dict:
        record = {"status": self.status, "attempts": self.attempts}
        if self.result is not None:
            record["result"] = self.result
        if self.sha256 is not None:
            record["sha256"] = self.sha256
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_json(cls, data: dict) -> "TaskEntry":
        return cls(
            status=data.get("status", PENDING),
            result=data.get("result"),
            sha256=data.get("sha256"),
            attempts=int(data.get("attempts", 0)),
            error=data.get("error"),
        )


@dataclass
class CampaignManifest:
    """In-memory mirror of ``campaign.json`` with atomic persistence."""

    directory: Path
    scale: str
    experiments: Tuple[str, ...]
    chaos: Optional[dict] = None       # last run's chaos settings (info only)
    #: Workload references the campaign was created over, replacing
    #: the scale preset's mixes.  ``None`` means the preset's mixes.
    workloads: Optional[Tuple[str, ...]] = None
    tasks: Dict[str, TaskEntry] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def meta_path(self) -> Path:
        return self.directory / META_NAME

    @property
    def results_dir(self) -> Path:
        return self.directory / RESULTS_DIR

    @property
    def errors_dir(self) -> Path:
        return self.directory / ERRORS_DIR

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: PathLike,
        scale: str,
        experiments,
        chaos: Optional[ChaosConfig] = None,
        workloads: Optional[Tuple[str, ...]] = None,
    ) -> "CampaignManifest":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = cls(
            directory=directory,
            scale=scale,
            experiments=tuple(experiments),
            chaos=chaos.to_json() if chaos else None,
            workloads=tuple(workloads) if workloads else None,
        )
        manifest.results_dir.mkdir(exist_ok=True)
        manifest.errors_dir.mkdir(exist_ok=True)
        # Immutable identity record, written exactly once: the seed
        # recovery rebuilds from if campaign.json is ever destroyed.
        meta = {
            "scale": manifest.scale,
            "experiments": list(manifest.experiments),
        }
        if manifest.workloads is not None:
            meta["workloads"] = list(manifest.workloads)
        write_json_atomic(manifest.meta_path, meta, schema=META_FORMAT)
        manifest.save()
        return manifest

    @classmethod
    def load(
        cls, directory: PathLike, recover: bool = False
    ) -> "CampaignManifest":
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        if not path.exists():
            raise CampaignConfigError(
                f"{directory} is not a campaign directory (no {MANIFEST_NAME})"
            )
        try:
            data = unwrap_json(json.loads(path.read_bytes().decode()), path=path)
        except (OSError, ValueError, BlobError) as exc:
            # ValueError covers JSONDecodeError/UnicodeDecodeError and
            # BlobError subclasses it, but keep both spelled out: this
            # is the corruption boundary, not a parse nicety.
            if not recover:
                raise CampaignConfigError(
                    f"{path}: corrupt manifest ({exc})"
                ) from None
            return cls._recover(directory, str(exc))
        if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
            fmt = data.get("format") if isinstance(data, dict) else type(data)
            raise CampaignConfigError(
                f"{path}: unsupported manifest format {fmt!r}"
            )
        workloads = data.get("workloads")
        manifest = cls(
            directory=directory,
            scale=data["scale"],
            experiments=tuple(data["experiments"]),
            chaos=data.get("chaos"),
            workloads=tuple(workloads) if workloads else None,
            tasks={
                task_id: TaskEntry.from_json(entry)
                for task_id, entry in data.get("tasks", {}).items()
            },
        )
        manifest.results_dir.mkdir(exist_ok=True)
        manifest.errors_dir.mkdir(exist_ok=True)
        return manifest

    @classmethod
    def _recover(cls, directory: Path, reason: str) -> "CampaignManifest":
        """Rebuild a destroyed manifest from meta + surviving results.

        Completed work is re-discovered by verifying every result file
        on disk (the payload names its own task, so sanitised
        filenames are no obstacle); anything that fails verification
        is quarantined.  Tasks with no surviving result simply re-run.
        """
        meta_path = directory / META_NAME
        try:
            meta = unwrap_json(
                json.loads(meta_path.read_text()),
                schema=META_FORMAT,
                path=meta_path,
            )
        except (OSError, ValueError) as exc:
            raise CampaignConfigError(
                f"{directory}: manifest is corrupt and no usable "
                f"{META_NAME} to recover from ({exc})"
            ) from None
        quarantine_file(
            directory / MANIFEST_NAME,
            f"corrupt manifest: {reason}",
            "campaign-manifest",
            root=directory,
        )
        recovered_workloads = meta.get("workloads")
        manifest = cls(
            directory=directory,
            scale=meta["scale"],
            experiments=tuple(meta["experiments"]),
            workloads=(
                tuple(recovered_workloads) if recovered_workloads else None
            ),
        )
        manifest.results_dir.mkdir(exist_ok=True)
        manifest.errors_dir.mkdir(exist_ok=True)
        for result in sorted(manifest.results_dir.glob("*.json")):
            try:
                task_id = load_result(result).get("task_id")
                if not isinstance(task_id, str) or not task_id:
                    raise CorruptResultError(result, "no task_id in payload")
                _, sha256 = verify_result(result, task_id)
            except CorruptResultError as exc:
                quarantine_file(
                    result, exc.reason, "campaign-result", root=directory
                )
                continue
            manifest.tasks[task_id] = TaskEntry(
                status=COMPLETE,
                result=f"{RESULTS_DIR}/{result.name}",
                sha256=sha256,
            )
        manifest.save()
        return manifest

    def save(self) -> None:
        document = {
            "format": MANIFEST_FORMAT,
            "library": library_info(),
            "scale": self.scale,
            "experiments": list(self.experiments),
            "chaos": self.chaos,
            "tasks": {
                task_id: entry.to_json()
                for task_id, entry in sorted(self.tasks.items())
            },
        }
        # Only campaigns created over an explicit workload list carry
        # the key, keeping default manifests byte-stable.
        if self.workloads is not None:
            document["workloads"] = list(self.workloads)
        write_json_atomic(self.path, document, schema=MANIFEST_FORMAT)

    # ------------------------------------------------------------------
    def entry(self, task_id: str) -> TaskEntry:
        return self.tasks.setdefault(task_id, TaskEntry())

    def mark_complete(
        self, task_id: str, result_relpath: str, sha256: str, attempts: int
    ) -> None:
        self.tasks[task_id] = TaskEntry(
            status=COMPLETE, result=result_relpath, sha256=sha256, attempts=attempts
        )
        self.save()

    def mark_failed(self, task_id: str, attempts: int, error: dict) -> None:
        self.tasks[task_id] = TaskEntry(
            status=FAILED, attempts=attempts, error=error
        )
        self.save()

    # ------------------------------------------------------------------
    def verified_complete(self, task_id: str) -> bool:
        """Is this task complete *and* its result file intact on disk?

        A manifest that says "complete" is not trusted blindly: the
        result file must still exist, parse, belong to the task and
        hash to the recorded digest.  Anything less re-runs the task.
        """
        entry = self.tasks.get(task_id)
        if entry is None or entry.status != COMPLETE or not entry.result:
            return False
        try:
            verify_result(
                self.directory / entry.result, task_id, entry.sha256
            )
        except CorruptResultError:
            return False
        return True

    def incomplete_tasks(self) -> List[str]:
        return [
            task_id
            for task_id, entry in sorted(self.tasks.items())
            if entry.status != COMPLETE
        ]
