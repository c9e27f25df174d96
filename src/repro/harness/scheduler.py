"""The fault-tolerant campaign scheduler.

Drives a set of :class:`~repro.experiments.campaign_tasks.CampaignTask`
units to completion across a persistent pool of long-lived worker
processes.  Each worker runs one task at a time, handed to it over a
pipe, and keeps its in-process workload cache warm across tasks, so an
N-cell policy matrix pays the interpreter spawn and workload build
once per worker instead of once per cell.  The pool keeps these
fault-tolerance guarantees:

* **crash containment** — a dead worker is an event, never an
  exception; its in-flight attempt is charged as a crash and a fresh
  worker replaces it;
* **per-task deadlines** — armed when a task is dispatched; a worker
  that blows it is killed and the attempt recorded as a timeout;
* **retry with exponential backoff** — failed attempts re-queue with
  ``base * 2**(tries-1)`` delay (capped), scaled by deterministic
  per-task jitter so simultaneous failures don't retry in lockstep,
  until the retry budget is exhausted;
* **checkpointing** — each verified result updates the atomic
  manifest, so progress survives the scheduler itself dying;
* **resume** — a re-run skips every verified-complete task and
  re-executes only missing, corrupt or failed ones.

The scheduler is single-threaded and event-driven: it blocks in
:func:`multiprocessing.connection.wait` on worker pipes and process
sentinels — completion is observed the instant it happens, not at the
next poll tick — with a bounded timeout so deadline and chaos checks
still fire even when every child is silent.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..experiments.campaign_tasks import (
    EXPERIMENT_NAMES,
    CampaignTask,
    enumerate_campaign_tasks,
)
from ..experiments.common import SCALE_NAMES, get_scale
from ..workloads.mixes import WORKLOADS
from ..fsio.quarantine import quarantine_file
from ..metrics.registry import register_metric
from .chaos import ChaosConfig, backoff_delay
from .checkpoint import load_result, verify_result, write_json_atomic
from .errors import (
    CRASH,
    CORRUPT,
    ERROR,
    TIMEOUT,
    AttemptFailure,
    CampaignConfigError,
    CorruptResultError,
    TaskFailureReport,
)
from .manifest import FAILURES_NAME, MANIFEST_NAME, CampaignManifest
from .worker import build_payload, pool_worker_entry

PathLike = Union[str, Path]
Progress = Optional[Callable[[str], None]]

#: Upper bound on one event-loop wait: deadline enforcement, backoff
#: release and ``stop_after`` checks can never lag further than this.
_WAIT_CAP = 0.2

#: Upper bound, in seconds, on one retry's backoff delay.
_BACKOFF_CAP = 30.0

#: Name of the per-campaign health record (a ``repro-run/1`` RunRecord
#: in a blob envelope) written after every scheduler invocation; ``repro
#: status`` and ``repro export`` read the scheduler/storage counters
#: back from it.
HEALTH_RECORD_NAME = "campaign.health.json"

# Scheduler counters, declared once like every other spine layer; the
# drift check in metrics.export asserts these stay attribute-for-
# attribute in step with CampaignReport.
register_metric("scheduler", "total", "count",
                "Tasks the campaign enumerated this invocation")
register_metric("scheduler", "completed", "count",
                "Tasks run to verified success")
register_metric("scheduler", "skipped", "count",
                "Tasks already verified complete before the run started")
register_metric("scheduler", "retried_attempts", "count",
                "Failed attempts that were re-queued for another try")
register_metric("scheduler", "failed", "count",
                "Tasks that exhausted their retry budget",
                attr="failed_count")
register_metric("scheduler", "worker_respawns", "count",
                "Pool workers replaced after dying or blowing a deadline")


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class CampaignSettings:
    """Tunables of one campaign invocation (not persisted)."""

    #: Default to every core: the old ``min(4, cpu_count)`` silently
    #: capped wide machines at 4 workers.  The effective value is
    #: echoed in the campaign banner so the parallelism is visible.
    jobs: int = max(1, os.cpu_count() or 1)
    task_timeout: float = 600.0
    retries: int = 3
    backoff_base: float = 1.0
    chaos: Optional[ChaosConfig] = None


@dataclass
class CampaignReport:
    """Outcome of one scheduler invocation."""

    total: int = 0
    completed: int = 0                 # tasks run to success this invocation
    skipped: int = 0                   # verified complete before we started
    retried_attempts: int = 0          # failed attempts that were retried
    failed: List[TaskFailureReport] = field(default_factory=list)
    interrupted: bool = False
    #: Wall seconds of each *successful* attempt, by task id, measured
    #: inside the worker (dispatch overhead excluded).
    durations: Dict[str, float] = field(default_factory=dict)
    #: Pool workers replaced after dying or blowing a deadline.
    worker_respawns: int = 0

    @property
    def failed_count(self) -> int:
        return len(self.failed)

    @property
    def ok(self) -> bool:
        return (
            not self.failed
            and not self.interrupted
            and self.completed + self.skipped == self.total
        )


@dataclass
class _TaskState:
    task: CampaignTask
    attempts: int = 0                  # lifetime attempts (manifest-seeded)
    tries_this_run: int = 0
    next_eligible: float = 0.0         # monotonic clock
    failures: List[AttemptFailure] = field(default_factory=list)


@dataclass
class _PoolTask:
    """One attempt dispatched to a worker."""

    state: _TaskState
    attempt: int


@dataclass
class _PoolWorker:
    """One persistent worker and the attempt it currently runs."""

    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"
    task: Optional[_PoolTask] = None
    deadline: Optional[float] = None   # armed while a task is in flight


def _check_names(
    scale: str, experiments: Sequence[str], workloads: Optional[Sequence[str]]
) -> None:
    """Raise :class:`CampaignConfigError` for any unknown name."""
    for kind, names, known in (
        ("scale", (scale,), SCALE_NAMES),
        ("experiment", experiments, EXPERIMENT_NAMES),
        ("workload", workloads or (), tuple(WORKLOADS)),
    ):
        for name in names:
            if name not in known:
                raise CampaignConfigError(
                    f"unknown {kind} {name!r}; choose from {', '.join(known)}"
                )


class CampaignRunner:
    """Execute (or resume) one campaign directory to completion."""

    def __init__(
        self,
        directory: PathLike,
        scale: str = "default",
        experiments: Sequence[str] = ("tables",),
        settings: Optional[CampaignSettings] = None,
        resume: bool = False,
        progress: Progress = None,
        stop_after: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None,
    ):
        self.directory = Path(directory)
        self.settings = settings or CampaignSettings()
        if self.settings.jobs < 1:
            # The pool spawns a worker only while it has fewer than
            # ``jobs``, so with none it would wait forever.
            raise CampaignConfigError(
                f"jobs must be at least 1, got {self.settings.jobs}"
            )
        self.progress = progress or (lambda message: None)
        self.stop_after = stop_after
        self._ctx = multiprocessing.get_context(_default_start_method())

        if resume:
            # recover=True: a corrupt manifest is quarantined and
            # rebuilt from campaign.meta.json + surviving verified
            # results instead of aborting the resume.
            self.manifest = CampaignManifest.load(self.directory, recover=True)
            self.scale_name = self.manifest.scale
            self.experiments = self.manifest.experiments
            # Workload identity (like scale and experiments): a resumed
            # campaign runs over the workloads it was created with.
            self.workloads = self.manifest.workloads
            self.manifest.chaos = (
                self.settings.chaos.to_json() if self.settings.chaos else None
            )
        else:
            if (self.directory / MANIFEST_NAME).exists():
                raise CampaignConfigError(
                    f"{self.directory} already holds a campaign; "
                    f"continue it with --resume {self.directory}"
                )
            self.scale_name = scale
            self.experiments = tuple(experiments)
            self.workloads = tuple(workloads) if workloads else None
        # Names are checked before a new campaign writes anything, so a
        # typo leaves no directory behind.
        _check_names(self.scale_name, self.experiments, self.workloads)
        if not resume:
            self.manifest = CampaignManifest.create(
                self.directory,
                scale=self.scale_name,
                experiments=self.experiments,
                chaos=self.settings.chaos,
                workloads=self.workloads,
            )

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _clean_stale_tmp(self) -> None:
        for tmp in self.manifest.results_dir.glob(".*.tmp.*"):
            tmp.unlink()

    def _error_path(self, task: CampaignTask, attempt: int) -> Path:
        stem = task.filename[: -len(".json")]
        return self.manifest.errors_dir / f"{stem}.attempt{attempt}.json"

    def _result_path(self, task: CampaignTask) -> Path:
        return self.manifest.results_dir / task.filename

    def _payload(self, state: _TaskState, attempt: int) -> str:
        task = state.task
        return build_payload(
            task_id=task.task_id,
            experiment=task.experiment,
            unit=dict(task.unit),
            scale=self.scale_name,
            result_path=str(self._result_path(task)),
            error_path=str(self._error_path(task, attempt)),
            attempt=attempt,
            chaos=self.settings.chaos,
            hang_seconds=self.settings.task_timeout * 4 + 60.0,
        )

    def _scrub_bad_result(self, task: CampaignTask) -> None:
        """Never leave a bad result file where resume could trip on it.

        The bad bytes move to the campaign's ``quarantine/`` directory
        with a reason record — evidence for ``repro doctor`` — leaving
        ``results/`` holding only verified artefacts.
        """
        result_path = self._result_path(task)
        if result_path.exists():
            try:
                verify_result(result_path, task.task_id)
            except CorruptResultError as exc:
                quarantine_file(
                    result_path,
                    exc.reason,
                    "campaign-result",
                    root=self.directory,
                )
                if result_path.exists():  # quarantine move failed
                    result_path.unlink()

    def _complete(
        self, state: _TaskState, report: CampaignReport, duration: float
    ) -> Optional[AttemptFailure]:
        """Verify and record a reportedly-successful attempt.

        Returns ``None`` on success or the CORRUPT failure to apply.
        """
        task = state.task
        try:
            _, sha256 = verify_result(
                self._result_path(task), task.task_id
            )
        except CorruptResultError as exc:
            return AttemptFailure(
                task.task_id, state.attempts, CORRUPT, exc.reason
            )
        self.manifest.mark_complete(
            task.task_id,
            f"{self.manifest.results_dir.name}/{task.filename}",
            sha256,
            state.attempts,
        )
        report.completed += 1
        report.durations[task.task_id] = duration
        self.progress(
            f"done {task.task_id} "
            f"({report.completed + report.skipped}/{report.total})"
        )
        return None

    def _fail_attempt(
        self,
        state: _TaskState,
        report: CampaignReport,
        failure: AttemptFailure,
    ) -> Optional[_TaskState]:
        """Record a failed attempt; return the state to requeue, if any."""
        task = state.task
        state.failures.append(failure)
        self._scrub_bad_result(task)
        if state.tries_this_run > self.settings.retries:
            self.manifest.mark_failed(
                task.task_id, state.attempts, failure.to_json()
            )
            report.failed.append(
                TaskFailureReport(task.task_id, state.attempts, state.failures)
            )
            self.progress(
                f"FAILED {task.task_id} after {state.attempts} attempts "
                f"({failure.kind}: {failure.detail})"
            )
            return None
        # Deterministic jitter (seeded like chaos) decorrelates retry
        # schedules across tasks while keeping them reproducible.
        delay = backoff_delay(
            self.settings.backoff_base,
            _BACKOFF_CAP,
            state.tries_this_run,
            task.task_id,
            seed=self.settings.chaos.seed if self.settings.chaos else 0,
        )
        state.next_eligible = time.monotonic() + delay
        report.retried_attempts += 1
        self.progress(
            f"retry {task.task_id} in {delay:.2g}s "
            f"(attempt {state.attempts} {failure.kind}: {failure.detail})"
        )
        return state

    def _error_failure(
        self, state: _TaskState, attempt: int, detail: str
    ) -> AttemptFailure:
        """An ERROR failure, with the worker's traceback if recorded."""
        error_path = self._error_path(state.task, attempt)
        trace = None
        if error_path.exists():
            try:
                trace = load_result(error_path).get("traceback")
            except CorruptResultError:
                trace = None
        return AttemptFailure(
            state.task.task_id, attempt, ERROR, detail, traceback=trace
        )

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        scale = get_scale(self.scale_name)
        if self.workloads:
            # An explicit workload list replaces the preset's mixes for
            # unit enumeration; workers build each reference with
            # ``scale.workload(ref)``.
            scale = replace(scale, mixes=tuple(self.workloads))
        tasks = enumerate_campaign_tasks(self.experiments, scale)
        self._clean_stale_tmp()

        report = CampaignReport(total=len(tasks))
        queue: List[_TaskState] = []
        for task in tasks:
            if self.manifest.verified_complete(task.task_id):
                report.skipped += 1
                continue
            entry = self.manifest.entry(task.task_id)
            queue.append(_TaskState(task=task, attempts=entry.attempts))
        self.manifest.save()
        self.progress(
            f"campaign: {len(tasks)} tasks, jobs={self.settings.jobs} "
            f"(cpu_count={os.cpu_count() or 1})"
        )
        if report.skipped:
            self.progress(f"resume: skipping {report.skipped} verified tasks")

        try:
            self._run_pool(queue, report)
        finally:
            # Even an aborted run (Ctrl-C) leaves its failure report
            # and health record behind for resume/audit.
            self._write_failure_report(report)
            self._write_health_record(report)
        return report

    def _stop_requested(self, report: CampaignReport) -> bool:
        if (
            self.stop_after is not None
            and report.completed >= self.stop_after
        ):
            report.interrupted = True
            return True
        return False

    def _wait_timeout(
        self,
        queue: List[_TaskState],
        deadlines: List[float],
        now: float,
    ) -> float:
        """Sleep no longer than the next scheduled event (bounded)."""
        horizon = now + _WAIT_CAP
        for state in queue:
            if state.next_eligible > now:
                horizon = min(horizon, state.next_eligible)
        for deadline in deadlines:
            horizon = min(horizon, deadline)
        return max(0.01, horizon - now)

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _kill(self, process: multiprocessing.process.BaseProcess) -> None:
        if process.is_alive():
            process.terminate()
            process.join(2.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(2.0)

    def _spawn_worker(self) -> _PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=pool_worker_entry, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process=process, conn=parent_conn)

    def _retire_worker(self, worker: _PoolWorker, kill: bool = True) -> None:
        if kill:
            self._kill(worker.process)
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _dispatch(
        self,
        workers: List[_PoolWorker],
        queue: List[_TaskState],
        now: float,
    ) -> None:
        """Hand eligible tasks to idle workers, spawning up to ``jobs``."""
        eligible = [s for s in queue if s.next_eligible <= now]
        for worker in workers:
            if not eligible:
                return
            if worker.task is None and worker.process.is_alive():
                self._assign(worker, eligible.pop(0), queue, now)
        while eligible and len(workers) < self.settings.jobs:
            worker = self._spawn_worker()
            workers.append(worker)
            self._assign(worker, eligible.pop(0), queue, now)

    def _assign(
        self,
        worker: _PoolWorker,
        state: _TaskState,
        queue: List[_TaskState],
        now: float,
    ) -> None:
        queue.remove(state)
        attempt = state.attempts + 1
        try:
            worker.conn.send(("run", self._payload(state, attempt)))
        except (BrokenPipeError, OSError):
            # Worker died between spawn and dispatch; requeue untouched
            # (no attempt consumed) — the reaper collects the corpse.
            queue.append(state)
            return
        worker.task = _PoolTask(state=state, attempt=attempt)
        worker.deadline = now + self.settings.task_timeout

    def _on_message(
        self,
        worker: _PoolWorker,
        message,
        queue: List[_TaskState],
        report: CampaignReport,
    ) -> None:
        item = worker.task
        if message[0] != "done" or item is None:  # pragma: no cover
            return  # protocol guard
        _, _task_id, status, elapsed = message
        worker.task = None
        worker.deadline = None
        state = item.state
        state.attempts = item.attempt
        state.tries_this_run += 1
        if status == "ok":
            failure = self._complete(state, report, elapsed)
        else:
            failure = self._error_failure(
                state, item.attempt, "worker task raised"
            )
        if failure is not None:
            requeue = self._fail_attempt(state, report, failure)
            if requeue is not None:
                queue.append(requeue)

    def _drain(
        self,
        worker: _PoolWorker,
        queue: List[_TaskState],
        report: CampaignReport,
    ) -> None:
        try:
            while worker.conn.poll():
                self._on_message(worker, worker.conn.recv(), queue, report)
        except (EOFError, OSError):
            pass  # death is settled by the reaper

    def _fail_in_flight(
        self,
        worker: _PoolWorker,
        queue: List[_TaskState],
        report: CampaignReport,
        kind: str,
        detail: str,
    ) -> None:
        """Charge a dead/overdue worker's in-flight attempt as failed."""
        item = worker.task
        worker.task = None
        worker.deadline = None
        if item is None:
            return
        state = item.state
        state.attempts = item.attempt
        state.tries_this_run += 1
        failure = AttemptFailure(state.task.task_id, item.attempt, kind, detail)
        requeue = self._fail_attempt(state, report, failure)
        if requeue is not None:
            queue.append(requeue)

    def _reap_dead(
        self,
        workers: List[_PoolWorker],
        queue: List[_TaskState],
        report: CampaignReport,
    ) -> None:
        for worker in list(workers):
            if worker.process.is_alive():
                continue
            # Messages sent before death still count.
            self._drain(worker, queue, report)
            self._fail_in_flight(
                worker, queue, report,
                CRASH,
                f"pool worker died with exit code {worker.process.exitcode}",
            )
            workers.remove(worker)
            self._retire_worker(worker, kill=False)
            report.worker_respawns += 1

    def _enforce_deadlines(
        self,
        workers: List[_PoolWorker],
        queue: List[_TaskState],
        report: CampaignReport,
        now: float,
    ) -> None:
        for worker in list(workers):
            if worker.deadline is None or now < worker.deadline:
                continue
            self._drain(worker, queue, report)
            if worker.deadline is None:
                continue  # the task finished while draining
            self._kill(worker.process)
            self._fail_in_flight(
                worker, queue, report,
                TIMEOUT,
                f"exceeded {self.settings.task_timeout:g}s deadline",
            )
            workers.remove(worker)
            self._retire_worker(worker, kill=False)
            report.worker_respawns += 1

    def _run_pool(
        self, queue: List[_TaskState], report: CampaignReport
    ) -> None:
        workers: List[_PoolWorker] = []
        try:
            while queue or any(w.task is not None for w in workers):
                if self._stop_requested(report):
                    break
                now = time.monotonic()
                self._reap_dead(workers, queue, report)
                self._enforce_deadlines(workers, queue, report, now)
                self._dispatch(workers, queue, time.monotonic())
                handles = [w.conn for w in workers] + [
                    w.process.sentinel for w in workers
                ]
                timeout = self._wait_timeout(
                    queue,
                    [w.deadline for w in workers if w.deadline is not None],
                    time.monotonic(),
                )
                if handles:
                    ready = multiprocessing.connection.wait(handles, timeout)
                else:
                    time.sleep(timeout)
                    ready = []
                conns = {w.conn: w for w in workers}
                for handle in ready:
                    worker = conns.get(handle)
                    if worker is not None:
                        self._drain(worker, queue, report)
        finally:
            self._shutdown_pool(workers)

    def _shutdown_pool(self, workers: List[_PoolWorker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(0.5)
            self._retire_worker(worker)

    # ------------------------------------------------------------------
    def _write_health_record(self, report: CampaignReport) -> None:
        """Persist this invocation's scheduler/storage counters.

        One ``repro-run/1`` RunRecord (kind ``campaign-health``) in a
        checksummed envelope: the exact document ``repro export`` and
        ``repro status`` read back.
        """
        from ..fsio.health import HEALTH
        from ..metrics.record import RunRecord
        from ..metrics.registry import REGISTRY

        metrics = {}
        metrics.update(REGISTRY.collect("scheduler", report))
        metrics.update(REGISTRY.collect("storage", HEALTH))
        meta = {
            "scale": self.scale_name,
            "experiments": list(self.experiments),
            "interrupted": report.interrupted,
        }
        # Only campaigns created over an explicit workload list carry
        # the key (byte-stability for default campaigns' records).
        if self.workloads:
            meta["workloads"] = list(self.workloads)
        record = RunRecord(
            kind="campaign-health",
            meta=meta,
            metrics=metrics,
            values={
                "task_seconds": round(sum(report.durations.values()), 6),
            },
        )
        try:
            write_json_atomic(
                self.directory / HEALTH_RECORD_NAME,
                record.to_json(),
                schema=record.schema,
            )
        except OSError:
            pass  # telemetry must never fail the campaign itself

    # ------------------------------------------------------------------
    def _write_failure_report(self, report: CampaignReport) -> None:
        failures_path = self.directory / FAILURES_NAME
        if report.failed:
            write_json_atomic(
                failures_path,
                {
                    "campaign": str(self.directory),
                    "failed_tasks": [f.to_json() for f in report.failed],
                },
            )
            self.progress(f"failure report: {failures_path}")
        elif not report.interrupted and failures_path.exists():
            failures_path.unlink()


def run_campaign(
    directory: PathLike,
    scale: str = "default",
    experiments: Sequence[str] = ("tables",),
    settings: Optional[CampaignSettings] = None,
    resume: bool = False,
    progress: Progress = None,
    stop_after: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> CampaignReport:
    """Convenience wrapper: build a runner and run it."""
    runner = CampaignRunner(
        directory,
        scale=scale,
        experiments=experiments,
        settings=settings,
        resume=resume,
        progress=progress,
        stop_after=stop_after,
        workloads=workloads,
    )
    return runner.run()
