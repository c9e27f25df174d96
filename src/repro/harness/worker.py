"""Campaign pool workers.

A pool worker (``pool_worker_entry``) is a long-lived process that
receives one task payload at a time over a pipe and keeps its
in-process workload cache warm across tasks, so a policy matrix stops
paying a fresh interpreter + workload build per cell.  A dead worker
is an event the scheduler observes via its process sentinel: the
in-flight attempt is charged as a crash and a fresh worker replaces
it.

The attempt contract:

* the worker receives one JSON payload (task, scale, paths, chaos);
* on success it writes the task's result *atomically* to
  ``result_path`` and reports ``ok``;
* on a caught exception it writes a traceback record to
  ``error_path`` and reports ``error``;
* anything else — a crash, a kill, a hang — is the scheduler's
  problem to detect from the outside.

The message protocol over the pipe: ``("run", payload_json)`` and
``("exit",)`` inbound; ``("done", task_id, status, elapsed_seconds)``
outbound.

Chaos injection runs *inside* the worker, exactly where real faults
strike: a ``crash`` dies before any work (killing the whole pool
worker — that is the point), a ``timeout`` hangs past the scheduler's
deadline, and a ``corrupt`` bypasses the atomic writer to leave a
truncated result at the final path while reporting success.  The
``disk-*`` kinds arm a one-shot :mod:`repro.fsio.faults` fault on the
attempt's own result write instead, so the storage layer's envelope
checks are exercised by a real task run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback

from ..fsio.faults import DISK_CHAOS_KINDS, OneShotFault
from .chaos import (
    CHAOS_CRASH_EXIT,
    CORRUPT_KIND,
    CRASH_KIND,
    TIMEOUT_KIND,
    ChaosConfig,
)
from .checkpoint import ERROR_SCHEMA, RESULT_SCHEMA, write_json_atomic

#: Bytes a chaos "corrupt" injection leaves at the result path —
#: deliberately truncated JSON that can never parse.
CORRUPT_BYTES = b'{"status": "ok", "task_id": "truncat'


def build_payload(
    task_id: str,
    experiment: str,
    unit: dict,
    scale: str,
    result_path: str,
    error_path: str,
    attempt: int,
    chaos: ChaosConfig = None,
    hang_seconds: float = 3600.0,
) -> str:
    """Serialise one attempt's instructions for a worker."""
    return json.dumps(
        {
            "task_id": task_id,
            "experiment": experiment,
            "unit": unit,
            "scale": scale,
            "result_path": result_path,
            "error_path": error_path,
            "attempt": attempt,
            "chaos": chaos.to_json() if chaos else None,
            "hang_seconds": hang_seconds,
        }
    )


def run_attempt(payload: dict) -> bool:
    """Apply this attempt's (deterministic) injected fault, then run it.

    Task-level chaos kinds act here (crash/timeout die, corrupt plants
    a torn result and reports success without running the task); the
    disk-level kinds instead arm a one-shot filesystem fault on this
    attempt's own result write, so the task runs for real and the
    fault strikes *inside* the storage layer — exactly the failure the
    envelope checks and scheduler verification must catch.
    """
    kind = None
    chaos = None
    if payload.get("chaos"):
        chaos = ChaosConfig.from_json(payload["chaos"])
        kind = chaos.decide(payload["task_id"], payload["attempt"])
    if kind == CRASH_KIND:
        os._exit(CHAOS_CRASH_EXIT)
    if kind == TIMEOUT_KIND:
        time.sleep(payload["hang_seconds"])
        os._exit(CHAOS_CRASH_EXIT)
    if kind == CORRUPT_KIND:
        # A torn write: straight to the final path, no tmp+rename.
        with open(payload["result_path"], "wb") as fh:
            fh.write(CORRUPT_BYTES)
        return True  # report success; the verifier must catch it
    if kind in DISK_CHAOS_KINDS:
        # Tie the fault's data-dependent details (tear offset, flipped
        # byte) to the same digest that picked the kind.
        digest = hashlib.sha256(
            f"repro-chaos:{chaos.seed}:{payload['task_id']}:"
            f"{payload['attempt']}".encode()
        ).digest()
        with OneShotFault(kind, payload["result_path"], digest=digest):
            return _execute_attempt(payload)
    return _execute_attempt(payload)


def _execute_attempt(payload: dict) -> bool:
    """Run one task attempt; write its result or error record.

    Returns ``True`` on a verified-writable success, ``False`` after
    writing the traceback record.  Never exits the process; the pool
    worker reports the outcome over its pipe.
    """
    try:
        from ..experiments.campaign_tasks import run_campaign_task

        result = run_campaign_task(
            payload["experiment"], payload["unit"], payload["scale"]
        )
        write_json_atomic(
            payload["result_path"],
            {
                "status": "ok",
                "task_id": payload["task_id"],
                "experiment": payload["experiment"],
                "unit": payload["unit"],
                "scale": payload["scale"],
                "result": result,
            },
            schema=RESULT_SCHEMA,
        )
        return True
    except BaseException:
        try:
            write_json_atomic(
                payload["error_path"],
                {
                    "task_id": payload["task_id"],
                    "attempt": payload["attempt"],
                    "traceback": traceback.format_exc(),
                },
                schema=ERROR_SCHEMA,
            )
        except OSError:
            pass  # the scheduler still classifies by the missing result
        return False


def pool_worker_entry(conn) -> None:
    """Persistent-pool entry point: serve tasks until told to exit.

    ``conn`` is the worker's end of a ``multiprocessing.Pipe``.  The
    loop is deliberately trusting of nothing: a scheduler that died
    (closed pipe) ends the worker, and any fault *inside* a task is
    either contained by ``_execute_attempt`` or kills this process —
    which the scheduler observes and recovers from.  Must stay
    importable at module top level so it survives both ``fork`` and
    ``spawn`` multiprocessing start methods.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not message or message[0] == "exit":
            break
        if message[0] != "run":  # pragma: no cover - protocol guard
            continue
        payload = json.loads(message[1])
        started = time.monotonic()
        ok = run_attempt(payload)
        elapsed = time.monotonic() - started
        try:
            conn.send(
                ("done", payload["task_id"], "ok" if ok else "error", elapsed)
            )
        except (BrokenPipeError, OSError):
            return
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass
