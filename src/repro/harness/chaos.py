"""Deterministic fault injection for exercising the harness itself.

Chaos mode makes the campaign runner's recovery paths testable in CI:
with ``--chaos p=0.3,kinds=crash,timeout,corrupt`` every (task,
attempt) pair independently draws an injected fault with probability
``p``.  Draws are *deterministic* — a SHA-256 of ``(seed, task_id,
attempt)`` — so a chaotic campaign is exactly reproducible and a test
can assert which attempts were sabotaged.

Injected fault kinds:

* ``crash``   — the worker dies instantly via ``os._exit`` (models an
  OOM kill or segfault);
* ``timeout`` — the worker hangs until the scheduler's per-task
  deadline kills it;
* ``corrupt`` — the worker writes a truncated, non-atomic result file
  to the final path and exits "successfully" (models a torn write),
  which the checkpoint verifier must catch.

Disk-level kinds (``disk-torn``, ``disk-enospc``, ``disk-flip``) are
delegated to :mod:`repro.fsio.faults`: the worker arms a one-shot
filesystem fault on its own result write, exercising the storage
layer's torn-write detection, ENOSPC degradation and checksum
validation end-to-end through a real campaign.

Because the draw is per-*attempt*, a sabotaged task's retries
eventually come up clean: with retry budget ``r`` a task is lost only
with probability ``p**(r+1)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..fsio.faults import DISK_CHAOS_KINDS

CRASH_KIND = "crash"
TIMEOUT_KIND = "timeout"
CORRUPT_KIND = "corrupt"
#: Default kind set: task-level faults only.  Disk kinds are opt-in
#: via an explicit ``kinds=`` list so ``--chaos p=...`` alone keeps
#: its original meaning.
CHAOS_KINDS = (CRASH_KIND, TIMEOUT_KIND, CORRUPT_KIND)
ALL_CHAOS_KINDS = CHAOS_KINDS + DISK_CHAOS_KINDS

#: Exit code of a chaos-crashed worker (distinguishable in reports).
CHAOS_CRASH_EXIT = 86


class ChaosSpecError(ValueError):
    """A ``--chaos`` specification string could not be parsed."""


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed chaos-injection parameters."""

    p: float = 0.0
    kinds: Tuple[str, ...] = CHAOS_KINDS
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ChaosSpecError(f"chaos p must be in [0, 1], got {self.p}")
        unknown = [k for k in self.kinds if k not in ALL_CHAOS_KINDS]
        if unknown:
            raise ChaosSpecError(
                f"unknown chaos kinds {unknown}; "
                f"choose from {list(ALL_CHAOS_KINDS)}"
            )
        if not self.kinds:
            raise ChaosSpecError("chaos kinds must not be empty")

    # ------------------------------------------------------------------
    def decide(self, task_id: str, attempt: int) -> Optional[str]:
        """The fault (or ``None``) injected into this attempt.

        Pure function of ``(seed, task_id, attempt)`` — the scheduler,
        the worker and the tests all see the same decision.
        """
        digest = hashlib.sha256(
            f"repro-chaos:{self.seed}:{task_id}:{attempt}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        if draw >= self.p:
            return None
        index = int.from_bytes(digest[8:12], "big") % len(self.kinds)
        return self.kinds[index]

    def to_json(self) -> dict:
        return {"p": self.p, "kinds": list(self.kinds), "seed": self.seed}

    @classmethod
    def from_json(cls, data: dict) -> "ChaosConfig":
        return cls(
            p=float(data["p"]),
            kinds=tuple(data["kinds"]),
            seed=int(data.get("seed", 0)),
        )


def parse_chaos_spec(spec: str) -> ChaosConfig:
    """Parse ``p=0.3,kinds=crash,timeout,corrupt[,seed=7]``.

    ``seed`` defaults to 0.  ``kinds`` is comma-separated like the
    top-level fields, so any bare token (no ``=``) extends the most
    recent list-valued key.
    """
    p = 0.1
    seed = 0
    kinds: Optional[list] = None
    collecting_kinds = False
    for token in filter(None, (t.strip() for t in spec.split(","))):
        if "=" in token:
            key, _, value = token.partition("=")
            key = key.strip()
            collecting_kinds = False
            if key == "p":
                try:
                    p = float(value)
                except ValueError:
                    raise ChaosSpecError(f"bad chaos p value {value!r}") from None
            elif key == "kinds":
                kinds = [value.strip()]
                collecting_kinds = True
            elif key == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise ChaosSpecError(f"bad chaos seed {value!r}") from None
            else:
                raise ChaosSpecError(
                    f"unknown chaos key {key!r}; expected p, kinds or seed"
                )
        elif collecting_kinds:
            kinds.append(token)
        else:
            raise ChaosSpecError(f"stray chaos token {token!r}")
    return ChaosConfig(
        p=p, kinds=tuple(kinds) if kinds is not None else CHAOS_KINDS, seed=seed
    )


def backoff_delay(
    base: float, cap: float, tries: int, task_id: str, seed: int = 0
) -> float:
    """Bounded exponential backoff with deterministic jitter.

    The envelope is ``min(cap, base * 2**(tries-1))``; the jitter
    multiplies it by a factor in ``[0.5, 1.0)`` drawn — like every
    chaos decision — from a SHA-256 of ``(seed, task_id, tries)``, so
    retry schedules decorrelate across tasks (no thundering herd when
    a shared resource fails a whole batch) yet replay identically for
    a given seed.
    """
    if tries < 1:
        return 0.0
    envelope = min(cap, base * 2 ** (tries - 1))
    digest = hashlib.sha256(
        f"repro-backoff:{seed}:{task_id}:{tries}".encode()
    ).digest()
    jitter = 0.5 + 0.5 * (int.from_bytes(digest[:8], "big") / float(1 << 64))
    return envelope * jitter
