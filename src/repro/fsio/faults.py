"""Deterministic disk-write fault injection behind the fsio API.

Sibling of :mod:`repro.harness.chaos`, one layer down: where chaos
decides whether a *task attempt* misbehaves, a :class:`OneShotFault`
makes one *disk write* misbehave — a torn write, ENOSPC, or a payload
bit flip.  A chaos worker arms one on its own result write, with the
details (tear offset, flipped byte) drawn from the task-level chaos
digest, so a failing campaign replays from its seed alone; the
crash-consistency tests arm one to tear a write at an exact byte
offset.

Nothing in this module touches the filesystem.  It only *plans*
faults; :func:`~repro.fsio.durable.atomic_write_bytes` consults the
armed faults and executes the plan.  Production code paths never arm
one — only ``--chaos`` workers and tests do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

PathLike = Union[str, Path]

DISK_TORN = "disk-torn"
DISK_ENOSPC = "disk-enospc"
DISK_FLIP = "disk-flip"

#: Kinds selectable through ``--chaos kinds=...`` (write-side faults a
#: campaign must survive end-to-end).
DISK_CHAOS_KINDS: Tuple[str, ...] = (DISK_TORN, DISK_ENOSPC, DISK_FLIP)

_DIGIT_SWAP = bytes.maketrans(b"0123456789", b"9876543210")


@dataclass(frozen=True)
class FaultPlan:
    """A fault to fire, plus how to execute it.

    ``digest`` seeds the data-dependent details (where to tear, which
    byte to flip); ``cut`` pins the torn boundary to an exact offset
    for the kill-at-every-offset harness.
    """

    kind: str
    digest: bytes
    cut: Optional[int] = None

    def cut_length(self, total: int) -> int:
        """Bytes that survive a torn write of ``total``."""
        if self.cut is not None:
            return max(0, min(total, self.cut))
        if total < 2:
            return 0
        fraction = 0.1 + 0.8 * (
            int.from_bytes(self.digest[:8], "big") / 2**64
        )
        return max(1, min(total - 1, int(total * fraction)))

    def flip(self, data: bytes) -> bytes:
        """Corrupt ``data`` so it stays parseable but fails checksums.

        Swaps one ASCII digit inside the envelope's payload region
        (``d -> 9-d``, never a fixed point), chosen by the plan digest.
        The result is still valid JSON with an intact ``format`` field,
        so only the checksum — not a parse error — can catch it: the
        hardest corruption for a reader to notice.
        """
        start = data.find(b'"payload"')
        start = 0 if start < 0 else start + len(b'"payload"')
        end = data.find(b'"schema"', start)
        if end < 0:
            end = len(data)
        positions = [
            i for i in range(start, end) if 0x30 <= data[i] <= 0x39
        ]
        if not positions:  # no digits in payload: hit anything after it
            positions = [
                i for i in range(start, len(data)) if 0x30 <= data[i] <= 0x39
            ]
        if not positions:
            # Digit-free data: make it unparsable instead.
            return data[:-1] + bytes([data[-1] ^ 0xFF]) if data else data
        target = positions[
            int.from_bytes(self.digest[8:16], "big") % len(positions)
        ]
        mutated = bytearray(data)
        mutated[target] = data[target : target + 1].translate(_DIGIT_SWAP)[0]
        return bytes(mutated)


class OneShotFault:
    """Fire ``kind`` exactly once, on the first write to a matching file.

    This is how chaos workers arm a disk fault for one specific result
    write, and how the crash-consistency harness tears a write at an
    exact offset (``cut=``).  Matching is by basename so callers can
    arm before the final path's directory even exists.
    """

    def __init__(
        self,
        kind: str,
        path: PathLike,
        digest: Optional[bytes] = None,
        cut: Optional[int] = None,
    ):
        if kind not in DISK_CHAOS_KINDS:
            raise ValueError(f"unknown disk fault kind {kind!r}")
        self.kind = kind
        self._name = Path(path).name
        if digest is None:
            digest = hashlib.sha256(
                f"repro-oneshot:{kind}:{self._name}".encode()
            ).digest()
        self._digest = digest
        self._cut = cut
        self.fired = False

    def plan(self, path: PathLike) -> Optional[FaultPlan]:
        if self.fired or Path(path).name != self._name:
            return None
        self.fired = True
        return FaultPlan(self.kind, self._digest, cut=self._cut)

    def __enter__(self) -> "OneShotFault":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self in _ACTIVE:
            _ACTIVE.remove(self)


# Armed faults (per-process; workers are processes, so no locking).
_ACTIVE: List[OneShotFault] = []


def consult(path: PathLike) -> Optional[FaultPlan]:
    """Ask the armed faults (innermost first) for a plan for this write."""
    for fault in reversed(_ACTIVE):
        plan = fault.plan(path)
        if plan is not None:
            return plan
    return None
