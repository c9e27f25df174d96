"""NVM aging model: per-byte endurance vs accumulated write wear.

Under the intra-frame wear-leveling of Sec. III-B (block rearrangement
plus the slowly rotating global counter), every *live* byte of a frame
receives the same long-run write rate, so a frame's aging state
collapses to a single scalar: the wear ``w`` accumulated by each of
its live bytes.  A byte whose sampled endurance falls below ``w`` is
dead; since only the order statistics of the endurance draws matter,
each frame's endurance vector is kept sorted ascending, and its dead
bytes are ``sum(endurance[f] <= wear[f])``.

Byte-disabling advances ``w`` piecewise: writing ``B`` bytes to a
frame with ``n`` live bytes adds ``B/n`` wear to each, and as bytes
die the survivors absorb proportionally more wear.  The loop below
resolves those death boundaries exactly.  It counts every frame's
dead bytes once, then keeps that count as a cursor into the sorted
endurances (``endurance[f, dead]`` is the next byte to die),
moving it as bytes die and dropping frames whose budget is spent, so
an iteration touches one endurance value per frame still absorbing
writes rather than the whole array.

Frame-disabling (BH, LHybrid, TAP) writes whole frames: wear counts
writes, and the frame dies when its weakest byte gives out.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import EnduranceConfig
from ..nvm.endurance import sample_byte_endurance


class AgingModel:
    """Wear state of all NVM frames of one LLC."""

    def __init__(
        self,
        endurance: EnduranceConfig,
        n_sets: int,
        nvm_ways: int,
        block_size: int = 64,
        granularity: str = "byte",
        seed_offset: int = 0,
    ) -> None:
        if granularity not in ("byte", "frame"):
            raise ValueError(f"bad granularity {granularity!r}")
        self.n_sets = n_sets
        self.nvm_ways = nvm_ways
        self.block_size = block_size
        self.granularity = granularity
        self.n_frames = n_sets * nvm_ways
        if self.n_frames:
            self.endurance = sample_byte_endurance(
                endurance, self.n_frames, block_size, seed_offset=seed_offset
            )
        else:
            self.endurance = np.zeros((0, block_size))
        #: per-live-byte wear (byte granularity) or frame write count
        self.wear = np.zeros(self.n_frames, dtype=np.float64)

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    def live_counts(self) -> np.ndarray:
        """Live bytes per frame, shape ``(n_frames,)``."""
        if self.granularity == "frame":
            alive = self.wear < self.endurance[:, 0]
            return np.where(alive, self.block_size, 0)
        deaths = np.sum(self.endurance <= self.wear[:, None], axis=1)
        return self.block_size - deaths

    def capacities(self) -> np.ndarray:
        """Frame capacities shaped ``(n_sets, nvm_ways)`` for the fault map."""
        return self.live_counts().reshape(self.n_sets, self.nvm_ways)

    def effective_capacity(self) -> float:
        """Fraction of original NVM byte capacity still usable."""
        total = self.n_frames * self.block_size
        if total == 0:
            return 0.0
        return float(self.live_counts().sum()) / total

    # ------------------------------------------------------------------
    # aging
    # ------------------------------------------------------------------
    def advance(self, rates: np.ndarray, dt_seconds: float) -> None:
        """Age every frame by ``dt_seconds`` of the measured write rates.

        ``rates`` has shape ``(n_sets, nvm_ways)``: bytes/s per frame
        for byte granularity, frame-writes/s for frame granularity.
        """
        if dt_seconds < 0:
            raise ValueError("dt_seconds must be non-negative")
        totals = np.asarray(rates, dtype=np.float64).reshape(-1) * dt_seconds
        if totals.shape != self.wear.shape:
            raise ValueError(f"rates shape {rates.shape} does not match geometry")
        if self.granularity == "frame":
            self.wear += totals
            return
        self._advance_bytes(totals)

    def _advance_bytes(self, total_bytes: np.ndarray) -> None:
        endurance = self.endurance
        block_size = self.block_size
        # Work on the frames that hold budget and a live byte (dead
        # frames absorb nothing), dropping each once its budget is spent;
        # ``dead`` counts a frame's dead bytes and indexes its next death.
        deaths = np.sum(endurance <= self.wear[:, None], axis=1)
        frames = np.flatnonzero((total_bytes > 0) & (deaths < block_size))
        budget = total_bytes[frames]
        dead = deaths[frames]
        wear = self.wear[frames]
        for _ in range(block_size + 1):
            if not frames.size:
                break
            live = block_size - dead
            next_e = endurance[frames, dead]
            to_next_death = (next_e - wear) * live
            finishes = budget < to_next_death
            wear = np.where(finishes, wear + budget / live, next_e)
            self.wear[frames] = wear
            # A step kills byte ``dead`` (a byte tied with it dies on the
            # next iteration, in a zero-length step): every iteration
            # kills a byte or finishes the frame, so the bound suffices.
            dead = dead + ~finishes
            budget -= to_next_death
            keep = ~finishes & (budget > 0) & (dead < block_size)
            frames, budget = frames[keep], budget[keep]
            dead, wear = dead[keep], wear[keep]

    # ------------------------------------------------------------------
    def time_to_capacity(
        self,
        rates: np.ndarray,
        target_fraction: float,
        max_seconds: float,
        tolerance: float = 0.01,
    ) -> Optional[float]:
        """Seconds (at constant ``rates``) until capacity <= target.

        Returns None if the target is not reached within ``max_seconds``
        (e.g. a policy that barely writes the NVM part), so a returned
        time never exceeds ``max_seconds``.  Uses an exponential bracket
        from ``min(3600, max_seconds)`` plus bisection; every probe ages
        a clone of the wear state.
        """
        if self.effective_capacity() <= target_fraction:
            return 0.0
        if max_seconds <= 0:
            return None

        def capacity_after(dt: float) -> float:
            probe = self.clone()
            probe.advance(rates, dt)
            return probe.effective_capacity()

        lo, hi = 0.0, min(3600.0, max_seconds)
        while capacity_after(hi) > target_fraction:
            if hi >= max_seconds:
                return None
            lo, hi = hi, min(4.0 * hi, max_seconds)
        while hi - lo > tolerance * hi:
            mid = 0.5 * (lo + hi)
            if capacity_after(mid) > target_fraction:
                lo = mid
            else:
                hi = mid
        return hi

    def clone(self) -> "AgingModel":
        other = object.__new__(AgingModel)
        other.n_sets = self.n_sets
        other.nvm_ways = self.nvm_ways
        other.block_size = self.block_size
        other.granularity = self.granularity
        other.n_frames = self.n_frames
        other.endurance = self.endurance  # immutable by convention
        other.wear = self.wear.copy()
        return other
