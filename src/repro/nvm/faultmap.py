"""Byte-level fault map for the NVM part of the hybrid LLC (Sec. III-B).

Each NVM frame carries a fault-map entry recording which of its bytes
are hard-faulty.  The cache controller only needs the *effective
capacity* (count of live bytes) to run fit-LRU replacement, so the hot
path exposes a dense integer capacity array; the full per-byte mask is
materialised lazily for the rearrangement circuitry and for tests.

Two disabling granularities are supported (Table III):

* ``byte`` — a faulty byte is retired, the rest of the frame remains
  usable for compressed blocks (BH_CP, CP_SD*).
* ``frame`` — the first fault disables the whole frame (BH, LHybrid,
  TAP, following [7], [46]).

Hot-path note: the authoritative storage is the numpy ``capacities``
array (bulk aging updates, vectorised queries), but scalar indexing
into a numpy array boxes a fresh ``np.int16`` per call — measurably
slow at one lookup per LLC insertion attempt.  ``rows`` mirrors the
array as a plain list of per-set lists of Python ints and is kept in
sync by every mutator; the LLC replacement loop reads only ``rows``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

GRANULARITIES = ("byte", "frame")


class FaultMap:
    """Fault state of every NVM frame in the LLC.

    Frames are addressed by ``(set_index, nvm_way)`` where ``nvm_way``
    counts from 0 within the NVM part.  ``capacities[s, w]`` is the
    number of live bytes of that frame (0..block_size); a frame-
    disabled map only ever holds ``block_size`` or 0.
    """

    def __init__(
        self,
        n_sets: int,
        nvm_ways: int,
        block_size: int = 64,
        granularity: str = "byte",
    ) -> None:
        if granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if n_sets <= 0 or nvm_ways < 0:
            raise ValueError("bad fault-map geometry")
        self.n_sets = n_sets
        self.nvm_ways = nvm_ways
        self.block_size = block_size
        self.granularity = granularity
        self.capacities = np.full((n_sets, nvm_ways), block_size, dtype=np.int16)
        self.rows: List[List[int]] = [
            [block_size] * nvm_ways for _ in range(n_sets)
        ]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def capacity(self, set_index: int, nvm_way: int) -> int:
        """Live bytes of one frame."""
        return int(self.capacities[set_index, nvm_way])

    def is_frame_dead(self, set_index: int, nvm_way: int, min_bytes: int = 1) -> bool:
        return self.capacity(set_index, nvm_way) < min_bytes

    @property
    def total_bytes(self) -> int:
        return self.n_sets * self.nvm_ways * self.block_size

    def alive_bytes(self) -> int:
        return int(self.capacities.sum())

    def effective_capacity_fraction(self) -> float:
        """Fraction of the original NVM byte capacity still usable.

        This is the paper's "effective capacity" axis: the forecast
        runs until it drops to 0.5 (Sec. V-A).
        """
        if self.total_bytes == 0:
            return 0.0
        return self.alive_bytes() / self.total_bytes

    def dead_frame_fraction(self) -> float:
        if self.capacities.size == 0:
            return 0.0
        return float((self.capacities == 0).mean())

    # ------------------------------------------------------------------
    # mutation (driven by the aging model / fault injection)
    # ------------------------------------------------------------------
    def set_capacity(self, set_index: int, nvm_way: int, capacity: int) -> None:
        if not 0 <= capacity <= self.block_size:
            raise ValueError(f"capacity {capacity} out of range")
        if self.granularity == "frame" and 0 < capacity < self.block_size:
            capacity = 0  # any fault kills a frame-disabled frame
        self.capacities[set_index, nvm_way] = capacity
        self.rows[set_index][nvm_way] = capacity

    def kill_bytes(self, set_index: int, nvm_way: int, n_bytes: int = 1) -> int:
        """Retire ``n_bytes`` of a frame; returns the new capacity."""
        cap = self.capacity(set_index, nvm_way)
        new_cap = max(0, cap - n_bytes)
        self.set_capacity(set_index, nvm_way, new_cap)
        return self.capacity(set_index, nvm_way)

    def disable_frame(self, set_index: int, nvm_way: int) -> None:
        self.capacities[set_index, nvm_way] = 0
        self.rows[set_index][nvm_way] = 0

    def load_capacities(self, capacities: np.ndarray) -> None:
        """Bulk-update from the aging model (one forecast step)."""
        if capacities.shape != self.capacities.shape:
            raise ValueError(
                f"shape {capacities.shape} != {self.capacities.shape}"
            )
        if self.granularity == "frame":
            capacities = np.where(capacities >= self.block_size, self.block_size, 0)
        np.copyto(self.capacities, capacities.astype(np.int16))
        self.rows = self.capacities.tolist()

    # ------------------------------------------------------------------
    # per-byte view (rearrangement circuitry, tests)
    # ------------------------------------------------------------------
    def byte_mask(
        self, set_index: int, nvm_way: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """A concrete per-byte liveness mask consistent with capacity.

        The aging model only tracks capacities (wear leveling makes
        byte identity irrelevant); when a caller needs actual byte
        positions — e.g. to exercise the rearrangement crossbar — dead
        bytes are assigned pseudo-randomly but deterministically per
        frame unless an ``rng`` is supplied.
        """
        cap = self.capacity(set_index, nvm_way)
        mask = np.ones(self.block_size, dtype=bool)
        n_dead = self.block_size - cap
        if n_dead == 0:
            return mask
        if rng is None:
            seed = (set_index * 0x9E3779B1 + nvm_way * 0x85EBCA77) & 0xFFFFFFFF
            rng = np.random.default_rng(seed)
        dead = rng.choice(self.block_size, size=n_dead, replace=False)
        mask[dead] = False
        return mask

    def iter_frames(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(set_index, nvm_way, capacity)`` for every frame."""
        for s in range(self.n_sets):
            for w in range(self.nvm_ways):
                yield s, w, int(self.capacities[s, w])

    def clone(self) -> "FaultMap":
        other = FaultMap(self.n_sets, self.nvm_ways, self.block_size, self.granularity)
        np.copyto(other.capacities, self.capacities)
        other.rows = self.capacities.tolist()
        return other
