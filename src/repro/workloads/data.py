"""Block data model: per-address payloads with profile compressibility.

Every block address is owned by exactly one application (the address
slice encodes the core).  The model assigns each address a compressed
size drawn — deterministically, keyed by the address — from the app's
Fig. 2-calibrated size distribution, and can materialise real 64-byte
payloads that the BDI compressor verifiably compresses to that size.

Compressibility is *region-aware*: structured data (the loop/scan/rw
regions — numeric arrays, stencil grids, small-integer tables)
compresses noticeably better than the streaming/pointer-pool remainder
of the footprint, as in real workloads.  The split is solved so that
the app's *traffic-weighted* aggregate still matches its Fig. 2
HCR/LCR/incompressible fractions.

The hot path is :meth:`size_fn`, which the LLC calls on every fill;
results are memoised per address, and a block keeps its size class for
its lifetime (data regions retain their compressibility — the paper
measures per-application class fractions, not per-write churn).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from ..compression.encodings import BLOCK_SIZE, ecb_size
from ..compression.patterns import PatternLibrary
from .profiles import AppProfile
from .trace import CORE_ADDR_SHIFT

#: How much more compressible structured (hot-region) data is, before
#: re-normalising so the app aggregate stays on its Fig. 2 split.
HOT_COMPRESSIBILITY_BOOST = 1.6

_ADDR_MASK = (1 << CORE_ADDR_SHIFT) - 1

Cdf = Tuple[List[float], List[int]]


def _split_compressibility(profile: AppProfile) -> Tuple[float, float]:
    """Compressible fractions (hot, cold) preserving the aggregate."""
    c = 1.0 - profile.incompressible_fraction
    w_hot = profile.hot_traffic_fraction
    w_cold = 1.0 - w_hot
    if c <= 0.0:
        return 0.0, 0.0
    if w_cold <= 1e-9:
        return c, c
    c_hot = min(1.0, c * HOT_COMPRESSIBILITY_BOOST)
    c_cold = (c - w_hot * c_hot) / w_cold
    if c_cold < 0.0:
        c_cold = 0.0
        c_hot = min(1.0, c / max(w_hot, 1e-9))
    return c_hot, c_cold


def _build_cdf(profile: AppProfile, compressible_fraction: float) -> Cdf:
    """CDF over compressed sizes with a rescaled incompressible share."""
    comp = [(s, w) for s, w in profile.comp_weights if s < BLOCK_SIZE]
    comp_total = sum(w for _s, w in comp)
    cum: List[float] = []
    sizes: List[int] = []
    acc = 0.0
    if comp and comp_total > 0 and compressible_fraction > 0:
        for size, weight in comp:
            acc += compressible_fraction * weight / comp_total
            cum.append(min(acc, 1.0))
            sizes.append(size)
    if acc < 1.0 - 1e-9 or not sizes:
        cum.append(1.0)
        sizes.append(BLOCK_SIZE)
    cum[-1] = 1.0
    return cum, sizes


class DataModel:
    """Compressibility oracle for a multi-programmed workload."""

    def __init__(
        self, profiles: Sequence[AppProfile], seed: int = 0, pool_size: int = 32
    ) -> None:
        if not profiles:
            raise ValueError("need at least one application profile")
        self.profiles = list(profiles)
        self.seed = seed
        self._sizes: Dict[int, Tuple[int, int]] = {}
        self._library = PatternLibrary(seed=seed ^ 0x5EED, pool_size=pool_size)
        self._hot_cdf: List[Cdf] = []
        self._cold_cdf: List[Cdf] = []
        self._hot_bound: List[int] = []
        for prof in self.profiles:
            c_hot, c_cold = _split_compressibility(prof)
            self._hot_cdf.append(_build_cdf(prof, c_hot))
            self._cold_cdf.append(_build_cdf(prof, c_cold))
            self._hot_bound.append(prof.hot_region_blocks)

    # ------------------------------------------------------------------
    def _draw_size(self, addr: int) -> int:
        core = addr >> CORE_ADDR_SHIFT
        if core >= len(self.profiles):
            raise ValueError(f"address {addr:#x} belongs to unknown core {core}")
        if (addr & _ADDR_MASK) < self._hot_bound[core]:
            cum, sizes = self._hot_cdf[core]
        else:
            cum, sizes = self._cold_cdf[core]
        u = random.Random((addr << 8) ^ self.seed).random()
        return sizes[bisect_left(cum, u)]

    def size_fn(self, addr: int) -> Tuple[int, int]:
        """(compressed size, ECB size) of the block at ``addr``."""
        entry = self._sizes.get(addr)
        if entry is None:
            csize = self._draw_size(addr)
            entry = (csize, ecb_size(csize))
            self._sizes[addr] = entry
        return entry

    def compressed_size(self, addr: int) -> int:
        return self.size_fn(addr)[0]

    def prefetch_sizes(self, addrs) -> None:
        """Warm the size memo for ``addrs`` (any iterable of block
        addresses).

        Drawing a size seeds a fresh :class:`random.Random` per new
        address — cheap once, but when it happens lazily the whole cost
        lands inside the first *compressed-policy* simulation replaying
        a trace.  Warming at workload-build time moves it to where it
        belongs; the draws themselves are unchanged (pure function of
        address and seed).
        """
        sizes = self._sizes
        draw = self._draw_size
        for addr in addrs:
            if addr not in sizes:
                csize = draw(addr)
                sizes[addr] = (csize, ecb_size(csize))

    # ------------------------------------------------------------------
    def block_bytes(self, addr: int) -> bytes:
        """A concrete 64-byte payload matching the address's size class."""
        csize, _ecb = self.size_fn(addr)
        return self._library.block_for_size(csize, choice=addr)

    def size_fn_for(self, compressor) -> "SizeFnForCompressor":
        """A size oracle that runs a *real* compressor on the payloads.

        The policies are orthogonal to the compression mechanism
        (Sec. II-B); this lets an experiment swap modified BDI for any
        :class:`~repro.compression.base.Compressor` (e.g. FPC) while
        replaying identical reference streams and payloads.
        """
        return SizeFnForCompressor(self, compressor)

    def known_blocks(self) -> int:
        return len(self._sizes)


class SizeFnForCompressor:
    """Memoised ``addr -> (csize, ecb)`` through an arbitrary compressor."""

    def __init__(self, model: DataModel, compressor) -> None:
        self.model = model
        self.compressor = compressor
        self._cache: Dict[int, Tuple[int, int]] = {}

    def __call__(self, addr: int) -> Tuple[int, int]:
        entry = self._cache.get(addr)
        if entry is None:
            block = self.model.block_bytes(addr)
            result = self.compressor.compress(block)
            entry = (result.size, result.ecb_size)
            self._cache[addr] = entry
        return entry
