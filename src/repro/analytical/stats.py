"""Workload statistics for the analytical estimator.

Everything the closed-form model needs is extracted here, once per
workload, from the already-materialised traces and the data model's
compressed sizes:

* a **reuse-distance histogram** per core (Mattson stack distances,
  computed with a Fenwick tree in O(N log N)), bucketed geometrically
  and jointly classified by

* **reuse class** — the address-level approximation of the LLC's
  READ/WRITE/NONE reuse metadata (an address whose beyond-L2 reuse
  repeats is READ-reused, WRITE-reused if it is ever written), and

* **compressed size** — the (csize, ECB) the data model assigns the
  address, traffic-weighted.

Traces replay cyclically, so distances are measured over two
concatenated passes: pass-1 first touches are genuine cold misses
while pass-2 records the wrapped steady-state distances a multi-epoch
simulation spends most of its time in.

The result is cached on the workload instance (keyed by the reuse
threshold), so a sweep evaluating thousands of policies pays the
extraction exactly once per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: Reuse classes (mirrors repro.cache.block.ReuseClass semantics).
CLASS_NONE, CLASS_READ, CLASS_WRITE = 0, 1, 2
N_CLASSES = 3

#: Geometric reuse-distance bucket ratio: 4 buckets per octave keeps
#: capacity interpolation within a few percent of exact distances.
_BUCKETS_PER_OCTAVE = 4

_STATS_CACHE_ATTR = "_analytical_stats_cache"


def _bucket_edges(max_rd: int) -> np.ndarray:
    """Sorted unique lower bucket bounds covering 1 .. max_rd."""
    edges = {0}
    k = 0
    while True:
        e = int(round(2.0 ** (k / _BUCKETS_PER_OCTAVE)))
        edges.add(e)
        if e > max_rd:
            break
        k += 1
    return np.array(sorted(edges), dtype=np.float64)


def _reuse_distances(addrs: Sequence[int], passes: int = 2) -> np.ndarray:
    """Stack (reuse) distance of every access over ``passes`` cyclic
    replays of the trace; first touches get -1 (cold).

    Classic Fenwick-tree Mattson algorithm: positions of *last*
    occurrences are marked in a BIT, the distance of an access is the
    number of marked positions since its previous occurrence.
    """
    n = len(addrs)
    total = n * passes
    tree = [0] * (total + 1)
    last_pos: Dict[int, int] = {}
    out = np.empty(total, dtype=np.float64)

    for i in range(total):
        addr = addrs[i % n]
        prev = last_pos.get(addr)
        if prev is None:
            out[i] = -1.0
        else:
            # distinct addresses touched strictly between prev and i
            acc = 0
            j = i
            while j > 0:
                acc += tree[j]
                j -= j & -j
            j = prev + 1
            while j > 0:
                acc -= tree[j]
                j -= j & -j
            out[i] = float(acc)
            # unmark the previous occurrence
            j = prev + 1
            while j <= total:
                tree[j] -= 1
                j += j & -j
        # mark this occurrence as the newest
        j = i + 1
        while j <= total:
            tree[j] += 1
            j += j & -j
        last_pos[addr] = i
    return out


@dataclass
class CoreStatistics:
    """One core's joint (reuse-distance x class x csize) histogram."""

    core: int
    n_accesses: int          # histogram mass (trace records x passes)
    gap_mean: float
    write_fraction: float
    footprint_blocks: int
    edges: np.ndarray        # (B,) bucket lower bounds, ascending
    counts: np.ndarray       # (N_CLASSES, S, B) access counts
    write_counts: np.ndarray  # same shape, write accesses only
    cold: np.ndarray         # (N_CLASSES, S) first-touch accesses
    blocks: np.ndarray       # (N_CLASSES, S) distinct addresses per cell
    sizes: np.ndarray        # (S,) distinct compressed sizes
    ecbs: np.ndarray         # (S,) ECB bytes charged per size

    # ------------------------------------------------------------------
    def below(self, counts: np.ndarray, capacity: float) -> np.ndarray:
        """Per-cell traffic with reuse distance < ``capacity`` blocks.

        ``counts`` is any (..., B) view of the histogram; the
        straddled bucket is linearly interpolated.
        """
        edges = self.edges
        if capacity <= edges[0]:
            return np.zeros(counts.shape[:-1])
        idx = int(np.searchsorted(edges, capacity, side="right")) - 1
        full = counts[..., :idx].sum(axis=-1)
        if idx + 1 < len(edges):
            lo, hi = edges[idx], edges[idx + 1]
            frac = (capacity - lo) / (hi - lo)
            return full + counts[..., idx] * frac
        return full + counts[..., idx]


@dataclass
class WorkloadStatistics:
    """Per-core statistics of one workload (see module docstring)."""

    cores: List[CoreStatistics]
    reuse_threshold_blocks: int
    reach_blocks: int
    passes: int
    #: The workload family these statistics were extracted from
    #: (provenance: estimator validation reports group by family).
    family: str = "synthetic"

    @property
    def n_cores(self) -> int:
        return len(self.cores)


def _extract_core(
    trace, data_model, core: int, reuse_threshold: int, reach: int,
    passes: int, rds: np.ndarray,
) -> CoreStatistics:
    gaps, addrs, writes = trace.replay_columns()
    n = len(addrs)

    addr_arr = np.asarray(addrs, dtype=np.int64)
    write_arr = np.asarray(writes, dtype=bool)
    addr_rep = np.tile(addr_arr, passes)
    write_rep = np.tile(write_arr, passes)

    # -- address-level reuse classification ---------------------------
    # The LLC can only classify reuse it *observes*: a block acquires
    # READ/WRITE metadata on an LLC hit, which needs its reuse
    # distance to land beyond the private caches but within the LLC's
    # reach.  Reuse that stays private (rd < threshold) or overshoots
    # the reach misses and teaches the LLC nothing — those addresses
    # keep inserting as NONE.  WRITE if the block is ever written
    # (dirty spills / GetX hits mark it), READ otherwise.
    uniq, inv = np.unique(addr_rep, return_inverse=True)
    observable = (rds >= reuse_threshold) & (rds < reuse_threshold + reach)
    vis_count = np.bincount(inv, weights=observable.astype(np.float64),
                            minlength=len(uniq))
    written = np.bincount(inv, weights=write_rep.astype(np.float64),
                          minlength=len(uniq)) > 0
    addr_class = np.full(len(uniq), CLASS_NONE, dtype=np.int64)
    reused = vis_count >= 1
    addr_class[reused & written] = CLASS_WRITE
    addr_class[reused & ~written] = CLASS_READ

    # -- compressed sizes ---------------------------------------------
    size_fn = data_model.size_fn
    pairs = [size_fn(int(a)) for a in uniq]
    csize_of = np.array([p[0] for p in pairs], dtype=np.int64)
    ecb_of = np.array([p[1] for p in pairs], dtype=np.int64)
    sizes, size_inv = np.unique(csize_of, return_inverse=True)
    ecbs = np.zeros(len(sizes), dtype=np.int64)
    ecbs[size_inv] = ecb_of

    # -- joint histogram ----------------------------------------------
    edges = _bucket_edges(max(1, n))
    n_buckets = len(edges)
    cls = addr_class[inv]
    sz = size_inv[inv]
    cold = rds < 0
    bucket = np.searchsorted(edges, rds, side="right") - 1
    key = (cls * len(sizes) + sz) * n_buckets + np.clip(bucket, 0, None)

    warm = ~cold
    counts = np.bincount(
        key[warm], minlength=N_CLASSES * len(sizes) * n_buckets
    ).reshape(N_CLASSES, len(sizes), n_buckets).astype(np.float64)
    write_counts = np.bincount(
        key[warm & write_rep], minlength=N_CLASSES * len(sizes) * n_buckets
    ).reshape(N_CLASSES, len(sizes), n_buckets).astype(np.float64)
    cold_key = cls[cold] * len(sizes) + sz[cold]
    cold_counts = np.bincount(
        cold_key, minlength=N_CLASSES * len(sizes)
    ).reshape(N_CLASSES, len(sizes)).astype(np.float64)
    block_key = addr_class * len(sizes) + size_inv
    block_counts = np.bincount(
        block_key, minlength=N_CLASSES * len(sizes)
    ).reshape(N_CLASSES, len(sizes)).astype(np.float64)

    return CoreStatistics(
        core=core,
        n_accesses=n * passes,
        gap_mean=float(np.mean(np.asarray(gaps, dtype=np.float64))),
        write_fraction=float(write_arr.mean()),
        footprint_blocks=len(uniq),
        edges=edges,
        counts=counts,
        write_counts=write_counts,
        cold=cold_counts,
        blocks=block_counts,
        sizes=sizes,
        ecbs=ecbs,
    )


def workload_statistics(
    workload, reuse_threshold_blocks: int, reach_blocks: int,
    passes: int = 2,
) -> WorkloadStatistics:
    """Extract (or recall) the analytical statistics of a workload.

    ``reuse_threshold_blocks`` is the private-cache capacity in blocks
    (L1 + L2): reuse below it never reaches the LLC.  ``reach_blocks``
    is how far beyond that the LLC can observe (and hence classify)
    reuse — the capacity a policy lets *unqualified* blocks occupy,
    which is why LHybrid/TAP classify through an SRAM-sized window
    while the CA family sees the whole cache.  Cached per workload
    instance and parameter tuple — sweeps pay the O(N log N)
    extraction once per variant.
    """
    cache: Dict[Tuple[int, ...], Any]
    cache = getattr(workload, _STATS_CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(workload, _STATS_CACHE_ATTR, cache)
    key = (int(reuse_threshold_blocks), int(reach_blocks), int(passes))
    stats = cache.get(key)
    if stats is None:
        # The O(N log N) distance computation dominates extraction and
        # is independent of the classification window — memo it per
        # (core, passes) so reach variants share one Fenwick pass.
        core_rds: List[np.ndarray] = []
        for core, trace in enumerate(workload.traces):
            rd_key = ("rd", core, int(passes))
            rds = cache.get(rd_key)
            if rds is None:
                _g, addrs, _w = trace.replay_columns()
                rds = _reuse_distances(addrs, passes=passes)
                cache[rd_key] = rds
            core_rds.append(rds)
        stats = WorkloadStatistics(
            cores=[
                _extract_core(trace, workload.data_model, core,
                              reuse_threshold_blocks, reach_blocks,
                              passes, core_rds[core])
                for core, trace in enumerate(workload.traces)
            ],
            reuse_threshold_blocks=int(reuse_threshold_blocks),
            reach_blocks=int(reach_blocks),
            passes=int(passes),
            family=getattr(workload, "family", "synthetic"),
        )
        cache[key] = stats
    return stats
