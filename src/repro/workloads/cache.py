"""Workload caching: stop regenerating identical inputs.

Synthetic trace generation is pure — the records depend only on the
profile's fields, the owning core, the seed and the record count — so
the same trace would otherwise be rebuilt from scratch by every
simulation, sweep point and campaign task that asks for it.  The
in-process :class:`WorkloadCache` removes that waste without ever
changing a byte of what the engine replays: it is a small LRU keyed by
the workload reference, the exact
:class:`~repro.workloads.profiles.AppProfile` tuples (frozen
dataclasses, so the key *is* the generator input), seed and record
count.  :meth:`repro.experiments.common.ExperimentScale.workload`
routes through the shared instance, so a sweep that runs seven
policies over one mix builds the workload once, not seven times, and a
campaign's pool worker builds each workload once for all the tasks it
runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Sequence, Tuple, TypeVar

from .generator import AppTraceGenerator
from .profiles import AppProfile
from .trace import MaterializedTrace, materialize


def load_or_materialize(
    profile: AppProfile, core: int, seed: int, n_records: int
) -> MaterializedTrace:
    """Generate the first ``n_records`` records of one core's trace.

    A function of its own so that per-layer tracing
    (``perfbench/layers.py``) can time trace generation apart from the
    rest of a workload build.
    """
    return materialize(AppTraceGenerator(profile, core, seed=seed), n_records)


WorkloadKey = Tuple[str, Tuple[AppProfile, ...], int, int]
W = TypeVar("W")


class WorkloadCache:
    """Small in-process LRU of built workloads.

    Keys are ``(ref, profiles, seed, trace_records_per_core)`` —
    profiles are frozen dataclasses, so equal keys mean byte-identical
    traces, and ``ref`` (the workload reference) keeps two references
    whose profiles collide from sharing one entry and so one
    provenance stamp.  Sharing a
    built workload across runs is safe because simulations never
    mutate it: the only state that grows is the data model's size
    memo, whose entries are a pure function of (address, seed) and are
    fully prefetched at construction anyway.

    The cache is deliberately generic over the built value (a
    ``builder`` callable supplies it on miss) so this module does not
    import :class:`repro.engine.Workload` and create an import cycle.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[WorkloadKey, object]" = OrderedDict()

    def get(
        self,
        ref: str,
        profiles: Sequence[AppProfile],
        seed: int,
        trace_records_per_core: int,
        builder: Callable[[], W],
    ) -> W:
        """Return the cached workload for the key, building on miss."""
        key: WorkloadKey = (ref, tuple(profiles), seed, trace_records_per_core)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry  # type: ignore[return-value]
        self.misses += 1
        built = builder()
        self._entries[key] = built
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return built

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide workload cache used by ``ExperimentScale.workload``.
SHARED_WORKLOAD_CACHE = WorkloadCache()
