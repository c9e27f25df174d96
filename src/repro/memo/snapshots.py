"""In-process post-warmup snapshot store, kept only for perfbench.

No simulation path uses this store any more.  ``run_one`` and the
forecaster once deep-copied every warmed simulation into it in case
an identical ``(config, policy, workload, warmup)`` prefix recurred.
The paper's sweeps warm each cell once, so the smoke figure suite hit
it twice in 222 lookups and the benchmark workloads never did;
dropping the copies cut the median wall time of perfbench's
``matrix`` workload by 28 % on a 2-vCPU host.

The names stay until the benchmark stops importing them: perfbench
resets the shared store before every run and reads its
``hits``/``misses``, and its tracer wraps :func:`warm_prefix_key`.
``tests/test_snapshot.py`` still pins the key and the LRU.

Keys cover the full system config, the policy's pre-bind state, the
workload identity (profiles, seed, trace lengths), the warmup horizon
and any preloaded fault-map capacities — flipping any of them changes
the key.  No code version enters the key: an in-process store cannot
outlive the code that filled it.  Anything un-canonicalisable in a
policy yields no key (``None``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import types
from collections import OrderedDict
from typing import Any, List, NamedTuple, Optional, Tuple

from ..manifest import canonical_json

DEFAULT_SLOTS = 4

#: Schema tag stored on every entry (the in-memory analogue of the
#: ``repro-blob/1`` envelope's schema field).  Bump when
#: ``SimulationSnapshot``'s shape changes: a store populated by an
#: older definition — possible when workers fork after a hot code
#: reload — then serves misses instead of incompatible state.
SNAPSHOT_SCHEMA = "repro-snapshot/1"


class _Unfreezable(TypeError):
    """Raised when a value cannot be canonicalised into a key."""


def _freeze(value: Any) -> Any:
    """Canonical, JSON-renderable form of config/policy state.

    Handles the types that actually occur in configs and policy
    instances (primitives, containers, dataclasses, enums, plain
    objects with ``__dict__``); anything else raises, which callers
    turn into "no key, no caching" rather than a wrong key.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__qualname__, "name": value.name}
    if isinstance(value, (list, tuple)):
        return [_freeze(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(_freeze(v) for v in value)}
    if isinstance(value, dict):
        return {
            "__dict__": sorted(
                (str(k), _freeze(v)) for k, v in value.items()
            )
        }
    if isinstance(
        value,
        (types.FunctionType, types.MethodType, types.BuiltinFunctionType),
    ) or isinstance(value, type):
        # Two distinct callables would both freeze to an empty
        # ``__dict__`` state — an identical key for different
        # behaviour.  Refuse instead; the caller opts out of caching.
        raise _Unfreezable(f"cannot canonicalise callable {value!r}")
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dc__": type(value).__qualname__,
            "fields": sorted(
                (f.name, _freeze(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        }
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__obj__": type(value).__qualname__,
            "state": sorted((str(k), _freeze(v)) for k, v in state.items()),
        }
    raise _Unfreezable(f"cannot canonicalise {type(value).__qualname__}")


def warm_prefix_key(
    config: Any,
    policy: Any,
    workload: Any,
    warmup_cycles: float,
    capacities: Any = None,
) -> Optional[str]:
    """Content key of a warmup prefix, or None if not cacheable.

    ``policy`` must be *pre-run* (fresh from ``make_policy``): its
    instance state at construction, together with the config, fully
    determines its bound state — binding and dueling assignment are
    deterministic functions of (policy args, geometry).
    """
    if capacities is None:
        cap_digest = None
    else:
        try:
            raw = capacities.tobytes()
            shape = list(getattr(capacities, "shape", ()))
        except AttributeError:
            return None
        cap_digest = {
            "sha256": hashlib.sha256(raw).hexdigest(),
            "shape": shape,
        }
    try:
        state = {
            k: v for k, v in vars(policy).items() if k not in ("llc", "controller")
        }
        blob = canonical_json(
            {
                "config": _freeze(config),
                "policy": {"name": policy.name, "state": _freeze(state)},
                "workload": {
                    "profiles": [_freeze(p) for p in workload.profiles],
                    "seed": workload.seed,
                    "records": [len(t) for t in workload.traces],
                },
                "warmup_cycles": float(warmup_cycles).hex(),
                "capacities": cap_digest,
            }
        )
    except (_Unfreezable, AttributeError, TypeError):
        return None
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SnapshotEntry(NamedTuple):
    """A warmed snapshot plus the epoch records its warmup emitted."""

    snapshot: Any
    epochs: Tuple[Any, ...]
    schema: str = SNAPSHOT_SCHEMA


class SnapshotStore:
    """Bounded in-memory LRU of warmed simulation snapshots."""

    def __init__(self, capacity: int = DEFAULT_SLOTS) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Entries dropped for carrying a stale schema tag.
        self.schema_drops = 0
        self._entries: "OrderedDict[str, SnapshotEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[SnapshotEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.schema != SNAPSHOT_SCHEMA:
            del self._entries[key]
            self.schema_drops += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, snapshot: Any, epochs: List[Any]) -> None:
        self._entries[key] = SnapshotEntry(snapshot, tuple(epochs))
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


_shared_store: Optional[SnapshotStore] = None


def shared_snapshot_store() -> SnapshotStore:
    """The process-wide store, created on first use."""
    global _shared_store
    if _shared_store is None:
        _shared_store = SnapshotStore()
    return _shared_store


def reset_shared_snapshot_store() -> None:
    """Drop the process-wide store (tests, or to release memory)."""
    global _shared_store
    _shared_store = None
