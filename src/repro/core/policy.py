"""Insertion-policy interface for the hybrid LLC (Sec. IV, Table III).

A policy controls four things during an LLC fill:

* ``placement`` — the ordered list of parts (SRAM / NVM / GLOBAL) to
  try for the incoming block;
* ``choose_victim`` — victim selection within a part (LRU by default,
  fit-LRU on the byte-disabled NVM part, LHybrid's loop-block-first
  rule in SRAM);
* ``handle_sram_eviction`` — whether an SRAM victim is migrated to the
  NVM part instead of being dropped (CA_RWR read-reused blocks,
  LHybrid loop-blocks);
* hit/write/epoch hooks — used by Set Dueling to tune ``CP_th``.

Policies also declare their Table III taxonomy: disabling granularity,
whether they compress, and whether they are NVM-aware.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Tuple

from ..cache.block import ReuseClass
from ..cache.cacheset import NVM, SRAM, CacheSet

if TYPE_CHECKING:  # pragma: no cover
    from ..cache.llc import EvictedBlock, HybridLLC

#: Pseudo-part used by the NVM-unaware baselines: one LRU list over all
#: ways of the set, regardless of technology.
GLOBAL = 2


class FillContext(NamedTuple):
    """Everything a policy may inspect when placing an incoming block.

    A NamedTuple rather than a frozen dataclass: one is built per LLC
    fill, and frozen-dataclass construction (object.__setattr__ per
    field) is an order of magnitude slower than tuple construction.
    """

    addr: int
    dirty: bool
    csize: int          # compressed size (CP_th compares against this)
    ecb: int            # bytes written to an NVM frame if stored there
    reuse: ReuseClass
    set_index: int


class InsertionPolicy(abc.ABC):
    """Base class for all insertion policies."""

    name: str = "abstract"
    #: Table III taxonomy
    granularity: str = "byte"      # "byte" or "frame"
    compressed: bool = True
    nvm_aware: bool = True
    #: If a policy's ``placement`` returns the same tuple for every
    #: fill, it can declare that tuple here and the LLC skips the
    #: placement call on its fill fast path.  ``placement`` must still
    #: be implemented (and agree) — it stays the canonical interface.
    static_placement: Optional[Tuple[int, ...]] = None

    def __init__(self) -> None:
        self.llc: Optional["HybridLLC"] = None

    # ------------------------------------------------------------------
    def bind(self, llc: "HybridLLC") -> None:
        """Called once by the LLC constructor."""
        self.llc = llc

    @abc.abstractmethod
    def placement(self, cache_set: CacheSet, ctx: FillContext) -> Tuple[int, ...]:
        """Ordered parts to try for this fill (earlier preferred)."""

    # ------------------------------------------------------------------
    def choose_victim(
        self, cache_set: CacheSet, part: int, ctx: FillContext
    ) -> Optional[int]:
        """Victim way within ``part`` able to hold the incoming block.

        (Fit-)LRU as a direct walk of the linked recency order, reading
        frame capacities straight from the fault-map row: this runs
        once per replacement, and a per-way ``capacity_of`` callback
        dominated the NVM-unaware baselines' runtime.
        ``HybridLLC._insert`` inlines this walk for policies that do not
        override it; LHybrid calls it for its NVM part.
        """
        assert self.llc is not None
        sram_ways = cache_set.sram_ways
        nxt = cache_set.rec_next
        sentinel = cache_set.total_ways
        way = nxt[sentinel]
        if part == SRAM:
            while way != sentinel:       # LRU-first order
                if way < sram_ways:
                    return way
                way = nxt[way]
            return None
        ecb = ctx.ecb
        row = self.llc.faultmap.rows[cache_set.index]
        if part == GLOBAL:
            block_size = self.llc.block_size
            while way != sentinel:
                cap = block_size if way < sram_ways else row[way - sram_ways]
                if cap >= ecb:
                    return way
                way = nxt[way]
            return None
        while way != sentinel:           # NVM part: fit-LRU
            if way >= sram_ways and row[way - sram_ways] >= ecb:
                return way
            way = nxt[way]
        return None

    def handle_sram_eviction(
        self, cache_set: CacheSet, victim: "EvictedBlock"
    ) -> bool:
        """Return True if the SRAM victim was migrated (consumed)."""
        return False

    # ------------------------------------------------------------------
    # runtime feedback hooks (Set Dueling)
    # ------------------------------------------------------------------
    def on_hit(self, cache_set: CacheSet, way: int, is_getx: bool) -> None:
        """Called on every LLC hit, before any invalidate-on-hit."""

    def on_nvm_write(self, set_index: int, n_bytes: int) -> None:
        """Called whenever a frame of the NVM part is written."""

    def end_epoch(self) -> None:
        """Called by the engine at each epoch boundary (Sec. IV-C)."""

    def cpth_for_set(self, set_index: int) -> Optional[int]:
        """Current compression threshold for a set, if the policy has one."""
        return None

    def current_cpth(self) -> Optional[int]:
        """The threshold follower sets currently use, if any."""
        return None

    # ------------------------------------------------------------------
    def taxonomy(self) -> Dict[str, str]:
        """Table III row for this policy."""
        return {
            "name": self.name,
            "disabling": self.granularity,
            "compression": "yes" if self.compressed else "no",
            "nvm_aware": "yes" if self.nvm_aware else "no",
        }


PolicyFactory = Callable[..., InsertionPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}


def register_policy(name: str) -> Callable[[PolicyFactory], PolicyFactory]:
    """Class decorator adding a policy to the global registry."""

    def deco(factory: PolicyFactory) -> PolicyFactory:
        if name in _REGISTRY:
            raise ValueError(f"duplicate policy name {name!r}")
        _REGISTRY[name] = factory
        return factory

    return deco


def make_policy(name: str, **kwargs) -> InsertionPolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def registered_policies() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
