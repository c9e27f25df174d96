"""Trace record types and replay storage.

A trace is a sequence of ``(gap, block_addr, is_write)`` records: the
number of non-memory instructions since the previous access, the
block-aligned address (already shifted by log2(64)), and the access
type.  Generators yield records lazily; a :class:`MaterializedTrace`
freezes a prefix so the *same* reference stream can be replayed
against many policies (the per-figure sweeps depend on this).

Storage is columnar: three flat parallel arrays (``array('Q')`` gaps,
``array('Q')`` addresses, ``bytearray`` write flags) indexed by a
cursor.  The engine's burst loop replays by plain index into
:meth:`MaterializedTrace.replay_columns` — no generator resumption, no
per-record tuple unpacking — and wraps the cursor to replay the trace
cyclically.  ``records`` is a record-tuple view for code that wants
tuples.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, NamedTuple, Sequence, Tuple

#: Address bits reserved per core: app address spaces are disjoint,
#: mirroring multi-programmed (no-sharing) SPEC mixes.
CORE_ADDR_SHIFT = 28


class TraceRecord(NamedTuple):
    gap: int
    addr: int
    is_write: bool


#: Replay view: (gaps, addrs, writes) as plain Python lists — list
#: indexing returns cached references instead of materialising a new
#: int per access the way ``array`` subscripting does.
ReplayColumns = Tuple[List[int], List[int], List[bool]]


class MaterializedTrace:
    """A finite trace replayed cyclically (the workload loops forever)."""

    __slots__ = ("gaps", "addrs", "writes", "_replay")

    def __init__(self, records: Sequence[TraceRecord]) -> None:
        if not records:
            raise ValueError("empty trace")
        gaps = array("Q")
        addrs = array("Q")
        writes = bytearray()
        for gap, addr, is_write in records:
            gaps.append(gap)
            addrs.append(addr)
            writes.append(1 if is_write else 0)
        self.gaps = gaps
        self.addrs = addrs
        self.writes = writes
        self._replay: Tuple[ReplayColumns, ...] = ()

    @classmethod
    def from_columns(cls, gaps, addrs, writes) -> "MaterializedTrace":
        """Adopt pre-built ``array('Q')`` gap/address columns and a
        ``bytearray`` of write flags (no copy, no per-record
        validation)."""
        if not (len(gaps) == len(addrs) == len(writes)):
            raise ValueError("column length mismatch")
        if not len(addrs):
            raise ValueError("empty trace")
        trace = cls.__new__(cls)
        trace.gaps = gaps
        trace.addrs = addrs
        trace.writes = writes
        trace._replay = ()
        return trace

    def __len__(self) -> int:
        return len(self.addrs)

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[TraceRecord]:
        """Record-tuple view (compatibility; built on demand)."""
        return [
            TraceRecord(gap, addr, bool(write))
            for gap, addr, write in zip(self.gaps, self.addrs, self.writes)
        ]

    def replay_columns(self) -> ReplayColumns:
        """(gaps, addrs, writes) as lists, cached across simulations."""
        if not self._replay:
            self._replay = (
                (
                    self.gaps.tolist(),
                    self.addrs.tolist(),
                    [w != 0 for w in self.writes],
                ),
            )
        return self._replay[0]

    # ------------------------------------------------------------------
    def footprint(self) -> int:
        return len(set(self.addrs))

    def write_fraction(self) -> float:
        return sum(self.writes) / len(self.writes)


def materialize(source: Iterable[TraceRecord], n_records: int) -> MaterializedTrace:
    """Capture the first ``n_records`` records of a generator."""
    gaps = array("Q")
    addrs = array("Q")
    writes = bytearray()
    it = iter(source)
    for _ in range(n_records):
        gap, addr, is_write = next(it)
        gaps.append(gap)
        addrs.append(addr)
        writes.append(1 if is_write else 0)
    return MaterializedTrace.from_columns(gaps, addrs, writes)
