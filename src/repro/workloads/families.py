"""The ``datacenter`` scenario family: key-value/scan service mixes.

The Table V mixes are the paper's evaluation; this family adds the
workload shapes the paper's mixes were never calibrated to exercise —
point-lookup storms over large pools, write-heavy ingest with
compressible log streams, and columnar scan analytics.  These are the
shapes the competitor policies (MAC, Mittal's SRAM-NVM management) are
designed around, and ``kv_write`` is the write-side workload of the
repo benchmark.

All targets are 4-core (the Table IV system), expressed at paper
scale, and respond to :meth:`AppProfile.scaled` like the SPEC
profiles, so every campaign scale preset applies unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .profiles import AppProfile, make_comp_weights
from .registry import WorkloadFamily, register_family
from .synthetic import _base

#: (description, per-core profile builders) per target, evaluated
#: lazily so import stays cheap.
_TargetTable = Dict[str, Tuple[str, Callable[[], List[AppProfile]]]]


#: Small-value KV payloads: short strings and counters compress well,
#: but serialisation headers keep a fat low-ratio tail.
_KV_COMP = make_comp_weights(0.45, 0.35)
#: Append-only log records: highly repetitive, near-best-case BDI.
_LOG_COMP = make_comp_weights(0.80, 0.15)
#: Columnar analytics pages: dictionary/delta-encoded already, so the
#: cache sees mostly low-ratio and incompressible lines.
_COLUMN_COMP = make_comp_weights(0.20, 0.40)


def _kv_read_core(i: int) -> AppProfile:
    """Point lookups: sparse random pool + a small hot index."""
    return _base(
        f"dc_kv_read{i}",
        rnd=0.55,
        rw=0.25,
        loop=0.10,
        stream=0.10,
        rnd_blocks=(48 + 8 * i) * 1024,
        rw_blocks=2 * 1024,
        loop_blocks=2 * 1024,
        footprint=(192 + 16 * i) * 1024,
        rw_wf=0.2,
        gap=10.0,
        comp=_KV_COMP,
    )


def _kv_write_core(i: int) -> AppProfile:
    """Ingest: hot memtable updates + an append-only log stream."""
    return _base(
        f"dc_kv_write{i}",
        rw=0.45,
        stream=0.35,
        rnd=0.15,
        loop=0.05,
        rw_blocks=(4 + i) * 1024,
        rnd_blocks=24 * 1024,
        loop_blocks=1024,
        stream_wf=0.9,
        rw_wf=0.8,
        gap=9.0,
        comp=_LOG_COMP,
    )


def _scan_core(i: int) -> AppProfile:
    """Columnar analytics: wide cyclic sweeps over encoded pages."""
    return _base(
        f"dc_scan{i}",
        scan=0.75,
        stream=0.15,
        rw=0.10,
        scan_blocks=(28 + 4 * i) * 1024,
        rw_blocks=1024,
        footprint=(224 + 16 * i) * 1024,
        gap=8.0,
        comp=_COLUMN_COMP,
    )


class DatacenterFamily(WorkloadFamily):
    name = "datacenter"
    description = (
        "key-value/scan service mixes: lookup storms, write-heavy "
        "ingest, columnar analytics"
    )
    _TARGETS: _TargetTable = {
        "kv_read": (
            "4x point-lookup storm over large KV pools",
            lambda: [_kv_read_core(i) for i in range(4)],
        ),
        "kv_write": (
            "4x write-heavy ingest with compressible log streams",
            lambda: [_kv_write_core(i) for i in range(4)],
        ),
        "scan_analytics": (
            "4x columnar scan analytics over encoded pages",
            lambda: [_scan_core(i) for i in range(4)],
        ),
        "kv_scan_mix": (
            "2 KV lookup cores co-scheduled with 2 scan cores",
            lambda: [_kv_read_core(0), _kv_read_core(1),
                     _scan_core(0), _scan_core(1)],
        ),
    }

    def targets(self) -> Tuple[str, ...]:
        return tuple(self._TARGETS)

    def _profiles(self, target: str) -> List[AppProfile]:
        return self._TARGETS[target][1]()

    def _target_description(self, target: str) -> str:
        return self._TARGETS[target][0]


register_family(DatacenterFamily())
