"""The ``datacenter:`` workloads: key-value/scan service mixes.

The Table V mixes are the paper's evaluation; these add the workload
shapes the paper's mixes were never calibrated to exercise —
point-lookup storms over large pools, write-heavy ingest with
compressible log streams, and columnar scan analytics.  These are the
shapes the competitor policies (MAC, Mittal's SRAM-NVM management) are
designed around, and ``kv_write`` is the write-side workload of the
repo benchmark.

All targets are 4-core (the Table IV system), expressed at paper
scale, and respond to :meth:`AppProfile.scaled` like the SPEC
profiles, so every campaign scale preset applies unchanged.
:data:`DATACENTER` joins the workload table
(:data:`repro.workloads.mixes.WORKLOADS`) as ``datacenter:<target>``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .profiles import AppProfile, make_comp_weights
from .synthetic import _base

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


#: Target -> (description, per-core profiles at paper scale).
DATACENTER: Dict[str, Tuple[str, Tuple[AppProfile, ...]]] = {
    "kv_read": (
        "4x point-lookup storm over large KV pools",
        tuple(_kv_read_core(i) for i in range(4)),
    ),
    "kv_write": (
        "4x write-heavy ingest with compressible log streams",
        tuple(_kv_write_core(i) for i in range(4)),
    ),
    "scan_analytics": (
        "4x columnar scan analytics over encoded pages",
        tuple(_scan_core(i) for i in range(4)),
    ),
    "kv_scan_mix": (
        "2 KV lookup cores co-scheduled with 2 scan cores",
        (_kv_read_core(0), _kv_read_core(1), _scan_core(0), _scan_core(1)),
    ),
}
