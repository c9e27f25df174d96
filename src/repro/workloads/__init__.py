"""Workloads: a registry of families (synthetic, scenario, external).

The registry (:mod:`repro.workloads.registry`) is the front door:
families are looked up by name, targets by ``family:target``
references, and :func:`build_workload` turns a reference into a
ready-to-simulate :class:`~repro.engine.Workload`.  Registered
families: ``synthetic`` (the paper's Table V mixes), ``datacenter`` /
``phase`` / ``adversarial`` (scenario families,
:mod:`repro.workloads.families`), and ``external`` (imported traces,
:mod:`repro.workloads.external`).  The synthetic family's profile
library, mixes and profile builders live in their own submodules
(:mod:`.profiles`, :mod:`.mixes`, :mod:`.synthetic`).
"""

from .data import DataModel
from .generator import AppTraceGenerator
from .registry import (
    DEFAULT_FAMILY,
    SyntheticProfileFamily,
    TargetSpec,
    WorkloadFamily,
    WorkloadRefError,
    build_workload,
    family_names,
    get_family,
    normalize_workload_ref,
    parse_workload_ref,
    register_family,
    resolve_workload_ref,
    workload_ref_fingerprint,
    workload_refs,
)
from .trace import CORE_ADDR_SHIFT, MaterializedTrace, TraceRecord, materialize
from .traceio import (
    TraceFormatError,
    file_sha256,
    load_trace,
    load_trace_csv,
    save_trace,
    save_trace_csv,
    validate_trace,
)

__all__ = [
    "AppTraceGenerator",
    "CORE_ADDR_SHIFT",
    "DEFAULT_FAMILY",
    "DataModel",
    "MaterializedTrace",
    "SyntheticProfileFamily",
    "TargetSpec",
    "TraceFormatError",
    "TraceRecord",
    "WorkloadFamily",
    "WorkloadRefError",
    "build_workload",
    "family_names",
    "file_sha256",
    "get_family",
    "load_trace",
    "load_trace_csv",
    "materialize",
    "normalize_workload_ref",
    "parse_workload_ref",
    "register_family",
    "resolve_workload_ref",
    "save_trace",
    "save_trace_csv",
    "validate_trace",
    "workload_ref_fingerprint",
    "workload_refs",
]
