"""Workloads: a registry of workload families and their targets.

The registry (:mod:`repro.workloads.registry`) is the front door:
families are looked up by name, targets by ``family:target``
references, and :func:`build_workload` turns a reference into a
ready-to-simulate :class:`~repro.engine.Workload`.  Registered
families: ``synthetic`` (the paper's Table V mixes) and
``datacenter`` (key-value/scan service mixes,
:mod:`repro.workloads.families`).  The synthetic family's profile
library, mixes and profile builders live in their own submodules
(:mod:`.profiles`, :mod:`.mixes`, :mod:`.synthetic`).
"""

from .data import DataModel
from .generator import AppTraceGenerator
from .registry import (
    DEFAULT_FAMILY,
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
    workload_refs,
)
from .trace import CORE_ADDR_SHIFT, MaterializedTrace, TraceRecord, materialize

__all__ = [
    "AppTraceGenerator",
    "CORE_ADDR_SHIFT",
    "DEFAULT_FAMILY",
    "DataModel",
    "MaterializedTrace",
    "TargetSpec",
    "TraceRecord",
    "WorkloadFamily",
    "WorkloadRefError",
    "build_workload",
    "family_names",
    "get_family",
    "materialize",
    "normalize_workload_ref",
    "parse_workload_ref",
    "register_family",
    "resolve_workload_ref",
    "workload_refs",
]
