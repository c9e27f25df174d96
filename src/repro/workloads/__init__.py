"""Workloads: the table of named workloads and the synthetic model.

:data:`~repro.workloads.mixes.WORKLOADS` maps each reference — the ten
Table V mixes (``mix1`` … ``mix10``) and the ``datacenter:`` service
mixes (:mod:`.families`) — to a description and its per-core profiles;
:meth:`repro.experiments.common.ExperimentScale.workload` builds one.
The profile library, the trace generator and the data model live in
their own submodules (:mod:`.profiles`, :mod:`.generator`,
:mod:`.data`).
"""

from .data import DataModel
from .generator import AppTraceGenerator
from .mixes import WORKLOADS, WorkloadRefError
from .trace import CORE_ADDR_SHIFT, MaterializedTrace, TraceRecord, materialize

__all__ = [
    "AppTraceGenerator",
    "CORE_ADDR_SHIFT",
    "DataModel",
    "MaterializedTrace",
    "TraceRecord",
    "WORKLOADS",
    "WorkloadRefError",
    "materialize",
]
