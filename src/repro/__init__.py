"""repro — reproduction of "Compression-Aware and Performance-Efficient
Insertion Policies for Long-Lasting Hybrid LLCs" (HPCA 2023).

Public entry points:

* :meth:`repro.experiments.ExperimentScale.system` — the (scaled)
  Table IV system configuration with its sensitivity knobs;
* :class:`repro.engine.Workload` / :class:`repro.engine.Simulation` —
  trace-driven simulation of one mix under one insertion policy;
* :func:`repro.core.make_policy` — instantiate any Table III policy
  (``bh``, ``bh_cp``, ``lhybrid``, ``tap``, ``ca``, ``ca_rwr``,
  ``cp_sd``, ``cp_sd_th``, ``sram``);
* :class:`repro.forecast.Forecaster` — the lifetime forecasting
  procedure producing the paper's IPC-vs-time curves.
"""

# Defined before the subpackage imports: repro.manifest (reached via
# the metrics spine during those imports) reads it at import time.
__version__ = "1.0.0"

from . import analysis, cache, compression, config, core, forecast, nvm, timing, workloads
from .config import SystemConfig
from .engine import Simulation, SimulationResult, Workload

__all__ = [
    "Simulation",
    "SimulationResult",
    "SystemConfig",
    "Workload",
    "analysis",
    "cache",
    "compression",
    "config",
    "core",
    "forecast",
    "nvm",
    "timing",
    "workloads",
]
