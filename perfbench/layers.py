"""Per-layer metrics: which calls are wrapped, and how numbers are read.

Times come from the tracer's call trees; counts come from the units'
outputs (every measured-window ``SimulationResult`` a ``Simulation.run``
or ``run_until`` returns) and from the in-process caches' counters.
A metric's layer is its name's prefix; a layer is a ``src/repro``
package, except that ``MemoryHierarchy.end_epoch`` reports as engine
epoch bookkeeping and ``HybridLLC.reconcile_faults`` as forecast work,
the stage that calls them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import repro.engine as engine_module
import repro.memo.snapshots as snapshots_module
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.llc import HybridLLC
from repro.core.policy import InsertionPolicy
from repro.engine import Simulation, Workload
from repro.forecast.aging import AgingModel
from repro.forecast.forecaster import Forecaster
from repro.nvm.faultmap import FaultMap
from repro.nvm.wear import WearTracker
from repro.workloads.data import DataModel
from repro.workloads.trace import MaterializedTrace

from .spec import HOOKS
from .tracer import Target, Tracer

#: Layers whose self times must cover the traced wall time.
LAYERS = ("workloads", "engine", "cache", "core", "nvm", "forecast", "memo")

_LLC_FIELDS = ("gets", "getx", "gets_hits", "getx_hits", "fills", "bypasses",
               "evictions", "updates_in_place", "migrations_to_nvm",
               "nvm_writes", "nvm_bytes_written")
_CORE_FIELDS = ("accesses", "l1_hits", "l2_hits")


class Counts:
    """Event counts summed over the measured windows of every unit."""

    def __init__(self) -> None:
        self.values: Counter = Counter()

    def add_run(self, result) -> None:
        if result.cycles <= 0:  # a pure warm-up prefix measures nothing
            return
        stats = result.stats
        values = self.values
        for name in _LLC_FIELDS:
            values[name] += getattr(stats.llc, name)
        for name in _CORE_FIELDS:
            values[name] += sum(getattr(core, name) for core in stats.cores)
        values["memory_reads"] += stats.memory_reads
        values["coherence_invalidations"] += stats.coherence_invalidations

    def add_reconcile(self, evicted: int) -> None:
        self.values["reconcile_evictions"] += evicted


def _policy_classes() -> List[type]:
    found, todo = [], [InsertionPolicy]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: c.__qualname__)


def targets(counts: Counts) -> List[Target]:
    """Every call the traced pass wraps."""
    out = [
        Target(engine_module, "load_or_materialize", "workloads.trace_gen",
               span=True),
        Target(Workload, "__init__", "workloads.build", span=True),
        Target(DataModel, "prefetch_sizes", "workloads.size_draw", span=True),
        Target(DataModel, "size_fn", "workloads.size_lookup"),
        Target(MaterializedTrace, "replay_columns", "workloads.replay_columns"),
        Target(Simulation, "__init__", "engine.init", span=True),
        Target(Simulation, "run", "engine.run", span=True,
               observe=counts.add_run),
        Target(Simulation, "run_until", "engine.run", span=True,
               observe=counts.add_run),
        Target(MemoryHierarchy, "end_epoch", "engine.epoch"),
        Target(MemoryHierarchy, "__init__", "cache.init"),
        Target(MemoryHierarchy, "access_level", "cache.access"),
        Target(HybridLLC, "_insert", "cache.llc_insert"),
        Target(HybridLLC, "upgrade", "cache.llc_upgrade"),
        Target(WearTracker, "record_write", "nvm.record_write"),
        Target(FaultMap, "load_capacities", "nvm.faultmap_load", span=True),
        Target(Forecaster, "run", "forecast.run", span=True),
        Target(AgingModel, "advance", "forecast.aging", span=True),
        Target(AgingModel, "time_to_capacity", "forecast.aging", span=True),
        Target(HybridLLC, "reconcile_faults", "forecast.reconcile", span=True,
               observe=counts.add_reconcile),
        Target(Simulation, "snapshot", "memo.snapshot", span=True),
        Target(Simulation, "restore", "memo.restore", span=True),
        Target(snapshots_module, "warm_prefix_key", "memo.key"),
    ]
    for cls in _policy_classes():
        for hook in HOOKS:
            func = vars(cls).get(hook)
            if func is not None and not getattr(func, "__isabstractmethod__",
                                                False):
                out.append(Target(cls, hook, f"core.{hook}"))
    return out


class _Sums:
    """calls / self / inclusive seconds per metric stem of one region."""

    def __init__(self, tracer: Tracer, region: str) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.forecast_sim_s = 0.0
        self.aging_probes = 0
        for node, parent, ancestors in tracer.walk(region):
            self.calls[node.metric] += node.calls
            self.self_s[node.metric] += node.self_s
            self.total_s[node.metric] += node.total
            if node.layer in LAYERS:
                self.layer_self[node.layer] += node.self_s
            if node.metric == "engine.run" and "Forecaster.run" in ancestors:
                self.forecast_sim_s += node.total
            if (node.name == "AgingModel.advance"
                    and parent.name == "AgingModel.time_to_capacity"):
                self.aging_probes += node.calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    counts: Counts,
    built: list,
    snapshot_store,
    cache_hits: int,
    cache_lookups: int,
    forecast_phases: int,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    setup = _Sums(tracer, "setup")
    run = _Sums(tracer, "units")
    c = counts.values
    wall = run.total_s["unit"]
    covered = sum(run.layer_self[layer] for layer in LAYERS)
    records = sum(len(t) for w in built for t in w.traces)
    writes = sum(sum(t.writes) for w in built for t in w.traces)
    hits, misses = snapshot_store.hits, snapshot_store.misses
    out = {
        "workloads.trace_gen_s": setup.total_s["workloads.trace_gen"],
        "workloads.size_draw_s": setup.total_s["workloads.size_draw"],
        "workloads.records": records,
        "workloads.sized_blocks": sum(w.data_model.known_blocks()
                                      for w in built),
        "workloads.write_frac": _ratio(writes, records),
        "workloads.size_lookup_calls": run.calls["workloads.size_lookup"],
        "workloads.size_lookup_s": run.total_s["workloads.size_lookup"],
        "workloads.cache_hit_ratio": _ratio(cache_hits, cache_lookups),
        "engine.run_s": run.total_s["engine.run"],
        "engine.loop_self_s": run.self_s["engine.run"],
        "engine.epochs": run.calls["engine.epoch"],
        "engine.epoch_s": run.total_s["engine.epoch"],
        "cache.access_calls": run.calls["cache.access"],
        "cache.access_self_s": run.self_s["cache.access"],
        "cache.llc_insert_calls": run.calls["cache.llc_insert"],
        "cache.llc_insert_self_s": run.self_s["cache.llc_insert"],
        "cache.llc_upgrade_calls": run.calls["cache.llc_upgrade"],
        "cache.llc_upgrade_s": run.total_s["cache.llc_upgrade"],
        "cache.llc_getx": c["getx"],
        "cache.updates_in_place": c["updates_in_place"],
        "cache.coherence_invalidations": c["coherence_invalidations"],
        "cache.l1_hits": c["l1_hits"],
        "cache.l2_hits": c["l2_hits"],
        "cache.llc_gets": c["gets"],
        "cache.llc_hits": c["gets_hits"] + c["getx_hits"],
        "cache.llc_fills": c["fills"],
        "cache.llc_bypasses": c["bypasses"],
        "cache.llc_evictions": c["evictions"],
        "cache.memory_reads": c["memory_reads"],
        "cache.l1_hit_ratio": _ratio(c["l1_hits"], c["accesses"]),
        "cache.llc_hit_ratio": _ratio(c["gets_hits"] + c["getx_hits"],
                                      c["gets"] + c["getx"]),
        "core.migrations_to_nvm": c["migrations_to_nvm"],
        "core.migration_ratio": _ratio(
            c["migrations_to_nvm"], run.calls["core.handle_sram_eviction"]),
        "nvm.writes": c["nvm_writes"],
        "nvm.bytes_written": c["nvm_bytes_written"],
        "nvm.record_write_calls": run.calls["nvm.record_write"],
        "nvm.faultmap_load_s": run.total_s["nvm.faultmap_load"],
        "forecast.sim_s": run.forecast_sim_s,
        "forecast.aging_s": run.self_s["forecast.aging"],
        "forecast.aging_probes": run.aging_probes,
        "forecast.reconcile_s": run.total_s["forecast.reconcile"],
        "forecast.reconcile_evictions": c["reconcile_evictions"],
        "forecast.phases": forecast_phases,
        "memo.snapshot_s": run.total_s["memo.snapshot"],
        "memo.restore_s": run.total_s["memo.restore"],
        "memo.snapshot_hits": hits,
        "memo.snapshot_misses": misses,
        "memo.snapshot_hit_ratio": _ratio(hits, hits + misses),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall - untraced_wall_s,
        "trace.overhead_frac": _ratio(wall - untraced_wall_s, untraced_wall_s),
        "trace.unattributed_s": wall - covered,
        "trace.coverage": _ratio(covered, wall),
    }
    for hook in HOOKS:
        out[f"core.{hook}_calls"] = run.calls[f"core.{hook}"]
        out[f"core.{hook}_s"] = run.self_s[f"core.{hook}"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = run.layer_self[layer]
    return out
