"""What the benchmark measures, and what each number should move.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics in the form the benchmark contract fixes (name, unit, better,
bound).  This module adds what that file has no room for: the
per-layer metric -> end-to-end metric/workload predictions, each
workload's measured character, and the layers left out on purpose.
``perfbench/test_perfbench.py`` keeps the two in agreement.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

#: Cold workload builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The traced run fails when the named layers' self times cover less
#: than this share of the traced ``wall_s`` (the rest is reported as
#: ``trace.unattributed_s``: ``run_one``/``forecast_policy`` bodies
#: and the benchmark's own per-unit glue).
COVERAGE_FLOOR = 0.95

#: The seed whose measured character ``WORKLOADS`` quotes.
COMMITTED_SEED = 0

#: The insertion-policy hooks timed under ``core.*``.
HOOKS = ("placement", "choose_victim", "handle_sram_eviction",
         "on_hit", "on_nvm_write", "end_epoch")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end bound (share of the parent's median); per-layer: None.
    bound: Optional[float] = None
    #: Per-layer only: which end-to-end metric it should move, where.
    moves: str = ""


class WorkloadInfo(NamedTuple):
    name: str
    #: Why the workload is here, and its character measured on
    #: ``COMMITTED_SEED`` by a traced run (``run.py --trace 1`` prints it).
    why: str


WORKLOADS: Tuple[WorkloadInfo, ...] = (
    WorkloadInfo(
        "matrix",
        "Fig. 6-9 line-up of 8 policies x mix1+mix4 via run_one at default "
        "scale: the simulation core; seed 0: writes 12%, GetX 4%, aging 0%, "
        "snapshot hits 0",
    ),
    WorkloadInfo(
        "ingest",
        "Same line-up on datacenter:kv_write: the write side (GetX "
        "invalidate-on-hit, upgrades, dueling write feedback); seed 0: "
        "writes 51%, GetX 36%, aging 0%, snapshot hits 0",
    ),
    WorkloadInfo(
        "lifetime",
        "Fig. 10a forecasts (bh, lhybrid, bh_cp, cp_sd, cp_sd_th8) on mix1 "
        "at smoke scale: NVM aging, fault-map re-entry; seed 0: writes 14%, "
        "GetX 3%, aging 28%, snapshot hits 0",
    ),
)

#: Bounds are wide because the host's speed is not steady: one 1-s cell
#: took 0.7-1.4 s on a 2-vCPU VM, switching between two speeds about
#: once a minute, so ten-run sets spread by 5-24% (quartiles over
#: median) and sets taken minutes apart differed by up to 23% in median
#: wall_s.  setup_s (a median of SETUP_REPEATS cold builds) keeps the
#: widest bound.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.24),
    Metric("sim_mips", "Minstr/s", "higher", 0.24),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_SETUP = "setup_s on matrix, ingest and lifetime"
_CELLS = "sim_mips and wall_s on matrix and ingest"
_FIXED = "none: fixed per seed; a simulator-only change must leave it identical"
_LIFE = "wall_s and sim_mips on lifetime; no change on matrix or ingest"


def _layer(name: str, unit: str, better: str, moves: str) -> Metric:
    return Metric(name, unit, better, None, moves)


PER_LAYER: Tuple[Metric, ...] = (
    # workloads: trace generation and compressed sizes
    _layer("workloads.trace_gen_s", "s", "lower", _SETUP),
    _layer("workloads.size_draw_s", "s", "lower", _SETUP),
    _layer("workloads.records", "count", "higher", _FIXED),
    _layer("workloads.sized_blocks", "count", "higher", _FIXED),
    _layer("workloads.write_frac", "fraction", "higher", _FIXED),
    _layer("workloads.size_lookup_calls", "count", "lower",
           "sim_mips on the compressing cells of matrix and ingest; "
           "none on bh, lhybrid, tap"),
    _layer("workloads.size_lookup_s", "s", "lower",
           "sim_mips on the compressing cells of matrix and ingest; "
           "none on bh, lhybrid, tap"),
    _layer("workloads.cache_hit_ratio", "fraction", "higher",
           "wall_s on matrix and ingest, if policies stop sharing one "
           "built workload"),
    _layer("workloads.self_s", "s", "lower", _CELLS),
    # engine: the replay loop and epoch bookkeeping
    _layer("engine.run_s", "s", "lower", _CELLS),
    _layer("engine.loop_self_s", "s", "lower", _CELLS),
    _layer("engine.epochs", "count", "higher", _FIXED),
    _layer("engine.epoch_s", "s", "lower",
           "sim_mips on matrix and ingest; where per-epoch telemetry "
           "overhead lands"),
    _layer("engine.self_s", "s", "lower", _CELLS),
    # cache: private levels, directory and hybrid LLC
    _layer("cache.access_calls", "count", "lower", _CELLS),
    _layer("cache.access_self_s", "s", "lower",
           _CELLS + "; a smaller share on lifetime"),
    _layer("cache.llc_insert_calls", "count", "lower", _CELLS),
    _layer("cache.llc_insert_self_s", "s", "lower",
           _CELLS + "; a smaller share on lifetime"),
    _layer("cache.llc_upgrade_calls", "count", "lower", "sim_mips on ingest"),
    _layer("cache.llc_upgrade_s", "s", "lower", "sim_mips on ingest"),
    _layer("cache.llc_getx", "count", "lower", _FIXED),
    _layer("cache.updates_in_place", "count", "lower", _FIXED),
    _layer("cache.coherence_invalidations", "count", "lower", _FIXED),
    _layer("cache.l1_hits", "count", "higher", _FIXED),
    _layer("cache.l2_hits", "count", "higher", _FIXED),
    _layer("cache.llc_gets", "count", "lower", _FIXED),
    _layer("cache.llc_hits", "count", "higher", _FIXED),
    _layer("cache.llc_fills", "count", "lower", _FIXED),
    _layer("cache.llc_bypasses", "count", "lower", _FIXED),
    _layer("cache.llc_evictions", "count", "lower", _FIXED),
    _layer("cache.memory_reads", "count", "lower", _FIXED),
    _layer("cache.l1_hit_ratio", "fraction", "higher", _FIXED),
    _layer("cache.llc_hit_ratio", "fraction", "higher", _FIXED),
    _layer("cache.self_s", "s", "lower", _CELLS),
    # core: the insertion policies' hooks (self time)
    *(
        _layer(f"core.{hook}_{kind}", unit, "lower",
               "sim_mips on the ca*, cp_sd*, lhybrid and tap cells of "
               "matrix and ingest; never bh or bh_cp")
        for hook in HOOKS
        for kind, unit in (("calls", "count"), ("s", "s"))
    ),
    _layer("core.migrations_to_nvm", "count", "lower", _FIXED),
    _layer("core.migration_ratio", "fraction", "lower", _FIXED),
    _layer("core.self_s", "s", "lower",
           "sim_mips on the ca*, cp_sd*, lhybrid and tap cells"),
    # nvm: wear and fault maps
    _layer("nvm.writes", "count", "lower", _FIXED),
    _layer("nvm.bytes_written", "count", "lower", _FIXED),
    _layer("nvm.record_write_calls", "count", "lower", _FIXED),
    _layer("nvm.faultmap_load_s", "s", "lower", "wall_s on lifetime"),
    _layer("nvm.self_s", "s", "lower", "wall_s on lifetime"),
    # forecast: the simulate/predict alternation
    _layer("forecast.sim_s", "s", "lower", _LIFE),
    _layer("forecast.aging_s", "s", "lower", _LIFE),
    _layer("forecast.aging_probes", "count", "lower", _LIFE),
    _layer("forecast.reconcile_s", "s", "lower", _LIFE),
    _layer("forecast.reconcile_evictions", "count", "lower", _FIXED),
    _layer("forecast.phases", "count", "lower", _FIXED),
    _layer("forecast.self_s", "s", "lower", _LIFE),
    # memo: in-process warm-up snapshots
    _layer("memo.snapshot_s", "s", "lower",
           "wall_s, sim_mips and peak_rss_mb on matrix and ingest"),
    _layer("memo.restore_s", "s", "lower",
           "wall_s and sim_mips on matrix and ingest"),
    _layer("memo.snapshot_hits", "count", "higher",
           "wall_s on matrix and ingest"),
    _layer("memo.snapshot_misses", "count", "lower",
           "wall_s and peak_rss_mb on matrix and ingest"),
    _layer("memo.snapshot_hit_ratio", "fraction", "higher",
           "wall_s on matrix and ingest"),
    _layer("memo.self_s", "s", "lower", "wall_s on matrix and ingest"),
    # the tracing itself
    _layer("trace.wall_s", "s", "lower", "none: traced wall_s"),
    _layer("trace.untraced_wall_s", "s", "lower",
           "none: wall_s of the same run's untraced pass"),
    _layer("trace.overhead_s", "s", "lower", "none: tracing cost"),
    _layer("trace.overhead_frac", "fraction", "lower", "none: tracing cost"),
    _layer("trace.unattributed_s", "s", "lower",
           "none: time outside every named layer"),
    _layer("trace.coverage", "fraction", "higher",
           f"none: gated at >= {COVERAGE_FLOOR}"),
)

#: Layers with no metric, and why (a cold 53-task smoke campaign spent
#: 31.4 s wall against 31.1 s inside its tasks).
NOT_MEASURED: Dict[str, str] = {
    "harness": "campaign scheduling adds ~1% over the tasks it runs; "
               "no end-to-end metric could see it beyond noise",
    "fsio": "durable artefact writes happen only in campaigns; same 1%",
    "service": "sharded dispatch wraps the same tasks; same 1%",
    "memo.results": "the on-disk result cache is off in a fresh process "
                    "and only serves campaigns; same 1%",
    "analytical": "28 s per smoke run, and its model changes first",
    "explore": "28 s per smoke run, built on the analytical tier",
}
