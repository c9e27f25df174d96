"""Trace-driven simulation engine (the HyCSim/gem5 substitute).

A :class:`Workload` bundles the four per-core application traces of a
mix with the shared :class:`~repro.workloads.data.DataModel`; a
:class:`Simulation` drives one insertion policy over that workload.

Cores advance on private clocks charged by the analytical core model;
the engine interleaves them through a min-heap so LLC accesses happen
in global time order, and fires Set-Dueling epoch boundaries from the
global clock (2M cycles by default, Sec. IV-C).  Replaying the same
:class:`Workload` against different policies guarantees an identical
reference stream and identical per-block compressibility, which is
what makes the paper's normalised comparisons meaningful.
"""

from __future__ import annotations

import copy
import gc
import heapq
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence

from .cache.hierarchy import MemoryHierarchy
from .cache.stats import HierarchyStats
from .config import SystemConfig
from .metrics.registry import register_metric
from .core.policy import InsertionPolicy
from .timing.core_model import AnalyticalCore
from .workloads.cache import load_or_materialize
from .workloads.data import DataModel
from .workloads.profiles import AppProfile
from .workloads.trace import MaterializedTrace


class Workload:
    """A mix's traces + data model, shared across policy runs."""

    def __init__(
        self,
        profiles: Sequence[AppProfile],
        seed: int = 0,
        trace_records_per_core: int = 150_000,
        family: str = "synthetic",
        target: Optional[str] = None,
    ) -> None:
        if not profiles:
            raise ValueError("need at least one profile")
        self.profiles = list(profiles)
        self.seed = seed
        #: Workload-registry provenance: the family that produced this
        #: workload and (when built through the registry) its target.
        #: Stamped into RunRecord meta via ``describe_workload``; never
        #: part of simulation digests.
        self.family = family
        self.target = target
        self.data_model = DataModel(self.profiles, seed=seed)
        self.traces: List[MaterializedTrace] = [
            load_or_materialize(prof, core, seed, trace_records_per_core)
            for core, prof in enumerate(self.profiles)
        ]
        # Every address a replay can touch is known now; warm the data
        # model's size memo here so no simulation pays the (per-address
        # PRNG-seeding) cost of a first-touch draw mid-run.
        for trace in self.traces:
            self.data_model.prefetch_sizes(trace.addrs)

    @property
    def n_cores(self) -> int:
        return len(self.profiles)



@dataclass
class EpochRecord:
    """Per-epoch LLC activity (feeds Fig. 8 and the dueling analysis)."""

    index: int
    end_cycle: float
    hits: int
    nvm_bytes_written: int
    winner_cpth: Optional[int]
    after_warmup: bool


@dataclass
class SimulationResult:
    """Everything one simulation phase reports."""

    stats: HierarchyStats
    epochs: List[EpochRecord] = field(default_factory=list)
    cycles: float = 0.0
    seconds: float = 0.0
    ipcs: List[float] = field(default_factory=list)

    @property
    def mean_ipc(self) -> float:
        return sum(self.ipcs) / len(self.ipcs) if self.ipcs else 0.0

    @property
    def hit_rate(self) -> float:
        return self.stats.llc.hit_rate

    @property
    def llc_hits(self) -> int:
        return self.stats.llc.hits

    @property
    def nvm_bytes_written(self) -> int:
        return self.stats.llc.nvm_bytes_written

    def to_run_record(self, kind: str = "simulation", meta=None, policy=None):
        """This result as a :class:`~repro.metrics.RunRecord`.

        The returned record keeps a live reference to this result, so
        the historical attribute accessors (``stats``, ``epochs``, …)
        keep working on it unchanged.
        """
        from .metrics.record import RunRecord

        return RunRecord.from_simulation(
            self, kind=kind, meta=meta, policy=policy
        )


# Phase-level observations of one simulation window.  ``seconds`` is
# *simulated* wall-clock time — what leakage energy and wear rates
# integrate over — not host time.
register_metric("sim", "cycles", "cycles",
                "Simulated cycles of the measured window",
                aggregation="last")
register_metric("sim", "seconds", "s",
                "Simulated seconds of the measured window",
                aggregation="last")
register_metric("sim", "mean_ipc", "instructions/cycle",
                "Mean per-core IPC over the measured window",
                aggregation="derived")
register_metric("sim", "hit_rate", "fraction",
                "LLC hit rate over the whole run",
                aggregation="derived")


class Simulation:
    """One policy driven by one workload over a cycle budget."""

    def __init__(
        self,
        config: SystemConfig,
        policy: InsertionPolicy,
        workload: Workload,
        size_fn=None,
    ) -> None:
        if workload.n_cores != config.cores.n_cores:
            raise ValueError(
                f"workload has {workload.n_cores} apps, system has "
                f"{config.cores.n_cores} cores"
            )
        self.config = config
        self.policy = policy
        self.workload = workload
        self.hierarchy = MemoryHierarchy(
            config,
            policy,
            size_fn=size_fn if size_fn is not None else workload.data_model.size_fn,
        )
        self.cores = [
            AnalyticalCore(i, config.cores, config.latency)
            for i in range(config.cores.n_cores)
        ]
        # Cursor-based replay state: per-core (gaps, addrs, writes)
        # columns plus a wrapping cursor.  Cursors persist across run()
        # calls so simulations stay resumable (the forecaster re-enters
        # run() to age the NVM in place).
        self._columns = [trace.replay_columns() for trace in workload.traces]
        self._cursors = [0] * workload.n_cores
        self._next_epoch = float(config.dueling.epoch_cycles)
        self._epoch_index = 0

    # ------------------------------------------------------------------
    def run(
        self,
        cycles: float,
        warmup_cycles: float = 0.0,
        record_epochs: bool = True,
    ) -> SimulationResult:
        """Simulate for ``cycles`` more cycles (runs are resumable).

        Statistics are zeroed when the global clock passes
        ``warmup_cycles`` (relative to this run's start); IPC and all
        reported counters cover only the measured window, while Set
        Dueling and cache contents persist across runs — the
        forecasting procedure relies on this to age the NVM in place
        without re-warming from scratch.
        """
        if cycles <= warmup_cycles:
            raise ValueError("cycles must exceed warmup_cycles")
        start = min(core.cycles for core in self.cores)
        return self._run(start + cycles, start + warmup_cycles, record_epochs)

    def run_until(
        self,
        end_cycle: float,
        warmup_until: Optional[float] = None,
        record_epochs: bool = True,
    ) -> SimulationResult:
        """Simulate up to the *absolute* global cycle ``end_cycle``.

        Unlike :meth:`run`, whose budget is relative to the current
        core positions, the end (and the optional ``warmup_until``
        stats-reset boundary) are absolute clock values.  This is what
        lets a run be split without moving its measured window: cores
        overshoot a warmup boundary by a few hundred cycles, so a
        relative budget re-applied after a split would move its end.
        ``run(c, warmup_cycles=w)`` from a fresh simulation is exactly
        ``run_until(c, w)``, and ``run_until(w, w)`` followed by
        ``run_until(c, w)`` replays the same access stream, statistics,
        and epoch records in two steps, also across a
        :meth:`snapshot`/:meth:`restore` (``tests/test_snapshot.py``
        pins this resumability against the goldens).  No simulation
        path splits its runs; the benchmark in ``perfbench/`` still
        wraps this method.

        ``end_cycle == warmup_until`` is allowed: it runs pure warmup —
        every core crosses the boundary, stats are reset, and the
        returned (measured-window) result is empty.
        """
        start = min(core.cycles for core in self.cores)
        if warmup_until is None:
            warmup_until = start
        if end_cycle < warmup_until:
            raise ValueError("end_cycle must be >= warmup_until")
        return self._run(float(end_cycle), float(warmup_until), record_epochs)

    def _run(
        self,
        cycles: float,
        warmup_cycles: float,
        record_epochs: bool,
    ) -> SimulationResult:
        """Core loop; ``cycles``/``warmup_cycles`` are absolute."""
        sim = self
        hierarchy = sim.hierarchy
        cores = sim.cores
        epoch_cycles = sim.config.dueling.epoch_cycles
        epochs: List[EpochRecord] = []
        epoch_snap = hierarchy.stats.llc.snapshot()
        start = min(core.cycles for core in cores)
        next_epoch = sim._next_epoch
        epoch_index = sim._epoch_index
        warmed = warmup_cycles <= start
        if warmed:
            hierarchy.reset_stats()
            epoch_snap = hierarchy.stats.llc.snapshot()
        base_instr = [core.instructions for core in cores]
        base_cycles = [core.cycles for core in cores]

        # Cores are interleaved through a min-heap, but advanced in short
        # bursts: strict per-access global ordering costs a heap
        # operation per access for no modelling benefit (the mixes share
        # no data), while bursts keep cores within ~a thousand cycles of
        # each other — far finer than the 2M-cycle epoch granularity.
        #
        # The burst body is the simulator's innermost loop.  It indexes
        # the trace columns directly and charges the core's time in
        # place (``AnalyticalCore`` holds only the state and the
        # penalty table) to avoid per-record generator resumption and
        # method dispatch.
        burst = 64
        access_level = hierarchy.access_level
        columns = sim._columns
        cursors = sim._cursors
        heap = [(core.cycles, core_id) for core_id, core in enumerate(cores)]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        # The loop allocates short-lived acyclic objects (heap tuples,
        # fill contexts) at a rate that keeps the cyclic GC's gen-0
        # scanning busy for nothing — refcounting already frees them.
        # Pause collection for the duration of the loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                now, core_id = heappop(heap)
                if (not warmed and now >= warmup_cycles) or now >= next_epoch:
                    # Structural boundary bookkeeping (rare).
                    if not warmed and now >= warmup_cycles:
                        hierarchy.reset_stats()
                        epoch_snap = hierarchy.stats.llc.snapshot()
                        for i, core in enumerate(cores):
                            base_instr[i] = core.instructions
                            base_cycles[i] = core.cycles
                        warmed = True
                    # A boundary past the run's end waits for the next
                    # run, when every core has reached it: a draining
                    # core's overshoot must not close it early.
                    while now >= next_epoch <= cycles:
                        llc_stats = hierarchy.stats.llc
                        delta = llc_stats.delta_since(epoch_snap)
                        winner = sim.policy.current_cpth()  # CP_th this epoch
                        hierarchy.end_epoch()
                        if record_epochs:
                            epochs.append(
                                EpochRecord(
                                    index=epoch_index,
                                    end_cycle=next_epoch,
                                    hits=delta["gets_hits"] + delta["getx_hits"],
                                    nvm_bytes_written=delta["nvm_bytes_written"],
                                    winner_cpth=winner,
                                    after_warmup=warmed and next_epoch > warmup_cycles,
                                )
                            )
                        epoch_snap = llc_stats.snapshot()
                        epoch_index += 1
                        next_epoch += epoch_cycles
                if now >= cycles:
                    continue  # this core is done; drain the rest
                # Burst: stop early at the next epoch/warmup/end boundary
                # so boundary processing stays accurate.
                stop_at = min(cycles, next_epoch)
                if not warmed:
                    stop_at = min(stop_at, warmup_cycles)
                core = cores[core_id]
                gaps, addrs, writes = columns[core_id]
                n_records = len(addrs)
                cursor = cursors[core_id]
                base_cpi = core.base_cpi
                penalty = core._penalty
                instructions = core.instructions
                new_time = core.cycles
                for _ in range(burst):
                    gap = gaps[cursor]
                    addr = addrs[cursor]
                    is_write = writes[cursor]
                    cursor += 1
                    if cursor == n_records:
                        cursor = 0
                    level = access_level(core_id, addr, is_write)
                    instructions += gap + 1
                    new_time += gap * base_cpi + base_cpi
                    new_time += penalty[level]
                    if new_time >= stop_at:
                        break
                cursors[core_id] = cursor
                core.instructions = instructions
                core.cycles = new_time
                heappush(heap, (new_time, core_id))
        finally:
            if gc_was_enabled:
                gc.enable()

        sim._next_epoch = next_epoch
        sim._epoch_index = epoch_index
        ipcs = []
        for i, core in enumerate(cores):
            d_instr = core.instructions - base_instr[i]
            d_cycles = core.cycles - base_cycles[i]
            ipcs.append(d_instr / d_cycles if d_cycles else 0.0)
            core.export(hierarchy.stats.core(i))

        measured = cycles - warmup_cycles
        return SimulationResult(
            stats=hierarchy.stats,
            epochs=epochs,
            cycles=measured,
            seconds=measured / sim.config.latency.cpu_freq_hz,
            ipcs=ipcs,
        )

    # ------------------------------------------------------------------
    # snapshot / restore (resumability; no simulation path uses them)
    # ------------------------------------------------------------------
    def _snapshot_shared(self) -> tuple:
        """Objects shared (not copied) between a snapshot and its host.

        The immutable system config (and its frozen sub-configs, which
        the hierarchy references directly) plus the workload and its
        data model — a snapshot captures *simulation state*, not the
        multi-megabyte trace columns or the size memo, which are
        read-only during a run.
        """
        shared = [self.config, self.workload, self.workload.data_model]
        for f in fields(self.config):
            shared.append(getattr(self.config, f.name))
        return tuple(shared)

    def snapshot(self) -> "SimulationSnapshot":
        """Deep-copy the mutable simulation state.

        Captures hierarchy (sets, directory, metadata, fault map, wear,
        stats), cores (clocks + instruction counts), trace cursors and
        the epoch schedule — everything :meth:`restore` needs to make a
        subsequent ``run_until`` byte-identical to continuing this
        simulation.  Policy state rides along because the policy hangs
        off ``hierarchy.llc``.  No simulation path snapshots any more
        (a warm-up is never repeated); the method stays for the
        benchmark in ``perfbench/``, which wraps it, and for the
        resumability tests.
        """
        shared = self._snapshot_shared()
        memo = {id(obj): obj for obj in shared}
        state = copy.deepcopy(
            (self.hierarchy, self.cores, self._cursors,
             self._next_epoch, self._epoch_index),
            memo,
        )
        return SimulationSnapshot(state, shared)

    def restore(self, snap: "SimulationSnapshot") -> None:
        """Adopt a snapshot's state (the snapshot stays reusable).

        The state is deep-copied *again* on the way in, so one stored
        snapshot can warm-start any number of simulations.  The host
        simulation must have been built for the same config and
        workload; only the core count is checked.
        """
        memo = {id(obj): obj for obj in snap._shared}
        hierarchy, cores, cursors, next_epoch, epoch_index = copy.deepcopy(
            snap._state, memo
        )
        if len(cursors) != len(self._cursors):
            raise ValueError("snapshot core count does not match simulation")
        self.hierarchy = hierarchy
        self.policy = hierarchy.llc.policy
        self.cores = cores
        self._cursors = cursors
        self._next_epoch = next_epoch
        self._epoch_index = epoch_index


class SimulationSnapshot:
    """Opaque, reusable deep snapshot of a :class:`Simulation`.

    Produced by :meth:`Simulation.snapshot`, consumed by
    :meth:`Simulation.restore`.  Holds the copied mutable state plus
    the identity list of intentionally shared immutables (config,
    workload, data model) that restore must keep shared rather than
    clone.  In-process only: the object graph hangs onto shared trace
    columns and bound methods, so it is deliberately not picklable
    across processes.
    """

    __slots__ = ("_state", "_shared")

    def __init__(self, state: tuple, shared: tuple) -> None:
        self._state = state
        self._shared = shared


def run_policy_on_mix(
    config: SystemConfig,
    policy: InsertionPolicy,
    workload: Workload,
    cycles: float,
    warmup_cycles: float = 0.0,
) -> SimulationResult:
    """Convenience one-shot simulation."""
    return Simulation(config, policy, workload).run(cycles, warmup_cycles)
