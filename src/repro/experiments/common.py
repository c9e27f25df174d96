"""Shared experiment machinery: scale presets, system builders, helpers.

The paper's evaluation runs an 8 MB hybrid LLC (8192 sets x 16 ways)
under gem5 for hundreds of millions of cycles; a pure-Python simulator
cannot afford that for every figure, so experiments run at a *scale*:
caches, application working sets and epoch lengths shrink by the same
power-of-two factor, preserving every reuse-distance-to-capacity ratio
the policies respond to.  All of the paper's reported quantities are
normalised (to BH, or to the full-capacity cache), making them
scale-robust.

Select a preset with the ``REPRO_SCALE`` environment variable:
``smoke`` (CI-fast), ``default``, or ``paper`` (full size — slow).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..config import (
    CacheGeometry,
    EnduranceConfig,
    HybridGeometry,
    SetDuelingConfig,
    SystemConfig,
)
from ..engine import Workload
from ..workloads.mixes import MIX_NAMES

#: Full-size (paper) reference dimensions.
PAPER_N_SETS = 8192
PAPER_L1_KIB = 32
PAPER_L2_KIB = 128
PAPER_EPOCH_CYCLES = 2_000_000


@dataclass(frozen=True)
class ExperimentScale:
    """One coherent set of scaled-down experiment dimensions."""

    name: str
    factor: float                 # cache/footprint scale vs the paper
    phase_epochs: int             # measured epochs per simulation phase
    warmup_epochs: float          # epochs of warm-up before measuring
    trace_records_per_core: int
    mixes: Tuple[str, ...]        # which Table V mixes to run
    forecast_max_steps: int       # simulation/prediction alternations

    @property
    def n_sets(self) -> int:
        return max(128, int(PAPER_N_SETS * self.factor))

    @property
    def epoch_cycles(self) -> int:
        return max(50_000, int(PAPER_EPOCH_CYCLES * self.factor))

    @property
    def phase_cycles(self) -> float:
        return float(self.epoch_cycles * self.phase_epochs)

    @property
    def warmup_cycles(self) -> float:
        return float(self.epoch_cycles * self.warmup_epochs)

    @property
    def total_cycles(self) -> float:
        return self.warmup_cycles + self.phase_cycles

    # ------------------------------------------------------------------
    def system(
        self,
        sram_ways: int = 4,
        nvm_ways: int = 12,
        cv: float = 0.2,
        l2_kib: Optional[int] = None,
        nvm_latency_factor: float = 1.0,
        cpth_candidates: Optional[Tuple[int, ...]] = None,
    ) -> SystemConfig:
        """Build the (scaled) Table IV system with sensitivity knobs."""
        l1_kib = max(2, int(PAPER_L1_KIB * self.factor))
        l2 = l2_kib if l2_kib is not None else PAPER_L2_KIB
        l2_scaled = max(4, int(l2 * self.factor))
        dueling = SetDuelingConfig(epoch_cycles=self.epoch_cycles)
        if cpth_candidates is not None:
            dueling = replace(dueling, cpth_candidates=cpth_candidates)
        cfg = SystemConfig(
            l1=CacheGeometry(l1_kib * 1024, 4),
            l2=CacheGeometry(l2_scaled * 1024, 16),
            llc=HybridGeometry(
                n_sets=self.n_sets, sram_ways=sram_ways, nvm_ways=nvm_ways
            ),
            endurance=EnduranceConfig(cv=cv),
            dueling=dueling,
        )
        if nvm_latency_factor != 1.0:
            cfg = cfg.with_nvm_latency_factor(nvm_latency_factor)
        return cfg

    def workload(self, mix_name: str, seed: int = 0) -> Workload:
        """Build the workload a reference names, scaled to match.

        ``mix_name`` is a workload reference — a bare Table V mix name
        (``"mix1"``) or any registered ``family:target``
        (``"datacenter:kv_read"``).  The registry routes every family
        through the process-wide
        :class:`~repro.workloads.cache.WorkloadCache`: sweeps that
        revisit the same (target, seed, scale) share one built
        workload instead of regenerating identical traces per policy.
        """
        from ..workloads.registry import build_workload

        return build_workload(mix_name, scale=self, seed=seed)


SMOKE = ExperimentScale(
    name="smoke",
    factor=1 / 32,
    phase_epochs=3,
    warmup_epochs=1,
    trace_records_per_core=60_000,
    mixes=("mix1", "mix4"),
    forecast_max_steps=6,
)

DEFAULT = ExperimentScale(
    name="default",
    factor=1 / 16,
    phase_epochs=4,
    warmup_epochs=1,
    trace_records_per_core=120_000,
    mixes=("mix1", "mix4", "mix6"),
    forecast_max_steps=10,
)

FULL = ExperimentScale(
    name="full",
    factor=1 / 8,
    phase_epochs=6,
    warmup_epochs=2,
    trace_records_per_core=240_000,
    mixes=MIX_NAMES,
    forecast_max_steps=14,
)

PAPER = ExperimentScale(
    name="paper",
    factor=1.0,
    phase_epochs=8,
    warmup_epochs=2,
    trace_records_per_core=1_800_000,
    mixes=MIX_NAMES,
    forecast_max_steps=20,
)

_PRESETS: Dict[str, ExperimentScale] = {
    s.name: s for s in (SMOKE, DEFAULT, FULL, PAPER)
}

#: Valid ``--scale`` / ``REPRO_SCALE`` names, smallest first.
SCALE_NAMES: Tuple[str, ...] = tuple(_PRESETS)


def get_scale(name: Optional[str] = None) -> ExperimentScale:
    """Resolve the experiment scale (argument > env var > default)."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "default")
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; choose from {sorted(_PRESETS)}"
        ) from None


def run_one(
    config: SystemConfig,
    policy,
    workload: Workload,
    warmup_epochs: float,
    measure_epochs: float,
    capacities=None,
):
    """One warm-up-then-measure simulation (shared by the sweeps).

    Returns a :class:`~repro.metrics.RunRecord` built from the live
    :class:`~repro.engine.SimulationResult`: record consumers read
    ``.metrics``/``.meta``/``.events``, while pre-spine callers keep
    using the delegated accessors (``stats``, ``epochs``, ``llc_hits``,
    …) unchanged — including the byte-identity golden digests.

    ``capacities`` optionally preloads an aged NVM fault map (shape
    ``(n_sets, nvm_ways)``) before the run — how the capacity-sweep
    experiments model a worn cache.

    When the in-process snapshot store is enabled (the default; see
    :mod:`repro.memo.snapshots`), the warmup prefix is keyed by
    (config, policy, workload, warmup, capacities): the first run of a
    prefix snapshots its warmed state and later runs restore it
    instead of re-simulating.  Warm and cold paths return
    byte-identical results — the store replays the warmup's epoch
    records too — so callers cannot observe which path ran.
    """
    import dataclasses as _dc

    from ..engine import Simulation
    from ..manifest import describe_policy, describe_workload
    from ..memo.snapshots import shared_snapshot_store, warm_prefix_key

    # Provenance is captured from the *pre-run* policy state so the
    # record is identical whether the warmup ran or was restored.
    meta = {
        "policy": describe_policy(policy),
        "workload": describe_workload(workload),
        "warmup_epochs": warmup_epochs,
        "measure_epochs": measure_epochs,
    }

    epoch = config.dueling.epoch_cycles
    warmup = epoch * warmup_epochs
    total = epoch * (warmup_epochs + measure_epochs)
    store = shared_snapshot_store()
    result = None
    if store is not None and warmup > 0:
        key = warm_prefix_key(config, policy, workload, warmup, capacities)
        if key is not None:
            entry = store.get(key)
            sim = Simulation(config, policy, workload)
            if entry is None:
                if capacities is not None:
                    sim.hierarchy.llc.faultmap.load_capacities(capacities)
                prefix = sim.run_until(warmup, warmup_until=warmup)
                store.put(key, sim.snapshot(), prefix.epochs)
                prefix_epochs = prefix.epochs
            else:
                # Capacities are baked into the snapshot (and the key).
                sim.restore(entry.snapshot)
                prefix_epochs = [_dc.replace(e) for e in entry.epochs]
            result = sim.run_until(total, warmup_until=warmup)
            result.epochs[:0] = prefix_epochs

    if result is None:
        sim = Simulation(config, policy, workload)
        if capacities is not None:
            sim.hierarchy.llc.faultmap.load_capacities(capacities)
        result = sim.run(cycles=total, warmup_cycles=warmup)

    return _record_from_sim(sim, result, meta)


def _record_from_sim(sim, result, meta):
    """Collect every registered layer of a finished simulation."""
    from ..metrics import REGISTRY

    # sim.policy (not the caller's argument) so the snapshot-restored
    # and cold paths observe the same post-run policy state.
    record = result.to_run_record(meta=meta, policy=sim.policy)
    record.metrics.update(REGISTRY.collect("nvm", sim.hierarchy.llc.wear))
    controller = getattr(sim.policy, "controller", None)
    if controller is not None:
        record.metrics.update(REGISTRY.collect("duel", controller))
    # Storage-health provenance: 0 on a healthy cache, so clean runs
    # stay byte-identical while quiet corruption becomes visible.
    record.metrics.update(REGISTRY.collect("workload", sim.workload))
    return record


def aged_capacities(
    config: SystemConfig,
    target_fraction: float,
    granularity: str = "byte",
    seed_offset: int = 0,
):
    """Fault-map capacities of an NVM part aged to a capacity target.

    Ages a fresh :class:`~repro.forecast.aging.AgingModel` under a
    uniform write rate until effective capacity reaches the target —
    the wear-leveled steady state the paper's capacity sweeps assume.
    """
    import numpy as np

    from ..forecast.aging import AgingModel

    geom = config.llc
    aging = AgingModel(
        config.endurance,
        geom.n_sets,
        geom.nvm_ways,
        geom.block_size,
        granularity=granularity,
        seed_offset=seed_offset,
    )
    if target_fraction >= 1.0:
        return aging.capacities()
    rates = np.ones((geom.n_sets, geom.nvm_ways))
    dt = aging.time_to_capacity(rates, target_fraction, max_seconds=1e15)
    if dt is None:
        raise RuntimeError("could not age NVM to the requested capacity")
    aging.advance(rates, dt)
    return aging.capacities()


def geometric_mean(values) -> float:
    """Geometric mean (used for cross-mix aggregation where noted)."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        if v <= 0:
            return 0.0
        product *= v
    return product ** (1.0 / len(vals))
