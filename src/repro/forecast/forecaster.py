"""The lifetime forecasting procedure (Sec. V-A, adapted from [15]).

The procedure alternates *simulation* and *prediction* phases:

1. **simulate** — run the hierarchy for a phase (with a short re-warm
   after each capacity change) and measure, per NVM frame, the byte-
   write rate (byte-disabling) or frame-write rate (frame-disabling),
   plus IPC and hit rate;
2. **predict** — assuming the measured rates persist, advance the
   aging model until the NVM loses the next slice of effective
   capacity, update the fault map, evict blocks that no longer fit,
   and continue simulating from the aged state.

The loop records one :class:`ForecastPoint` per phase and stops when
effective capacity reaches the stop fraction (50 % in the paper), the
step budget is exhausted, or the write rate is too low to reach the
next capacity milestone within the horizon (the curve has plateaued —
how LHybrid-style policies exit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..config import SystemConfig
from ..core.policy import InsertionPolicy
from ..engine import Simulation, Workload
from .aging import AgingModel

SECONDS_PER_MONTH = 30.44 * 24 * 3600.0


@dataclass(frozen=True)
class ForecastPoint:
    """State of the system at one point of its lifetime."""

    time_seconds: float          # age of the NVM when the phase ran
    capacity_fraction: float     # NVM effective capacity in [0, 1]
    ipc: float                   # workload mean IPC measured in the phase
    hit_rate: float
    nvm_bytes_per_second: float  # aggregate write pressure

    @property
    def time_months(self) -> float:
        return self.time_seconds / SECONDS_PER_MONTH


@dataclass
class ForecastResult:
    """IPC/capacity evolution of one policy over the NVM lifetime."""

    policy: str
    points: List[ForecastPoint] = field(default_factory=list)
    reached_stop: bool = False
    horizon_seconds: float = 0.0

    @property
    def initial_ipc(self) -> float:
        return self.points[0].ipc if self.points else 0.0

    def lifetime_seconds(self, capacity_fraction: float = 0.5) -> Optional[float]:
        """Time at which capacity first crosses ``capacity_fraction``.

        Linear interpolation between phases; None if never reached
        (the forecast plateaued above the target — treat the horizon
        as a lower bound on lifetime).
        """
        prev = None
        for point in self.points:
            if point.capacity_fraction <= capacity_fraction:
                if prev is None or prev.capacity_fraction == point.capacity_fraction:
                    return point.time_seconds
                span = prev.capacity_fraction - point.capacity_fraction
                frac = (prev.capacity_fraction - capacity_fraction) / span
                return prev.time_seconds + frac * (
                    point.time_seconds - prev.time_seconds
                )
            prev = point
        return None

    def lifetime_months(self, capacity_fraction: float = 0.5) -> Optional[float]:
        seconds = self.lifetime_seconds(capacity_fraction)
        return None if seconds is None else seconds / SECONDS_PER_MONTH

    def lifetime_or_horizon_seconds(self, capacity_fraction: float = 0.5) -> float:
        """Lifetime, or the forecast horizon when the curve plateaued."""
        seconds = self.lifetime_seconds(capacity_fraction)
        return self.horizon_seconds if seconds is None else seconds

    def ipc_at(self, time_seconds: float) -> float:
        """IPC at an arbitrary time (step interpolation between phases)."""
        if not self.points:
            return 0.0
        ipc = self.points[0].ipc
        for point in self.points:
            if point.time_seconds > time_seconds:
                break
            ipc = point.ipc
        return ipc

    def mean_ipc_over(self, horizon_seconds: float) -> float:
        """Time-weighted mean IPC from 0 to ``horizon_seconds``."""
        if not self.points:
            return 0.0
        total = 0.0
        for i, point in enumerate(self.points):
            start = point.time_seconds
            end = (
                self.points[i + 1].time_seconds
                if i + 1 < len(self.points)
                else max(horizon_seconds, start)
            )
            start = min(start, horizon_seconds)
            end = min(end, horizon_seconds)
            total += point.ipc * (end - start)
        return total / horizon_seconds if horizon_seconds > 0 else 0.0


class Forecaster:
    """Run the simulate/predict alternation for one policy."""

    def __init__(
        self,
        config: SystemConfig,
        policy: InsertionPolicy,
        workload: Workload,
        *,
        phase_cycles: float,
        initial_warmup_cycles: float,
        rewarm_cycles: Optional[float] = None,
        capacity_step: float = 0.05,
        stop_fraction: float = 0.5,
        max_steps: int = 12,
        max_years: float = 40.0,
        smooth_rates: bool = True,
    ) -> None:
        self.config = config
        self.policy = policy
        self.workload = workload
        self.phase_cycles = phase_cycles
        self.initial_warmup_cycles = initial_warmup_cycles
        self.rewarm_cycles = (
            rewarm_cycles if rewarm_cycles is not None else phase_cycles / 4
        )
        self.capacity_step = capacity_step
        self.stop_fraction = stop_fraction
        self.max_steps = max_steps
        self.max_seconds = max_years * 365.25 * 24 * 3600.0
        self.smooth_rates = smooth_rates

    def _smoothed(self, raw, capacities):
        """Pool measured per-frame rates within each set.

        A short simulation phase samples only a fraction of the frames
        a policy will eventually write (conservative policies touch a
        few hundred frames per phase); extrapolating raw per-frame
        rates would leave the unsampled frames immortal.  Replacement
        rotates victims within a set over the long run, so the set
        total is redistributed over the set's frames — weighted by
        live capacity for byte-disabling (fit-LRU steers blocks toward
        roomier frames) and uniformly over live frames for
        frame-disabling.
        """
        import numpy as np

        set_totals = raw.sum(axis=1, keepdims=True)
        caps = np.asarray(capacities, dtype=np.float64)
        if self.policy.granularity == "frame":
            weights = (caps > 0).astype(np.float64)
        else:
            weights = caps
        norm = weights.sum(axis=1, keepdims=True)
        np.maximum(norm, 1e-12, out=norm)
        return set_totals * (weights / norm)

    def run(self) -> ForecastResult:
        sim = Simulation(self.config, self.policy, self.workload)
        llc = sim.hierarchy.llc
        geom = self.config.llc
        aging = AgingModel(
            self.config.endurance,
            geom.n_sets,
            geom.nvm_ways,
            geom.block_size,
            granularity=self.policy.granularity,
        )
        result = ForecastResult(policy=self.policy.name)
        elapsed = 0.0
        warmup = self.initial_warmup_cycles
        for step in range(self.max_steps):
            # Epoch records are never consumed here (forecasts read
            # wear rates and phase aggregates), so don't accumulate
            # them across re-entries.
            phase = sim.run(
                warmup + self.phase_cycles,
                warmup_cycles=warmup,
                record_epochs=False,
            )
            warmup = self.rewarm_cycles
            wear = llc.wear
            if self.policy.granularity == "frame":
                rates = wear.writes / phase.seconds
            else:
                rates = wear.bytes_written / phase.seconds
            if self.smooth_rates:
                rates = self._smoothed(rates, llc.faultmap.capacities)
            capacity = aging.effective_capacity()
            result.points.append(
                ForecastPoint(
                    time_seconds=elapsed,
                    capacity_fraction=capacity,
                    ipc=phase.mean_ipc,
                    hit_rate=phase.hit_rate,
                    nvm_bytes_per_second=phase.nvm_bytes_written / phase.seconds,
                )
            )
            if capacity <= self.stop_fraction:
                result.reached_stop = True
                break
            if step == self.max_steps - 1:
                break

            target = max(self.stop_fraction, capacity - self.capacity_step)
            remaining = self.max_seconds - elapsed
            dt = aging.time_to_capacity(rates, target, remaining)
            if dt is None:
                # Write pressure too low: the capacity curve plateaus
                # within the horizon; report the plateau and stop.
                elapsed = self.max_seconds
                result.points.append(
                    ForecastPoint(
                        time_seconds=elapsed,
                        capacity_fraction=aging.effective_capacity(),
                        ipc=phase.mean_ipc,
                        hit_rate=phase.hit_rate,
                        nvm_bytes_per_second=phase.nvm_bytes_written / phase.seconds,
                    )
                )
                break
            aging.advance(rates, dt)
            elapsed += dt
            llc.faultmap.load_capacities(aging.capacities())
            llc.reconcile_faults()
        result.horizon_seconds = max(elapsed, 1.0)
        return result
