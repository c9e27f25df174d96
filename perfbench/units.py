"""The benchmark's three workloads: their inputs, units and output digests.

A *unit* is one ``run_one`` cell or one lifetime forecast, called
exactly the way the figure sweeps call it: the workload comes from
``ExperimentScale.workload`` (so every policy of a mix shares one
built workload through the in-process ``WorkloadCache``) and the
policy from the registry.  Importing this module imports ``repro``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.bench.golden import simulation_digest
from repro.core import make_policy
from repro.engine import Simulation
from repro.experiments.common import DEFAULT, SMOKE, ExperimentScale, run_one
from repro.experiments.lifetime import SENSITIVITY_POLICIES, forecast_policy

#: The paper's policy line-up of the Fig. 6-9 sweeps.
LINEUP = ("bh", "bh_cp", "lhybrid", "tap", "ca", "ca_rwr", "cp_sd", "cp_sd_th")


@dataclass(frozen=True)
class Unit:
    uid: str
    ref: str
    policy: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    scale: ExperimentScale
    refs: Tuple[str, ...]
    units: Tuple[Unit, ...]
    forecast: bool = False

    def setup(self, seed: int) -> list:
        """Build every workload reference the units replay."""
        return [self.scale.workload(ref, seed=seed) for ref in self.refs]

    def run(self, unit: Unit, seed: int):
        """One unit; returns its RunRecord or ForecastResult."""
        scale = self.scale
        workload = scale.workload(unit.ref, seed=seed)
        policy = make_policy(unit.policy, **dict(unit.kwargs))
        if self.forecast:
            return forecast_policy(scale, scale.system(), policy, workload)
        return run_one(scale.system(), policy, workload,
                       scale.warmup_epochs, scale.phase_epochs)

    def digest(self, output) -> str:
        if self.forecast:
            return forecast_digest(output)
        return simulation_digest(output)

    def check(self, output) -> Optional[str]:
        """A problem with the output that holds for any seed, or None."""
        if self.forecast:
            return check_forecast(output)
        return check_cell(output, self.scale.phase_epochs)


def check_cell(record, measure_epochs: float) -> Optional[str]:
    llc = record.stats.llc
    if not record.ipcs or min(record.ipcs) <= 0:
        return f"non-positive IPC {record.ipcs}"
    if not 0 < llc.gets + llc.getx or not 0 <= llc.hit_rate <= 1:
        return f"LLC hit rate {llc.hit_rate} over {llc.gets + llc.getx} requests"
    measured = sum(1 for e in record.epochs if e.after_warmup)
    if measured < measure_epochs:
        return f"{measured} measured epochs, expected {measure_epochs}"
    return None


def check_forecast(result) -> Optional[str]:
    points = result.points
    if not points:
        return "no forecast points"
    caps = [p.capacity_fraction for p in points]
    times = [p.time_seconds for p in points]
    if not all(0 <= c <= 1 for c in caps) or caps != sorted(caps, reverse=True):
        return f"capacity not falling within [0, 1]: {caps}"
    if times != sorted(times) or min(p.ipc for p in points) <= 0:
        return "time runs backwards or IPC is not positive"
    return None


def forecast_digest(result) -> str:
    """SHA-256 over a forecast's points, stop flag and horizon."""
    payload = {
        "points": [
            [float(v).hex() for v in (p.time_seconds, p.capacity_fraction,
                                      p.ipc, p.hit_rate,
                                      p.nvm_bytes_per_second)]
            for p in result.points
        ],
        "reached_stop": bool(result.reached_stop),
        "horizon": float(result.horizon_seconds).hex(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _cells(refs: Tuple[str, ...]) -> Tuple[Unit, ...]:
    return tuple(Unit(f"{ref}/{p}", ref, p) for ref in refs for p in LINEUP)


WORKLOADS = {
    w.name: w
    for w in (
        BenchWorkload("matrix", DEFAULT, ("mix1", "mix4"),
                      _cells(("mix1", "mix4"))),
        BenchWorkload("ingest", DEFAULT, ("datacenter:kv_write",),
                      _cells(("datacenter:kv_write",))),
        BenchWorkload(
            "lifetime", SMOKE, ("mix1",),
            tuple(Unit(f"mix1/{key}", "mix1", name, tuple(kwargs.items()))
                  for key, name, kwargs in SENSITIVITY_POLICIES),
            forecast=True,
        ),
    )
}


class SimulationProbe:
    """Keeps every :class:`Simulation` built while installed.

    Units hide their simulations (``forecast_policy`` returns only its
    points), so the instruction count behind ``sim_mips`` is read from
    the simulations themselves: one extra call per simulation built.
    """

    def __init__(self) -> None:
        self.sims: List[Simulation] = []
        self._original = None

    def __enter__(self) -> "SimulationProbe":
        original = self._original = vars(Simulation)["__init__"]
        sims = self.sims

        @functools.wraps(original)
        def __init__(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            sims.append(sim)

        Simulation.__init__ = __init__
        return self

    def __exit__(self, *exc) -> None:
        Simulation.__init__ = self._original
        self.sims.clear()

    def take_instructions(self) -> int:
        """Instructions the simulations built since the last call ran.

        A snapshot restore brings its warm-up's instructions along, so
        the count is the same whether a warm-up ran or was restored.
        """
        total = sum(core.instructions for sim in self.sims for core in sim.cores)
        self.sims.clear()
        return total
