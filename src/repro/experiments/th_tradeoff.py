"""Fig. 9 — hits vs NVM bytes written for the CP_SD_Th rule.

Sweeps the hit-loss threshold ``Th`` of Eq. (1) at ``Tw = 5 %`` for
NVM effective capacities of 100/90/80 %, everything normalised to BH
at 100 % capacity.  Expected shape: raising ``Th`` trades a small
number of hits for a much larger reduction in NVM bytes written, and
the write reduction grows as the cache loses capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core import make_policy
from .common import ExperimentScale, aged_capacities, get_scale, mean_vs_bh, run_one

#: Epochs of warm-up and of measurement of every Fig. 9 simulation.
WARMUP_EPOCHS, MEASURE_EPOCHS = 6, 6


@dataclass(frozen=True)
class TradeoffPoint:
    th: float
    capacity_pct: int
    hits_norm: float          # vs BH at 100 % capacity
    nvm_bytes_norm: float     # vs BH at 100 % capacity


def summarize_fig9(units: Sequence[dict], records: Sequence) -> List[TradeoffPoint]:
    """Fig. 9 from the records of ``units``, in the units' order."""
    means = mean_vs_bh(units, records, lambda unit: (unit["capacity_pct"], unit["th"]))
    return [
        TradeoffPoint(th=th, capacity_pct=pct, hits_norm=hits, nvm_bytes_norm=written)
        for (pct, th), (hits, written) in means.items()
    ]


def run_fig9(
    scale: Optional[ExperimentScale] = None,
    th_values: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0),
    capacities_pct: Sequence[int] = (100, 90, 80),
    tw: float = 5.0,
    mixes: Optional[Sequence[str]] = None,
    warmup_epochs: float = WARMUP_EPOCHS,
    measure_epochs: float = MEASURE_EPOCHS,
) -> List[TradeoffPoint]:
    scale = scale or get_scale()
    units = enumerate_fig9_units(scale, th_values, capacities_pct, mixes)
    return summarize_fig9(units, [
        run_fig9_unit(scale, **unit, tw=tw, warmup_epochs=warmup_epochs,
                      measure_epochs=measure_epochs)
        for unit in units
    ])


# ----------------------------------------------------------------------
# Cells — one retryable task per (mix, Th, capacity) point plus the
# per-mix BH baseline; normalisation happens in ``summarize_fig9``.

def enumerate_fig9_units(
    scale,
    th_values: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0),
    capacities_pct: Sequence[int] = (100, 90, 80),
    mixes: Optional[Sequence[str]] = None,
) -> List[dict]:
    units: List[dict] = []
    for mix in tuple(mixes if mixes is not None else scale.mixes):
        units.append({"mix": mix, "policy": "bh", "capacity_pct": 100})
        for pct in capacities_pct:
            for th in th_values:
                units.append(
                    {
                        "mix": mix,
                        "policy": "cp_sd_th",
                        "th": float(th),
                        "capacity_pct": int(pct),
                    }
                )
    return units


def run_fig9_unit(
    scale,
    mix: str,
    policy: str = "cp_sd_th",
    th: Optional[float] = None,
    tw: float = 5.0,
    capacity_pct: int = 100,
    warmup_epochs: float = WARMUP_EPOCHS,
    measure_epochs: float = MEASURE_EPOCHS,
):
    """One Fig. 9 simulation; the campaign-worker entry point.

    Returns the run's :class:`~repro.metrics.RunRecord`.
    """
    config = scale.system()
    caps = aged_capacities(config, capacity_pct / 100.0) if capacity_pct < 100 else None
    kwargs = {} if policy == "bh" else {"th": float(th), "tw": tw}
    record = run_one(
        config,
        make_policy(policy, **kwargs),
        scale.workload(mix),
        warmup_epochs,
        measure_epochs,
        capacities=caps,
    )
    record.meta.update(
        {
            "experiment": "fig9",
            "mix": mix,
            "unit_policy": policy,
            "th": th,
            "tw": tw,
            "capacity_pct": capacity_pct,
        }
    )
    return record
