"""Fig. 8 — which ``CP_th`` wins each epoch, vs NVM capacity and mix.

For every candidate threshold the same workload runs under CA_RWR with
that fixed ``CP_th``; per epoch, the winner is the threshold with the
most LLC hits.  Fig. 8a aggregates the winner distribution across
mixes while the NVM capacity degrades from 100 % towards 50 %; Fig. 8b
shows the per-mix distribution at full capacity.

Expected shape: at full capacity large thresholds (58/64) win most
epochs but not all (~30 % of epochs prefer smaller values); as
capacity shrinks, high-capacity frames become scarce and the optimum
drifts to smaller thresholds — the motivation for Set Dueling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..compression.encodings import CPTH_LADDER
from ..core import make_policy
from .common import ExperimentScale, aged_capacities, get_scale, run_one

#: Epochs of warm-up and of measurement of every Fig. 8 simulation.
WARMUP_EPOCHS, MEASURE_EPOCHS = 5, 6


@dataclass
class WinnerDistribution:
    """Fraction of epochs each CP_th value was hit-optimal."""

    label: str
    shares: Dict[int, float]

    def dominant(self) -> int:
        return max(self.shares, key=lambda k: self.shares[k])

    def share_below(self, cpth: int) -> float:
        return sum(v for k, v in self.shares.items() if k < cpth)


def _epoch_hits(result) -> List[int]:
    return [e.hits for e in result.epochs if e.after_warmup]


def winner_distribution(
    label: str,
    config,
    workload,
    capacities,
    cpth_values: Sequence[int],
    warmup_epochs: float,
    measure_epochs: float,
) -> WinnerDistribution:
    """Per-epoch argmax over fixed-CP_th CA_RWR runs of one workload."""
    per_cpth: Dict[int, List[int]] = {}
    for cpth in cpth_values:
        res = run_one(
            config,
            make_policy("ca_rwr", cpth=cpth),
            workload,
            warmup_epochs,
            measure_epochs,
            capacities=capacities,
        )
        per_cpth[cpth] = _epoch_hits(res)
    n_epochs = min(len(v) for v in per_cpth.values())
    counts = {cpth: 0 for cpth in cpth_values}
    for e in range(n_epochs):
        winner = max(cpth_values, key=lambda c: (per_cpth[c][e], c))
        counts[winner] += 1
    total = max(1, n_epochs)
    return WinnerDistribution(
        label=label, shares={c: counts[c] / total for c in cpth_values}
    )


def _shares(record) -> Dict[int, float]:
    return {int(cpth): share for cpth, share in record.values["shares"].items()}


def summarize_fig8a(
    units: Sequence[dict], records: Sequence
) -> List[WinnerDistribution]:
    """Fig. 8a: each capacity's winner shares, averaged over its mixes."""
    cells: Dict[int, List[Dict[int, float]]] = {}
    for unit, record in zip(units, records):
        cells.setdefault(unit["capacity_pct"], []).append(_shares(record))
    out: List[WinnerDistribution] = []
    for pct, per_mix in cells.items():
        shares = {cpth: 0.0 for cpth in per_mix[0]}
        for mix_shares in per_mix:
            for cpth in shares:
                shares[cpth] += mix_shares[cpth] / len(per_mix)
        out.append(WinnerDistribution(label=f"{pct}%", shares=shares))
    return out


def summarize_fig8b(
    units: Sequence[dict], records: Sequence
) -> List[WinnerDistribution]:
    """Fig. 8b: each mix's winner shares."""
    return [
        WinnerDistribution(label=unit["mix"], shares=_shares(record))
        for unit, record in zip(units, records)
    ]


def run_fig8a(
    scale: Optional[ExperimentScale] = None,
    capacities_pct: Sequence[int] = (100, 90, 80, 70, 60, 50),
    mixes: Optional[Sequence[str]] = None,
    cpth_values: Sequence[int] = CPTH_LADDER,
    warmup_epochs: float = WARMUP_EPOCHS,
    measure_epochs: float = MEASURE_EPOCHS,
) -> List[WinnerDistribution]:
    """Winner distribution vs NVM effective capacity (mix-aggregated)."""
    scale = scale or get_scale()
    units = enumerate_fig8_units(scale, capacities_pct, mixes)
    return summarize_fig8a(units, [
        run_fig8_unit(scale, **unit, cpth_values=cpth_values,
                      warmup_epochs=warmup_epochs, measure_epochs=measure_epochs)
        for unit in units
    ])


def run_fig8b(
    scale: Optional[ExperimentScale] = None,
    mixes: Optional[Sequence[str]] = None,
    cpth_values: Sequence[int] = CPTH_LADDER,
    warmup_epochs: float = WARMUP_EPOCHS,
    measure_epochs: float = MEASURE_EPOCHS,
) -> List[WinnerDistribution]:
    """Per-mix winner distribution at 100 % NVM capacity."""
    scale = scale or get_scale()
    units = enumerate_fig8_units(scale, (100,), mixes)
    return summarize_fig8b(units, [
        run_fig8_unit(scale, **unit, cpth_values=cpth_values,
                      warmup_epochs=warmup_epochs, measure_epochs=measure_epochs)
        for unit in units
    ])


# ----------------------------------------------------------------------
# Cells — one retryable task per (capacity, mix) winner distribution
# (each unit internally sweeps the CP_th ladder).

def enumerate_fig8_units(
    scale,
    capacities_pct: Sequence[int] = (100, 90, 80, 70, 60, 50),
    mixes: Optional[Sequence[str]] = None,
) -> List[dict]:
    mixes = tuple(mixes if mixes is not None else scale.mixes)
    return [
        {"mix": mix, "capacity_pct": int(pct)}
        for pct in capacities_pct
        for mix in mixes
    ]


def run_fig8_unit(
    scale,
    mix: str,
    capacity_pct: int = 100,
    cpth_values: Sequence[int] = CPTH_LADDER,
    warmup_epochs: float = WARMUP_EPOCHS,
    measure_epochs: float = MEASURE_EPOCHS,
):
    """One winner-distribution cell; the campaign-worker entry point.

    Returns a :class:`~repro.metrics.RunRecord` with the per-CP_th
    winner shares in ``values["shares"]`` (dynamic keys, so they live
    in ``values`` rather than the registered-metric namespace).
    """
    from ..metrics import RunRecord

    config = scale.system()
    caps = (
        aged_capacities(config, capacity_pct / 100.0)
        if capacity_pct < 100
        else None
    )
    dist = winner_distribution(
        f"{capacity_pct}%/{mix}",
        config,
        scale.workload(mix),
        caps,
        cpth_values,
        warmup_epochs,
        measure_epochs,
    )
    return RunRecord(
        kind="unit",
        meta={"experiment": "fig8a", "mix": mix,
              "capacity_pct": capacity_pct},
        values={"shares": {str(cpth): share
                           for cpth, share in dist.shares.items()}},
    )
