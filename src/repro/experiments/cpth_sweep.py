"""Figs. 6 and 7 — LLC hit rate and NVM bytes written vs ``CP_th``.

Sweeps the compression threshold over the Table I ladder for the CA
and CA_RWR policies, and runs CP_SD once, everything normalised to BH
on the same reference stream.  Expected shapes:

* Fig. 6: CA's normalised hit rate rises with CP_th and peaks around
  CP_th = 58; CA_RWR is above CA for small CP_th;
* Fig. 7: NVM bytes written grow steeply with CP_th; CA_RWR writes far
  fewer bytes than CA at high CP_th (read/write-reuse steering);
* CP_SD matches the best fixed threshold's hit rate while writing
  fewer bytes than CA_RWR at CP_th = 58/64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compression.encodings import CPTH_LADDER
from ..core import make_policy
from .common import ExperimentScale, get_scale, mean_vs_bh, run_one

#: Epochs of warm-up and of measurement of every Fig. 6/7 simulation.
WARMUP_EPOCHS, MEASURE_EPOCHS = 6, 3


@dataclass
class SweepResult:
    """Averaged (over mixes) normalised hit rates and NVM bytes."""

    cpth_values: Tuple[int, ...]
    ca_hit: Dict[int, float] = field(default_factory=dict)
    ca_bytes: Dict[int, float] = field(default_factory=dict)
    ca_rwr_hit: Dict[int, float] = field(default_factory=dict)
    ca_rwr_bytes: Dict[int, float] = field(default_factory=dict)
    cp_sd_hit: float = 0.0
    cp_sd_bytes: float = 0.0
    mixes: Tuple[str, ...] = ()

    def rows(self) -> List[dict]:
        out = []
        for cpth in self.cpth_values:
            out.append(
                {
                    "cpth": cpth,
                    "ca_hit": self.ca_hit[cpth],
                    "ca_rwr_hit": self.ca_rwr_hit[cpth],
                    "ca_bytes": self.ca_bytes[cpth],
                    "ca_rwr_bytes": self.ca_rwr_bytes[cpth],
                }
            )
        out.append(
            {
                "cpth": "SD",
                "ca_hit": None,
                "ca_rwr_hit": self.cp_sd_hit,
                "ca_bytes": None,
                "ca_rwr_bytes": self.cp_sd_bytes,
            }
        )
        return out


def summarize_cpth_sweep(units: Sequence[dict], records: Sequence) -> SweepResult:
    """Figs. 6/7 from the records of ``units``, in the units' order."""
    means = mean_vs_bh(units, records, lambda unit: (unit["policy"], unit.get("cpth")))
    result = SweepResult(
        cpth_values=tuple(cpth for name, cpth in means if name == "ca"),
        mixes=tuple(dict.fromkeys(unit["mix"] for unit in units)),
    )
    for cpth in result.cpth_values:
        result.ca_hit[cpth], result.ca_bytes[cpth] = means["ca", cpth]
        result.ca_rwr_hit[cpth], result.ca_rwr_bytes[cpth] = means["ca_rwr", cpth]
    result.cp_sd_hit, result.cp_sd_bytes = means["cp_sd", None]
    return result


def run_cpth_sweep(
    scale: Optional[ExperimentScale] = None,
    mixes: Optional[Sequence[str]] = None,
    cpth_values: Sequence[int] = CPTH_LADDER,
    warmup_epochs: float = WARMUP_EPOCHS,
    measure_epochs: float = MEASURE_EPOCHS,
) -> SweepResult:
    """Run the Fig. 6/7 sweep; values are normalised to BH per mix."""
    scale = scale or get_scale()
    units = enumerate_cpth_units(scale, mixes, cpth_values)
    return summarize_cpth_sweep(units, [
        run_cpth_unit(scale, **unit, warmup_epochs=warmup_epochs,
                      measure_epochs=measure_epochs)
        for unit in units
    ])


# ----------------------------------------------------------------------
# Cells — one retryable task per (mix, policy[, CP_th]) run.
# Normalisation to BH happens in ``summarize_cpth_sweep`` from the
# per-mix ``bh`` baseline unit, so every unit stores raw counters.

def enumerate_cpth_units(
    scale,
    mixes: Optional[Sequence[str]] = None,
    cpth_values: Sequence[int] = CPTH_LADDER,
) -> List[dict]:
    units: List[dict] = []
    for mix in tuple(mixes if mixes is not None else scale.mixes):
        units.append({"mix": mix, "policy": "bh"})
        units.append({"mix": mix, "policy": "cp_sd"})
        for name in ("ca", "ca_rwr"):
            for cpth in cpth_values:
                units.append({"mix": mix, "policy": name, "cpth": int(cpth)})
    return units


def run_cpth_unit(
    scale,
    mix: str,
    policy: str,
    cpth: Optional[int] = None,
    warmup_epochs: float = WARMUP_EPOCHS,
    measure_epochs: float = MEASURE_EPOCHS,
):
    """One Fig. 6/7 simulation; the campaign-worker entry point.

    Returns the full :class:`~repro.metrics.RunRecord` of the run —
    aggregation (normalising to the per-mix ``bh`` unit) reads
    ``llc.*`` / ``sim.*`` metrics instead of a bespoke three-key dict.
    """
    config = scale.system()
    kwargs = {} if cpth is None else {"cpth": int(cpth)}
    record = run_one(
        config,
        make_policy(policy, **kwargs),
        scale.workload(mix),
        warmup_epochs,
        measure_epochs,
    )
    record.meta.update({"experiment": "fig6", "mix": mix, "unit_policy": policy})
    if cpth is not None:
        record.meta["cpth"] = int(cpth)
    return record
