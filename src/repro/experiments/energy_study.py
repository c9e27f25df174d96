"""LLC energy comparison across insertion policies (Sec. I/II context).

TAP's original contribution is an LLC *energy* reduction (25 % vs LRU)
achieved by keeping energy-hungry writes out of the NVM part; the
hybrid design itself is motivated by SRAM leakage.  This study runs
each policy on the same workload and reports the LLC energy breakdown,
plus a 16-way SRAM LLC for the leakage comparison.

Expected shape:

* the hybrid's LLC leakage is a fraction of the iso-associativity SRAM
  LLC's (12 of 16 ways leak ~nothing);
* BH spends by far the most NVM write energy; the NVM-aware policies
  cut it by an order of magnitude; compression (BH_CP, CP_SD) reduces
  energy per write.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core import make_policy
from ..timing.energy import EnergyModel, EnergyParams
from .common import ExperimentScale, get_scale, run_one

POLICIES = ("bh", "bh_cp", "lhybrid", "tap", "cp_sd")


def run_energy_study(
    scale: Optional[ExperimentScale] = None,
    mixes: Optional[Sequence[str]] = None,
    policies: Sequence[str] = POLICIES,
    warmup_epochs: float = 10,
    measure_epochs: float = 5,
    params: EnergyParams = EnergyParams(),
) -> List[dict]:
    scale = scale or get_scale()
    mixes = tuple(mixes if mixes is not None else scale.mixes[:2])
    # (label, system, policy) per row; the last row is the
    # iso-associativity SRAM LLC, the leakage bound the hybrid attacks.
    lineup = [(name, scale.system(), name) for name in policies]
    lineup.append(
        ("sram16 (bound)", scale.system(sram_ways=16, nvm_ways=0), "sram")
    )

    rows: List[dict] = []
    for label, config, name in lineup:
        model = EnergyModel(config, params)
        totals = {"nvm_write": 0.0, "llc_dyn": 0.0, "leak": 0.0, "llc": 0.0,
                  "total": 0.0}
        ipc = 0.0
        for mix in mixes:
            res = run_one(config, make_policy(name), scale.workload(mix),
                          warmup_epochs, measure_epochs)
            breakdown = model.evaluate(res.stats, res.seconds)
            totals["nvm_write"] += breakdown.llc_nvm_write
            totals["llc_dyn"] += breakdown.llc_dynamic
            totals["leak"] += breakdown.sram_leakage + breakdown.nvm_leakage
            totals["llc"] += breakdown.llc_total
            totals["total"] += breakdown.total
            ipc += res.mean_ipc / len(mixes)
        rows.append(
            {
                "policy": label,
                "ipc": ipc,
                "nvm_write_nj": totals["nvm_write"],
                "llc_dynamic_nj": totals["llc_dyn"],
                "llc_leakage_nj": totals["leak"],
                "llc_total_nj": totals["llc"],
                "total_nj": totals["total"],
            }
        )
    return rows
