"""The paper's quantitative claims, as machine-checkable records.

Each claim pins one number the paper reports (abstract, Sec. V) to the
experiment that reproduces it and a tolerance band appropriate for a
simulator-substituted reproduction: we check *shape* — orderings and
rough factors — not absolute testbed numbers.  EXPERIMENTS.md is
generated against this table, and the claim checker doubles as an
integration test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional


@dataclass(frozen=True)
class Claim:
    """One reported quantity: paper value + acceptance band."""

    id: str
    source: str              # where the paper states it
    description: str
    paper_value: float
    low: float               # accepted measured range (inclusive)
    high: float
    metric: Callable[[Mapping[str, float]], Optional[float]]

    def evaluate(self, measurements: Mapping[str, float]) -> Dict[str, object]:
        value = self.metric(measurements)
        ok = value is not None and self.low <= value <= self.high
        return {
            "claim": self.id,
            "source": self.source,
            "paper": self.paper_value,
            "measured": value,
            "band": f"[{self.low:g}, {self.high:g}]",
            "ok": bool(ok),
        }


def _ratio(a: str, b: str) -> Callable[[Mapping[str, float]], Optional[float]]:
    def metric(m: Mapping[str, float]) -> Optional[float]:
        if a not in m or b not in m or not m[b]:
            return None
        return m[a] / m[b]

    return metric


#: Measurement keys expected from a lifetime study:
#:   ``ipc_<policy>`` and ``life_<policy>`` for each policy,
#:   plus ``ipc_upper`` (16-way SRAM bound).
LIFETIME_CLAIMS: List[Claim] = [
    Claim(
        id="cp_sd_near_sram_performance",
        source="abstract / Fig. 10a",
        description="CP_SD nearly reaches same-associativity SRAM IPC "
        "(paper: 96.7 % of the bound)",
        paper_value=0.967,
        low=0.90,
        high=1.05,
        metric=_ratio("ipc_cp_sd", "ipc_upper"),
    ),
    Claim(
        id="cp_sd_lifetime_vs_bh",
        source="abstract (17x) / Sec. V-B (16.8x)",
        description="CP_SD lifetime vs the NVM-unaware hybrid",
        paper_value=16.8,
        low=4.0,
        high=60.0,
        metric=_ratio("life_cp_sd", "life_bh"),
    ),
    Claim(
        id="cp_sd_outperforms_lhybrid",
        source="abstract (9 %) / Sec. V-B",
        description="CP_SD IPC vs LHybrid",
        paper_value=1.09,
        low=1.02,
        high=1.40,
        metric=_ratio("ipc_cp_sd", "ipc_lhybrid"),
    ),
    Claim(
        id="lhybrid_performance_loss",
        source="Sec. II-D (11 % below BH)",
        description="LHybrid IPC vs BH",
        paper_value=0.888,
        low=0.75,
        high=0.95,
        metric=_ratio("ipc_lhybrid", "ipc_bh"),
    ),
    Claim(
        id="lhybrid_lifetime_vs_bh",
        source="Sec. II-D (19.7x)",
        description="LHybrid lifetime vs BH",
        paper_value=19.7,
        low=8.0,
        high=80.0,
        metric=_ratio("life_lhybrid", "life_bh"),
    ),
    Claim(
        id="tap_more_conservative_than_lhybrid",
        source="Sec. II-C/II-D",
        description="TAP IPC vs LHybrid (TAP sacrifices more performance)",
        paper_value=0.96,
        low=0.70,
        high=1.02,
        metric=_ratio("ipc_tap", "ipc_lhybrid"),
    ),
    Claim(
        id="bh_cp_lifetime_vs_bh",
        source="Sec. V-B (4.8x from compression alone)",
        description="BH_CP lifetime vs BH",
        paper_value=4.8,
        low=2.0,
        high=10.0,
        metric=_ratio("life_bh_cp", "life_bh"),
    ),
    Claim(
        id="th4_lifetime_gain",
        source="abstract (+28 % over CP_SD)",
        description="CP_SD_Th4 lifetime vs CP_SD",
        paper_value=1.28,
        low=1.05,
        high=1.8,
        metric=_ratio("life_cp_sd_th4", "life_cp_sd"),
    ),
    Claim(
        id="th8_lifetime_gain",
        source="abstract (+44 % over CP_SD)",
        description="CP_SD_Th8 lifetime vs CP_SD",
        paper_value=1.44,
        low=1.10,
        high=2.2,
        metric=_ratio("life_cp_sd_th8", "life_cp_sd"),
    ),
]


def measurements_from_study(study) -> Dict[str, float]:
    """Flatten a :class:`~repro.experiments.lifetime.LifetimeStudy`."""
    out: Dict[str, float] = {"ipc_upper": study.upper_bound_ipc}
    for key in study.forecasts:
        out[f"ipc_{key}"] = study.initial_ipc(key)
        out[f"life_{key}"] = study.lifetime_seconds(key)
    return out


def check_claims(
    measurements: Mapping[str, float], claims: Optional[List[Claim]] = None
) -> List[Dict[str, object]]:
    """Evaluate every claim against a measurement dict."""
    return [c.evaluate(measurements) for c in (claims or LIFETIME_CLAIMS)]
