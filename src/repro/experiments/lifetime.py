"""Figs. 1, 10a-c and 11a-c — performance vs lifetime forecasts.

Runs the forecasting procedure for a set of insertion policies over
the Table V mixes and reports, per policy: initial IPC (normalised to
the 16-way SRAM upper bound and to BH), and lifetime to 50 % NVM
effective capacity (absolute and relative to BH).  The sensitivity
studies (way split, endurance cv, L2 size, NVM latency, equal-storage
way counts) reuse the same runner with different system knobs.

Expected shapes (Sec. V-B..V-G):

* BH ~= upper bound IPC, shortest lifetime; BH_CP ~4.8x BH lifetime at
  equal IPC; LHybrid ~0.89x BH IPC at ~20x lifetime; TAP below
  LHybrid's IPC with even fewer NVM writes; CP_SD within a few % of BH
  IPC at >=10x BH lifetime; CP_SD_Th4/Th8 trade ~1-2 % IPC for
  ~28 %/44 % more lifetime than CP_SD.
* cv = 0.25 devastates frame-disabling lifetimes (BH, LHybrid) but
  barely moves byte-disabling ones (BH_CP, CP_SD*).
* A larger L2 filters writes (longer lifetimes) except for LHybrid.
* 1.5x NVM latency slightly lowers aggressive inserters' IPC.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import make_policy
from ..forecast import ForecastResult, Forecaster
from ..metrics import RunRecord
from ..metrics.registry import register_metric
from .common import ExperimentScale, get_scale, run_one

register_metric("forecast", "initial_ipc", "instructions/cycle",
                "IPC of the fresh-cache phase of a lifetime forecast",
                aggregation="mean")
register_metric("forecast", "lifetime_seconds", "s",
                "Forecast time to 50% NVM effective capacity "
                "(or the horizon, if the stop was not reached)",
                aggregation="mean")
register_metric("forecast", "bound_ipc", "instructions/cycle",
                "IPC of an SRAM-only LLC bound configuration",
                aggregation="mean")

#: (key, policy name, kwargs) for the standard Fig. 1/10a line-up.
STANDARD_POLICIES: Tuple[Tuple[str, str, dict], ...] = (
    ("bh", "bh", {}),
    ("bh_cp", "bh_cp", {}),
    ("lhybrid", "lhybrid", {}),
    ("tap", "tap", {}),
    ("cp_sd", "cp_sd", {}),
    ("cp_sd_th4", "cp_sd_th", {"th": 4.0}),
    ("cp_sd_th8", "cp_sd_th", {"th": 8.0}),
)

#: Smaller line-up for the sensitivity studies.
SENSITIVITY_POLICIES: Tuple[Tuple[str, str, dict], ...] = (
    ("bh", "bh", {}),
    ("bh_cp", "bh_cp", {}),
    ("lhybrid", "lhybrid", {}),
    ("cp_sd", "cp_sd", {}),
    ("cp_sd_th8", "cp_sd_th", {"th": 8.0}),
)


@dataclass
class LifetimeStudy:
    """Aggregated forecast outcomes of one configuration."""

    label: str
    upper_bound_ipc: float
    lower_bound_ipc: float
    #: Policy key -> its forecast unit records, one per mix.
    forecasts: Dict[str, List[RunRecord]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _mean(self, key: str, metric: str) -> float:
        runs = self.forecasts[key]
        return sum(r.metric(metric) for r in runs) / len(runs)

    def initial_ipc(self, key: str) -> float:
        return self._mean(key, "forecast.initial_ipc")

    def lifetime_seconds(self, key: str) -> float:
        return self._mean(key, "forecast.lifetime_seconds")

    def lifetime_months(self, key: str) -> float:
        from ..forecast import SECONDS_PER_MONTH

        return self.lifetime_seconds(key) / SECONDS_PER_MONTH

    def rows(self) -> List[dict]:
        bh_life = self.lifetime_seconds("bh") if "bh" in self.forecasts else None
        out = []
        for key in self.forecasts:
            ipc = self.initial_ipc(key)
            row = {
                "policy": key,
                "ipc": ipc,
                "ipc_vs_bound": ipc / self.upper_bound_ipc
                if self.upper_bound_ipc
                else None,
                "lifetime_months": self.lifetime_months(key),
                "lifetime_x_bh": (
                    self.lifetime_seconds(key) / bh_life if bh_life else None
                ),
            }
            out.append(row)
        return out


def forecast_policy(
    scale: ExperimentScale,
    config,
    policy,
    workload,
    capacity_step: float = 0.1,
    phase_epochs: float = 2.0,
    warmup_epochs: float = 10.0,
) -> ForecastResult:
    epoch = config.dueling.epoch_cycles
    forecaster = Forecaster(
        config,
        policy,
        workload,
        phase_cycles=epoch * phase_epochs,
        initial_warmup_cycles=epoch * warmup_epochs,
        rewarm_cycles=epoch * 0.75,
        capacity_step=capacity_step,
        max_steps=scale.forecast_max_steps,
    )
    return forecaster.run()


def bound_ipc(
    scale: ExperimentScale, workload, ways: int, warmup_epochs: float = 10.0
) -> float:
    """IPC of an SRAM-only LLC with ``ways`` ways (upper/lower bound)."""
    config = scale.system(sram_ways=ways, nvm_ways=0)
    res = run_one(config, make_policy("sram"), workload, warmup_epochs, 2.0)
    return res.mean_ipc


def summarize_lifetime_study(
    units: Sequence[dict], records: Sequence, label: str = "fig10a"
) -> LifetimeStudy:
    """One study from the records of ``units``, in the units' order."""
    bounds: Dict[int, List[float]] = {}
    forecasts: Dict[str, List[RunRecord]] = {}
    for unit, record in zip(units, records):
        if unit["kind"] == "bound":
            bounds.setdefault(unit["ways"], []).append(
                record.metric("forecast.bound_ipc")
            )
        else:
            forecasts.setdefault(unit["policy"], []).append(record)
    upper = bounds[max(bounds)] if bounds else [0.0]
    lower = bounds[min(bounds)] if bounds else [0.0]
    return LifetimeStudy(
        label=label,
        upper_bound_ipc=sum(upper) / len(upper),
        lower_bound_ipc=sum(lower) / len(lower),
        forecasts=forecasts,
    )


def run_lifetime_study(
    scale: Optional[ExperimentScale] = None,
    label: str = "fig10a",
    mixes: Optional[Sequence[str]] = None,
    policies: Sequence[Tuple[str, str, dict]] = STANDARD_POLICIES,
    *,
    sram_ways: int = 4,
    nvm_ways: int = 12,
    cv: float = 0.2,
    l2_kib: Optional[int] = None,
    nvm_latency_factor: float = 1.0,
    with_bounds: bool = True,
) -> LifetimeStudy:
    """One full performance-vs-lifetime study (one paper sub-figure).

    A forecast unit names its policy by key, so every ``(key, name,
    kwargs)`` of ``policies`` must be the one ``POLICY_SPECS`` holds.
    """
    scale = scale or get_scale()
    for key, name, kwargs in policies:
        if POLICY_SPECS.get(key) != (name, kwargs):
            raise ValueError(
                f"policy {key!r} is {POLICY_SPECS.get(key)} in POLICY_SPECS, "
                f"not {(name, kwargs)}"
            )
    units = enumerate_lifetime_units(
        scale, mixes, policies, with_bounds,
        sram_ways=sram_ways, nvm_ways=nvm_ways, cv=cv, l2_kib=l2_kib,
        nvm_latency_factor=nvm_latency_factor,
    )
    records = [run_lifetime_unit(scale, **unit) for unit in units]
    return summarize_lifetime_study(units, records, label)


def run_fig11c_equal_cost(
    scale: Optional[ExperimentScale] = None,
    mixes: Optional[Sequence[str]] = None,
) -> List[dict]:
    """Fig. 11c — CP_SD_Th8 with 12/11/10 NVM ways vs LHybrid with 12.

    Byte-level fault maps cost ~12 % of the NVM data array; dropping
    one or two NVM ways equalises total storage with LHybrid's
    frame-disabled design.  Expected: fewer ways cost some IPC and
    lifetime, but even the 10-way CP_SD_Th8 outperforms LHybrid's IPC.
    """
    scale = scale or get_scale()
    mixes = tuple(mixes if mixes is not None else scale.mixes)
    rows: List[dict] = []

    ref = run_lifetime_study(
        scale,
        label="fig11c-ref",
        mixes=mixes,
        policies=(("bh", "bh", {}), ("lhybrid", "lhybrid", {})),
        with_bounds=False,
    )
    bh_life = ref.lifetime_seconds("bh")
    rows.append(
        {
            "config": "lhybrid 12w",
            "ipc": ref.initial_ipc("lhybrid"),
            "lifetime_months": ref.lifetime_months("lhybrid"),
            "lifetime_x_bh": ref.lifetime_seconds("lhybrid") / bh_life,
        }
    )
    for nvm_ways in (12, 11, 10):
        study = run_lifetime_study(
            scale,
            label=f"fig11c-{nvm_ways}w",
            mixes=mixes,
            policies=(("cp_sd_th8", "cp_sd_th", {"th": 8.0}),),
            nvm_ways=nvm_ways,
            with_bounds=False,
        )
        rows.append(
            {
                "config": f"cp_sd_th8 {nvm_ways}w",
                "ipc": study.initial_ipc("cp_sd_th8"),
                "lifetime_months": study.lifetime_months("cp_sd_th8"),
                "lifetime_x_bh": study.lifetime_seconds("cp_sd_th8") / bh_life,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Cells — one retryable task per (mix, policy) forecast plus the
# per-mix SRAM-only IPC bounds.  The system knobs let every sensitivity
# study (Figs. 10b-11c) reuse the same unit runner.

#: Policy key -> (registry name, kwargs), covering every study line-up.
POLICY_SPECS: Dict[str, Tuple[str, dict]] = {
    key: (name, kwargs) for key, name, kwargs in STANDARD_POLICIES
}


def enumerate_lifetime_units(
    scale,
    mixes: Optional[Sequence[str]] = None,
    policies: Sequence[Tuple[str, str, dict]] = STANDARD_POLICIES,
    with_bounds: bool = True,
    sram_ways: int = 4,
    nvm_ways: int = 12,
    cv: float = 0.2,
    l2_kib: Optional[int] = None,
    nvm_latency_factor: float = 1.0,
) -> List[dict]:
    knobs = {"sram_ways": sram_ways, "nvm_ways": nvm_ways, "cv": cv,
             "l2_kib": l2_kib, "nvm_latency_factor": nvm_latency_factor}
    # A forecast unit names only the knobs that differ from
    # run_lifetime_unit's defaults, so default units keep their ids.
    defaults = inspect.signature(run_lifetime_unit).parameters
    changed = {k: v for k, v in knobs.items() if v != defaults[k].default}
    units: List[dict] = []
    for mix in tuple(mixes if mixes is not None else scale.mixes):
        if with_bounds:
            units.append({"mix": mix, "kind": "bound", "ways": sram_ways + nvm_ways})
            units.append({"mix": mix, "kind": "bound", "ways": sram_ways})
        for key, _, _ in policies:
            units.append({"mix": mix, "kind": "forecast", "policy": key, **changed})
    return units


def run_lifetime_unit(
    scale,
    mix: str,
    kind: str = "forecast",
    policy: Optional[str] = None,
    ways: Optional[int] = None,
    sram_ways: int = 4,
    nvm_ways: int = 12,
    cv: float = 0.2,
    l2_kib: Optional[int] = None,
    nvm_latency_factor: float = 1.0,
):
    """One forecast or bound simulation; the campaign-worker entry point.

    Returns a :class:`~repro.metrics.RunRecord` of kind ``bound`` or
    ``forecast`` carrying the registered ``forecast.*`` metrics.
    """
    from ..metrics import RunRecord

    workload = scale.workload(mix)
    if kind == "bound":
        return RunRecord(
            kind="bound",
            meta={"experiment": "fig10a", "mix": mix,
                  "unit": {"kind": "bound", "ways": int(ways)}},
            metrics={"forecast.bound_ipc": bound_ipc(scale, workload, int(ways))},
        )
    if kind != "forecast":
        raise ValueError(f"unknown lifetime unit kind {kind!r}")
    config = scale.system(
        sram_ways=sram_ways,
        nvm_ways=nvm_ways,
        cv=cv,
        l2_kib=l2_kib,
        nvm_latency_factor=nvm_latency_factor,
    )
    name, kwargs = POLICY_SPECS[policy]
    result = forecast_policy(scale, config, make_policy(name, **kwargs), workload)
    return RunRecord(
        kind="forecast",
        meta={"experiment": "fig10a", "mix": mix,
              "unit": {"kind": "forecast", "policy": policy}},
        metrics={
            "forecast.initial_ipc": float(result.initial_ipc),
            "forecast.lifetime_seconds": float(
                result.lifetime_or_horizon_seconds()
            ),
        },
        values={"reached_stop": bool(result.reached_stop)},
    )
