"""Campaign task registry: every experiment as a list of retryable units.

Each registered experiment is a list of *units* — the smallest
independently-runnable (figure x mix x policy) cells — and the function
that runs one.  The in-process ``run_fig*`` runners run the same units
one after another and summarise them; the campaign harness
(:mod:`repro.harness`) executes, retries, checkpoints and resumes them
individually, so a crash loses one unit, not hours of completed work.

A unit is a plain JSON-able dict of keyword arguments; running one is
``EXPERIMENTS[name].run_unit(scale, **unit)``, which returns a
*deterministic* record (same unit + scale => byte-identical
serialisation — the property the resume machinery checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

from .common import ExperimentScale
from .compressibility import enumerate_fig2_units, run_fig2_unit
from .cpth_sweep import enumerate_cpth_units, run_cpth_unit
from .lifetime import enumerate_lifetime_units, run_lifetime_unit
from .optimal_cpth import enumerate_fig8_units, run_fig8_unit
from .tables import enumerate_table_units, run_table_unit
from .th_tradeoff import enumerate_fig9_units, run_fig9_unit


@dataclass(frozen=True)
class ExperimentDef:
    """One campaign-runnable experiment."""

    name: str
    enumerate_units: Callable[[ExperimentScale], List[dict]]
    run_unit: Callable[..., dict]
    description: str = ""


EXPERIMENTS: Dict[str, ExperimentDef] = {
    d.name: d
    for d in (
        ExperimentDef(
            "tables",
            enumerate_table_units,
            run_table_unit,
            "Tables I-V regenerated from the live code",
        ),
        ExperimentDef(
            "fig2",
            enumerate_fig2_units,
            run_fig2_unit,
            "Fig. 2 per-app compressibility split",
        ),
        ExperimentDef(
            "fig6",
            enumerate_cpth_units,
            run_cpth_unit,
            "Figs. 6/7 CP_th sweep (raw per-run counters)",
        ),
        ExperimentDef(
            "fig8a",
            enumerate_fig8_units,
            run_fig8_unit,
            "Fig. 8a winner distribution vs NVM capacity",
        ),
        ExperimentDef(
            "fig9",
            enumerate_fig9_units,
            run_fig9_unit,
            "Fig. 9 Th tradeoff (raw per-run counters)",
        ),
        ExperimentDef(
            "fig10a",
            enumerate_lifetime_units,
            run_lifetime_unit,
            "Fig. 10a performance-vs-lifetime forecasts",
        ),
    )
}

#: Every campaign-runnable experiment: the paper's figures and tables,
#: all scheduled by a default ``repro campaign`` run.
EXPERIMENT_NAMES = tuple(sorted(EXPERIMENTS))


def unit_id(unit: Mapping) -> str:
    """Stable, filename-safe identifier of one unit's parameters."""
    return ",".join(f"{key}={unit[key]}" for key in sorted(unit))


@dataclass(frozen=True)
class CampaignTask:
    """One schedulable (experiment, unit) cell of a campaign."""

    experiment: str
    unit: Mapping

    @property
    def task_id(self) -> str:
        return f"{self.experiment}/{unit_id(self.unit)}"

    @property
    def filename(self) -> str:
        return self.task_id.replace("/", "__") + ".json"


def enumerate_campaign_tasks(
    experiments: Sequence[str], scale: ExperimentScale
) -> List[CampaignTask]:
    """All units of the named experiments, in a stable order."""
    tasks: List[CampaignTask] = []
    for name in experiments:
        try:
            define = EXPERIMENTS[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}"
            ) from None
        for unit in define.enumerate_units(scale):
            tasks.append(CampaignTask(name, dict(unit)))
    return tasks


def run_campaign_task(experiment: str, unit: Mapping, scale_name: str) -> dict:
    """Execute one unit (inside a campaign worker process).

    Every unit runner returns a :class:`~repro.metrics.RunRecord`;
    the worker envelope stores its validated JSON payload, so campaign
    results and the exporters share the one versioned record shape.
    """
    from ..metrics import RunRecord
    from ..workloads.mixes import workload_provenance
    from .common import get_scale

    scale = get_scale(scale_name)
    record = EXPERIMENTS[experiment].run_unit(scale, **dict(unit))
    if isinstance(record, RunRecord):
        record.meta.setdefault("scale", scale.name)
        ref = dict(unit).get("mix")
        if isinstance(ref, str):
            # Stamp the unit's workload provenance, derived from its
            # reference, so `repro export` can report it for every
            # unit whatever its runner records.
            family, target = workload_provenance(ref)
            record.meta.setdefault("workload_family", family)
            record.meta.setdefault("workload_target", target)
        return record.to_json()
    return record
