"""Figure-style curves from a lifetime study (Figs. 1/10/11 rendering).

`run_lifetime_study` keeps the raw per-mix forecasts; this module
turns them into the paper's plotted quantities: per-policy IPC-vs-time
and capacity-vs-time curves averaged over mixes on a common time grid,
optionally normalised to the 16-way SRAM bound, and rendered as ASCII
charts for terminals and artefact files.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.curves import (
    Curve,
    ascii_chart,
    average_curves,
    normalise,
    resample_capacity,
    resample_ipc,
    time_grid,
)
from .lifetime import LifetimeStudy


def study_ipc_curves(
    study: LifetimeStudy,
    points: int = 32,
    normalise_to_bound: bool = True,
    horizon: Optional[float] = None,
) -> List[Curve]:
    """One mix-averaged IPC curve per policy, on a shared grid."""
    all_runs = [run for runs in study.forecasts.values() for run in runs]
    grid = time_grid(all_runs, points=points, horizon=horizon)
    curves: List[Curve] = []
    for key, runs in study.forecasts.items():
        per_mix = [resample_ipc(run, grid) for run in runs]
        curve = average_curves(key, per_mix)
        if normalise_to_bound and study.upper_bound_ipc:
            curve = normalise(curve, study.upper_bound_ipc)
        curves.append(curve)
    return curves


def study_capacity_curves(
    study: LifetimeStudy, points: int = 32, horizon: Optional[float] = None
) -> List[Curve]:
    """One mix-averaged NVM-capacity curve per policy."""
    all_runs = [run for runs in study.forecasts.values() for run in runs]
    grid = time_grid(all_runs, points=points, horizon=horizon)
    return [
        average_curves(key, [resample_capacity(run, grid) for run in runs])
        for key, runs in study.forecasts.items()
    ]


def render_study(study: LifetimeStudy, width: int = 64, height: int = 12) -> str:
    """The Fig. 1-style twin chart (normalised IPC + capacity) as text."""
    ipc = study_ipc_curves(study)
    cap = study_capacity_curves(study)
    parts = [
        f"{study.label}: IPC normalised to the 16-way SRAM bound",
        ascii_chart(ipc, width=width, height=height),
        "",
        f"{study.label}: NVM effective capacity",
        ascii_chart(cap, width=width, height=height),
    ]
    return "\n".join(parts)
