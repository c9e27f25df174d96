"""Forecast-curve utilities: resampling and ASCII rendering.

The paper's headline figures (Figs. 1, 10, 11) plot normalised IPC
against time for several policies.  Forecast runs sample IPC at
irregular, policy-dependent times, so cross-policy and cross-mix
aggregation first resamples every run onto a common time grid (step
interpolation — IPC holds between phases, which is exactly what the
forecaster models).  ``ascii_chart`` renders the curves for terminals
and the EXPERIMENTS.md artefacts without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..forecast.forecaster import SECONDS_PER_MONTH, ForecastResult


@dataclass(frozen=True)
class Curve:
    """One named series sampled on a shared grid."""

    label: str
    times: Sequence[float]
    values: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")


def time_grid(
    results: Sequence[ForecastResult], points: int = 24, horizon: Optional[float] = None
) -> List[float]:
    """A common time grid covering the longest (or given) horizon."""
    if points < 2:
        raise ValueError("need at least two grid points")
    if horizon is None:
        horizon = max((r.horizon_seconds for r in results), default=1.0)
    step = horizon / (points - 1)
    return [i * step for i in range(points)]


def resample_ipc(result: ForecastResult, grid: Sequence[float]) -> Curve:
    """Step-resample a forecast's IPC onto a grid."""
    return Curve(result.policy, list(grid), [result.ipc_at(t) for t in grid])


def resample_capacity(result: ForecastResult, grid: Sequence[float]) -> Curve:
    """Step-resample a forecast's capacity onto a grid."""
    values = []
    for t in grid:
        cap = result.points[0].capacity_fraction if result.points else 0.0
        for point in result.points:
            if point.time_seconds > t:
                break
            cap = point.capacity_fraction
        values.append(cap)
    return Curve(result.policy, list(grid), values)


# ----------------------------------------------------------------------
# ASCII rendering
# ----------------------------------------------------------------------
_GLYPHS = "0123456789"


def ascii_chart(
    curves: Sequence[Curve],
    width: int = 64,
    height: int = 12,
    x_label: str = "months",
    x_scale: float = SECONDS_PER_MONTH,
) -> str:
    """Render curves as a compact ASCII chart (one digit per curve)."""
    if not curves:
        return "(no curves)"
    all_values = [v for c in curves for v in c.values]
    lo, hi = min(all_values), max(all_values)
    if hi <= lo:
        hi = lo + 1.0
    t_max = max(max(c.times) for c in curves) or 1.0

    rows = [[" "] * width for _ in range(height)]
    for idx, curve in enumerate(curves):
        glyph = _GLYPHS[idx % len(_GLYPHS)]
        for t, v in zip(curve.times, curve.values):
            x = min(width - 1, int(t / t_max * (width - 1)))
            y = min(height - 1, int((v - lo) / (hi - lo) * (height - 1)))
            rows[height - 1 - y][x] = glyph
    lines = [f"{hi:8.3f} |" + "".join(rows[0])]
    for row in rows[1:-1]:
        lines.append(" " * 8 + " |" + "".join(row))
    lines.append(f"{lo:8.3f} |" + "".join(rows[-1]))
    lines.append(" " * 10 + "-" * width)
    lines.append(
        " " * 10 + f"0 .. {t_max / x_scale:.3g} {x_label}"
    )
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]}={c.label}" for i, c in enumerate(curves)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
