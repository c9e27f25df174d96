"""Explorer benchmark: measure the analytical fast path's leverage.

The claim behind ``repro explore`` is quantitative: screening the
design space with the closed-form estimator and simulating only the
confirmed survivors must cost **at least 50x fewer simulated
instructions** than exhaustively simulating every point.  This module
runs the full default space (1000+ configurations) end to end, times
the analytical and confirm tiers separately, and records the measured
instruction accounting in ``BENCH_explore.json``.  The count is of
simulated instructions, not seconds, so the floor is deterministic;
the analytical leg of ``scripts/ci.sh`` gates it at smoke scale.
"""

from __future__ import annotations

import tempfile
import time

from ..experiments.common import ExperimentScale
from .artifact import BENCH_SCHEMA, host_metadata

#: The measured instruction_speedup must not fall below this.
MIN_INSTRUCTION_SPEEDUP = 50.0


class ExploreBenchError(RuntimeError):
    """The explorer failed to deliver its advertised leverage."""


def run_explore_bench(
    scale: ExperimentScale,
    space: str = "default",
    confirm: int = 16,
    objective: str = "balanced",
    progress=None,
) -> dict:
    """One full exploration, instrumented; returns the bench document."""
    from ..explore import ExploreSettings, run_explore

    say = progress or (lambda message: None)
    settings = ExploreSettings(space=space, confirm=confirm,
                               objective=objective)
    say(f"explore bench: space={space} confirm={confirm} "
        f"objective={objective}")

    with tempfile.TemporaryDirectory(prefix="repro_explore_bench_") as tmp:
        start = time.perf_counter()
        result = run_explore(scale, tmp, settings, progress=say)
        total_seconds = time.perf_counter() - start

    speedup = result.instruction_speedup
    say(
        f"explored {result.n_points} points in {total_seconds:.1f}s: "
        f"{result.n_evaluations} analytical evaluations, "
        f"{len(result.confirmed)} confirmed, {speedup:.0f}x fewer "
        "simulated instructions than exhaustive"
    )
    if speedup < MIN_INSTRUCTION_SPEEDUP:
        raise ExploreBenchError(
            f"instruction speedup {speedup:.1f}x is below the "
            f"{MIN_INSTRUCTION_SPEEDUP:.0f}x floor — the explorer no "
            "longer earns its screening tier"
        )

    return {
        "schema": BENCH_SCHEMA,
        "label": "explore",
        "created_unix": time.time(),
        "host": host_metadata(),
        "scale": scale.name,
        "explore": {
            "space": space,
            "n_points": result.n_points,
            "eta": settings.eta,
            "confirm": settings.confirm,
            "objective": settings.objective,
            "rungs": result.n_rungs,
            "analytical_evaluations": result.n_evaluations,
            "confirmed": len(result.confirmed),
            "frontier": [e.point.key() for e in result.frontier],
            "total_seconds": total_seconds,
            "simulated_instructions": result.simulated_instructions,
            "exhaustive_instructions_est": result.exhaustive_instructions_est,
            "instruction_speedup": speedup,
            "speedup_floor": MIN_INSTRUCTION_SPEEDUP,
        },
    }
