"""Memoization benchmark: prove the result cache is fast *and* honest.

``python -m repro bench --memo`` runs a ``bench_cells`` campaign twice
against a shared content-addressed result cache.  The second pass
must be served entirely from cache *and* produce byte-identical
result files; the benchmark raises if either fails, so the recorded
speedup can never come from a wrong answer.

The emitted ``BENCH_memo.json`` carries two ``cases`` rows (the cold
and cache-served passes' simulated Mcycles/s) and a ``memo`` section
with the verified speedup.  The timings are a record, not a gate.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from ..experiments.bench_cells import (
    BENCH_CELL_EPOCHS,
    BENCH_CELL_MIXES,
    BENCH_CELL_POLICIES,
    BENCH_CELL_WARMUP_EPOCHS,
)
from ..experiments.common import ExperimentScale
from .artifact import BENCH_SCHEMA, host_metadata


class MemoBenchError(RuntimeError):
    """A memoization correctness check failed during the benchmark."""


def _result_bytes(directory: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in (Path(directory) / "results").glob("*.json")
    }


def _campaign_pass(directory: Path, scale_name: str, settings):
    """Run one timed ``bench_cells`` campaign; returns (report, seconds)."""
    from ..harness import run_campaign

    start = time.perf_counter()
    report = run_campaign(
        directory, scale=scale_name, experiments=["bench_cells"], settings=settings
    )
    seconds = time.perf_counter() - start
    if not report.ok:
        raise MemoBenchError(
            f"bench_cells campaign at {directory} did not complete"
        )
    return report, seconds


def _campaign_phase(scale: ExperimentScale, base: Path, jobs: int, say) -> dict:
    from ..harness import CampaignSettings

    settings = CampaignSettings(
        jobs=max(1, jobs),
        task_timeout=600.0,
        retries=2,
        backoff_base=0.05,
        result_cache_dir=str(base / "result_cache"),
    )
    cold_report, cold_seconds = _campaign_pass(base / "cold", scale.name, settings)
    say(
        f"cold pass: {cold_report.completed} units in {cold_seconds:.2f}s "
        f"({cold_report.cache_hits} cache hits)"
    )
    warm_report, warm_seconds = _campaign_pass(base / "warm", scale.name, settings)
    say(
        f"warm pass: {warm_report.completed} units in {warm_seconds:.2f}s "
        f"({warm_report.cache_hits} cache hits)"
    )

    if warm_report.cache_hits != warm_report.total:
        raise MemoBenchError(
            f"warm pass served {warm_report.cache_hits}/{warm_report.total} "
            "units from cache; expected all of them"
        )
    if _result_bytes(base / "cold") != _result_bytes(base / "warm"):
        raise MemoBenchError(
            "cache-served results are not byte-identical to computed ones"
        )

    units = warm_report.total
    cycles_per_unit = scale.epoch_cycles * (
        BENCH_CELL_WARMUP_EPOCHS + BENCH_CELL_EPOCHS
    )
    simulated_cycles = float(units * cycles_per_unit)
    return {
        "units": units,
        "mixes": list(scale.mixes[:BENCH_CELL_MIXES]),
        "policies": list(BENCH_CELL_POLICIES),
        "simulated_cycles": simulated_cycles,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else 0.0,
        "verified_identical": True,
    }


def run_memo_bench(
    scale: ExperimentScale,
    jobs: int = 2,
    progress=None,
) -> dict:
    """Benchmark the result cache; raise :class:`MemoBenchError` on any
    correctness defect (wrong bytes, missed hits)."""
    say = progress or (lambda message: None)
    base = Path(tempfile.mkdtemp(prefix="repro_memo_bench_"))
    try:
        # Prewarm this process's workload cache: the forked pool workers
        # inherit it, so the cold pass times engine + scheduler work,
        # not one-time workload builds.
        for mix in scale.mixes[:BENCH_CELL_MIXES]:
            scale.workload(mix, seed=0)
        campaign = _campaign_phase(scale, base, jobs, say)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    def rate(simulated_cycles: float, seconds: float) -> float:
        return simulated_cycles / 1e6 / seconds if seconds > 0 else 0.0

    cases = [
        {
            "policy": "campaign",
            "mix": "cold",
            "seconds": campaign["cold_seconds"],
            "mcycles_per_s": rate(
                campaign["simulated_cycles"], campaign["cold_seconds"]
            ),
        },
        {
            "policy": "campaign",
            "mix": "cache_served",
            "seconds": campaign["warm_seconds"],
            "mcycles_per_s": rate(
                campaign["simulated_cycles"], campaign["warm_seconds"]
            ),
        },
    ]
    return {
        "schema": BENCH_SCHEMA,
        "label": "memo",
        "created_unix": time.time(),
        "host": host_metadata(),
        "scale": scale.name,
        "memo": {"campaign": campaign},
        "cases": cases,
    }
