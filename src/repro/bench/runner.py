"""The benchmark runner behind ``python -m repro bench``.

Three things are timed, because they bound three different layers of a
reproduction campaign:

* **workload build** — cold construction of one mix's traces + data
  model (what every campaign worker pays before simulating anything);
* **raw replay** — iterating the reference stream with no hierarchy
  attached (the floor the engine's record-delivery protocol sets);
* **simulation** — simulated Mcycles per wall-clock second for every
  (policy, mix) cell of the matrix, the number every figure's
  end-to-end time divides by.

The headline metric is the **geometric mean of Mcycles/s** across the
matrix — geomean, as in the instrumentation-infra reporting idiom, so
no single fast case can buy back a regression elsewhere.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..core import make_policy
from ..engine import Simulation, Workload
from ..experiments.common import ExperimentScale, geometric_mean
from ..fsio.durable import write_blob_json
from ..metrics import RunRecord
from ..metrics.registry import register_metric

#: Schema tag of the embedded bench document (bump on layout change);
#: the artefact on disk is a RunRecord envelope around it, inside a
#: checksummed ``repro-blob/1`` envelope tagged with this schema.
BENCH_ARTIFACT_SCHEMA = "repro-bench-artifact/1"
BENCH_SCHEMA = "repro-bench/1"

register_metric("bench", "geomean_mcycles_per_s", "Mcycles/s",
                "Geometric mean simulation rate across the bench matrix",
                aggregation="last")

PathLike = Union[str, Path]

#: Default policy matrix: the paper's baselines plus its proposals.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "bh", "bh_cp", "lhybrid", "tap", "ca", "ca_rwr", "cp_sd",
)


@dataclass(frozen=True)
class BenchMatrix:
    """One bench invocation's parameters (everything that shapes load)."""

    policies: Tuple[str, ...] = DEFAULT_POLICIES
    mixes: Tuple[str, ...] = ("mix1", "mix4")
    epochs: float = 2.0
    warmup_epochs: float = 0.5
    seed: int = 0
    repeats: int = 1


def _host_metadata() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def _time_workload_build(scale: ExperimentScale, mix: str, seed: int) -> Tuple[Workload, dict]:
    start = time.perf_counter()
    workload = scale.workload(mix, seed=seed)
    seconds = time.perf_counter() - start
    records = sum(len(t) for t in workload.traces)
    return workload, {
        "mix": mix,
        "seconds": seconds,
        "records": records,
        "records_per_s": records / seconds if seconds > 0 else 0.0,
    }


def _time_raw_replay(workload: Workload, n_records: int) -> dict:
    """Drain ``n_records`` records per core with no hierarchy attached.

    Uses the engine's actual delivery protocol — indexed reads from the
    flat replay columns with a wrapping cursor — so the number reflects
    what ``Simulation.run`` really pays per record before any cache
    modelling starts.
    """
    total = 0
    start = time.perf_counter()
    for trace in workload.traces:
        gaps, addrs, writes = trace.replay_columns()
        n = len(addrs)
        cursor = 0
        sink = 0
        for _ in range(n_records):
            sink += gaps[cursor] + addrs[cursor] + writes[cursor]
            cursor += 1
            if cursor == n:
                cursor = 0
        total += n_records
    seconds = time.perf_counter() - start
    return {
        "records": total,
        "seconds": seconds,
        "records_per_s": total / seconds if seconds > 0 else 0.0,
    }


def _time_case(
    scale: ExperimentScale,
    workload: Workload,
    policy_name: str,
    mix: str,
    matrix: BenchMatrix,
) -> dict:
    config = scale.system()
    epoch = config.dueling.epoch_cycles
    cycles = epoch * (matrix.warmup_epochs + matrix.epochs)
    warmup = epoch * matrix.warmup_epochs
    best_seconds = None
    result = None
    phases = None
    for _ in range(max(1, matrix.repeats)):
        sim = Simulation(config, make_policy(policy_name), workload)
        start = time.perf_counter()
        result = sim.run(cycles=cycles, warmup_cycles=warmup)
        seconds = time.perf_counter() - start
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
            phases = dict(sim.last_phase_timings)
    assert result is not None and best_seconds is not None
    mcycles = cycles / 1e6
    return {
        "policy": policy_name,
        "mix": mix,
        "simulated_cycles": cycles,
        "seconds": best_seconds,
        "mcycles_per_s": mcycles / best_seconds if best_seconds > 0 else 0.0,
        "llc_accesses": result.stats.llc.accesses,
        "demand_accesses": sum(c.accesses for c in result.stats.cores),
        "mean_ipc": result.mean_ipc,
        "phases": phases or {},
    }


def phase_breakdown(cases: Sequence[dict], raw_replay: dict) -> dict:
    """Aggregate the per-case phase timings into one breakdown.

    ``access_path_s`` and ``epoch_bookkeeping_s`` are measured inside
    the engine loop; ``trace_replay_est_s`` is the record-delivery floor
    *estimated* from the raw-replay rate (it happens inline in the
    burst loop, so it cannot be clocked separately without perturbing
    the thing being measured).
    """
    access = sum(c.get("phases", {}).get("access_path_s", 0.0) for c in cases)
    epoch = sum(c.get("phases", {}).get("epoch_bookkeeping_s", 0.0) for c in cases)
    records = sum(c.get("phases", {}).get("records", 0) for c in cases)
    rate = raw_replay.get("records_per_s", 0.0)
    replay_est = records / rate if rate > 0 else 0.0
    return {
        "records": records,
        "trace_replay_est_s": replay_est,
        "access_path_s": access,
        "epoch_bookkeeping_s": epoch,
    }


def run_bench(
    scale: ExperimentScale,
    matrix: Optional[BenchMatrix] = None,
    label: str = "engine",
    progress=None,
) -> dict:
    """Run the full matrix and return the canonical result document."""
    matrix = matrix or BenchMatrix()
    say = progress or (lambda message: None)

    # Workload build is timed cold on the first mix; the built workloads
    # are then shared across that mix's policy cases, exactly as the
    # sweep experiments share them.
    workloads = {}
    build_info = None
    for mix in matrix.mixes:
        workload, info = _time_workload_build(scale, mix, matrix.seed)
        workloads[mix] = workload
        if build_info is None:
            build_info = info
        say(f"built {mix}: {info['records']} records in {info['seconds']:.2f}s")

    first = workloads[matrix.mixes[0]]
    replay_records = min(len(first.traces[0]), 200_000)
    raw_replay = _time_raw_replay(first, replay_records)
    say(
        f"raw replay: {raw_replay['records_per_s'] / 1e6:.2f} Mrecords/s "
        f"({raw_replay['records']} records)"
    )

    cases: List[dict] = []
    for mix in matrix.mixes:
        for policy_name in matrix.policies:
            case = _time_case(scale, workloads[mix], policy_name, mix, matrix)
            cases.append(case)
            say(
                f"{policy_name:>8} on {mix}: "
                f"{case['mcycles_per_s']:.3f} Mcycles/s "
                f"({case['seconds']:.2f}s)"
            )

    geomean = geometric_mean([c["mcycles_per_s"] for c in cases])
    breakdown = phase_breakdown(cases, raw_replay)
    say(
        "phases: "
        f"trace replay ~{breakdown['trace_replay_est_s']:.2f}s (est), "
        f"access path {breakdown['access_path_s']:.2f}s, "
        f"epoch bookkeeping {breakdown['epoch_bookkeeping_s']:.2f}s"
    )
    say(f"geomean: {geomean:.3f} Mcycles/s over {len(cases)} cases")
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "created_unix": time.time(),
        "host": _host_metadata(),
        "scale": scale.name,
        "matrix": {
            "policies": list(matrix.policies),
            "mixes": list(matrix.mixes),
            "epochs": matrix.epochs,
            "warmup_epochs": matrix.warmup_epochs,
            "seed": matrix.seed,
            "repeats": matrix.repeats,
        },
        "workload_build": build_info,
        "raw_replay": raw_replay,
        "cases": cases,
        "phase_breakdown": breakdown,
        "geomean_mcycles_per_s": geomean,
    }


def bench_record(document: dict) -> RunRecord:
    """Wrap a bench document in the versioned RunRecord envelope.

    The timing numbers stay verbatim in ``values["document"]``; the
    headline geomean is additionally surfaced as a registered metric so
    the exporters and ``repro export --check`` treat bench artefacts
    like any other run.
    """
    metrics = {}
    geomean = document.get("geomean_mcycles_per_s")
    if geomean is not None:
        metrics["bench.geomean_mcycles_per_s"] = geomean
    return RunRecord(
        kind="bench",
        meta={
            "label": document.get("label"),
            "scale": document.get("scale"),
            "bench_schema": document.get("schema"),
        },
        metrics=metrics,
        values={"document": document},
    )


def write_bench(document: dict, out_dir: PathLike) -> Path:
    """Write ``BENCH_<label>.json`` under ``out_dir`` (durably).

    The on-disk artefact is the RunRecord envelope of the document,
    wrapped in the checksummed ``repro-blob/1`` envelope and committed
    through the crash-consistent fsio path — one format shared with
    campaign results and the memo cache, auditable by ``repro
    doctor``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{document['label']}.json"
    write_blob_json(path, bench_record(document).to_json(), BENCH_ARTIFACT_SCHEMA)
    return path
