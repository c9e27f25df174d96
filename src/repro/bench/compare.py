"""Baseline comparison: turn a bench run into a pass/fail gate.

A committed ``BENCH_<label>.json`` is the performance contract; this
module diffs a fresh run against it.  The verdict is driven by the
geomean of the *matched per-case* ratios (current / baseline over the
(policy, mix) cells both documents ran) — so a reduced-matrix smoke
run compares fairly against a full-matrix baseline instead of being
skewed by the cells it skipped.  Documents with no matched cases fall
back to the ratio of the two headline geomeans.  The verdict:

* ``regression``  — ratio below ``1 - threshold``; the CLI exits 1;
* ``improvement`` — ratio above ``1 + threshold`` (time to re-commit
  the baseline so the gate tightens);
* ``ok``          — within the threshold band;
* ``missing-baseline`` — no baseline document to compare against.

Per-case ratios are reported too, because a flat geomean can hide one
policy getting slower while another gets faster.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

PathLike = Union[str, Path]

STATUS_REGRESSION = "regression"
STATUS_IMPROVEMENT = "improvement"
STATUS_OK = "ok"
STATUS_MISSING_BASELINE = "missing-baseline"


#: Phase-breakdown keys diffed between documents (seconds spent per
#: engine phase across the matrix; see ``runner.phase_breakdown``).
_PHASE_KEYS = ("trace_replay_est_s", "access_path_s", "epoch_bookkeeping_s")

#: Host fields whose mismatch makes a timing ratio suspect.
_HOST_KEYS = ("platform", "machine", "cpu_count")


@dataclass(frozen=True)
class PhaseComparison:
    """One engine phase's time, current vs baseline (whole matrix)."""

    phase: str
    baseline_seconds: float
    current_seconds: float

    @property
    def ratio(self) -> float:
        if self.baseline_seconds <= 0:
            return 0.0
        return self.current_seconds / self.baseline_seconds


@dataclass(frozen=True)
class CaseComparison:
    """One (policy, mix) cell diffed against the baseline."""

    policy: str
    mix: str
    baseline_mcycles_per_s: float
    current_mcycles_per_s: float

    @property
    def ratio(self) -> float:
        if self.baseline_mcycles_per_s <= 0:
            return 0.0
        return self.current_mcycles_per_s / self.baseline_mcycles_per_s


@dataclass
class BenchComparison:
    """Outcome of comparing one bench run to one baseline."""

    status: str
    threshold: float
    geomean_ratio: float = 0.0
    baseline_geomean: float = 0.0
    current_geomean: float = 0.0
    cases: List[CaseComparison] = field(default_factory=list)
    missing_cases: List[str] = field(default_factory=list)
    phases: List[PhaseComparison] = field(default_factory=list)
    host_warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status != STATUS_REGRESSION

    def summary(self) -> str:
        if self.status == STATUS_MISSING_BASELINE:
            return "bench: no baseline to compare against"
        if self.cases:
            return (
                f"bench {self.status}: {self.geomean_ratio:.2f}x geomean "
                f"over {len(self.cases)} matched cases "
                f"(threshold +/-{self.threshold:.0%})"
            )
        return (
            f"bench {self.status}: geomean {self.current_geomean:.3f} "
            f"vs baseline {self.baseline_geomean:.3f} Mcycles/s "
            f"({self.geomean_ratio:.2f}x, threshold +/-{self.threshold:.0%})"
        )


def load_bench(path: PathLike) -> Optional[dict]:
    """Load a BENCH_*.json document, or None if the file is absent.

    Artefacts are checksummed ``repro-blob/1`` envelopes around a
    RunRecord (``values["document"]`` holds the timing document); bare
    RunRecord envelopes are accepted too.  Anything else raises
    :class:`ValueError` naming the file.
    """
    path = Path(path)
    if not path.exists():
        return None
    from ..fsio.durable import unwrap_json
    from ..metrics import RunRecord, is_run_record_payload

    data = unwrap_json(json.loads(path.read_text()), path=path)
    if not is_run_record_payload(data):
        raise ValueError(f"{path}: not a bench artefact (no RunRecord)")
    return RunRecord.from_json(data).values.get("document", {})


def compare_benches(
    current: dict,
    baseline: Optional[dict],
    threshold: float = 0.10,
) -> BenchComparison:
    """Diff two bench documents (see module docstring for the verdict)."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if baseline is None:
        return BenchComparison(status=STATUS_MISSING_BASELINE, threshold=threshold)
    base_cases = {
        (c["policy"], c["mix"]): c for c in baseline.get("cases", [])
    }
    cases: List[CaseComparison] = []
    missing: List[str] = []
    for case in current.get("cases", []):
        key = (case["policy"], case["mix"])
        base = base_cases.get(key)
        if base is None:
            missing.append(f"{key[0]}/{key[1]}")
            continue
        cases.append(
            CaseComparison(
                policy=case["policy"],
                mix=case["mix"],
                baseline_mcycles_per_s=base["mcycles_per_s"],
                current_mcycles_per_s=case["mcycles_per_s"],
            )
        )

    # A moved-goalposts warning, not a gate: a ratio taken across two
    # different hosts measures the hardware, not the change.
    host_warnings: List[str] = []
    cur_host = current.get("host") or {}
    base_host = baseline.get("host") or {}
    if cur_host and base_host:
        for key in _HOST_KEYS:
            if cur_host.get(key) != base_host.get(key):
                host_warnings.append(
                    f"host mismatch: {key} {cur_host.get(key)!r} vs "
                    f"baseline {base_host.get(key)!r} — timing ratios "
                    "compare hosts, not the change"
                )

    # Where did a regression go?  The per-phase seconds localise it to
    # record delivery, the access path, or epoch bookkeeping.
    phases: List[PhaseComparison] = []
    cur_phases = current.get("phase_breakdown") or {}
    base_phases = baseline.get("phase_breakdown") or {}
    if cur_phases and base_phases:
        for key in _PHASE_KEYS:
            phases.append(PhaseComparison(
                phase=key[: -len("_s")] if key.endswith("_s") else key,
                baseline_seconds=float(base_phases.get(key, 0.0)),
                current_seconds=float(cur_phases.get(key, 0.0)),
            ))

    baseline_geomean = baseline.get("geomean_mcycles_per_s", 0.0)
    current_geomean = current.get("geomean_mcycles_per_s", 0.0)
    ratios = [c.ratio for c in cases]
    if ratios and all(r > 0 for r in ratios):
        ratio = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    elif ratios:
        ratio = 0.0  # a zero-rate case is a regression by definition
    else:
        ratio = (
            current_geomean / baseline_geomean if baseline_geomean > 0 else 0.0
        )
    if ratio < 1.0 - threshold:
        status = STATUS_REGRESSION
    elif ratio > 1.0 + threshold:
        status = STATUS_IMPROVEMENT
    else:
        status = STATUS_OK
    return BenchComparison(
        status=status,
        threshold=threshold,
        geomean_ratio=ratio,
        baseline_geomean=baseline_geomean,
        current_geomean=current_geomean,
        cases=cases,
        missing_cases=missing,
        phases=phases,
        host_warnings=host_warnings,
    )
