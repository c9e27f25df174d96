"""Successive-halving design-space exploration over the analytical tier.

The explorer takes a :class:`~repro.explore.space.ExploreSpace` (1000+
configurations), screens every point with the closed-form estimator at
increasing *fidelity* (more mixes, more seeds per rung), keeps the top
``1/eta`` of each rung, and finally **confirms** the handful of
survivors with real simulations (through
:func:`repro.experiments.common.run_one`).  The Pareto frontier over
(IPC, projected lifetime) is computed from the *confirmed* runs only —
the analytical tier decides what is worth simulating, never what is
reported.

Every artefact is a crash-consistent ``repro.fsio`` envelope under the
output directory:

* ``explore.meta.json`` — the sweep's identity (space, eta, objective,
  scale, rung plan); resume refuses a directory whose meta disagrees;
* ``rung_<r>.json``     — one evaluation per (point, workload) with its
  schema-valid ``repro-run/1`` RunRecord, plus the survivor list;
* ``confirm.json``      — the simulated survivor records;
* ``frontier.json``     — the frontier, the instruction accounting and
  the summary RunRecord.

Interrupted explorations resume: completed rung/confirm artefacts are
verified (checksums) and reused, so a kill after rung *r* re-pays only
rungs *r+1* onwards.  The ``REPRO_EXPLORE_KILL_AFTER`` environment
variable (``rung:<r>`` or ``confirm``) injects a crash right after the
named artefact is durably written — the hook the resume tests and the
ci.sh smoke leg use.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analytical.model import AnalyticalEstimate, AnalyticalModel
from ..metrics.record import RunRecord
from ..metrics.registry import register_metric
from .space import DesignPoint, ExploreSpace

PathLike = Union[str, Path]
Fidelity = Tuple[str, int]            # (mix, seed)

META_SCHEMA = "repro-explore-meta/1"
RUNG_SCHEMA = "repro-explore-rung/1"
CONFIRM_SCHEMA = "repro-explore-confirm/1"
FRONTIER_SCHEMA = "repro-explore-frontier/1"

META_NAME = "explore.meta.json"

#: Crash-injection hook: ``rung:<r>`` or ``confirm``.
KILL_AFTER_ENV = "REPRO_EXPLORE_KILL_AFTER"

OBJECTIVES = ("performance", "lifetime", "balanced")

register_metric("explore", "points_total", "count",
                "Design points in the explored space", aggregation="last")
register_metric("explore", "evaluations", "count",
                "Analytical (point, workload) evaluations performed",
                aggregation="last")
register_metric("explore", "rungs", "count",
                "Successive-halving rungs executed", aggregation="last")
register_metric("explore", "confirmed", "count",
                "Survivors confirmed by real simulation", aggregation="last")
register_metric("explore", "frontier_size", "count",
                "Points on the confirmed (IPC, lifetime) Pareto frontier",
                aggregation="last")
register_metric("explore", "simulated_instructions", "count",
                "Instructions actually simulated (confirm tier)",
                aggregation="last")
register_metric("explore", "exhaustive_instructions_est", "count",
                "Instructions exhaustive full simulation would have cost",
                aggregation="last")
register_metric("explore", "instruction_speedup", "ratio",
                "Exhaustive-over-actual simulated-instruction ratio",
                aggregation="last")


class ExploreError(Exception):
    """Unusable settings or an artefact that contradicts them."""


class ExploreKilled(RuntimeError):
    """Raised by the crash-injection hook after a durable write."""


@dataclass(frozen=True)
class ExploreSettings:
    """Everything that identifies one exploration run."""

    space: str = "default"
    eta: int = 4
    confirm: int = 16
    objective: str = "balanced"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.eta < 2:
            raise ExploreError(f"eta must be >= 2, got {self.eta}")
        if self.confirm < 1:
            raise ExploreError(f"confirm must be >= 1, got {self.confirm}")
        if self.objective not in OBJECTIVES:
            raise ExploreError(
                f"unknown objective {self.objective!r}; "
                f"choose from {', '.join(OBJECTIVES)}"
            )


@dataclass
class Evaluation:
    """One point's aggregate outcome at one rung's fidelity."""

    point: DesignPoint
    mean_ipc: float
    llc_hit_rate: float
    nvm_write_rate: float
    lifetime_seconds: float
    records: List[RunRecord] = field(default_factory=list)
    score: float = 0.0

    def metrics_json(self) -> Dict[str, float]:
        return {
            "mean_ipc": self.mean_ipc,
            "llc_hit_rate": self.llc_hit_rate,
            "nvm_write_rate": self.nvm_write_rate,
            "lifetime_seconds": self.lifetime_seconds,
        }


@dataclass
class ExploreResult:
    """What :meth:`Explorer.run` hands back to the caller."""

    out_dir: Path
    n_points: int
    n_evaluations: int
    n_rungs: int
    confirmed: List[Evaluation]
    frontier: List[Evaluation]
    simulated_instructions: float
    exhaustive_instructions_est: float

    @property
    def instruction_speedup(self) -> float:
        if self.simulated_instructions <= 0:
            return float("inf")
        return self.exhaustive_instructions_est / self.simulated_instructions

    def summary_record(self) -> RunRecord:
        record = RunRecord(kind="explore", meta={
            "out_dir": str(self.out_dir),
        })
        record.metrics["explore.points_total"] = self.n_points
        record.metrics["explore.evaluations"] = self.n_evaluations
        record.metrics["explore.rungs"] = self.n_rungs
        record.metrics["explore.confirmed"] = len(self.confirmed)
        record.metrics["explore.frontier_size"] = len(self.frontier)
        record.metrics["explore.simulated_instructions"] = (
            self.simulated_instructions)
        record.metrics["explore.exhaustive_instructions_est"] = (
            self.exhaustive_instructions_est)
        record.metrics["explore.instruction_speedup"] = (
            self.instruction_speedup
            if math.isfinite(self.instruction_speedup) else 0.0
        )
        return record


def rung_plan(scale, seed: int) -> List[List[Fidelity]]:
    """Fidelity ladder: one mix, then every mix, then a second seed."""
    mixes = list(scale.mixes)
    plan: List[List[Fidelity]] = [[(mixes[0], seed)]]
    if len(mixes) > 1:
        plan.append([(m, seed) for m in mixes])
    plan.append([(m, s) for s in (seed, seed + 1) for m in mixes])
    return plan


def pareto_front(evaluations: Sequence[Evaluation]) -> List[Evaluation]:
    """Non-dominated subset maximising (mean_ipc, lifetime_seconds)."""
    front: List[Evaluation] = []
    for cand in evaluations:
        dominated = any(
            other.mean_ipc >= cand.mean_ipc
            and other.lifetime_seconds >= cand.lifetime_seconds
            and (other.mean_ipc > cand.mean_ipc
                 or other.lifetime_seconds > cand.lifetime_seconds)
            for other in evaluations
        )
        if not dominated:
            front.append(cand)
    front.sort(key=lambda e: (-e.mean_ipc, e.point.key()))
    return front


def _apply_scores(cohort: List[Evaluation], objective: str) -> None:
    if objective == "performance":
        for e in cohort:
            e.score = e.mean_ipc
        return
    if objective == "lifetime":
        for e in cohort:
            e.score = e.lifetime_seconds
        return
    ipc_max = max((e.mean_ipc for e in cohort), default=0.0) or 1.0
    life_max = max((e.lifetime_seconds for e in cohort
                    if math.isfinite(e.lifetime_seconds)), default=0.0) or 1.0
    for e in cohort:
        life = (e.lifetime_seconds / life_max
                if math.isfinite(e.lifetime_seconds) else 1.0)
        e.score = (e.mean_ipc / ipc_max) * life


class Explorer:
    """One exploration run bound to (scale, out_dir, settings)."""

    def __init__(
        self,
        scale,
        out_dir: PathLike,
        settings: ExploreSettings = ExploreSettings(),
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.scale = scale
        self.out_dir = Path(out_dir)
        self.settings = settings
        self.space = ExploreSpace.by_name(settings.space)
        self.plan = rung_plan(scale, settings.seed)
        self._progress = progress or (lambda message: None)
        self._models: Dict[Tuple[int, int, float], AnalyticalModel] = {}
        self._estimates: Dict[Tuple[Any, ...], AnalyticalEstimate] = {}
        self._workloads: Dict[Fidelity, Any] = {}
        self.n_evaluations = 0

    # -- shared caches -------------------------------------------------
    def _workload(self, fidelity: Fidelity):
        workload = self._workloads.get(fidelity)
        if workload is None:
            workload = self.scale.workload(fidelity[0], seed=fidelity[1])
            self._workloads[fidelity] = workload
        return workload

    def _model(self, point: DesignPoint) -> AnalyticalModel:
        key = (point.sram_ways, point.nvm_ways, point.cv)
        model = self._models.get(key)
        if model is None:
            model = AnalyticalModel(point.system(self.scale))
            self._models[key] = model
        return model

    def _estimate(self, point: DesignPoint,
                  fidelity: Fidelity) -> AnalyticalEstimate:
        """One (point, workload) analytical evaluation.

        Hit/write behaviour is cv-independent, so estimates are cached
        per (policy, way split, workload) and only the lifetime is
        recomputed through the point's own endurance model.
        """
        desc = point.descriptor()
        cache_key = (desc, point.sram_ways, point.nvm_ways, fidelity)
        est = self._estimates.get(cache_key)
        if est is None:
            base = DesignPoint.of(point.policy, sram_ways=point.sram_ways,
                                  nvm_ways=point.nvm_ways,
                                  **dict(point.params))
            est = self._model(base).estimate(self._workload(fidelity), desc)
            self._estimates[cache_key] = est
        lifetime = self._model(point)._lifetime_seconds(
            desc, est.nvm_write_rate)
        return AnalyticalEstimate(
            mean_ipc=est.mean_ipc,
            llc_hit_rate=est.llc_hit_rate,
            nvm_write_rate=est.nvm_write_rate,
            lifetime_seconds=lifetime,
            elected_cpth=est.elected_cpth,
            ipcs=list(est.ipcs),
            details=dict(est.details),
        )

    # -- artefact helpers ----------------------------------------------
    def _path(self, name: str) -> Path:
        return self.out_dir / name

    def _write(self, name: str, payload: Any, schema: str) -> None:
        from ..fsio.durable import write_blob_json

        self.out_dir.mkdir(parents=True, exist_ok=True)
        write_blob_json(self._path(name), payload, schema=schema)

    def _load(self, name: str, schema: str) -> Optional[Any]:
        """A verified artefact's payload, or None if absent/corrupt.

        A corrupt (checksum-failing) artefact is treated as absent —
        the stage recomputes and rewrites it — never trusted.
        """
        from ..fsio.durable import BlobError, unwrap_json

        path = self._path(name)
        if not path.exists():
            return None
        try:
            return unwrap_json(json.loads(path.read_text()), schema=schema,
                               path=path)
        except (ValueError, BlobError):
            return None

    def _maybe_kill(self, stage: str) -> None:
        if os.environ.get(KILL_AFTER_ENV) == stage:
            raise ExploreKilled(
                f"killed by {KILL_AFTER_ENV} after durable write of {stage}"
            )

    # -- meta ----------------------------------------------------------
    def _meta_payload(self) -> Dict[str, Any]:
        return {
            "scale": self.scale.name,
            "space": self.space.name,
            "n_points": len(self.space),
            "eta": self.settings.eta,
            "confirm": self.settings.confirm,
            "objective": self.settings.objective,
            "seed": self.settings.seed,
            "rungs": [
                [{"mix": mix, "seed": seed} for mix, seed in rung]
                for rung in self.plan
            ],
        }

    def _check_meta(self, resume: bool) -> None:
        existing = self._load(META_NAME, META_SCHEMA)
        payload = self._meta_payload()
        if existing is not None:
            if existing != payload:
                raise ExploreError(
                    f"{self._path(META_NAME)} describes a different "
                    "exploration (space/eta/objective/scale mismatch); "
                    "use a fresh --out directory"
                )
            return
        if resume and self._path(META_NAME).exists():
            raise ExploreError(
                f"{self._path(META_NAME)} is corrupt; cannot resume"
            )
        self._write(META_NAME, payload, META_SCHEMA)

    # -- rungs ---------------------------------------------------------
    def _evaluate_cohort(self, cohort: List[DesignPoint],
                         fidelity: List[Fidelity]) -> List[Evaluation]:
        evaluations: List[Evaluation] = []
        for point in cohort:
            records: List[RunRecord] = []
            ipcs: List[float] = []
            hits: List[float] = []
            writes: List[float] = []
            for fid in fidelity:
                est = self._estimate(point, fid)
                self.n_evaluations += 1
                record = est.to_run_record(meta={
                    "policy": {"name": point.policy, **dict(point.params)},
                    "point": point.key(),
                    "mix": fid[0],
                    "seed": fid[1],
                    "estimator": "analytical/1",
                })
                record.validate()
                records.append(record)
                ipcs.append(est.mean_ipc)
                hits.append(est.llc_hit_rate)
                writes.append(est.nvm_write_rate)
            write_rate = sum(writes) / len(writes)
            lifetime = self._model(point)._lifetime_seconds(
                point.descriptor(), write_rate)
            evaluations.append(Evaluation(
                point=point,
                mean_ipc=sum(ipcs) / len(ipcs),
                llc_hit_rate=sum(hits) / len(hits),
                nvm_write_rate=write_rate,
                lifetime_seconds=lifetime,
                records=records,
            ))
        return evaluations

    def _run_rung(self, index: int, cohort: List[DesignPoint]) -> List[DesignPoint]:
        name = f"rung_{index}.json"
        by_key = {p.key(): p for p in cohort}
        cached = self._load(name, RUNG_SCHEMA)
        if cached is not None and set(cached.get("cohort", ())) == set(by_key):
            survivors = [by_key[k] for k in cached["survivors"]]
            self.n_evaluations += int(cached.get("n_evaluations", 0))
            self._progress(
                f"rung {index}: resumed ({len(cohort)} -> "
                f"{len(survivors)} points)"
            )
            return survivors

        fidelity = self.plan[index]
        evaluations = self._evaluate_cohort(cohort, fidelity)
        _apply_scores(evaluations, self.settings.objective)
        evaluations.sort(key=lambda e: (-e.score, e.point.key()))
        keep = max(self.settings.confirm,
                   math.ceil(len(evaluations) / self.settings.eta))
        survivors = [e.point for e in evaluations[:keep]]
        payload = {
            "rung": index,
            "fidelity": [{"mix": m, "seed": s} for m, s in fidelity],
            "cohort": sorted(by_key),
            "n_evaluations": len(evaluations) * len(fidelity),
            "evaluations": [
                {
                    "point": e.point.to_json(),
                    "key": e.point.key(),
                    "score": e.score,
                    "metrics": e.metrics_json(),
                    "records": [r.to_json() for r in e.records],
                }
                for e in evaluations
            ],
            "survivors": [p.key() for p in survivors],
        }
        self._write(name, payload, RUNG_SCHEMA)
        self._progress(
            f"rung {index}: {len(cohort)} points x {len(fidelity)} "
            f"workloads -> kept {len(survivors)}"
        )
        self._maybe_kill(f"rung:{index}")
        return survivors

    # -- confirm tier --------------------------------------------------
    def _confirm(self, survivors: List[DesignPoint]) -> Tuple[List[Evaluation], float]:
        from ..experiments.common import run_one

        name = "confirm.json"
        by_key = {p.key(): p for p in survivors}
        fidelity = [(m, self.settings.seed) for m in self.scale.mixes]
        cached = self._load(name, CONFIRM_SCHEMA)
        if cached is not None and set(
            e["key"] for e in cached.get("evaluations", ())
        ) == set(by_key):
            confirmed = [
                Evaluation(
                    point=DesignPoint.from_json(e["point"]),
                    records=[RunRecord.from_json(r) for r in e["records"]],
                    **e["metrics"],
                )
                for e in cached["evaluations"]
            ]
            self._progress(f"confirm: resumed ({len(confirmed)} points)")
            return confirmed, float(cached["simulated_instructions"])

        confirmed: List[Evaluation] = []
        instructions = 0.0
        for point in sorted(survivors, key=lambda p: p.key()):
            config = point.system(self.scale)
            model = self._model(point)
            desc = point.descriptor()
            records: List[RunRecord] = []
            ipcs: List[float] = []
            hit_rates: List[float] = []
            write_rates: List[float] = []
            for mix, seed in fidelity:
                workload = self._workload((mix, seed))
                record = run_one(
                    config, desc.make(config), workload,
                    self.scale.warmup_epochs, self.scale.phase_epochs,
                )
                record.meta["point"] = point.key()
                records.append(record)
                m = record.metrics
                accesses = m["llc.gets"] + m["llc.getx"]
                llc_hits = m["llc.gets_hits"] + m["llc.getx_hits"]
                seconds = m["sim.seconds"] or 0.0
                ipcs.append(m["hierarchy.mean_ipc"])
                hit_rates.append(llc_hits / accesses if accesses else 0.0)
                write_rates.append(
                    m["llc.nvm_bytes_written"] / seconds if seconds else 0.0)
                instructions += float(m["hierarchy.total_instructions"])
            write_rate = sum(write_rates) / len(write_rates)
            confirmed.append(Evaluation(
                point=point,
                mean_ipc=sum(ipcs) / len(ipcs),
                llc_hit_rate=sum(hit_rates) / len(hit_rates),
                nvm_write_rate=write_rate,
                lifetime_seconds=model._lifetime_seconds(desc, write_rate),
                records=records,
            ))
            self._progress(f"confirm: simulated {point.key()}")

        payload = {
            "fidelity": [{"mix": m, "seed": s} for m, s in fidelity],
            "simulated_instructions": instructions,
            "evaluations": [
                {
                    "point": e.point.to_json(),
                    "key": e.point.key(),
                    "metrics": e.metrics_json(),
                    "records": [r.to_json() for r in e.records],
                }
                for e in confirmed
            ],
        }
        self._write(name, payload, CONFIRM_SCHEMA)
        self._maybe_kill("confirm")
        return confirmed, instructions

    # -- entry point ---------------------------------------------------
    def run(self, resume: bool = False) -> ExploreResult:
        self._check_meta(resume)
        cohort = list(self.space.points)
        for index in range(len(self.plan)):
            cohort = self._run_rung(index, cohort)
        survivors = cohort[: self.settings.confirm]

        confirmed, instructions = self._confirm(survivors)
        frontier = pareto_front(confirmed)

        per_sim = (instructions / max(1, len(confirmed) * len(self.scale.mixes)))
        exhaustive = per_sim * len(self.space) * len(self.scale.mixes)
        result = ExploreResult(
            out_dir=self.out_dir,
            n_points=len(self.space),
            n_evaluations=self.n_evaluations,
            n_rungs=len(self.plan),
            confirmed=confirmed,
            frontier=frontier,
            simulated_instructions=instructions,
            exhaustive_instructions_est=exhaustive,
        )
        summary = result.summary_record()
        summary.validate()
        payload = {
            "objective": self.settings.objective,
            "frontier": [
                {
                    "point": e.point.to_json(),
                    "key": e.point.key(),
                    "metrics": e.metrics_json(),
                }
                for e in frontier
            ],
            "confirmed": [e.point.key() for e in confirmed],
            "simulated_instructions": instructions,
            "exhaustive_instructions_est": exhaustive,
            "instruction_speedup": (
                result.instruction_speedup
                if math.isfinite(result.instruction_speedup) else None
            ),
            "summary_record": summary.to_json(),
        }
        self._write("frontier.json", payload, FRONTIER_SCHEMA)
        self._progress(
            f"frontier: {len(frontier)} of {len(confirmed)} confirmed "
            f"points; {result.instruction_speedup:.0f}x fewer simulated "
            "instructions than exhaustive"
        )
        return result


def run_explore(
    scale,
    out_dir: PathLike,
    settings: ExploreSettings = ExploreSettings(),
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> ExploreResult:
    """Convenience wrapper: build an :class:`Explorer` and run it."""
    return Explorer(scale, out_dir, settings, progress=progress).run(
        resume=resume)
