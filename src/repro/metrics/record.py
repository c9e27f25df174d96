"""The versioned RunRecord: one result shape from engine to report.

Every producing layer — ``run_one``, the campaign unit runners, the
campaign scheduler — returns a :class:`RunRecord`; every consuming layer —
exporters, ``repro doctor``, analysis, reports — reads one.  The
record is deliberately small:

``schema``
    ``"repro-run/<version>"``.  Loaders reject unknown versions, so a
    schema change can never silently serve old-shape payloads.
``kind``
    What produced the record: ``simulation``, ``table``, ``unit``,
    ``forecast``, ``campaign-health`` — free-form but stable per
    producer.
``meta``
    JSON-able provenance (policy/workload identity from
    :mod:`repro.manifest`, experiment/unit/scale labels, ...).
``metrics``
    Flat ``{"<layer>.<name>": number}`` mapping whose keys must be
    declared in the :mod:`~repro.metrics.registry` — validation fails
    on any unregistered name, which is what makes a metric rename a
    *loud* schema event instead of silent drift.
``values``
    Free-form JSON-able payloads that are not scalar metrics (table
    rows, winner-share distributions, per-core breakdowns).
``events``
    Ordered event stream (epoch records), exported as JSONL.

A record built from a live :class:`~repro.engine.SimulationResult`
keeps a (non-serialised) reference to it and delegates the historical
accessors (``stats``, ``epochs``, ``ipcs``, ``cycles``, ...), so
existing callers — including the byte-identity golden digests in
:mod:`repro.bench.golden` — work unchanged on the returned record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from .registry import REGISTRY, MetricRegistry

#: Bump on any backward-incompatible change to the record layout or to
#: the meaning of a registered metric; see docs/metrics.md for policy.
RUN_RECORD_VERSION = 1
RUN_RECORD_SCHEMA = f"repro-run/{RUN_RECORD_VERSION}"

#: The serialised field set; anything else in a payload is a schema
#: violation (loud, so drifted producers/caches surface immediately).
_RECORD_FIELDS = ("schema", "kind", "meta", "metrics", "values", "events")


class SchemaError(ValueError):
    """A payload that does not parse as a current-schema RunRecord."""


@dataclass
class RunRecord:
    """One versioned, registry-validated result record."""

    kind: str = "run"
    meta: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    values: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    schema: str = RUN_RECORD_SCHEMA
    #: Live simulation result this record was built from, if any.
    #: Never serialised; enables the compatibility accessors below.
    result: Optional[Any] = field(
        default=None, repr=False, compare=False
    )

    # -- construction ---------------------------------------------------
    @classmethod
    def from_simulation(
        cls,
        result: Any,
        kind: str = "simulation",
        meta: Optional[Mapping[str, Any]] = None,
        policy: Optional[Any] = None,
    ) -> "RunRecord":
        """Collect every registered layer of a finished simulation.

        ``result`` is a :class:`~repro.engine.SimulationResult` (duck
        typed); ``policy`` optionally contributes the ``policy.*``
        layer (``current_cpth`` et al.).  Collection happens *after*
        the run — the registry never touches the hot path.
        """
        stats = result.stats
        metrics: Dict[str, Any] = {}
        metrics.update(REGISTRY.collect("llc", stats.llc))
        metrics.update(REGISTRY.collect("hierarchy", stats))
        metrics.update(REGISTRY.collect("sim", result))
        if policy is not None:
            metrics.update(REGISTRY.collect("policy", policy))
        values: Dict[str, Any] = {
            "cores": [
                REGISTRY.collect_raw("core", core) for core in stats.cores
            ],
            "ipcs": list(result.ipcs),
        }
        events = [
            {
                "event": "epoch",
                "index": e.index,
                "end_cycle": e.end_cycle,
                "hits": e.hits,
                "nvm_bytes_written": e.nvm_bytes_written,
                "winner_cpth": e.winner_cpth,
                "after_warmup": bool(e.after_warmup),
            }
            for e in result.epochs
        ]
        return cls(
            kind=kind,
            meta=dict(meta or {}),
            metrics=metrics,
            values=values,
            events=events,
            result=result,
        )

    # -- serialisation --------------------------------------------------
    def validate(self, registry: MetricRegistry = REGISTRY) -> None:
        """Raise :class:`SchemaError` unless this record is well-formed."""
        if self.schema != RUN_RECORD_SCHEMA:
            raise SchemaError(
                f"unknown RunRecord schema {self.schema!r} "
                f"(this build reads {RUN_RECORD_SCHEMA!r})"
            )
        if not isinstance(self.kind, str) or not self.kind:
            raise SchemaError("RunRecord.kind must be a non-empty string")
        for name, expected in (
            ("meta", dict), ("values", dict), ("events", list)
        ):
            if not isinstance(getattr(self, name), expected):
                raise SchemaError(
                    f"RunRecord.{name} must be a {expected.__name__}"
                )
        errors = registry.validate_metrics(self.metrics)
        if errors:
            raise SchemaError("; ".join(errors))

    def to_json(self) -> Dict[str, Any]:
        """The JSON-able payload (validated); ``result`` is dropped."""
        self.validate()
        return {
            "schema": self.schema,
            "kind": self.kind,
            "meta": self.meta,
            "metrics": self.metrics,
            "values": self.values,
            "events": self.events,
        }

    @classmethod
    def from_json(
        cls, data: Any, registry: MetricRegistry = REGISTRY
    ) -> "RunRecord":
        """Parse and validate a payload; any defect is a SchemaError."""
        if not isinstance(data, dict):
            raise SchemaError(
                f"RunRecord payload must be a dict, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(_RECORD_FIELDS))
        if unknown:
            raise SchemaError(f"unknown RunRecord fields {unknown}")
        if "schema" not in data or "kind" not in data:
            raise SchemaError("RunRecord payload needs 'schema' and 'kind'")
        record = cls(
            kind=data["kind"],
            meta=data.get("meta", {}),
            metrics=data.get("metrics", {}),
            values=data.get("values", {}),
            events=data.get("events", []),
            schema=data["schema"],
        )
        record.validate(registry)
        return record

    # -- reading --------------------------------------------------------
    def metric(self, name: str, default: Any = None) -> Any:
        return self.metrics.get(name, default)

    # -- compatibility accessors ---------------------------------------
    # Callers that predate the metrics spine read simulation results
    # attribute-wise; a record built from a live run delegates to it
    # (exactly — the golden digests hash those objects), and a record
    # parsed back from JSON falls back to its collected metrics.
    def _live(self) -> Any:
        if self.result is None:
            raise AttributeError(
                "detached RunRecord (parsed from JSON) has no live "
                "simulation objects; read .metrics/.values instead"
            )
        return self.result

    @property
    def stats(self) -> Any:
        return self._live().stats

    @property
    def epochs(self) -> Any:
        return self._live().epochs

    @property
    def ipcs(self) -> List[float]:
        if self.result is not None:
            return self.result.ipcs
        return list(self.values.get("ipcs", ()))

    @property
    def cycles(self) -> float:
        if self.result is not None:
            return self.result.cycles
        return self.metric("sim.cycles")

    @property
    def seconds(self) -> float:
        if self.result is not None:
            return self.result.seconds
        return self.metric("sim.seconds")

    @property
    def mean_ipc(self) -> float:
        if self.result is not None:
            return self.result.mean_ipc
        return self.metric("sim.mean_ipc")

    @property
    def hit_rate(self) -> float:
        if self.result is not None:
            return self.result.hit_rate
        return self.metric("sim.hit_rate")

    @property
    def llc_hits(self) -> int:
        if self.result is not None:
            return self.result.llc_hits
        return self.metric("llc.gets_hits", 0) + self.metric("llc.getx_hits", 0)

    @property
    def nvm_bytes_written(self) -> int:
        if self.result is not None:
            return self.result.nvm_bytes_written
        return self.metric("llc.nvm_bytes_written")


def is_run_record_payload(data: Any) -> bool:
    """Does ``data`` look like a serialised RunRecord (any version)?"""
    return (
        isinstance(data, dict)
        and isinstance(data.get("schema"), str)
        and data["schema"].startswith("repro-run/")
    )
