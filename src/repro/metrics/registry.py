"""Declarative metric registry: the single source of metric metadata.

Every counter the reproduction reports — LLC hit counters, per-core
IPC inputs, energy components, NVM wear totals, set-dueling outcomes —
is *declared* here once by its producing module (name, unit, layer,
docstring, aggregation) and *collected* from plain attributes.  The
registry never sits in the access path: hot-path code keeps bumping
ordinary ``int`` attributes exactly as before (the discipline PRs 2–4
established), and collection walks the declared attribute names only
at epoch/report boundaries.

Layers group metrics by producing object::

    llc        -> repro.cache.stats.LLCStats
    core       -> repro.cache.stats.CoreStats        (per core)
    hierarchy  -> repro.cache.stats.HierarchyStats
    sim        -> repro.engine.SimulationResult
    energy     -> repro.timing.energy.EnergyBreakdown
    nvm        -> repro.nvm.wear.WearTracker
    policy     -> repro.core.policy.InsertionPolicy
    experiment / forecast -> experiment unit payloads

``collect(layer, obj)`` returns ``{"<layer>.<name>": value}`` for a
:class:`~repro.metrics.record.RunRecord`'s ``metrics`` mapping;
``collect_raw`` returns plain attribute-name keys — the exact dict
``LLCStats.snapshot()`` forwards to, so its output stays byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Valid aggregation semantics for a metric across runs/units:
#: ``sum`` (additive counter), ``mean`` (average of runs), ``last``
#: (point-in-time observation) and ``derived`` (recomputed from other
#: metrics, never added).
AGGREGATIONS: Tuple[str, ...] = ("sum", "mean", "last", "derived")


class MetricSpecError(ValueError):
    """An invalid or conflicting metric declaration."""


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: identity, metadata and collection source."""

    name: str          # fully-qualified "<layer>.<short_name>"
    short_name: str    # attribute-level name within the layer
    unit: str          # "count", "bytes", "nJ", "instructions/cycle", ...
    layer: str
    doc: str
    aggregation: str = "sum"
    attr: Optional[str] = None  # attribute/method on the producer;
    #                             defaults to ``short_name``

    @property
    def source_attr(self) -> str:
        return self.attr if self.attr is not None else self.short_name


class MetricRegistry:
    """Ordered declaration table with attribute-walking collectors."""

    def __init__(self) -> None:
        self._specs: Dict[str, MetricSpec] = {}
        self._by_layer: Dict[str, List[MetricSpec]] = {}

    # -- declaration ----------------------------------------------------
    def register(
        self,
        layer: str,
        short_name: str,
        unit: str,
        doc: str,
        aggregation: str = "sum",
        attr: Optional[str] = None,
    ) -> MetricSpec:
        """Declare one metric; idempotent for identical redeclarations.

        Modules register at import time, and imports can legitimately
        re-execute (e.g. under test runners); an *identical* duplicate
        is a no-op while a conflicting one is a hard error.
        """
        if not layer or "." in layer:
            raise MetricSpecError(f"invalid layer {layer!r}")
        if not short_name:
            raise MetricSpecError("metric short_name must be non-empty")
        if aggregation not in AGGREGATIONS:
            raise MetricSpecError(
                f"unknown aggregation {aggregation!r} for "
                f"{layer}.{short_name}; choose from {AGGREGATIONS}"
            )
        if not doc:
            raise MetricSpecError(
                f"metric {layer}.{short_name} needs a docstring"
            )
        spec = MetricSpec(
            name=f"{layer}.{short_name}",
            short_name=short_name,
            unit=unit,
            layer=layer,
            doc=doc,
            aggregation=aggregation,
            attr=attr,
        )
        existing = self._specs.get(spec.name)
        if existing is not None:
            if existing != spec:
                raise MetricSpecError(
                    f"conflicting redeclaration of metric {spec.name}"
                )
            return existing
        self._specs[spec.name] = spec
        self._by_layer.setdefault(layer, []).append(spec)
        return spec

    # -- lookup ---------------------------------------------------------
    def get(self, name: str) -> MetricSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"unregistered metric {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[MetricSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> List[str]:
        return list(self._specs)

    def layers(self) -> List[str]:
        return list(self._by_layer)

    def by_layer(self, layer: str) -> List[MetricSpec]:
        return list(self._by_layer.get(layer, ()))

    # -- collection -----------------------------------------------------
    @staticmethod
    def _read(obj: Any, spec: MetricSpec) -> Any:
        value = getattr(obj, spec.source_attr)
        return value() if callable(value) else value

    def collect(self, layer: str, obj: Any) -> Dict[str, Any]:
        """``{"<layer>.<name>": value}`` for a RunRecord's metrics."""
        return {
            spec.name: self._read(obj, spec)
            for spec in self._by_layer.get(layer, ())
        }

    def collect_raw(self, layer: str, obj: Any) -> Dict[str, Any]:
        """Plain attribute-name keys, in declaration order.

        This is what ``LLCStats.snapshot()`` returns — key names and
        values must stay byte-identical to the historical hand-rolled
        dict (the golden digests hash it).
        """
        return {
            spec.short_name: self._read(obj, spec)
            for spec in self._by_layer.get(layer, ())
        }

    # -- validation -----------------------------------------------------
    def validate_metrics(self, metrics: Any) -> List[str]:
        """Schema errors (empty list = valid) for a metrics mapping."""
        errors: List[str] = []
        if not isinstance(metrics, dict):
            return [f"metrics must be a dict, got {type(metrics).__name__}"]
        for name, value in metrics.items():
            if name not in self._specs:
                errors.append(f"unregistered metric {name!r}")
            elif value is not None and not isinstance(value, (int, float)):
                errors.append(
                    f"metric {name!r} must be numeric or null, "
                    f"got {type(value).__name__}"
                )
        return errors


#: The process-wide registry every producing module declares into.
REGISTRY = MetricRegistry()

#: Convenience alias used by producing modules at import time.
register_metric = REGISTRY.register
