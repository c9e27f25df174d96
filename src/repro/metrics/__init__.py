"""The metrics spine: declared metrics + one versioned RunRecord.

``registry``  — declare-once metric metadata (name, unit, layer, doc,
aggregation) with attribute-walking collectors that never touch the
simulation hot path.
``record``    — the versioned, schema-validated :class:`RunRecord`
every producing layer returns and every consuming layer reads.
``export``    — JSON/CSV/JSONL exporters and the committed-artefact
schema check behind ``python -m repro export``.

See docs/metrics.md for the schema and versioning policy.
"""

from .export import (
    EXPORT_FORMATS,
    ExportError,
    check_artifacts,
    export_records,
    load_records,
    to_canonical_json,
    to_flat_csv,
    to_jsonl_events,
)
from .record import (
    RUN_RECORD_SCHEMA,
    RUN_RECORD_VERSION,
    RunRecord,
    SchemaError,
    is_run_record_payload,
)
from .registry import (
    AGGREGATIONS,
    REGISTRY,
    MetricRegistry,
    MetricSpec,
    MetricSpecError,
    register_metric,
)

__all__ = [
    "AGGREGATIONS",
    "EXPORT_FORMATS",
    "ExportError",
    "MetricRegistry",
    "MetricSpec",
    "MetricSpecError",
    "REGISTRY",
    "RUN_RECORD_SCHEMA",
    "RUN_RECORD_VERSION",
    "RunRecord",
    "SchemaError",
    "check_artifacts",
    "export_records",
    "is_run_record_payload",
    "load_records",
    "register_metric",
    "to_canonical_json",
    "to_flat_csv",
    "to_jsonl_events",
]
