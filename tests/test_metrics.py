"""Metrics spine tests: registry metadata, RunRecord round-trips,
exporter equivalence and the committed-artefact schema gate.

The contract: one versioned RunRecord is the result shape of every
producing layer; every metric it carries is declared (name, unit,
layer, doc, aggregation) in the registry; serialisation round-trips
exactly; unknown versions/fields/metrics are *loud* SchemaErrors; and
the exporters reproduce the numbers the pre-spine consumers printed.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Import every registering module so the registry is complete.
import repro  # noqa: F401
import repro.experiments.compressibility  # noqa: F401  (fig2.*)
import repro.experiments.lifetime  # noqa: F401  (forecast.*)
from repro.cache.stats import CoreStats, LLCStats
from repro.core import make_policy
from repro.experiments.common import get_scale, run_one
from repro.experiments.report import format_records, format_run_records
from repro.experiments.tables import run_table_unit, table1_rows
from repro.metrics import (
    AGGREGATIONS,
    REGISTRY,
    RUN_RECORD_SCHEMA,
    MetricRegistry,
    MetricSpecError,
    RunRecord,
    SchemaError,
    check_artifacts,
    export_records,
    is_run_record_payload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Registry metadata.
def test_every_registered_metric_carries_full_metadata():
    assert len(REGISTRY) > 30
    for spec in REGISTRY:
        assert spec.name == f"{spec.layer}.{spec.short_name}"
        assert spec.unit, f"{spec.name} lacks a unit"
        assert spec.doc, f"{spec.name} lacks a docstring"
        assert spec.aggregation in AGGREGATIONS


def test_llc_layer_matches_dataclass_and_snapshot_is_byte_identical():
    declared = [s.short_name for s in REGISTRY.by_layer("llc")]
    assert declared == [f.name for f in dataclasses.fields(LLCStats)]
    stats = LLCStats()
    stats.gets_hits = 7
    stats.nvm_bytes_written = 1234
    hand_rolled = {
        f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
    }
    assert stats.snapshot() == hand_rolled
    assert list(stats.snapshot()) == list(hand_rolled)  # key order too


def test_core_layer_covers_corestats_fields():
    declared = {s.short_name for s in REGISTRY.by_layer("core")}
    assert {f.name for f in dataclasses.fields(CoreStats)} <= declared


def test_registration_is_idempotent_but_conflicts_are_loud():
    registry = MetricRegistry()
    first = registry.register("t", "x", "count", "a test metric")
    again = registry.register("t", "x", "count", "a test metric")
    assert first is again and len(registry) == 1
    with pytest.raises(MetricSpecError):
        registry.register("t", "x", "bytes", "a test metric")
    with pytest.raises(MetricSpecError):
        registry.register("t", "y", "count", "bad agg", aggregation="max")
    with pytest.raises(MetricSpecError):
        registry.register("t", "z", "count", "")  # no doc


# ----------------------------------------------------------------------
# RunRecord round-trips and schema rejection.
_metric_names = st.sampled_from(REGISTRY.names())
_numbers = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=10)
)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.text(min_size=1, max_size=12),
    metrics=st.dictionaries(_metric_names, _numbers, max_size=8),
    meta=st.dictionaries(st.text(max_size=8), _json_scalars, max_size=4),
    values=st.dictionaries(
        st.text(max_size=8), st.lists(_json_scalars, max_size=3), max_size=3
    ),
    events=st.lists(
        st.dictionaries(st.text(max_size=8), _json_scalars, max_size=3),
        max_size=3,
    ),
)
def test_run_record_round_trips_exactly(kind, metrics, meta, values, events):
    record = RunRecord(
        kind=kind, meta=meta, metrics=metrics, values=values, events=events
    )
    payload = record.to_json()
    assert is_run_record_payload(payload)
    # JSON-serialisable and stable through an actual dump/load cycle.
    rehydrated = RunRecord.from_json(json.loads(json.dumps(payload)))
    assert rehydrated == record
    assert rehydrated.to_json() == payload


def test_unknown_schema_version_is_rejected():
    payload = RunRecord(kind="unit").to_json()
    payload["schema"] = "repro-run/999"
    with pytest.raises(SchemaError):
        RunRecord.from_json(payload)
    assert is_run_record_payload(payload)  # still *looks* like a record


def test_unknown_fields_and_metrics_are_rejected():
    good = RunRecord(kind="unit", metrics={"llc.gets": 1}).to_json()
    RunRecord.from_json(good)  # sanity
    with pytest.raises(SchemaError):
        RunRecord.from_json({**good, "extra_field": 1})
    with pytest.raises(SchemaError):
        RunRecord.from_json({**good, "metrics": {"llc.access_count": 1}})
    with pytest.raises(SchemaError):
        RunRecord.from_json({**good, "metrics": {"llc.gets": "many"}})
    with pytest.raises(SchemaError):
        RunRecord.from_json([good])
    with pytest.raises(SchemaError):
        RunRecord(kind="").to_json()


# ----------------------------------------------------------------------
# Live simulation records: the façade and the collected metrics agree.
@pytest.fixture(scope="module")
def sim_record():
    scale = get_scale("smoke")
    return run_one(
        scale.system(),
        make_policy("cp_sd"),
        scale.workload("mix1"),
        warmup_epochs=0.5,
        measure_epochs=1.0,
    )


def test_run_one_returns_a_live_validated_record(sim_record):
    assert isinstance(sim_record, RunRecord)
    assert sim_record.schema == RUN_RECORD_SCHEMA
    assert sim_record.result is not None
    result = sim_record.result
    # Façade delegates to the live result ...
    assert sim_record.mean_ipc == result.mean_ipc
    assert sim_record.stats is result.stats
    # ... and the collected metrics hold the same numbers.
    assert sim_record.metrics["llc.gets"] == result.stats.llc.gets
    assert sim_record.metrics["sim.mean_ipc"] == result.mean_ipc
    assert sim_record.metrics["nvm.bytes_written"] >= 0
    assert sim_record.meta["policy"]["name"]
    assert any(e["event"] == "epoch" for e in sim_record.events)


def test_detached_record_serves_the_same_numbers(sim_record):
    detached = RunRecord.from_json(
        json.loads(json.dumps(sim_record.to_json()))
    )
    assert detached.result is None
    assert detached.mean_ipc == sim_record.mean_ipc
    assert detached.hit_rate == sim_record.hit_rate
    assert detached.cycles == sim_record.cycles
    assert detached.nvm_bytes_written == sim_record.nvm_bytes_written
    assert detached.llc_hits == sim_record.result.llc_hits
    assert detached.ipcs == list(sim_record.result.ipcs)
    with pytest.raises(AttributeError):
        detached.stats  # live objects are gone, loudly


# ----------------------------------------------------------------------
# Exporters reproduce the pre-spine numbers.
def test_table_unit_reproduces_the_report_table():
    record = run_table_unit(get_scale("smoke"), "table1")
    assert record.kind == "table"
    expected = format_records(table1_rows(), "Table I")
    assert format_records(record.values["rows"], "Table I") == expected


def test_exporters_render_the_collected_values(sim_record):
    records = [sim_record]

    payload = json.loads(export_records(records, "json"))
    assert payload == sim_record.to_json()

    csv_text = export_records(records, "csv")
    lines = csv_text.strip().splitlines()
    assert lines[0] == "record,kind,metric,value,unit,layer,aggregation"
    accesses = sim_record.metrics["llc.gets"]
    assert any(
        line.split(",")[2:4] == ["llc.gets", str(accesses)]
        for line in lines[1:]
    )

    jsonl = [json.loads(line) for line in
             export_records(records, "jsonl").strip().splitlines()]
    assert jsonl[0]["event"] == "task"
    assert jsonl[0]["metrics"] == sim_record.metrics
    assert sum(1 for e in jsonl if e.get("event") == "epoch") == len(
        sim_record.events
    )

    table = format_run_records(records, "smoke run")
    assert "llc.gets" in table and "smoke run" in table


def test_check_artifacts_passes_on_committed_tree():
    checked, errors = check_artifacts(repo_root=REPO_ROOT)
    assert errors == []
    assert any("BENCH_explore" in c for c in checked)
    assert not any("BENCH_engine" in c for c in checked)
    assert any("determinism.json" in c for c in checked)


def test_check_artifacts_flags_drifted_extra_file(tmp_path):
    stale = RunRecord(kind="unit", metrics={"llc.gets": 1}).to_json()
    stale["schema"] = "repro-run/0"
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(stale))
    _, errors = check_artifacts(repo_root=REPO_ROOT, extra_paths=[path])
    assert any("stale.json" in e for e in errors)


def test_check_artifacts_flags_bench_record_without_memo_or_explore(tmp_path):
    from repro.bench import BENCH_SCHEMA, write_bench

    # An engine-rate matrix document (per-case rates and nothing else)
    # and a memo bench document: neither carries an explore section.
    engine = write_bench({
        "schema": BENCH_SCHEMA,
        "label": "engine",
        "cases": [{"policy": "bh", "mix": "mix1", "mcycles_per_s": 1.0}],
    }, tmp_path)
    memo = write_bench({
        "schema": BENCH_SCHEMA,
        "label": "memo",
        "memo": {"campaign": {"units": 14, "verified_identical": True}},
    }, tmp_path)
    _, errors = check_artifacts(
        repo_root=REPO_ROOT, extra_paths=[engine, memo]
    )
    assert [e for e in errors if str(tmp_path) in e] == [
        f"{engine}: bench record has no explore document",
        f"{memo}: bench record has no explore document",
    ]
