"""Bench suite: document schema, baseline gate verdicts, CLI exit code."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    STATUS_IMPROVEMENT,
    STATUS_MISSING_BASELINE,
    STATUS_OK,
    STATUS_REGRESSION,
    BenchMatrix,
    MemoBenchError,
    compare_benches,
    load_bench,
    run_bench,
    run_memo_bench,
    write_bench,
)
from repro.bench import memo as memo_bench
from repro.experiments.common import SMOKE

MEMO_BASELINE = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "results" / "BENCH_memo.json"
)
MEMO_CASES = [("campaign", "cold"), ("campaign", "cache_served")]


def _document(geomean, cases=(), label="t"):
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "geomean_mcycles_per_s": geomean,
        "cases": [
            {"policy": p, "mix": m, "mcycles_per_s": v} for p, m, v in cases
        ],
    }


# ----------------------------------------------------------------------
# real run: schema of the canonical artefact
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_document():
    matrix = BenchMatrix(
        policies=("bh",), mixes=("mix1",), epochs=0.5, warmup_epochs=0.25
    )
    return run_bench(SMOKE, matrix=matrix, label="unittest")


def test_run_bench_document_schema(bench_document):
    doc = bench_document
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["label"] == "unittest"
    assert doc["scale"] == "smoke"
    assert doc["matrix"]["policies"] == ["bh"]
    assert doc["workload_build"]["records"] > 0
    assert doc["raw_replay"]["records_per_s"] > 0
    assert len(doc["cases"]) == 1
    case = doc["cases"][0]
    assert case["policy"] == "bh" and case["mix"] == "mix1"
    assert case["mcycles_per_s"] > 0
    assert doc["geomean_mcycles_per_s"] == case["mcycles_per_s"]


def test_write_bench_roundtrip(bench_document, tmp_path):
    path = write_bench(bench_document, tmp_path)
    assert path.name == "BENCH_unittest.json"
    # On disk: a checksummed repro-blob/1 envelope around the versioned
    # RunRecord, document embedded verbatim with the geomean surfaced
    # as a registered metric.
    on_disk = json.loads(path.read_text())
    assert on_disk["format"] == "repro-blob/1"
    assert on_disk["schema"] == "repro-bench-artifact/1"
    record = on_disk["payload"]
    assert record["schema"] == "repro-run/1"
    assert record["kind"] == "bench"
    assert record["values"]["document"] == bench_document
    assert record["metrics"]["bench.geomean_mcycles_per_s"] == (
        bench_document["geomean_mcycles_per_s"]
    )
    # load_bench unwraps back to the timing document ...
    assert load_bench(path) == bench_document
    assert load_bench(tmp_path / "BENCH_absent.json") is None
    # ... and refuses a raw pre-envelope document, naming the file.
    legacy = tmp_path / "BENCH_legacy.json"
    legacy.write_text(json.dumps(bench_document))
    with pytest.raises(ValueError, match="BENCH_legacy.json"):
        load_bench(legacy)


# ----------------------------------------------------------------------
# baseline gate verdicts (synthetic documents)
# ----------------------------------------------------------------------

def test_compare_missing_baseline():
    comparison = compare_benches(_document(1.0), None)
    assert comparison.status == STATUS_MISSING_BASELINE
    assert comparison.ok
    assert "no baseline" in comparison.summary()


def test_compare_improvement():
    current = _document(2.0, [("bh", "mix1", 2.0)])
    baseline = _document(1.0, [("bh", "mix1", 1.0)])
    comparison = compare_benches(current, baseline, threshold=0.10)
    assert comparison.status == STATUS_IMPROVEMENT
    assert comparison.ok
    assert comparison.geomean_ratio == pytest.approx(2.0)
    assert comparison.cases[0].ratio == pytest.approx(2.0)


def test_compare_regression_not_ok():
    current = _document(0.8, [("bh", "mix1", 0.8)])
    baseline = _document(1.0, [("bh", "mix1", 1.0)])
    comparison = compare_benches(current, baseline, threshold=0.10)
    assert comparison.status == STATUS_REGRESSION
    assert not comparison.ok


def test_compare_within_threshold_band():
    comparison = compare_benches(
        _document(0.95), _document(1.0), threshold=0.10
    )
    assert comparison.status == STATUS_OK
    assert comparison.ok


def test_compare_reports_cases_missing_from_baseline():
    current = _document(1.0, [("bh", "mix1", 1.0), ("tap", "mix4", 1.0)])
    baseline = _document(1.0, [("bh", "mix1", 1.0)])
    comparison = compare_benches(current, baseline)
    assert comparison.missing_cases == ["tap/mix4"]
    assert len(comparison.cases) == 1


def test_compare_rejects_bad_threshold():
    with pytest.raises(ValueError):
        compare_benches(_document(1.0), _document(1.0), threshold=0.0)


# ----------------------------------------------------------------------
# CLI gate: regression beyond threshold exits non-zero
# ----------------------------------------------------------------------

def test_cli_bench_regression_exits_nonzero(bench_document, tmp_path):
    from repro.cli import main

    measured = bench_document["geomean_mcycles_per_s"]
    inflated = _document(
        measured * 10, [("bh", "mix1", measured * 10)], label="base"
    )
    baseline_path = write_bench(inflated, tmp_path)
    argv = [
        "bench", "--scale", "smoke", "--policies", "bh", "--mixes", "mix1",
        "--epochs", "0.5", "--warmup-epochs", "0.25",
        "--out", str(tmp_path), "--label", "gate",
        "--baseline", str(baseline_path),
    ]
    assert main(argv) == 1
    # the artefact is still written even when the gate fails
    assert (tmp_path / "BENCH_gate.json").exists()
    # against a slower baseline the same run passes (improvement);
    # a deliberately tiny value keeps this immune to timing noise
    slower = write_bench(_document(
        measured / 10, [("bh", "mix1", measured / 10)], label="slower"
    ), tmp_path)
    assert main(argv[:-1] + [str(slower)]) == 0


# ----------------------------------------------------------------------
# phase-delta table and host-mismatch warnings in the comparison
# ----------------------------------------------------------------------

def _phases(replay, access, epoch):
    return {
        "trace_replay_est_s": replay,
        "access_path_s": access,
        "epoch_bookkeeping_s": epoch,
    }


def test_compare_reports_phase_deltas():
    current = _document(1.0, [("bh", "mix1", 1.0)])
    baseline = _document(1.0, [("bh", "mix1", 1.0)])
    current["phase_breakdown"] = _phases(1.0, 4.0, 0.5)
    baseline["phase_breakdown"] = _phases(1.0, 2.0, 0.5)
    comparison = compare_benches(current, baseline)
    by_phase = {p.phase: p for p in comparison.phases}
    assert by_phase["access_path"].ratio == pytest.approx(2.0)
    assert by_phase["trace_replay_est"].ratio == pytest.approx(1.0)
    assert by_phase["epoch_bookkeeping"].baseline_seconds == 0.5


def test_compare_without_breakdowns_has_no_phase_rows():
    comparison = compare_benches(
        _document(1.0, [("bh", "mix1", 1.0)]),
        _document(1.0, [("bh", "mix1", 1.0)]),
    )
    assert comparison.phases == []


def _host(cpu_count=8, platform="Linux-x86_64"):
    return {"platform": platform, "machine": "x86_64", "cpu_count": cpu_count}


def test_compare_warns_on_host_mismatch():
    current = _document(1.0, [("bh", "mix1", 1.0)])
    baseline = _document(1.0, [("bh", "mix1", 1.0)])
    current["host"] = _host(cpu_count=16)
    baseline["host"] = _host(cpu_count=4)
    comparison = compare_benches(current, baseline)
    assert len(comparison.host_warnings) == 1
    assert "cpu_count" in comparison.host_warnings[0]
    # a warning, never a gate
    assert comparison.ok


def test_compare_same_host_no_warning():
    current = _document(1.0, [("bh", "mix1", 1.0)])
    baseline = _document(1.0, [("bh", "mix1", 1.0)])
    current["host"] = _host()
    baseline["host"] = _host()
    assert compare_benches(current, baseline).host_warnings == []


def test_run_bench_document_carries_host_metadata(bench_document):
    host = bench_document["host"]
    assert host["cpu_count"] >= 1
    assert host["platform"]


def test_cli_bench_prints_phase_deltas_and_host_warning(
    bench_document, tmp_path, capsys
):
    from repro.cli import main

    measured = bench_document["geomean_mcycles_per_s"]
    baseline = _document(
        measured, [("bh", "mix1", measured)], label="base"
    )
    baseline["phase_breakdown"] = _phases(1.0, 1.0, 1.0)
    baseline["host"] = {"platform": "OtherOS", "machine": "arm64",
                        "cpu_count": 1}
    baseline_path = write_bench(baseline, tmp_path)
    main([
        "bench", "--scale", "smoke", "--policies", "bh", "--mixes", "mix1",
        "--epochs", "0.5", "--warmup-epochs", "0.25",
        "--out", str(tmp_path), "--label", "detail",
        "--baseline", str(baseline_path), "--threshold", "0.99",
    ])
    out = capsys.readouterr().out
    assert "phase breakdown (current vs baseline):" in out
    assert "access_path" in out
    assert "WARNING: host mismatch" in out


# ----------------------------------------------------------------------
# memo bench: the result cache's correctness gate
# ----------------------------------------------------------------------

def test_memo_bench_matches_committed_artefact():
    """``bench --memo`` emits exactly the rows ``BENCH_memo.json`` holds."""
    document = run_memo_bench(SMOKE, jobs=1)
    assert [(c["policy"], c["mix"]) for c in document["cases"]] == MEMO_CASES
    assert list(document["memo"]) == ["campaign"]
    assert document["memo"]["campaign"]["verified_identical"] is True

    comparison = compare_benches(
        document, load_bench(MEMO_BASELINE), threshold=0.5
    )
    assert [(c.policy, c.mix) for c in comparison.cases] == MEMO_CASES
    assert comparison.missing_cases == []


def test_memo_bench_refuses_differing_bytes(monkeypatch):
    """A cache-served pass whose result files differ fails the bench."""
    real = memo_bench._result_bytes

    def skewed(directory):
        found = real(directory)
        if Path(directory).name == "warm":
            found["extra.json"] = b"{}"
        return found

    monkeypatch.setattr(memo_bench, "_result_bytes", skewed)
    with pytest.raises(MemoBenchError, match="byte-identical"):
        run_memo_bench(SMOKE, jobs=1)
