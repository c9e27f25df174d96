"""Bench artefacts: the checksummed RunRecord envelope round trip."""

import json

import pytest

from repro.bench import BENCH_SCHEMA, load_bench, write_bench


def test_write_bench_roundtrip(tmp_path):
    document = {
        "schema": BENCH_SCHEMA,
        "label": "unittest",
        "scale": "smoke",
        "explore": {"n_points": 2, "instruction_speedup": 63.0},
    }
    path = write_bench(document, tmp_path)
    assert path.name == "BENCH_unittest.json"
    # On disk: a checksummed repro-blob/1 envelope around the versioned
    # RunRecord, document embedded verbatim.
    on_disk = json.loads(path.read_text())
    assert on_disk["format"] == "repro-blob/1"
    assert on_disk["schema"] == "repro-bench-artifact/1"
    record = on_disk["payload"]
    assert record["schema"] == "repro-run/1"
    assert record["kind"] == "bench"
    assert record["meta"] == {
        "label": "unittest", "scale": "smoke", "bench_schema": BENCH_SCHEMA,
    }
    assert record["metrics"] == {}
    assert record["values"]["document"] == document
    # load_bench unwraps back to the document ...
    assert load_bench(path) == document
    assert load_bench(tmp_path / "BENCH_absent.json") is None
    # ... and refuses a raw pre-envelope document, naming the file.
    legacy = tmp_path / "BENCH_legacy.json"
    legacy.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="BENCH_legacy.json"):
        load_bench(legacy)
