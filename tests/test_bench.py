"""Bench suite: artefact round trip, CLI modes, the memo bench's gate."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    MemoBenchError,
    load_bench,
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


def test_write_bench_roundtrip(tmp_path):
    document = {
        "schema": BENCH_SCHEMA,
        "label": "unittest",
        "scale": "smoke",
        "memo": {"campaign": {"units": 2, "verified_identical": True}},
        "cases": [{"policy": "campaign", "mix": "cold", "mcycles_per_s": 1.5}],
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


@pytest.mark.parametrize("argv", [
    ["bench"],
    ["bench", "--scale", "smoke"],
    ["bench", "--memo", "--explore"],
])
def test_cli_bench_needs_exactly_one_mode(argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--memo" in capsys.readouterr().err


# ----------------------------------------------------------------------
# memo bench: the result cache's correctness gate
# ----------------------------------------------------------------------

def test_memo_bench_matches_committed_artefact():
    """``bench --memo`` emits exactly the rows ``BENCH_memo.json`` holds."""
    document = run_memo_bench(SMOKE, jobs=1)
    assert [(c["policy"], c["mix"]) for c in document["cases"]] == MEMO_CASES
    assert list(document["memo"]) == ["campaign"]
    assert document["memo"]["campaign"]["verified_identical"] is True

    committed = load_bench(MEMO_BASELINE)
    assert [(c["policy"], c["mix"]) for c in committed["cases"]] == MEMO_CASES
    assert list(committed["memo"]) == ["campaign"]
    # The campaign's shape is deterministic; only its timings differ.
    for key in ("units", "mixes", "policies", "simulated_cycles",
                "verified_identical"):
        assert document["memo"]["campaign"][key] == (
            committed["memo"]["campaign"][key]
        ), key


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
