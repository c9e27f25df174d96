"""``repro doctor``: the artefact audit and its failure taxonomy."""

import json

import pytest

from repro.cli import main
from repro.fsio.doctor import default_targets, run_doctor
from repro.fsio.durable import dump_json, wrap_json
from repro.harness.checkpoint import RESULT_SCHEMA, write_json_atomic

GOOD_PAYLOAD = {
    "status": "ok",
    "task_id": "t1",
    "result": {
        "schema": "repro-run/1",
        "kind": "unit",
        "meta": {},
        "metrics": {},
        "values": {},
        "events": [],
    },
}


def test_doctor_passes_clean_artefacts(tmp_path):
    good = tmp_path / "good.json"
    write_json_atomic(good, GOOD_PAYLOAD, schema=RESULT_SCHEMA)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"status": "ok", "anything": 1}))

    report = run_doctor([good, legacy])
    assert report.ok
    assert not report.findings
    assert str(good) in report.checked and str(legacy) in report.checked


def test_doctor_finds_and_classifies_defects(tmp_path):
    flipped = tmp_path / "flipped.json"
    envelope = wrap_json(dict(GOOD_PAYLOAD, extra=12345), RESULT_SCHEMA)
    raw = dump_json(envelope).decode().replace("12345", "12346")
    flipped.write_text(raw)

    torn = tmp_path / "torn.json"
    torn.write_bytes(dump_json(envelope)[:40])

    report = run_doctor([flipped, torn])
    assert not report.ok
    taxonomy = report.taxonomy()
    assert taxonomy["campaign-result/checksum-mismatch"] == 1
    assert taxonomy["artefact/malformed-envelope"] == 1
    assert "FAILED" in report.summary()


def test_doctor_repair_quarantines_with_reason(tmp_path):
    from repro.fsio.quarantine import load_reason

    bad = tmp_path / "bad.json"
    envelope = wrap_json(dict(GOOD_PAYLOAD, marker=777), RESULT_SCHEMA)
    bad.write_text(dump_json(envelope).decode().replace("777", "778"))

    report = run_doctor([bad], repair=True)
    assert not report.ok
    assert report.findings[0].action == "quarantined"
    assert not bad.exists()
    moved = tmp_path / "quarantine" / "bad.json"
    assert moved.exists()
    reason = load_reason(moved.parent / "bad.json.reason.json")
    assert reason["category"] == "campaign-result"
    # a second audit of the directory is clean: quarantine/ is skipped
    assert run_doctor([tmp_path]).ok


def test_doctor_default_targets_cover_committed_artefacts():
    targets = [str(t) for t in default_targets(".")]
    assert targets == ["tests/goldens/determinism.json"]


def test_doctor_strict_gate_on_committed_artefacts(capsys):
    """The CI leg: every committed artefact must audit clean."""
    rc = main(["doctor", "--strict"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "doctor ok" in out


def test_doctor_cli_strict_fails_on_corruption(tmp_path, capsys):
    bad = tmp_path / "rotten.json"
    envelope = wrap_json({"n": 42}, "repro-test/1")
    bad.write_text(dump_json(envelope).decode().replace("42", "43"))
    assert main(["doctor", str(bad)]) == 0          # advisory by default
    assert main(["doctor", "--strict", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "checksum-mismatch" in err
