"""Unit tests for the campaign harness building blocks."""

import json

import pytest

from repro.experiments import SMOKE, enumerate_campaign_tasks
from repro.fsio.durable import file_sha256
from repro.harness import (
    CampaignManifest,
    ChaosConfig,
    ChaosSpecError,
    CorruptResultError,
    dump_json,
    load_result,
    parse_chaos_spec,
    verify_result,
    write_atomic,
    write_json_atomic,
)


# ----------------------------------------------------------------------
# retry backoff: bounded exponential envelope, deterministic jitter

def test_backoff_delay_envelope_and_jitter_bounds():
    from repro.harness import backoff_delay

    assert backoff_delay(1.0, 60.0, 0, "t") == 0.0
    for tries in range(1, 10):
        envelope = min(60.0, 1.0 * 2 ** (tries - 1))
        delay = backoff_delay(1.0, 60.0, tries, "tables/table=table1")
        assert 0.5 * envelope <= delay < envelope
    # the cap bounds the envelope however many tries accumulate
    assert backoff_delay(1.0, 5.0, 30, "t") < 5.0


def test_backoff_delay_deterministic_and_decorrelated():
    from repro.harness import backoff_delay

    a = backoff_delay(1.0, 60.0, 3, "task/a", seed=1)
    assert a == backoff_delay(1.0, 60.0, 3, "task/a", seed=1)
    # different tasks (or seeds) draw different jitter
    others = {
        backoff_delay(1.0, 60.0, 3, f"task/{i}", seed=1) for i in range(8)
    }
    assert len(others) == 8
    assert backoff_delay(1.0, 60.0, 3, "task/a", seed=2) != a


# ----------------------------------------------------------------------
# chaos spec parsing and deterministic decisions

def test_parse_chaos_spec_full():
    cfg = parse_chaos_spec("p=0.3,kinds=crash,timeout,corrupt")
    assert cfg.p == 0.3
    assert cfg.kinds == ("crash", "timeout", "corrupt")
    assert cfg.seed == 0


def test_parse_chaos_spec_subset_and_seed():
    cfg = parse_chaos_spec("p=0.5,kinds=crash,seed=7")
    assert cfg.p == 0.5
    assert cfg.kinds == ("crash",)
    assert cfg.seed == 7


def test_parse_chaos_spec_defaults_kinds():
    cfg = parse_chaos_spec("p=0.2")
    assert cfg.kinds == ("crash", "timeout", "corrupt")


def test_parse_chaos_spec_disk_kinds():
    cfg = parse_chaos_spec("p=0.3,kinds=disk-torn,disk-flip,seed=2")
    assert cfg.kinds == ("disk-torn", "disk-flip")
    assert cfg.seed == 2
    # the full disk set is valid too, and ALL_CHAOS_KINDS covers it
    from repro.harness import ALL_CHAOS_KINDS

    cfg = parse_chaos_spec("p=0.1,kinds=disk-torn,disk-enospc,disk-flip")
    assert all(k in ALL_CHAOS_KINDS for k in cfg.kinds)
    # ... but p=... alone still means task-level faults only
    assert parse_chaos_spec("p=0.1").kinds == ("crash", "timeout", "corrupt")


def test_parse_chaos_spec_rejects_garbage():
    with pytest.raises(ChaosSpecError):
        parse_chaos_spec("p=high")
    with pytest.raises(ChaosSpecError):
        parse_chaos_spec("p=0.1,kinds=explode")
    with pytest.raises(ChaosSpecError):
        parse_chaos_spec("p=2.0")
    with pytest.raises(ChaosSpecError):
        parse_chaos_spec("p=0.1,bogus=1")
    with pytest.raises(ChaosSpecError):
        parse_chaos_spec("crash,timeout")


def test_chaos_decisions_are_deterministic():
    cfg = ChaosConfig(p=0.5, seed=3)
    decisions = [cfg.decide("task/a", attempt) for attempt in range(1, 20)]
    again = [cfg.decide("task/a", attempt) for attempt in range(1, 20)]
    assert decisions == again
    # independent draws per task and attempt, roughly at rate p
    injected = [d for d in decisions if d is not None]
    assert 0 < len(injected) < len(decisions)
    assert set(injected) <= {"crash", "timeout", "corrupt"}


def test_chaos_rate_zero_and_one():
    assert ChaosConfig(p=0.0).decide("t", 1) is None
    assert ChaosConfig(p=1.0).decide("t", 1) in ("crash", "timeout", "corrupt")


def test_chaos_roundtrip_json():
    cfg = ChaosConfig(p=0.25, kinds=("crash",), seed=11)
    assert ChaosConfig.from_json(cfg.to_json()) == cfg


# ----------------------------------------------------------------------
# atomic checkpoints

def test_write_atomic_content_and_hash(tmp_path):
    path = tmp_path / "x.json"
    sha = write_atomic(path, b"hello")
    assert path.read_bytes() == b"hello"
    assert sha == file_sha256(path)
    # no temporary litter
    assert list(tmp_path.iterdir()) == [path]


def test_write_atomic_replaces_existing(tmp_path):
    path = tmp_path / "x.json"
    write_atomic(path, b"old")
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"


def test_dump_json_is_canonical():
    assert dump_json({"b": 1, "a": 2}) == dump_json({"a": 2, "b": 1})


def test_load_result_rejects_truncated(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(b'{"status": "ok", "task_id": "trunc')
    with pytest.raises(CorruptResultError, match="unparsable"):
        load_result(path)


def test_load_result_rejects_missing(tmp_path):
    with pytest.raises(CorruptResultError, match="missing"):
        load_result(tmp_path / "nope.json")


def test_verify_result_checks_identity_and_hash(tmp_path):
    path = tmp_path / "r.json"
    sha = write_json_atomic(path, {"status": "ok", "task_id": "t1", "result": {}})
    payload, actual = verify_result(path, "t1", sha)
    assert payload["task_id"] == "t1" and actual == sha
    with pytest.raises(CorruptResultError, match="task_id mismatch"):
        verify_result(path, "t2")
    with pytest.raises(CorruptResultError, match="sha256 mismatch"):
        verify_result(path, "t1", "0" * 64)
    bad = tmp_path / "bad.json"
    write_json_atomic(bad, {"status": "error", "task_id": "t1"})
    with pytest.raises(CorruptResultError, match="status"):
        verify_result(bad, "t1")


# ----------------------------------------------------------------------
# manifest

def test_manifest_roundtrip(tmp_path):
    manifest = CampaignManifest.create(
        tmp_path / "c", scale="smoke", experiments=("tables", "fig2")
    )
    manifest.entry("tables/table=table1")
    manifest.save()
    loaded = CampaignManifest.load(tmp_path / "c")
    assert loaded.scale == "smoke"
    assert loaded.experiments == ("tables", "fig2")
    assert "tables/table=table1" in loaded.tasks


def test_manifest_verified_complete_requires_intact_file(tmp_path):
    manifest = CampaignManifest.create(
        tmp_path / "c", scale="smoke", experiments=("tables",)
    )
    task_id = "tables/table=table1"
    result_rel = "results/tables__table=table1.json"
    sha = write_json_atomic(
        manifest.directory / result_rel,
        {"status": "ok", "task_id": task_id, "result": {"rows": []}},
    )
    manifest.mark_complete(task_id, result_rel, sha, attempts=1)
    assert manifest.verified_complete(task_id)

    # truncate the file behind the manifest's back -> no longer verified
    (manifest.directory / result_rel).write_bytes(b'{"status": "ok"')
    assert not manifest.verified_complete(task_id)

    # restore with different bytes -> hash mismatch -> not verified
    write_json_atomic(
        manifest.directory / result_rel,
        {"status": "ok", "task_id": task_id, "result": {"rows": [1]}},
    )
    assert not manifest.verified_complete(task_id)


def test_manifest_rejects_foreign_directory(tmp_path):
    from repro.harness import CampaignConfigError

    with pytest.raises(CampaignConfigError, match="not a campaign"):
        CampaignManifest.load(tmp_path)
    (tmp_path / "campaign.json").write_text('{"format": "other/9"}')
    with pytest.raises(CampaignConfigError, match="unsupported"):
        CampaignManifest.load(tmp_path)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scale": "smkoe"},
        {"experiments": ("nosuch",)},
        {"workloads": ("mix99",)},
    ],
    ids=["scale", "experiment", "workload"],
)
def test_campaign_runner_rejects_unknown_names_before_writing(tmp_path, kwargs):
    from repro.harness import CampaignConfigError
    from repro.harness.scheduler import CampaignRunner

    directory = tmp_path / "c"
    settings = {"scale": "smoke", "experiments": ("tables",), **kwargs}
    with pytest.raises(CampaignConfigError, match="unknown"):
        CampaignRunner(directory, **settings)
    assert not directory.exists()


# ----------------------------------------------------------------------
# task enumeration

def test_enumerate_campaign_tasks_stable_ids():
    tasks = enumerate_campaign_tasks(["tables", "fig2"], SMOKE)
    ids = [t.task_id for t in tasks]
    assert len(ids) == len(set(ids))
    assert ids == [t.task_id for t in enumerate_campaign_tasks(["tables", "fig2"], SMOKE)]
    assert "tables/table=table1" in ids
    filenames = [t.filename for t in tasks]
    assert all("/" not in f and f.endswith(".json") for f in filenames)


def test_enumerate_campaign_tasks_unknown_experiment():
    with pytest.raises(KeyError, match="unknown experiment"):
        enumerate_campaign_tasks(["fig99"], SMOKE)


def test_run_campaign_task_deterministic_bytes():
    from repro.experiments import run_campaign_task

    one = dump_json(run_campaign_task("fig2", {"app": "mcf17"}, "smoke"))
    two = dump_json(run_campaign_task("fig2", {"app": "mcf17"}, "smoke"))
    assert one == two
