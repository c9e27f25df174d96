"""Kill-at-every-write-offset crash consistency.

The storage contract under test: however many bytes of a write
actually reached the disk before the crash, no reader ever observes a
*partial* record — every artefact class either validates completely or
is rejected (and the layer above degrades: re-run the task, rebuild
the manifest from the results that do verify).  The harness tears the write at **every byte offset** via the
fault injector's exact-cut mode, so there is no lucky boundary.
"""

import json

import pytest

from repro.fsio import OneShotFault
from repro.harness import (
    RESULT_SCHEMA,
    CorruptResultError,
    load_result,
    verify_result,
    write_json_atomic,
)

PAYLOAD = {
    "status": "ok",
    "task_id": "tables/table=table1",
    "result": {
        "schema": "repro-run/1",
        "kind": "unit",
        "meta": {"seed": 3, "llc_accesses": 4415},
        "metrics": {},
        "values": {},
        "events": [],
    },
}


def _full_bytes(tmp_path):
    path = tmp_path / "reference.json"
    write_json_atomic(path, PAYLOAD, schema=RESULT_SCHEMA)
    return path.read_bytes()


def test_checkpoint_read_never_yields_partial_record(tmp_path):
    data = _full_bytes(tmp_path)
    path = tmp_path / "result.json"
    for cut in range(len(data) + 1):
        # tear the write at exactly `cut` bytes, through the injector
        with OneShotFault("disk-torn", path, cut=cut) as fault:
            write_json_atomic(path, PAYLOAD, schema=RESULT_SCHEMA)
        assert fault.fired
        assert path.read_bytes() == data[:cut]
        try:
            payload = load_result(path)
        except CorruptResultError:
            continue  # rejected: the crash is visible, nothing served
        # the only acceptable success is the COMPLETE record (a cut in
        # trailing whitespace still holds the full checksummed payload)
        assert payload == PAYLOAD, f"partial record served at offset {cut}"
    # after the final clean rewrite, verification passes end-to-end
    write_json_atomic(path, PAYLOAD, schema=RESULT_SCHEMA)
    verified, _sha = verify_result(path, PAYLOAD["task_id"])
    assert verified == PAYLOAD


@pytest.mark.slow
def test_manifest_truncation_resumes_from_valid_records(tmp_path):
    """A torn manifest write must not lose the campaign: resume
    quarantines the bad manifest and rebuilds COMPLETE entries from
    the results that verify."""
    from repro.harness import (
        COMPLETE,
        CampaignManifest,
        CampaignSettings,
        run_campaign,
    )

    directory = tmp_path / "campaign"
    report = run_campaign(
        directory,
        scale="smoke",
        experiments=["tables"],
        settings=CampaignSettings(
            jobs=2, task_timeout=60, retries=2, backoff_base=0.01
        ),
    )
    assert report.ok and report.completed == 5
    manifest_path = directory / "campaign.json"
    good = manifest_path.read_bytes()

    # tear at a spread of offsets (every byte would re-verify 5 results
    # hundreds of times for no extra coverage)
    for cut in list(range(0, len(good), 211)) + [len(good) - 1]:
        manifest_path.write_bytes(good[:cut])
        try:
            recovered = CampaignManifest.load(directory, recover=True)
        except Exception as exc:  # noqa: BLE001 - the assert explains
            pytest.fail(f"recovery failed at offset {cut}: {exc}")
        assert len(recovered.tasks) == 5
        assert all(
            e.status == COMPLETE for e in recovered.tasks.values()
        ), f"offset {cut}"
        for task_id in recovered.tasks:
            assert recovered.verified_complete(task_id)
    # recovery rewrote a valid manifest; a resume skips everything
    resumed = run_campaign(
        directory,
        resume=True,
        settings=CampaignSettings(
            jobs=2, task_timeout=60, retries=2, backoff_base=0.01
        ),
    )
    assert resumed.ok and resumed.skipped == 5 and resumed.completed == 0
