"""The crash-consistent storage layer: envelopes, faults, quarantine.

Covers the three fsio pillars in isolation (the campaign/cache tests
exercise them end-to-end): the checksummed ``repro-blob/1`` envelope
detects every defect class with a stable taxonomy token; each one-shot
disk-write fault fires once and does what its kind says; and corrupt
artefacts move to ``quarantine/`` with structured reason records
instead of being deleted or re-served.  The stat-keyed file
hash memo that checkpoint verification reads is covered here too.
"""

import json

import pytest

from repro.fsio import (
    HEALTH,
    BlobError,
    OneShotFault,
    atomic_write_bytes,
    is_blob_payload,
    quarantine_file,
    unwrap_json,
    wrap_json,
)
from repro.fsio.quarantine import load_reason


@pytest.fixture(autouse=True)
def _reset_health():
    HEALTH.reset()
    yield
    HEALTH.reset()


# ----------------------------------------------------------------------
# JSON envelope

def test_json_envelope_roundtrip_and_passthrough():
    payload = {"b": [1, 2], "a": "x"}
    envelope = wrap_json(payload, "repro-test/1")
    assert is_blob_payload(envelope)
    assert unwrap_json(envelope) == payload
    assert unwrap_json(envelope, schema="repro-test/1") == payload
    # legacy documents that never were envelopes pass through unchanged
    assert unwrap_json(payload) == payload
    assert not is_blob_payload(payload)


def test_json_envelope_checksum_is_layout_stable():
    """length/sha cover the canonical rendering, so pretty-printing the
    envelope (what dump_json does) cannot invalidate it."""
    envelope = wrap_json({"k": 3.5}, "repro-test/1")
    reparsed = json.loads(json.dumps(envelope, indent=2, sort_keys=True))
    assert unwrap_json(reparsed) == {"k": 3.5}


def test_json_envelope_defect_taxonomy():
    envelope = wrap_json({"value": 12345}, "repro-test/1")

    flipped = json.loads(json.dumps(envelope).replace("12345", "12346"))
    with pytest.raises(BlobError) as exc:
        unwrap_json(flipped, path="x.json")
    assert exc.value.defect == "checksum-mismatch"
    assert HEALTH.checksum_failures == 1

    grown = dict(envelope, payload={"value": 12345, "extra": 1})
    with pytest.raises(BlobError) as exc:
        unwrap_json(grown)
    assert exc.value.defect == "length-mismatch"

    with pytest.raises(BlobError) as exc:
        unwrap_json(envelope, schema="repro-other/1")
    assert exc.value.defect == "schema-mismatch"

    no_schema = {k: v for k, v in envelope.items() if k != "schema"}
    with pytest.raises(BlobError) as exc:
        unwrap_json(no_schema)
    assert exc.value.defect == "malformed-envelope"


# ----------------------------------------------------------------------
# content hashes and the stat-keyed sha256 memo

def test_file_sha256_matches_hashlib(tmp_path):
    import hashlib

    from repro.fsio.durable import file_sha256

    path = tmp_path / "blob.bin"
    path.write_bytes(b"x" * 100_000)
    assert file_sha256(path) == hashlib.sha256(b"x" * 100_000).hexdigest()


def test_file_sha256_cached_hashes_once_per_stat(tmp_path, monkeypatch):
    import repro.fsio.durable as durable

    path = tmp_path / "blob.bin"
    path.write_bytes(b"a" * 1000)
    expected = durable.file_sha256(path)

    calls = []
    real = durable.file_sha256

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(durable, "file_sha256", counting)
    assert durable.file_sha256_cached(path) == expected
    assert durable.file_sha256_cached(path) == expected
    assert len(calls) == 1, "second lookup must come from the memo"


def test_file_sha256_cached_invalidates_on_change(tmp_path):
    import os

    from repro.fsio.durable import file_sha256, file_sha256_cached

    path = tmp_path / "blob.bin"
    path.write_bytes(b"before")
    assert file_sha256_cached(path) == file_sha256(path)

    # same size, different bytes: the mtime_ns change must invalidate
    path.write_bytes(b"after!")
    os.utime(path)  # ensure a strictly newer timestamp either way
    assert file_sha256_cached(path) == file_sha256(path)

    # different size invalidates too
    path.write_bytes(b"a much longer blob")
    assert file_sha256_cached(path) == file_sha256(path)


def test_file_sha256_cached_invalidates_within_one_mtime_tick(tmp_path):
    """An atomic rewrite (same size, same forced mtime) lands on a new
    inode, which alone must bust the memo — the stat key that only
    covered (size, mtime) served stale digests for rewrites faster
    than the filesystem timestamp granularity."""
    import os

    from repro.fsio.durable import file_sha256, file_sha256_cached

    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"version-A")
    first = file_sha256_cached(path)
    assert first == file_sha256(path)
    stat = path.stat()

    # rewrite atomically with identical size, then pin mtime back so
    # (size, mtime_ns) is byte-for-byte the same stat key as before
    atomic_write_bytes(path, b"version-B")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = path.stat()
    assert after.st_size == stat.st_size
    assert after.st_mtime_ns == stat.st_mtime_ns
    assert after.st_ino != stat.st_ino, "atomic replace must change inode"

    second = file_sha256_cached(path)
    assert second == file_sha256(path)
    assert second != first


def test_file_sha256_cached_missing_file_raises(tmp_path):
    from repro.fsio.durable import file_sha256_cached

    with pytest.raises(OSError):
        file_sha256_cached(tmp_path / "nope.bin")


# ----------------------------------------------------------------------
# atomic writes + injected faults

def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "artefact.json"
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["artefact.json"]


def test_injected_torn_write_is_caught_by_envelope(tmp_path):
    path = tmp_path / "result.json"
    from repro.fsio.durable import dump_json

    data = dump_json(wrap_json({"value": 42}, "repro-test/1"))
    with OneShotFault("disk-torn", path) as fault:
        atomic_write_bytes(path, data)
    assert fault.fired
    assert HEALTH.faults_injected == 1
    torn = path.read_bytes()
    assert 0 < len(torn) < len(data)
    # a torn envelope can never unwrap cleanly
    with pytest.raises((BlobError, ValueError)):
        unwrap_json(json.loads(torn.decode()), path=path)
    # the retry (the one-shot fault has fired) lands the full artefact
    atomic_write_bytes(path, data)
    assert unwrap_json(json.loads(path.read_text())) == {"value": 42}


def test_injected_flip_keeps_json_valid_but_fails_checksum(tmp_path):
    path = tmp_path / "result.json"
    from repro.fsio.durable import dump_json

    data = dump_json(wrap_json({"value": 1234567}, "repro-test/1"))
    with OneShotFault("disk-flip", path):
        atomic_write_bytes(path, data)
    flipped = json.loads(path.read_text())  # still parses!
    assert is_blob_payload(flipped)
    with pytest.raises(BlobError) as exc:
        unwrap_json(flipped, path=path)
    assert exc.value.defect == "checksum-mismatch"


def test_injected_enospc_and_read_faults(tmp_path):
    path = tmp_path / "artefact.bin"
    with OneShotFault("disk-enospc", path) as fault:
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"doomed")
    assert fault.fired and HEALTH.faults_injected == 1
    assert not path.exists(), "ENOSPC must not leave partial bytes"
    # one shot: the next write lands
    atomic_write_bytes(path, b"0123456789")
    assert path.read_bytes() == b"0123456789"


# ----------------------------------------------------------------------
# quarantine

def test_quarantine_moves_file_with_reason_record(tmp_path):
    victim = tmp_path / "bad.json"
    victim.write_bytes(b"rotten")
    moved = quarantine_file(victim, "checksum mismatch", "unit-test",
                            root=tmp_path)
    assert not victim.exists()
    assert moved == tmp_path / "quarantine" / "bad.json"
    assert moved.read_bytes() == b"rotten"
    reason = load_reason(moved.parent / "bad.json.reason.json")
    assert reason["artifact"].endswith("bad.json")
    assert reason["category"] == "unit-test"
    assert reason["reason"] == "checksum mismatch"
    assert HEALTH.quarantined == 1

    # a second victim with the same name never clobbers the evidence
    victim.write_bytes(b"rotten again")
    moved2 = quarantine_file(victim, "still bad", "unit-test", root=tmp_path)
    assert moved2.name == "bad.json.1"
    assert moved.read_bytes() == b"rotten"
