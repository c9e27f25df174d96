"""Bench artefacts: how ``BENCH_<label>.json`` is written and read.

The explorer bench returns a schema-tagged document.  On disk it is
the RunRecord envelope of that document, inside a checksummed
``repro-blob/1`` envelope committed through the crash-consistent fsio
path — one format shared with campaign results, auditable by ``repro
doctor`` and validated by ``repro export --check``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Optional, Union

from ..fsio.durable import unwrap_json, write_blob_json
from ..metrics import RunRecord, is_run_record_payload

#: Schema tag of the embedded bench document (bump on layout change);
#: the artefact on disk is a RunRecord envelope around it, inside a
#: checksummed ``repro-blob/1`` envelope tagged with this schema.
BENCH_ARTIFACT_SCHEMA = "repro-bench-artifact/1"
BENCH_SCHEMA = "repro-bench/1"

PathLike = Union[str, Path]


def host_metadata() -> dict:
    """The host a bench document was produced on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def bench_record(document: dict) -> RunRecord:
    """Wrap a bench document in the versioned RunRecord envelope."""
    return RunRecord(
        kind="bench",
        meta={
            "label": document.get("label"),
            "scale": document.get("scale"),
            "bench_schema": document.get("schema"),
        },
        values={"document": document},
    )


def write_bench(document: dict, out_dir: PathLike) -> Path:
    """Write ``BENCH_<label>.json`` under ``out_dir`` (durably)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{document['label']}.json"
    write_blob_json(path, bench_record(document).to_json(), BENCH_ARTIFACT_SCHEMA)
    return path


def load_bench(path: PathLike) -> Optional[dict]:
    """Load a BENCH_*.json document, or None if the file is absent.

    Artefacts are checksummed ``repro-blob/1`` envelopes around a
    RunRecord (``values["document"]`` holds the bench document); bare
    RunRecord envelopes are accepted too.  Anything else raises
    :class:`ValueError` naming the file.
    """
    path = Path(path)
    if not path.exists():
        return None
    data = unwrap_json(json.loads(path.read_text()), path=path)
    if not is_run_record_payload(data):
        raise ValueError(f"{path}: not a bench artefact (no RunRecord)")
    return RunRecord.from_json(data).values.get("document", {})
