"""Fig. 2 — block classification by compression ratio per application.

For every application the experiment samples block payloads through
the data model (which materialises real 64-byte patterns) and
compresses them with the actual modified-BDI compressor, reporting the
HCR / LCR / incompressible split.  Expected shape (Sec. II-B): on
average ~78 % of blocks compressible (49 % HCR + 29 % LCR);
GemsFDTD/zeusmp almost fully compressible; xz17/milc fully
incompressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..compression.bdi import DEFAULT_COMPRESSOR
from ..compression.encodings import classify
from ..metrics.registry import register_metric
from ..workloads.data import DataModel
from ..workloads.profiles import APP_NAMES, profile

register_metric("fig2", "hcr", "fraction",
                "Share of blocks compressing to the high-ratio class",
                aggregation="mean")
register_metric("fig2", "lcr", "fraction",
                "Share of blocks compressing to the low-ratio class",
                aggregation="mean")
register_metric("fig2", "incompressible", "fraction",
                "Share of blocks the compressor cannot shrink",
                aggregation="mean")


@dataclass(frozen=True)
class CompressibilityRow:
    app: str
    hcr: float
    lcr: float
    incompressible: float

    @property
    def compressible(self) -> float:
        return self.hcr + self.lcr


def classify_app(app_name: str, n_blocks: int = 512, seed: int = 0) -> CompressibilityRow:
    """Measure one app's class split with the real compressor.

    Blocks are sampled from the app's own reference stream (so the
    loop/scan/rw vs stream/random traffic balance is respected) and
    every payload is compressed with the actual modified BDI.
    """
    from ..workloads.generator import AppTraceGenerator

    prof = profile(app_name)
    model = DataModel([prof], seed=seed)
    gen = AppTraceGenerator(prof, core_id=0, seed=seed)
    counts: Dict[str, int] = {"hcr": 0, "lcr": 0, "incompressible": 0}
    for _ in range(n_blocks):
        record = next(gen)
        block = model.block_bytes(record.addr)
        result = DEFAULT_COMPRESSOR.compress(block)
        counts[classify(result.size)] += 1
    return CompressibilityRow(
        app=app_name,
        hcr=counts["hcr"] / n_blocks,
        lcr=counts["lcr"] / n_blocks,
        incompressible=counts["incompressible"] / n_blocks,
    )


def run_fig2(
    apps: Optional[Sequence[str]] = None, n_blocks: int = 512, seed: int = 0
) -> List[CompressibilityRow]:
    """Reproduce Fig. 2 across the given apps (default: all twenty)."""
    rows = [classify_app(a, n_blocks=n_blocks, seed=seed) for a in apps or APP_NAMES]
    mean = CompressibilityRow(
        app="average",
        hcr=sum(r.hcr for r in rows) / len(rows),
        lcr=sum(r.lcr for r in rows) / len(rows),
        incompressible=sum(r.incompressible for r in rows) / len(rows),
    )
    return rows + [mean]


# ----------------------------------------------------------------------
# Campaign units — one retryable task per application.

def enumerate_fig2_units(scale, apps: Optional[Sequence[str]] = None) -> List[dict]:
    """One campaign unit per app (``scale`` is irrelevant to Fig. 2)."""
    return [{"app": app} for app in (apps or APP_NAMES)]


def run_fig2_unit(scale, app: str, n_blocks: int = 512, seed: int = 0):
    """Classify one app's blocks; the campaign-worker entry point.

    Returns a :class:`~repro.metrics.RunRecord` with the
    compressibility split as registered ``fig2.*`` metrics.
    """
    from ..metrics import RunRecord

    row = classify_app(app, n_blocks=n_blocks, seed=seed)
    return RunRecord(
        kind="unit",
        meta={"experiment": "fig2", "app": row.app,
              "n_blocks": n_blocks, "seed": seed},
        metrics={
            "fig2.hcr": row.hcr,
            "fig2.lcr": row.lcr,
            "fig2.incompressible": row.incompressible,
        },
    )
