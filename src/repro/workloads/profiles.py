"""Synthetic profiles of the 20 SPEC CPU 2006/2017 applications used
by the paper's mixes (Table V).

The real benchmarks are not redistributable, so each application is
modelled by the properties the insertion policies actually react to:

* **compressibility** — the per-app HCR / LCR / incompressible split of
  Fig. 2 (library averages: 49 % HCR, 29 % LCR, 22 % incompressible;
  GemsFDTD/zeusmp almost fully compressible, xz17/milc fully
  incompressible), refined into a distribution over the modified-BDI
  sizes of Table I;
* **reuse behaviour** — a weighted mixture of access regions (below);
* **memory intensity** — mean non-memory instruction gap between
  demand accesses and total block footprint.

Regions and the policy behaviour they exercise:

``loop``    tight repeated sequential scans; re-referenced well within
            SRAM residency, so they are detected as loop-blocks /
            read-reused and become the ideal NVM residents.
``scan``    medium cyclic sweeps whose reuse distance exceeds the SRAM
            part but fits a 16-way LLC: BH keeps them (global LRU over
            all ways), while conservative policies (LHybrid, TAP) evict
            them from SRAM before they can prove reuse — this class is
            why the state of the art loses ~11 % performance (Sec. II-D).
``rw``      small read-modify-write hot set: dirty, write-reused blocks
            that CA_RWR pins to SRAM to save NVM writes.
``random``  sparse pointer chasing over a large region (rare reuse).
``stream``  ever-advancing thrashing traffic, no reuse.

Values are calibrated to the qualitative characterisations in the
paper and common SPEC lore; DESIGN.md records this as a documented
substitution.  Region sizes are expressed at *paper scale* (8 MB LLC)
and shrink with :meth:`AppProfile.scaled` for scaled experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..compression.encodings import BLOCK_SIZE

SizeWeights = Tuple[Tuple[int, float], ...]

#: modified-BDI sizes available as compression targets.  HCR shapes
#: skew very small: zero blocks and narrow-delta values dominate
#: compressible SPEC data under BDI (the paper's BH_CP gains — 4.8x
#: lifetime from compression alone — imply an average compressed size
#: of roughly 21 B across all traffic).
_TINY = ((1, 0.70), (8, 0.15), (16, 0.10), (20, 0.05))
_SMALL = ((1, 0.25), (8, 0.20), (16, 0.25), (20, 0.10), (23, 0.10),
          (30, 0.05), (34, 0.05))
_MEDIUM = ((1, 0.30), (8, 0.15), (16, 0.15), (20, 0.10), (23, 0.10),
           (30, 0.10), (34, 0.05), (37, 0.05))
_LCR = ((44, 0.40), (50, 0.15), (51, 0.20), (58, 0.25))


def make_comp_weights(
    hcr: float, lcr: float, hcr_shape: SizeWeights = _SMALL
) -> SizeWeights:
    """Distribution over compressed sizes from an (HCR, LCR) split."""
    if not 0 <= hcr <= 1 or not 0 <= lcr <= 1 or hcr + lcr > 1 + 1e-9:
        raise ValueError(f"bad class split hcr={hcr} lcr={lcr}")
    weights: Dict[int, float] = {}
    for size, w in hcr_shape:
        weights[size] = weights.get(size, 0.0) + hcr * w
    for size, w in _LCR:
        weights[size] = weights.get(size, 0.0) + lcr * w
    incompressible = max(0.0, 1.0 - hcr - lcr)
    if incompressible > 0:
        weights[BLOCK_SIZE] = weights.get(BLOCK_SIZE, 0.0) + incompressible
    return tuple(sorted(weights.items()))


@dataclass(frozen=True)
class AppProfile:
    """Synthetic stand-in for one SPEC application."""

    name: str
    footprint_blocks: int        # distinct blocks the app touches
    loop_weight: float
    loop_blocks: int
    scan_weight: float
    scan_blocks: int
    stream_weight: float
    rw_weight: float
    rw_blocks: int
    random_weight: float
    random_blocks: int
    stream_write_frac: float
    rw_write_frac: float
    random_write_frac: float
    gap_mean: float              # non-memory instructions per access
    comp_weights: SizeWeights
    #: program phases: every ``phase_accesses`` accesses the loop/scan/
    #: rw regions shift to the next of ``n_phases`` address slots,
    #: modelling SPEC phase behaviour ("applications may exhibit
    #: different behaviors throughout their execution", Sec. IV-C).
    #: This keeps loop-block populations churning, so conservative
    #: policies keep paying NVM insertions after convergence.
    n_phases: int = 3
    phase_accesses: int = 150_000

    def __post_init__(self) -> None:
        if sum(self.region_weights) <= 0:
            raise ValueError(f"{self.name}: region weights sum to zero")
        if self.n_phases < 1 or self.phase_accesses < 1:
            raise ValueError(f"{self.name}: bad phase parameters")
        if self.footprint_blocks < self.phased_region_blocks:
            raise ValueError(f"{self.name}: footprint smaller than its regions")
        weight_sum = sum(w for _s, w in self.comp_weights)
        if abs(weight_sum - 1.0) > 1e-6:
            raise ValueError(f"{self.name}: comp weights sum to {weight_sum}")

    @property
    def region_weights(self) -> Tuple[float, float, float, float, float]:
        return (
            self.loop_weight,
            self.scan_weight,
            self.stream_weight,
            self.rw_weight,
            self.random_weight,
        )

    @property
    def hot_region_blocks(self) -> int:
        """Blocks of the structured (loop/scan/rw) regions, all slots.

        Address offsets below this boundary belong to the app's hot
        structured data; offsets above it are the random/stream pool.
        The data model biases compressibility by this boundary:
        structured data compresses better than streaming payloads while
        the app-level aggregate stays on its Fig. 2 split.
        """
        return self.n_phases * (self.loop_blocks + self.scan_blocks + self.rw_blocks)

    @property
    def phased_region_blocks(self) -> int:
        """Blocks reserved for all phase slots of the phased regions."""
        return self.hot_region_blocks + self.random_blocks

    @property
    def hot_traffic_fraction(self) -> float:
        """Fraction of accesses that target the hot structured regions."""
        total = sum(self.region_weights)
        return (self.loop_weight + self.scan_weight + self.rw_weight) / total

    @property
    def hcr_fraction(self) -> float:
        return sum(w for s, w in self.comp_weights if s <= 37)

    @property
    def lcr_fraction(self) -> float:
        return sum(w for s, w in self.comp_weights if 37 < s < BLOCK_SIZE)

    @property
    def incompressible_fraction(self) -> float:
        return sum(w for s, w in self.comp_weights if s >= BLOCK_SIZE)

    def scaled(self, factor: float) -> "AppProfile":
        """Shrink the working set for scaled-down experiments.

        Region sizes (and the footprint) scale by ``factor``; weights,
        write fractions, gap and compressibility are untouched.  Used
        together with proportionally scaled caches so that every
        reuse-distance-to-cache-size ratio — the quantity the policies
        actually respond to — is preserved.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        if factor == 1.0:
            return self

        def blocks(n: int) -> int:
            return max(64, int(round(n * factor)))

        loop_b = blocks(self.loop_blocks)
        scan_b = blocks(self.scan_blocks)
        rw_b = blocks(self.rw_blocks)
        rnd_b = blocks(self.random_blocks)
        footprint = max(
            self.n_phases * (loop_b + scan_b + rw_b) + rnd_b + 512,
            int(round(self.footprint_blocks * factor)),
        )
        return replace(
            self,
            footprint_blocks=footprint,
            loop_blocks=loop_b,
            scan_blocks=scan_b,
            rw_blocks=rw_b,
            random_blocks=rnd_b,
            phase_accesses=max(5_000, int(round(self.phase_accesses * factor))),
        )


def _app(
    name: str,
    hcr: float,
    lcr: float,
    shape: SizeWeights = _SMALL,
    *,
    footprint: int = 96 * 1024,
    loop: float = 0.25,
    loop_blocks: int = 5 * 1024,
    scan: float = 0.2,
    scan_blocks: int = 12 * 1024,
    stream: float = 0.25,
    rw: float = 0.15,
    rw_blocks: int = 3 * 1024,
    rnd: float = 0.15,
    rnd_blocks: int = 20 * 1024,
    stream_wf: float = 0.1,
    rw_wf: float = 0.5,
    rnd_wf: float = 0.1,
    gap: float = 16.0,
) -> AppProfile:
    # Random regions are kept sparse (reuse distance around the LLC
    # size): pointer-chasing reuse is visible to a 16-way global LRU
    # but mostly invisible to a 4-way SRAM part, as in the real mixes.
    rnd_blocks = 2 * rnd_blocks
    n_phases = 3
    footprint = max(
        footprint,
        n_phases * (loop_blocks + scan_blocks + rw_blocks) + rnd_blocks + 24 * 1024,
    )
    return AppProfile(
        name=name,
        footprint_blocks=footprint,
        loop_weight=loop,
        loop_blocks=loop_blocks,
        scan_weight=scan,
        scan_blocks=scan_blocks,
        stream_weight=stream,
        rw_weight=rw,
        rw_blocks=rw_blocks,
        random_weight=rnd,
        random_blocks=rnd_blocks,
        stream_write_frac=stream_wf,
        rw_write_frac=rw_wf,
        random_write_frac=rnd_wf,
        gap_mean=gap,
        comp_weights=make_comp_weights(hcr, lcr, shape),
    )


#: The 20 applications of Table V.  HCR/LCR splits follow Fig. 2;
#: region mixtures encode the apps' well-known access patterns.
PROFILES: Dict[str, AppProfile] = {
    p.name: p
    for p in (
        # --- loop/scan-dominated scientific codes ---
        _app("zeusmp06", 0.85, 0.13, _MEDIUM, loop=0.45, loop_blocks=10 * 1024,
             scan=0.15, scan_blocks=12 * 1024, stream=0.15, rw=0.15, rnd=0.10,
             rnd_blocks=16 * 1024, gap=18.0),
        _app("GemsFDTD06", 0.90, 0.08, _MEDIUM, loop=0.50, loop_blocks=12 * 1024,
             scan=0.15, scan_blocks=16 * 1024, stream=0.20, rw=0.05,
             rw_blocks=2 * 1024, rnd=0.10, rnd_blocks=24 * 1024,
             footprint=128 * 1024, gap=14.0),
        _app("bwaves17", 0.55, 0.30, _MEDIUM, loop=0.45, loop_blocks=14 * 1024,
             scan=0.20, scan_blocks=20 * 1024, stream=0.20, rw=0.05,
             rnd=0.10, footprint=160 * 1024, gap=12.0),
        _app("leslie3d06", 0.45, 0.35, _MEDIUM, loop=0.45, loop_blocks=10 * 1024,
             scan=0.15, scan_blocks=14 * 1024, stream=0.20, rw=0.10, rnd=0.10,
             gap=15.0),
        _app("wrf06", 0.50, 0.25, _MEDIUM, loop=0.40, loop_blocks=9 * 1024,
             scan=0.15, scan_blocks=12 * 1024, stream=0.20, rw=0.15, rnd=0.10,
             gap=18.0),
        _app("roms17", 0.55, 0.25, _MEDIUM, loop=0.45, loop_blocks=12 * 1024,
             scan=0.15, scan_blocks=14 * 1024, stream=0.25, rw=0.05, rnd=0.10,
             gap=14.0),
        _app("cactuBSSN17", 0.40, 0.30, _MEDIUM, loop=0.40, loop_blocks=10 * 1024,
             scan=0.15, scan_blocks=14 * 1024, stream=0.25, rw=0.10, rnd=0.10,
             footprint=112 * 1024, gap=16.0),
        # --- streaming / write-streaming ---
        _app("lbm17", 0.15, 0.45, _LCR, loop=0.05, loop_blocks=2 * 1024,
             scan=0.15, scan_blocks=10 * 1024, stream=0.55, rw=0.15,
             rw_blocks=4 * 1024, rnd=0.10, stream_wf=0.45,
             footprint=192 * 1024, gap=10.0),
        _app("libquantum06", 0.95, 0.03, _TINY, loop=0.40, loop_blocks=10 * 1024,
             scan=0.10, scan_blocks=12 * 1024, stream=0.45, rw=0.03,
             rw_blocks=1024, rnd=0.02, rnd_blocks=8 * 1024,
             footprint=128 * 1024, gap=11.0),
        _app("milc06", 0.0, 0.0, loop=0.15, loop_blocks=4 * 1024,
             scan=0.20, scan_blocks=12 * 1024, stream=0.45, rw=0.10, rnd=0.10,
             footprint=160 * 1024, gap=12.0),
        # --- pointer-chasing / irregular ---
        _app("mcf17", 0.60, 0.20, _SMALL, loop=0.05, loop_blocks=2 * 1024,
             scan=0.15, scan_blocks=16 * 1024, stream=0.15, rw=0.15,
             rnd=0.50, rnd_blocks=48 * 1024, footprint=192 * 1024, gap=9.0),
        _app("omnetpp06", 0.55, 0.25, _SMALL, loop=0.10, loop_blocks=3 * 1024,
             scan=0.15, scan_blocks=10 * 1024, stream=0.15, rw=0.20,
             rnd=0.40, rnd_blocks=32 * 1024, footprint=128 * 1024, gap=13.0),
        _app("astar06", 0.50, 0.30, _SMALL, loop=0.10, loop_blocks=3 * 1024,
             scan=0.20, scan_blocks=10 * 1024, stream=0.15, rw=0.15,
             rnd=0.40, rnd_blocks=24 * 1024, gap=16.0),
        _app("xalancbmk06", 0.60, 0.25, _SMALL, loop=0.15, loop_blocks=4 * 1024,
             scan=0.20, scan_blocks=10 * 1024, stream=0.20, rw=0.15,
             rnd=0.30, rnd_blocks=24 * 1024, footprint=112 * 1024, gap=14.0),
        _app("soplex06", 0.45, 0.25, _SMALL, loop=0.20, loop_blocks=5 * 1024,
             scan=0.25, scan_blocks=12 * 1024, stream=0.20, rw=0.15,
             rnd=0.20, footprint=112 * 1024, gap=13.0),
        # --- integer codes with modest footprints ---
        _app("gobmk06", 0.55, 0.20, _SMALL, loop=0.30, loop_blocks=5 * 1024,
             scan=0.10, scan_blocks=6 * 1024, stream=0.15, rw=0.30,
             rw_blocks=2 * 1024, rnd=0.20, rnd_blocks=8 * 1024,
             footprint=32 * 1024, gap=28.0),
        _app("dealII06", 0.50, 0.30, _SMALL, loop=0.35, loop_blocks=6 * 1024,
             scan=0.12, scan_blocks=8 * 1024, stream=0.15, rw=0.20,
             rnd=0.20, rnd_blocks=12 * 1024, footprint=48 * 1024, gap=22.0),
        _app("hmmer06", 0.35, 0.30, _SMALL, loop=0.35, loop_blocks=3 * 1024,
             scan=0.15, scan_blocks=5 * 1024, stream=0.10, rw=0.30,
             rw_blocks=2 * 1024, rnd=0.10, rnd_blocks=5 * 1024,
             footprint=24 * 1024, gap=26.0),
        # --- (mostly) incompressible compressors ---
        _app("bzip206", 0.30, 0.30, _SMALL, loop=0.25, loop_blocks=6 * 1024,
             scan=0.10, scan_blocks=8 * 1024, stream=0.25, rw=0.35,
             rw_blocks=5 * 1024, rw_wf=0.6, rnd=0.10, rnd_blocks=12 * 1024,
             footprint=80 * 1024, gap=17.0),
        _app("xz17", 0.0, 0.0, loop=0.10, loop_blocks=3 * 1024,
             scan=0.15, scan_blocks=8 * 1024, stream=0.30, rw=0.35,
             rw_blocks=6 * 1024, rw_wf=0.6, rnd=0.10, rnd_blocks=12 * 1024,
             footprint=112 * 1024, gap=13.0),
    )
}

APP_NAMES: Tuple[str, ...] = tuple(sorted(PROFILES))


def profile(name: str) -> AppProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown application {name!r}; known: {APP_NAMES}") from None
