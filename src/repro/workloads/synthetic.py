"""Synthetic single-behaviour profiles for controlled experiments.

The Table V mixes blend several access behaviours; when a test or a
study needs to isolate one mechanism (e.g. "what does a pure stream do
to TAP?", "how fast does LHybrid capture a pure loop?"), these factory
functions produce profiles with exactly one dominant region.  All
sizes are expressed at paper scale and respond to
:meth:`~repro.workloads.profiles.AppProfile.scaled` like the SPEC
profiles do.
"""

from __future__ import annotations

from typing import List, Optional

from .profiles import AppProfile, SizeWeights, make_comp_weights

_DEFAULT_COMP: SizeWeights = make_comp_weights(0.5, 0.28)


def _base(
    name: str,
    *,
    loop: float = 0.0,
    scan: float = 0.0,
    stream: float = 0.0,
    rw: float = 0.0,
    rnd: float = 0.0,
    loop_blocks: int = 4 * 1024,
    scan_blocks: int = 12 * 1024,
    rw_blocks: int = 2 * 1024,
    rnd_blocks: int = 32 * 1024,
    footprint: int = 160 * 1024,
    stream_wf: float = 0.1,
    rw_wf: float = 0.5,
    gap: float = 14.0,
    comp: Optional[SizeWeights] = None,
) -> AppProfile:
    regions = loop_blocks + scan_blocks + rw_blocks + rnd_blocks
    footprint = max(footprint, regions + 32 * 1024)
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
        random_write_frac=0.1,
        gap_mean=gap,
        comp_weights=comp if comp is not None else _DEFAULT_COMP,
        n_phases=1,
    )


def streaming_profile(
    write_frac: float = 0.1, comp: Optional[SizeWeights] = None
) -> AppProfile:
    """Pure thrashing stream: no reuse at any level (TAP's target)."""
    return _base("synthetic_stream", stream=1.0, stream_wf=write_frac, comp=comp)


def looping_profile(
    loop_blocks: int = 4 * 1024,
    comp: Optional[SizeWeights] = None,
    stream: float = 0.0,
) -> AppProfile:
    """Tight loop: every block is a loop-block after one sweep.

    An optional ``stream`` share adds thrashing pressure — a *pure*
    cyclic loop either fits the SRAM part (no replacements, nothing to
    migrate) or thrashes it with zero hits (classic LRU pathology), so
    studies of loop-block *migration* need a little competing traffic.
    """
    return _base(
        "synthetic_loop",
        loop=1.0 - stream,
        stream=stream,
        loop_blocks=loop_blocks,
        comp=comp,
    )


def scanning_profile(
    scan_blocks: int = 48 * 1024, comp: Optional[SizeWeights] = None
) -> AppProfile:
    """Medium cyclic sweep: reuse distance beyond the SRAM part.

    The class BH retains but SRAM-first policies lose (Sec. II-D's
    performance-gap mechanism, isolated).
    """
    return _base(
        "synthetic_scan",
        scan=1.0,
        scan_blocks=scan_blocks,
        footprint=max(160 * 1024, 2 * scan_blocks),
        comp=comp,
    )


def write_heavy_profile(
    rw_blocks: int = 4 * 1024, comp: Optional[SizeWeights] = None
) -> AppProfile:
    """Read-modify-write hot set: dirty, write-reused traffic."""
    return _base("synthetic_rw", rw=1.0, rw_blocks=rw_blocks, rw_wf=0.7, comp=comp)


def pointer_chase_profile(
    rnd_blocks: int = 64 * 1024, comp: Optional[SizeWeights] = None
) -> AppProfile:
    """Sparse uniform pointer chasing over a large pool."""
    return _base("synthetic_chase", rnd=1.0, rnd_blocks=rnd_blocks, comp=comp)


def incompressible_profile(kind: str = "stream") -> AppProfile:
    """A fully incompressible variant of one of the behaviours."""
    comp = make_comp_weights(0.0, 0.0)
    factory = {
        "stream": streaming_profile,
        "loop": looping_profile,
        "scan": scanning_profile,
        "rw": write_heavy_profile,
        "chase": pointer_chase_profile,
    }[kind]
    return factory(comp=comp)


def homogeneous_mix(profile: AppProfile, n_cores: int = 4) -> List[AppProfile]:
    """The same behaviour on every core (for isolation studies)."""
    return [profile] * n_cores
