"""Tests for profiles, trace generation, mixes and the data model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.encodings import BLOCK_SIZE
from repro.workloads import (
    AppTraceGenerator,
    DataModel,
    MaterializedTrace,
    materialize,
)
from repro.workloads.mixes import MIXES, mix_profiles
from repro.workloads.profiles import PROFILES, make_comp_weights, profile
from repro.workloads.trace import CORE_ADDR_SHIFT


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------
def test_all_twenty_apps_defined():
    assert len(PROFILES) == 20


def test_mixes_match_table5():
    assert len(MIXES) == 10
    for apps in MIXES.values():
        assert len(apps) == 4
        for app in apps:
            assert app in PROFILES


def test_mix_profiles_resolution():
    profs = mix_profiles("mix1")
    assert [p.name for p in profs] == list(MIXES["mix1"])
    with pytest.raises(KeyError):
        mix_profiles("mix99")


def test_unknown_app_rejected():
    with pytest.raises(KeyError):
        profile("doom3")


def test_fig2_anchors():
    """xz17/milc06 incompressible; GemsFDTD06/zeusmp06 compressible."""
    assert profile("xz17").incompressible_fraction == 1.0
    assert profile("milc06").incompressible_fraction == 1.0
    assert profile("GemsFDTD06").incompressible_fraction < 0.1
    assert profile("zeusmp06").incompressible_fraction < 0.1


def test_library_average_compressibility():
    """Sec. II-B: on average 78 % compressible (49 HCR / 29 LCR)."""
    hcr = sum(p.hcr_fraction for p in PROFILES.values()) / len(PROFILES)
    lcr = sum(p.lcr_fraction for p in PROFILES.values()) / len(PROFILES)
    assert 0.42 <= hcr <= 0.56
    assert 0.20 <= lcr <= 0.36


def test_comp_weights_validation():
    with pytest.raises(ValueError):
        make_comp_weights(0.8, 0.5)
    weights = make_comp_weights(0.5, 0.3)
    assert abs(sum(w for _s, w in weights) - 1.0) < 1e-9
    assert any(s == BLOCK_SIZE for s, _w in weights)


def test_profile_scaling_preserves_ratios():
    prof = profile("zeusmp06")
    scaled = prof.scaled(1 / 16)
    assert scaled.loop_blocks == max(64, round(prof.loop_blocks / 16))
    assert scaled.comp_weights == prof.comp_weights
    assert scaled.gap_mean == prof.gap_mean
    assert scaled.footprint_blocks >= scaled.phased_region_blocks
    assert prof.scaled(1.0) is prof
    with pytest.raises(ValueError):
        prof.scaled(0)


def test_hot_region_properties():
    prof = profile("zeusmp06")
    assert prof.hot_region_blocks == prof.n_phases * (
        prof.loop_blocks + prof.scan_blocks + prof.rw_blocks
    )
    assert 0 < prof.hot_traffic_fraction < 1


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def test_generator_deterministic():
    prof = profile("mcf17").scaled(1 / 16)
    gen_a = AppTraceGenerator(prof, 1, seed=5)
    a = [next(gen_a) for _ in range(50)]
    gen_b = AppTraceGenerator(prof, 1, seed=5)
    b = [next(gen_b) for _ in range(50)]
    assert a == b
    gen_c = AppTraceGenerator(prof, 1, seed=6)
    c = [next(gen_c) for _ in range(50)]
    assert a != c


def test_generator_addresses_in_core_slice():
    prof = profile("lbm17").scaled(1 / 16)
    gen = AppTraceGenerator(prof, core_id=2, seed=0)
    for _ in range(2000):
        record = next(gen)
        assert record.addr >> CORE_ADDR_SHIFT == 2
        offset = record.addr & ((1 << CORE_ADDR_SHIFT) - 1)
        assert offset < prof.footprint_blocks


def test_generator_write_fraction_sane():
    prof = profile("lbm17").scaled(1 / 16)  # write-streaming app
    gen = AppTraceGenerator(prof, 0, seed=1)
    writes = sum(1 for _ in range(5000) if next(gen).is_write)
    assert 0.05 < writes / 5000 < 0.6


def test_generator_phases_shift_loop_region():
    prof = profile("zeusmp06").scaled(1 / 16)
    gen = AppTraceGenerator(prof, 0, seed=2)
    seen_loop_bases = set()
    for _ in range(prof.phase_accesses * prof.n_phases + 10):
        record = next(gen)
        offset = record.addr & ((1 << CORE_ADDR_SHIFT) - 1)
        if offset < prof.n_phases * prof.loop_blocks:
            seen_loop_bases.add(offset // prof.loop_blocks)
    assert len(seen_loop_bases) == prof.n_phases  # all phase slots used


def test_gap_distribution_mean():
    prof = profile("gobmk06").scaled(1 / 16)  # gap_mean 28
    gen = AppTraceGenerator(prof, 0, seed=3)
    gaps = [next(gen).gap for _ in range(6000)]
    mean = sum(gaps) / len(gaps)
    assert 0.7 * prof.gap_mean < mean < 1.3 * prof.gap_mean


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------
def test_materialize_replay_columns_match_records():
    """The engine replays the flat columns; they must hold the records.
    (Cyclic replay is the engine's own wrap, tested in test_engine.)"""
    prof = profile("astar06").scaled(1 / 16)
    trace = materialize(AppTraceGenerator(prof, 0, seed=0), 100)
    assert len(trace) == 100
    gaps, addrs, writes = trace.replay_columns()
    assert list(zip(gaps, addrs, writes)) == trace.records
    assert all(type(w) is bool for w in writes)


def test_trace_stats():
    prof = profile("astar06").scaled(1 / 16)
    trace = materialize(AppTraceGenerator(prof, 0, seed=0), 500)
    assert 0 < trace.footprint() <= 500
    assert 0.0 <= trace.write_fraction() <= 1.0


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        MaterializedTrace([])


# ----------------------------------------------------------------------
# data model
# ----------------------------------------------------------------------
def test_data_model_deterministic_sizes():
    profs = mix_profiles("mix1")
    m1 = DataModel(profs, seed=9)
    m2 = DataModel(profs, seed=9)
    for addr in (0, 5, (1 << CORE_ADDR_SHIFT) | 3):
        assert m1.size_fn(addr) == m2.size_fn(addr)


def test_data_model_respects_incompressible_apps():
    m = DataModel([profile("xz17")], seed=0)
    for addr in range(200):
        csize, ecb = m.size_fn(addr)
        assert csize == BLOCK_SIZE and ecb == BLOCK_SIZE


def test_data_model_block_bytes_compress_to_assigned_size():
    from repro.compression.bdi import DEFAULT_COMPRESSOR

    m = DataModel(mix_profiles("mix1"), seed=0)
    for addr in list(range(10)) + [(1 << CORE_ADDR_SHIFT) | 7]:
        csize, _ = m.size_fn(addr)
        block = m.block_bytes(addr)
        assert DEFAULT_COMPRESSOR.compress(block).size == csize


def test_data_model_hot_region_more_compressible():
    """Structured regions must compress at least as well as streams."""
    prof = profile("leslie3d06").scaled(1 / 16)
    m = DataModel([prof], seed=1)
    hot = [m.compressed_size(o) for o in range(0, 200)]
    cold_base = prof.phased_region_blocks + 10
    cold = [m.compressed_size(cold_base + o) for o in range(0, 200)]
    frac_comp_hot = sum(1 for s in hot if s < 64) / len(hot)
    frac_comp_cold = sum(1 for s in cold if s < 64) / len(cold)
    assert frac_comp_hot >= frac_comp_cold


def test_data_model_aggregate_matches_profile():
    """Traffic-weighted compressibility stays on the Fig. 2 split."""
    prof = profile("soplex06").scaled(1 / 16)
    m = DataModel([prof], seed=2)
    gen = AppTraceGenerator(prof, 0, seed=2)
    n = 4000
    compressible = sum(
        1 for _ in range(n) if m.compressed_size(next(gen).addr) < 64
    )
    target = 1.0 - prof.incompressible_fraction
    assert abs(compressible / n - target) < 0.1


def test_data_model_rejects_unknown_core():
    m = DataModel([profile("xz17")], seed=0)
    with pytest.raises(ValueError):
        m.size_fn(1 << CORE_ADDR_SHIFT)


def test_data_model_requires_profiles():
    with pytest.raises(ValueError):
        DataModel([])
