"""Tests for the system configuration (Table IV encoding)."""

import pytest

from repro.config import (
    BLOCK_SIZE,
    CacheGeometry,
    EnduranceConfig,
    HybridGeometry,
    LatencyConfig,
    SetDuelingConfig,
    SystemConfig,
)
from repro.experiments.common import SMOKE


def test_block_size():
    assert BLOCK_SIZE == 64


def test_cache_geometry_derived_values():
    geo = CacheGeometry(128 * 1024, 16)
    assert geo.n_sets == 128
    assert geo.set_index_bits == 7


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        CacheGeometry(100, 3)  # not divisible
    with pytest.raises(ValueError):
        CacheGeometry(3 * 64 * 2, 2)  # 3 sets: not a power of two


def test_hybrid_geometry_defaults_match_table4():
    geo = HybridGeometry()
    assert geo.sram_ways == 4
    assert geo.nvm_ways == 12
    assert geo.total_ways == 16
    assert geo.n_banks == 4
    assert geo.nvm_bytes == geo.n_sets * 12 * 64
    assert geo.sets_per_bank * geo.n_banks == geo.n_sets


def test_hybrid_geometry_validation():
    with pytest.raises(ValueError):
        HybridGeometry(n_sets=100)
    with pytest.raises(ValueError):
        HybridGeometry(n_sets=4, n_banks=8)
    with pytest.raises(ValueError):
        HybridGeometry(sram_ways=0, nvm_ways=0)


def test_latency_defaults_match_table4():
    lat = LatencyConfig()
    assert lat.l1_hit == 3
    assert lat.llc_sram_load == 28
    assert lat.llc_nvm_load == 32
    assert lat.llc_nvm_extra == 2
    assert lat.llc_nvm_total_load == 34
    assert lat.llc_write == 20
    assert lat.cpu_freq_hz == 3.5e9


def test_nvm_latency_scaling_only_d_array():
    """Fig. 11b: x1.5 scales the 8-cycle D-array -> 32 becomes 36."""
    lat = LatencyConfig().scaled_nvm(1.5)
    assert lat.llc_nvm_load == 36
    assert lat.llc_sram_load == 28  # untouched


def test_endurance_defaults():
    endurance = EnduranceConfig()
    assert endurance.mean == 1e10
    assert endurance.cv == 0.2
    assert endurance.sigma == pytest.approx(2e9)


def test_dueling_defaults_match_paper():
    dueling = SetDuelingConfig()
    assert dueling.cpth_candidates == (30, 37, 44, 51, 58, 64)
    assert dueling.leader_groups == 32
    assert dueling.epoch_cycles == 2_000_000  # Sec. IV-C best epoch
    tuned = dueling.with_th(4.0)
    assert tuned.hit_loss_pct == 4.0 and tuned.write_gain_pct == 5.0


def test_system_knob_helpers():
    cfg = SystemConfig()
    assert cfg.with_nvm_latency_factor(1.5).latency.llc_nvm_load == 36


def test_scale_system_knobs():
    cfg = SMOKE.system(sram_ways=3, nvm_ways=13, cv=0.25, l2_kib=256,
                       nvm_latency_factor=1.5)
    assert cfg.llc.n_sets == SMOKE.n_sets
    assert (cfg.llc.sram_ways, cfg.llc.nvm_ways) == (3, 13)
    assert cfg.endurance.cv == 0.25
    assert cfg.l2.size_bytes == int(256 * SMOKE.factor) * 1024
    assert cfg.latency.llc_nvm_load == 36
