"""Tests for the energy model."""

import pytest

from repro.cache.stats import HierarchyStats
from repro.config import HybridGeometry, SystemConfig
from repro.timing.energy import EnergyBreakdown, EnergyModel, EnergyParams


def stats_with(**llc_fields):
    stats = HierarchyStats()
    stats.core(0).accesses = 1000
    stats.core(0).l1_hits = 800
    for key, value in llc_fields.items():
        setattr(stats.llc, key, value)
    return stats


def test_breakdown_totals():
    b = EnergyBreakdown(
        l1_dynamic=1.0,
        l2_dynamic=2.0,
        llc_sram_read=3.0,
        llc_sram_write=4.0,
        llc_nvm_read=5.0,
        llc_nvm_write=6.0,
        memory_dynamic=7.0,
        sram_leakage=8.0,
        nvm_leakage=9.0,
    )
    assert b.llc_dynamic == 18.0
    assert b.llc_total == 35.0
    assert b.total == 45.0


def test_dynamic_energy_charges_events():
    model = EnergyModel(SystemConfig(), EnergyParams())
    stats = stats_with(hits_sram=10, hits_nvm=20, sram_writes=5,
                       nvm_bytes_written=640, nvm_writes=10)
    b = model.evaluate(stats, seconds=0.0)
    p = EnergyParams()
    assert b.llc_sram_read == pytest.approx(10 * p.llc_sram_read_nj)
    assert b.llc_nvm_read == pytest.approx(20 * p.llc_nvm_read_nj)
    assert b.llc_sram_write == pytest.approx(5 * p.llc_sram_write_nj)
    # 640 bytes = 10 full frames worth of write energy
    assert b.llc_nvm_write == pytest.approx(10 * p.llc_nvm_write_nj)
    assert b.sram_leakage == 0.0


def test_compression_halves_write_energy():
    model = EnergyModel(SystemConfig())
    full = model.evaluate(stats_with(nvm_bytes_written=64 * 100), 0.0)
    compressed = model.evaluate(stats_with(nvm_bytes_written=32 * 100), 0.0)
    assert compressed.llc_nvm_write == pytest.approx(0.5 * full.llc_nvm_write)


def test_leakage_scales_with_time_and_capacity():
    cfg = SystemConfig()
    model = EnergyModel(cfg)
    one = model.evaluate(HierarchyStats(), seconds=1.0)
    two = model.evaluate(HierarchyStats(), seconds=2.0)
    assert two.sram_leakage == pytest.approx(2 * one.sram_leakage)
    # NVM leaks far less per byte than SRAM
    sram_mib = model._sram_mib
    nvm_mib = model._nvm_mib
    assert one.nvm_leakage / nvm_mib < 0.1 * (one.sram_leakage / sram_mib)


def test_sram_only_config_has_no_nvm_energy():
    cfg = SystemConfig(llc=HybridGeometry(sram_ways=16, nvm_ways=0))
    model = EnergyModel(cfg)
    b = model.evaluate(stats_with(hits_sram=100), seconds=1.0)
    assert b.nvm_leakage == 0.0
    assert b.llc_nvm_write == 0.0


def test_negative_time_rejected():
    model = EnergyModel(SystemConfig())
    with pytest.raises(ValueError):
        model.evaluate(HierarchyStats(), seconds=-1.0)


def test_memory_energy_counts_reads_and_writebacks():
    model = EnergyModel(SystemConfig())
    stats = stats_with(writebacks_to_memory=5)
    stats.memory_reads = 10
    b = model.evaluate(stats, 0.0)
    assert b.memory_dynamic == pytest.approx(15 * EnergyParams().memory_access_nj)
