"""Tests for the experiment machinery: scales, helpers, report, tables."""

import numpy as np
import pytest

from repro.compression.encodings import ecb_size
from repro.experiments import (
    DEFAULT,
    SMOKE,
    aged_capacities,
    format_records,
    format_table,
    get_scale,
    run_one,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from repro.core import make_policy


# ----------------------------------------------------------------------
# scales
# ----------------------------------------------------------------------
def test_scale_presets_resolve():
    assert get_scale("smoke") is SMOKE
    assert get_scale("default") is DEFAULT
    with pytest.raises(KeyError):
        get_scale("gigantic")


def test_scale_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert get_scale() is SMOKE


def test_scaled_system_internally_consistent():
    for scale in (SMOKE, DEFAULT):
        cfg = scale.system()
        assert cfg.llc.n_sets == scale.n_sets
        assert cfg.dueling.epoch_cycles == scale.epoch_cycles
        assert cfg.llc.sram_ways == 4 and cfg.llc.nvm_ways == 12
        # sensitivity knobs reach the config
        assert scale.system(sram_ways=3, nvm_ways=13).llc.nvm_ways == 13
        assert scale.system(cv=0.25).endurance.cv == 0.25
        assert scale.system(nvm_latency_factor=1.5).latency.llc_nvm_load == 36


def test_scaled_workload_footprints_shrink():
    wl_small = SMOKE.workload("mix1")
    for prof in wl_small.profiles:
        assert prof.footprint_blocks < 40 * 1024


def test_run_one_executes():
    scale = SMOKE
    res = run_one(scale.system(), make_policy("bh"), scale.workload("mix1"), 1, 1)
    assert res.stats.llc.accesses > 0


# ----------------------------------------------------------------------
# aged capacities
# ----------------------------------------------------------------------
def test_aged_capacities_reach_target():
    cfg = SMOKE.system()
    caps = aged_capacities(cfg, 0.8)
    frac = caps.sum() / (cfg.llc.n_sets * cfg.llc.nvm_ways * 64)
    assert frac == pytest.approx(0.8, abs=0.02)
    assert caps.shape == (cfg.llc.n_sets, cfg.llc.nvm_ways)


def test_aged_capacities_full():
    cfg = SMOKE.system()
    caps = aged_capacities(cfg, 1.0)
    assert (caps == 64).all()


# ----------------------------------------------------------------------
# report formatting
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], ["x", None]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "2.500" in text and "-" in lines[-1]


def test_format_records():
    text = format_records([{"x": 1, "y": "z"}], title="R")
    assert "x" in text and "z" in text
    assert format_records([]) == "(no data)"


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def test_table1_is_table_i():
    rows = table1_rows()
    by = {r["encoding"]: r for r in rows}
    assert by["ZERO"]["size"] == 1
    assert by["B8D4"]["size"] == 37 and by["B8D4"]["class"] == "HCR"
    assert by["B8D5"]["class"] == "LCR"
    assert by["UNCOMPRESSED"]["ecb"] == 64
    for r in rows:
        if r["size"] < 64:
            assert r["ecb"] == ecb_size(r["size"])


def test_table2_matches_table_ii():
    rows = table2_rows(cpth=37)
    lookup = {(r["reuse"], r["compressed_size"]): r["target"] for r in rows}
    assert lookup[("read", "small (<=CP_th)")] == "NVM"
    assert lookup[("read", "big (>CP_th)")] == "NVM"
    assert lookup[("write", "small (<=CP_th)")] == "SRAM"
    assert lookup[("none", "small (<=CP_th)")] == "NVM"
    assert lookup[("none", "big (>CP_th)")] == "SRAM"


def test_table3_taxonomy():
    rows = table3_rows()
    names = [r["name"] for r in rows]
    assert "bh" in names and "lhybrid" in names and "cp_sd" in names


def test_table4_and_5_dump():
    rows4 = table4_rows()
    assert any("NVM" in r["component"] for r in rows4)
    rows5 = table5_rows()
    assert len(rows5) == 10
    assert rows5[0]["mix"] == "mix1"
