"""Smoke tests of the figure/ablation runners (tiny dimensions).

The benchmarks exercise these at full experiment size; here each
runner is driven at minimal cost to pin its structure and basic sanity
so a refactor cannot silently break the harness.
"""

import pytest

from repro.experiments import (
    SMOKE,
    run_cpth_sweep,
    run_energy_study,
    run_epoch_size_sweep,
    run_fig8b,
    run_fig9,
    run_lifetime_study,
    run_migration_ablation,
    run_wear_leveling_study,
)

pytestmark = pytest.mark.slow

MIX = ("mix1",)


def test_cpth_sweep_structure():
    result = run_cpth_sweep(
        SMOKE, mixes=MIX, cpth_values=(37, 64), warmup_epochs=2, measure_epochs=1
    )
    assert set(result.ca_hit) == {37, 64}
    assert set(result.ca_rwr_bytes) == {37, 64}
    assert result.cp_sd_hit > 0
    rows = result.rows()
    assert rows[-1]["cpth"] == "SD"
    assert all(v is None or v >= 0 for row in rows for v in row.values()
               if not isinstance(v, str))


def test_fig8b_distributions_normalised():
    dists = run_fig8b(
        SMOKE, mixes=MIX, cpth_values=(37, 64), warmup_epochs=1, measure_epochs=3
    )
    assert len(dists) == 1
    assert abs(sum(dists[0].shares.values()) - 1.0) < 1e-9
    assert dists[0].dominant() in (37, 64)


def test_fig9_points_structure():
    points = run_fig9(
        SMOKE, th_values=(0.0, 8.0), capacities_pct=(100,), mixes=MIX,
        warmup_epochs=2, measure_epochs=1,
    )
    assert len(points) == 2
    assert all(p.capacity_pct == 100 for p in points)
    assert all(p.hits_norm > 0 and p.nvm_bytes_norm >= 0 for p in points)


def test_lifetime_study_structure():
    study = run_lifetime_study(
        SMOKE,
        mixes=MIX,
        policies=(("bh", "bh", {}), ("cp_sd", "cp_sd", {})),
        with_bounds=False,
    )
    rows = study.rows()
    assert {r["policy"] for r in rows} == {"bh", "cp_sd"}
    assert study.lifetime_seconds("cp_sd") > study.lifetime_seconds("bh")
    assert study.initial_ipc("bh") > 0


def test_lifetime_study_rejects_a_policy_its_units_cannot_name(monkeypatch):
    """A forecast unit names its policy by key, so a triple that
    disagrees with ``POLICY_SPECS`` fails before anything simulates."""
    import repro.experiments.lifetime as lifetime

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating the policies")

    monkeypatch.setattr(lifetime, "run_lifetime_unit", no_simulation)
    with pytest.raises(ValueError, match="cp_sd_th8"):
        run_lifetime_study(
            SMOKE, mixes=MIX, policies=(("cp_sd_th8", "cp_sd_th", {"th": 6.0}),)
        )


def test_lifetime_units_name_only_changed_knobs():
    from repro.experiments.lifetime import enumerate_lifetime_units

    bh = (("bh", "bh", {}),)
    default = enumerate_lifetime_units(SMOKE, MIX, bh, with_bounds=False)
    assert default == [{"mix": "mix1", "kind": "forecast", "policy": "bh"}]
    skewed = enumerate_lifetime_units(
        SMOKE, MIX, bh, sram_ways=3, nvm_ways=13, cv=0.25
    )
    assert [u["ways"] for u in skewed if u["kind"] == "bound"] == [16, 3]
    assert skewed[-1] == {"mix": "mix1", "kind": "forecast", "policy": "bh",
                          "sram_ways": 3, "nvm_ways": 13, "cv": 0.25}


def test_epoch_sweep_normalisation():
    rows = run_epoch_size_sweep(
        SMOKE, multipliers=(1.0, 2.0), mixes=MIX,
        total_epochs_at_1x=4, warmup_epochs_at_1x=2,
    )
    assert max(r["hits_norm"] for r in rows) == 1.0


def test_migration_ablation_structure():
    rows = run_migration_ablation(SMOKE, mixes=MIX, warmup_epochs=2,
                                  measure_epochs=1)
    by = {r["migration"]: r for r in rows}
    assert by["off"]["migrations"] == 0


def test_energy_study_structure():
    rows = run_energy_study(SMOKE, mixes=MIX, policies=("bh",),
                            warmup_epochs=2, measure_epochs=1)
    assert rows[-1]["policy"] == "sram16 (bound)"
    assert all(r["total_nj"] > 0 for r in rows)


def test_wear_leveling_rows():
    rows = run_wear_leveling_study(n_writes=512)
    names = {r["strategy"] for r in rows}
    assert names == {"none", "global_counter", "per_frame", "hashed"}
    assert all(r["imbalance"] >= 1.0 for r in rows)
