"""Resumability and straight-through tests, gated by goldens.

The engine stays resumable: ``run_until(w, w)`` + snapshot + restore +
``run_until(total, w)`` must be *byte-identical* to the cold
``run(total, warmup_cycles=w)`` — gated against the committed golden
digests, so a divergence fails even if the two paths drift together.

``run_one`` and the forecaster run straight through: neither keys,
snapshots nor restores a warm-up (each is simulated once), which the
``never_snapshots`` fixture enforces while their outputs are pinned to
``tests/goldens/determinism.json`` and ``tests/goldens/forecast.json``.
The post-warm-up snapshot store itself stays only because the
benchmark in ``perfbench/`` still imports its names; its key and LRU
tests remain below.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.golden import (
    GOLDEN_EPOCHS,
    GOLDEN_MIX,
    GOLDEN_POLICIES,
    GOLDEN_RECORDS_PER_CORE,
    GOLDEN_SCALE_FACTOR,
    GOLDEN_SEED,
    GOLDEN_WARMUP_EPOCHS,
    simulation_digest,
)
from repro.core import make_policy
from repro.engine import Simulation, Workload
from repro.experiments.common import SMOKE, run_one
from repro.forecast import Forecaster
from repro.memo import snapshots
from repro.memo.snapshots import SnapshotStore, warm_prefix_key
from repro.workloads.mixes import mix_profiles

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDENS = json.loads((GOLDEN_DIR / "determinism.json").read_text())
FORECAST_GOLDENS = json.loads((GOLDEN_DIR / "forecast.json").read_text())


def golden_workload() -> Workload:
    profiles = [p.scaled(GOLDEN_SCALE_FACTOR) for p in mix_profiles(GOLDEN_MIX)]
    return Workload(
        profiles, seed=GOLDEN_SEED,
        trace_records_per_core=GOLDEN_RECORDS_PER_CORE,
    )


@pytest.mark.parametrize("policy_name", GOLDEN_POLICIES)
def test_snapshot_restore_matches_golden_digest(policy_name):
    """Warm-started split run reproduces the committed golden digest."""
    config = SMOKE.system()
    epoch = config.dueling.epoch_cycles
    warmup = epoch * GOLDEN_WARMUP_EPOCHS
    total = epoch * (GOLDEN_WARMUP_EPOCHS + GOLDEN_EPOCHS)

    sim = Simulation(config, make_policy(policy_name), golden_workload())
    prefix = sim.run_until(warmup, warmup_until=warmup)
    snap = sim.snapshot()

    def measured_from(snapshot):
        warm = Simulation(config, make_policy(policy_name), golden_workload())
        warm.restore(snapshot)
        result = warm.run_until(total, warmup_until=warmup)
        result.epochs[:0] = [dataclasses.replace(e) for e in prefix.epochs]
        return result

    assert simulation_digest(measured_from(snap)) == GOLDENS[policy_name]
    # The snapshot must survive being restored twice — a restore must
    # not consume it.
    assert simulation_digest(measured_from(snap)) == GOLDENS[policy_name]


@given(
    policy_name=st.sampled_from(
        ["bh", "bh_cp", "lhybrid", "tap", "ca", "ca_rwr", "cp_sd"]
    ),
    seed=st.integers(0, 2**16),
    records=st.integers(500, 3000),
    warmup_epochs=st.floats(0.0, 1.0),
    measure_epochs=st.floats(0.25, 2.0),
)
# A window ending just short of an epoch boundary: a core draining
# past the end must not close that epoch before the others reach it.
@example(policy_name="ca_rwr", seed=208, records=604,
         warmup_epochs=0.99999, measure_epochs=1.0)
@settings(max_examples=12, deadline=None)
def test_split_run_matches_one_shot_on_random_windows(
    policy_name, seed, records, warmup_epochs, measure_epochs
):
    """Random (policy, seed, window): split run == one-shot run.

    Fractional epoch counts land the warmup boundary, and so the
    snapshot, in the middle of bursts and epochs.  The full RunRecord
    payload and the trace cursors must still agree bit-for-bit.
    """
    config = SMOKE.system()
    epoch = config.dueling.epoch_cycles
    warmup = epoch * warmup_epochs
    total = epoch * (warmup_epochs + measure_epochs)

    def fresh():
        profiles = [p.scaled(1 / 32) for p in mix_profiles("mix1")]
        workload = Workload(profiles, seed=seed, trace_records_per_core=records)
        return Simulation(config, make_policy(policy_name), workload)

    def outcome(sim, result):
        record = result.to_run_record(
            meta={"policy": policy_name}, policy=sim.policy
        )
        return record.to_json(), sim._cursors

    warm = fresh()
    prefix = warm.run_until(warmup, warmup_until=warmup)
    split = fresh()
    split.restore(warm.snapshot())
    split_result = split.run_until(total, warmup_until=warmup)
    split_result.epochs[:0] = prefix.epochs

    one_shot = fresh()
    one_shot_result = one_shot.run_until(total, warmup_until=warmup)
    assert outcome(split, split_result) == outcome(one_shot, one_shot_result)


def test_restore_rejects_core_count_mismatch():
    from repro.engine import SimulationSnapshot

    config = SMOKE.system()
    sim = Simulation(config, make_policy("bh"), golden_workload())
    snap = sim.snapshot()
    hierarchy, cores, cursors, next_epoch, epoch_index = snap._state
    truncated = SimulationSnapshot(
        (hierarchy, cores[:2], cursors[:2], next_epoch, epoch_index),
        snap._shared,
    )
    with pytest.raises(ValueError):
        sim.restore(truncated)


@pytest.fixture
def never_snapshots(monkeypatch):
    """Make any use of the snapshot path raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a simulation path used the snapshot store")

    monkeypatch.setattr(Simulation, "snapshot", refuse)
    monkeypatch.setattr(Simulation, "restore", refuse)
    monkeypatch.setattr(snapshots, "warm_prefix_key", refuse)


@pytest.mark.parametrize("policy_name", GOLDEN_POLICIES)
def test_run_one_never_snapshots(policy_name, never_snapshots):
    """``run_one`` reproduces the goldens without keying or copying."""
    result = run_one(
        SMOKE.system(),
        make_policy(policy_name),
        golden_workload(),
        warmup_epochs=GOLDEN_WARMUP_EPOCHS,
        measure_epochs=GOLDEN_EPOCHS,
    )
    assert simulation_digest(result) == GOLDENS[policy_name]


def forecast_digest(result) -> str:
    """SHA-256 over a forecast's points, stop flag and horizon."""
    payload = {
        "points": [
            [float(v).hex() for v in (p.time_seconds, p.capacity_fraction,
                                      p.ipc, p.hit_rate,
                                      p.nvm_bytes_per_second)]
            for p in result.points
        ],
        "reached_stop": bool(result.reached_stop),
        "horizon": float(result.horizon_seconds).hex(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@pytest.mark.parametrize("policy_name", sorted(FORECAST_GOLDENS))
def test_forecast_matches_golden_digest(policy_name, never_snapshots):
    """Three simulation phases reproduce the committed bits.

    Two aging advances and fault-map reconciles run between them;
    ``cp_sd`` ages by byte and ``lhybrid`` by frame, so both aging
    kernels are covered.
    """
    config = SMOKE.system()
    epoch = config.dueling.epoch_cycles
    result = Forecaster(
        config,
        make_policy(policy_name),
        golden_workload(),
        phase_cycles=epoch * 1.0,
        initial_warmup_cycles=epoch * 0.5,
        rewarm_cycles=epoch * 0.25,
        max_steps=3,
    ).run()
    assert forecast_digest(result) == FORECAST_GOLDENS[policy_name]


def test_warm_prefix_key_sensitivity():
    config = SMOKE.system()
    workload = golden_workload()
    key = warm_prefix_key(config, make_policy("cp_sd"), workload, 1000.0)
    # Same inputs, fresh objects: content addressing, not identity.
    assert key == warm_prefix_key(
        SMOKE.system(), make_policy("cp_sd"), golden_workload(), 1000.0
    )
    assert key != warm_prefix_key(config, make_policy("bh"), workload, 1000.0)
    assert key != warm_prefix_key(config, make_policy("cp_sd"), workload, 2000.0)
    assert key != warm_prefix_key(
        SMOKE.system(nvm_ways=8), make_policy("cp_sd"), workload, 1000.0
    )
    other_seed = Workload(
        [p.scaled(GOLDEN_SCALE_FACTOR) for p in mix_profiles(GOLDEN_MIX)],
        seed=1, trace_records_per_core=GOLDEN_RECORDS_PER_CORE,
    )
    assert key != warm_prefix_key(config, make_policy("cp_sd"), other_seed, 1000.0)


def test_warm_prefix_key_gives_up_on_unfreezable_policy():
    policy = make_policy("cp_sd")
    policy.opaque = lambda: None  # not canonicalisable
    assert (
        warm_prefix_key(SMOKE.system(), policy, golden_workload(), 1000.0)
        is None
    )


def test_snapshot_store_is_a_bounded_lru():
    store = SnapshotStore(capacity=2)
    store.put("a", "snap_a", [])
    store.put("b", "snap_b", [])
    assert store.get("a").snapshot == "snap_a"  # refreshes "a"
    store.put("c", "snap_c", [])                # evicts "b", the LRU
    assert store.get("b") is None
    assert store.get("a") is not None and store.get("c") is not None
    assert len(store) == 2
    assert store.hits == 3 and store.misses == 1
