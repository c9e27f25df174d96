"""Snapshot/restore tests: split-run equivalence, gated by goldens.

The warm-start contract (ISSUE 4): ``run_until(w, w)`` + snapshot +
restore + ``run_until(total, w)`` must be *byte-identical* to the cold
``run(total, warmup_cycles=w)`` — gated against the committed golden
digests, so a divergence fails even if warm and cold drift together.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
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
from repro.memo.snapshots import (
    SNAPSHOT_MEMO_ENV,
    SnapshotStore,
    reset_shared_snapshot_store,
    shared_snapshot_store,
    warm_prefix_key,
)
from repro.workloads.mixes import mix_profiles

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "determinism.json").read_text()
)


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
    # The snapshot must survive being restored twice (the store serves
    # many units from one entry) — a restore must not consume it.
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
@settings(max_examples=12, deadline=None)
def test_split_run_matches_one_shot_on_random_windows(
    policy_name, seed, records, warmup_epochs, measure_epochs
):
    """Random (policy, seed, window): split run == one-shot run.

    Fractional epoch counts land the warmup boundary, and so the
    snapshot, in the middle of bursts and epochs.  The full RunRecord
    payload and the trace cursors must still agree bit-for-bit — the
    exactness ``run_one``'s snapshot store relies on.
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
def snapshot_env(monkeypatch):
    """Enable a fresh shared store; restore global state afterwards."""
    monkeypatch.setenv(SNAPSHOT_MEMO_ENV, "1")
    reset_shared_snapshot_store()
    yield
    reset_shared_snapshot_store()


def _run_one_golden(policy_name):
    return run_one(
        SMOKE.system(),
        make_policy(policy_name),
        golden_workload(),
        warmup_epochs=GOLDEN_WARMUP_EPOCHS,
        measure_epochs=GOLDEN_EPOCHS,
    )


@pytest.mark.parametrize("policy_name", GOLDEN_POLICIES)
def test_run_one_warm_path_is_invisible(policy_name, snapshot_env):
    """Miss (populates), hit, and cold paths all yield the golden digest."""
    store = shared_snapshot_store()
    miss = _run_one_golden(policy_name)
    assert store.hits == 0 and len(store) == 1
    hit = _run_one_golden(policy_name)
    assert store.hits == 1

    assert simulation_digest(miss) == GOLDENS[policy_name]
    assert simulation_digest(hit) == GOLDENS[policy_name]


def test_run_one_with_store_disabled(monkeypatch):
    monkeypatch.setenv(SNAPSHOT_MEMO_ENV, "0")
    reset_shared_snapshot_store()
    assert shared_snapshot_store() is None
    result = _run_one_golden("bh")
    assert simulation_digest(result) == GOLDENS["bh"]


def test_forecaster_warm_start_is_invisible(snapshot_env, monkeypatch):
    """Forecast points are identical cold, on a miss, and on a hit."""
    config = SMOKE.system()
    epoch = config.dueling.epoch_cycles

    def forecast():
        return Forecaster(
            config,
            make_policy("cp_sd"),
            golden_workload(),
            phase_cycles=epoch * 1.0,
            initial_warmup_cycles=epoch * 0.5,
            rewarm_cycles=epoch * 0.25,
            max_steps=2,
        ).run()

    monkeypatch.setenv(SNAPSHOT_MEMO_ENV, "0")
    reset_shared_snapshot_store()
    cold = forecast()
    monkeypatch.setenv(SNAPSHOT_MEMO_ENV, "1")
    reset_shared_snapshot_store()
    miss = forecast()
    store = shared_snapshot_store()
    assert len(store) == 1
    hit = forecast()
    assert store.hits == 1

    assert miss.points == cold.points
    assert hit.points == cold.points
    assert (miss.reached_stop, miss.horizon_seconds) == (
        cold.reached_stop, cold.horizon_seconds,
    )


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
