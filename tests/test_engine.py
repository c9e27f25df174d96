"""Tests for the Workload bundle and the Simulation engine."""

import copy
from dataclasses import replace

import pytest

from repro.bench.golden import simulation_digest
from repro.config import SystemConfig
from repro.core import make_policy
from repro.engine import Simulation, Workload, run_policy_on_mix
from repro.experiments.common import SMOKE
from repro.workloads.mixes import mix_profiles
from repro.workloads.trace import MaterializedTrace


def small_workload(mix="mix1", records=5000):
    profiles = [p.scaled(1 / 32) for p in mix_profiles(mix)]
    return Workload(profiles, seed=0, trace_records_per_core=records)


def small_config():
    return SMOKE.system()


def test_workload_builds_four_traces():
    wl = small_workload()
    assert wl.n_cores == 4
    assert len(wl.traces) == 4
    assert all(len(t) == 5000 for t in wl.traces)


def test_workload_requires_profiles():
    with pytest.raises(ValueError):
        Workload([])


def test_simulation_core_count_checked():
    wl = small_workload()
    config = SystemConfig()  # 4 cores, OK
    Simulation(config, make_policy("bh"), wl)
    from dataclasses import replace

    bad = replace(config, cores=replace(config.cores, n_cores=2))
    with pytest.raises(ValueError):
        Simulation(bad, make_policy("bh"), wl)


def test_run_produces_consistent_result():
    config = small_config()
    wl = small_workload()
    sim = Simulation(config, make_policy("cp_sd"), wl)
    epoch = config.dueling.epoch_cycles
    res = sim.run(cycles=3 * epoch, warmup_cycles=epoch)
    assert res.cycles == pytest.approx(2 * epoch)
    assert res.seconds == pytest.approx(2 * epoch / config.latency.cpu_freq_hz)
    assert len(res.ipcs) == 4
    assert res.mean_ipc > 0
    llc = res.stats.llc
    assert llc.accesses > 0
    assert llc.hits == llc.gets_hits + llc.getx_hits
    assert llc.hits <= llc.accesses
    assert 0.0 <= res.hit_rate <= 1.0


def test_run_requires_cycles_beyond_warmup():
    sim = Simulation(small_config(), make_policy("bh"), small_workload())
    with pytest.raises(ValueError):
        sim.run(cycles=100, warmup_cycles=100)


def test_epoch_records_align_with_dueling():
    config = small_config()
    wl = small_workload()
    sim = Simulation(config, make_policy("cp_sd"), wl)
    epoch = config.dueling.epoch_cycles
    res = sim.run(cycles=4 * epoch, warmup_cycles=0)
    assert len(res.epochs) >= 3
    for i, record in enumerate(res.epochs):
        assert record.index == i
        assert record.end_cycle == pytest.approx((i + 1) * epoch)
        assert record.winner_cpth in config.dueling.cpth_candidates
        assert record.hits >= 0 and record.nvm_bytes_written >= 0


def test_runs_are_resumable():
    """Two consecutive run() calls continue the same simulation."""
    config = small_config()
    wl = small_workload()
    sim = Simulation(config, make_policy("bh"), wl)
    epoch = config.dueling.epoch_cycles
    first = sim.run(cycles=epoch, warmup_cycles=0)
    resident_before = set(sim.hierarchy.llc.resident_blocks())
    second = sim.run(cycles=epoch, warmup_cycles=0)
    # cache contents persisted: warm-start hit rate is higher
    assert second.hit_rate >= first.hit_rate * 0.8
    assert resident_before  # something was cached
    # epoch numbering continues across runs
    assert second.epochs[0].index > first.epochs[-1].index - 1


def test_phase_timings_are_reported():
    config = small_config()
    sim = Simulation(config, make_policy("ca_rwr"), small_workload(records=2000))
    epoch = config.dueling.epoch_cycles
    sim.run(cycles=epoch * 1.5, warmup_cycles=epoch * 0.5)
    timings = sim.last_phase_timings
    assert timings["records"] > 0
    assert timings["total_s"] >= 0.0
    assert timings["access_path_s"] >= 0.0
    assert timings["epoch_bookkeeping_s"] >= 0.0


def test_same_workload_same_policy_is_deterministic():
    config = small_config()
    epoch = config.dueling.epoch_cycles
    results = []
    for _ in range(2):
        wl = small_workload()
        sim = Simulation(config, make_policy("cp_sd"), wl)
        res = sim.run(cycles=2 * epoch, warmup_cycles=0)
        results.append(
            (res.stats.llc.hits, res.stats.llc.nvm_bytes_written, res.mean_ipc)
        )
    assert results[0] == results[1]


def test_policies_see_identical_reference_streams():
    """The workload replays byte-identical traces for every policy."""
    config = small_config()
    epoch = config.dueling.epoch_cycles
    wl = small_workload()
    r1 = Simulation(config, make_policy("bh"), wl).run(epoch, 0)
    wl2 = small_workload()
    r2 = Simulation(config, make_policy("lhybrid"), wl2).run(epoch, 0)
    # same number of demand accesses reach the hierarchy front end
    a1 = sum(c.accesses for c in r1.stats.cores)
    a2 = sum(c.accesses for c in r2.stats.cores)
    assert a1 > 0
    # policies change latencies (and thus pacing) but not the stream
    assert wl.traces[0].records[:100] == wl2.traces[0].records[:100]


@pytest.mark.parametrize("policy_name", ["bh", "cp_sd"])
def test_replay_wraps_to_trace_start(policy_name):
    """A core that runs past the end of its trace replays it from the
    first record: the run is indistinguishable from one over the same
    records concatenated twice."""
    n = 2000
    scale = replace(SMOKE, trace_records_per_core=n)
    config = scale.system()
    wl = scale.workload("mix1")
    # A copy, not the shared-cache object the scale handed out.
    doubled = copy.copy(wl)
    doubled.traces = [
        MaterializedTrace(trace.records * 2) for trace in wl.traces
    ]
    assert doubled is not wl
    cycles = config.dueling.epoch_cycles
    wrapped = Simulation(config, make_policy(policy_name), wl).run(cycles, 0)
    assert max(core.accesses for core in wrapped.stats.cores) > n
    unwrapped = Simulation(config, make_policy(policy_name), doubled).run(
        cycles, 0
    )
    assert simulation_digest(wrapped) == simulation_digest(unwrapped)


def test_run_policy_on_mix_helper():
    config = small_config()
    wl = small_workload()
    res = run_policy_on_mix(config, make_policy("bh"), wl, cycles=100_000)
    assert res.stats.llc.accesses > 0
