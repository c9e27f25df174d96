"""Tests for the analytical core model.

``Simulation._run`` charges every access on an :class:`AnalyticalCore`
in its burst loop; the identity test checks the core's total time
through ``Simulation.run``, and the rest read the penalty table.
"""

from dataclasses import replace

import pytest

from repro.cache.hierarchy import Level
from repro.config import CoreConfig, LatencyConfig
from repro.core import make_policy
from repro.engine import Simulation, Workload
from repro.experiments.common import SMOKE
from repro.timing.core_model import AnalyticalCore
from repro.workloads.profiles import profile


def make_core(mlp=2.0, base_cpi=0.5):
    return AnalyticalCore(
        0, CoreConfig(n_cores=1, base_cpi=base_cpi, mlp=mlp), LatencyConfig()
    )


def one_core_run(policy):
    """Two smoke epochs of mcf on a one-core smoke system, no warm-up."""
    config = replace(SMOKE.system(), cores=CoreConfig(n_cores=1))
    workload = Workload([profile("mcf17")], seed=0,
                        trace_records_per_core=20_000)
    sim = Simulation(config, make_policy(policy), workload)
    result = sim.run(2 * config.dueling.epoch_cycles)
    return sim, result


@pytest.mark.parametrize("policy", ["bh", "cp_sd", "lhybrid"])
def test_engine_time_is_base_cpi_plus_level_penalties(policy):
    """cycles == base_cpi * instructions + sum of each serviced access's
    level penalty: the engine charges nothing else."""
    sim, _result = one_core_run(policy)
    core = sim.cores[0]
    stats = sim.hierarchy.stats.core(0)
    llc = sim.hierarchy.stats.llc
    counts = {
        Level.L1: stats.l1_hits,
        Level.L2: stats.l2_hits,
        Level.LLC_SRAM: llc.hits_sram,
        Level.LLC_NVM: llc.hits_nvm,
        Level.MEMORY: stats.memory_accesses,
    }
    # one core has no peers, so these levels service every access
    assert sum(counts.values()) == stats.accesses
    assert all(counts.values())
    expected = core.base_cpi * core.instructions + sum(
        core._penalty[level] * n for level, n in counts.items()
    )
    assert core.cycles == pytest.approx(expected, rel=1e-12)


def test_l1_hit_costs_only_base_cpi():
    core = make_core()
    assert core._penalty[Level.L1] == 0.0
    assert core._penalty[Level.PEER] == core._penalty[Level.LLC_SRAM]


def test_miss_penalties_scaled_by_mlp():
    lat = LatencyConfig()
    core = make_core(mlp=2.0)
    assert core._penalty[Level.L2] == pytest.approx(lat.l2_hit / 2.0)
    assert core._penalty[Level.LLC_SRAM] == pytest.approx(lat.llc_sram_load / 2.0)
    assert core._penalty[Level.MEMORY] == pytest.approx(lat.memory / 2.0)
    assert make_core(mlp=1.0)._penalty[Level.MEMORY] == pytest.approx(lat.memory)


def test_levels_ordered_by_cost():
    penalty = make_core()._penalty
    assert penalty[Level.L1] < penalty[Level.L2]
    assert penalty[Level.L2] < penalty[Level.LLC_SRAM]
    assert penalty[Level.LLC_SRAM] < penalty[Level.LLC_NVM]
    assert penalty[Level.LLC_NVM] < penalty[Level.MEMORY]


def test_nvm_charges_rearrangement_and_decompression():
    lat = LatencyConfig()
    penalty = make_core(mlp=1.0)._penalty
    assert penalty[Level.LLC_NVM] - penalty[Level.LLC_SRAM] == pytest.approx(
        lat.llc_nvm_total_load - lat.llc_sram_load
    )


def test_ipc_accumulates():
    sim, result = one_core_run("bh")
    core = sim.cores[0]
    assert core.ipc == core.instructions / core.cycles
    assert result.ipcs == [core.ipc]
    stats = sim.hierarchy.stats.core(0)
    assert stats.instructions == core.instructions
    assert stats.cycles == core.cycles
    assert stats.ipc == pytest.approx(core.ipc)
