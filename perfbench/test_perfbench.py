"""The benchmark's own tests: ``python -m pytest perfbench`` from the root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import spec
from perfbench.layers import Counts, layer_metrics, targets
from perfbench.run import Outcome, check_outputs
from perfbench.tracer import Target, Tracer
from perfbench.units import check_cell
from repro.bench.golden import simulation_digest
from repro.core import make_policy
from repro.engine import Simulation, Workload
from repro.experiments.common import SMOKE, run_one
from repro.memo.snapshots import reset_shared_snapshot_store
from repro.workloads.mixes import mix_profiles

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_spec():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(manifest) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert manifest["paths"] == ["perfbench"]
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS
    ]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_every_declared_layer_metric_is_computed():
    class Store:
        hits = misses = 0

    computed = layer_metrics(Tracer(), Counts(), [], Store(), 0, 0, 0, 1.0)
    assert sorted(computed) == sorted(m.name for m in spec.PER_LAYER)
    assert all(m.moves for m in spec.PER_LAYER)


class _Toy:
    def outer(self, n):
        total = sum(range(n))  # unwrapped work: outer's self time
        return total + self.inner(n) + self.inner(n)

    def inner(self, n):
        return sum(range(n))


def test_self_times_and_unattributed_sum_to_the_unit():
    original = vars(_Toy)["outer"]
    tracer = Tracer()
    tracer.install([Target(_Toy, "outer", "cache.outer", span=True),
                    Target(_Toy, "inner", "core.inner")])
    try:
        with tracer.region("units"):
            with tracer.unit("u0"):
                assert _Toy().outer(20000) == 3 * sum(range(20000))
    finally:
        tracer.uninstall()
    assert vars(_Toy)["outer"] is original

    nodes = {node.name: node for node, _, _ in tracer.walk("units")}
    unit, outer = nodes["unit"], nodes["_Toy.outer"]
    inner = nodes["_Toy.inner"]
    assert (unit.calls, outer.calls, inner.calls) == (1, 1, 2)
    assert outer.child == pytest.approx(inner.total)
    parts = unit.self_s + outer.self_s + inner.self_s
    assert parts == pytest.approx(unit.total, rel=1e-9)
    (span,) = [s for s in tracer.spans if s.name == "_Toy.outer"]
    assert span.unit == "u0" and span.parent == 0


def test_uninstall_restores_every_target():
    wrapped = targets(Counts())
    before = [vars(t.owner)[t.attr] for t in wrapped]
    tracer = Tracer()
    tracer.install(wrapped)
    assert tracer.missing == []
    assert all(vars(t.owner)[t.attr] is not b for t, b in zip(wrapped, before))
    tracer.uninstall()
    assert all(vars(t.owner)[t.attr] is b for t, b in zip(wrapped, before))


def _small_workload():
    profiles = [p.scaled(1 / 32) for p in mix_profiles("mix1")]
    return Workload(profiles, seed=3, trace_records_per_core=20_000)


def _cell(policy_name, workload):
    reset_shared_snapshot_store()
    record = run_one(SMOKE.system(), make_policy(policy_name), workload,
                     0.5, 1.0)
    assert check_cell(record, 1.0) is None
    return simulation_digest(record)


def _fast_paths(policy_name, workload):
    llc = Simulation(SMOKE.system(), make_policy(policy_name),
                     workload).hierarchy.llc
    return (llc._on_hit is None, llc._on_nvm_write is None,
            llc._handle_sram_eviction is None, llc._static_placement,
            llc._default_victim)


# One cell per policy family: static placement (bh), hook-driven
# (cp_sd) and overridden victim selection (lhybrid).
@pytest.mark.parametrize("policy_name", ["bh", "cp_sd", "lhybrid"])
def test_traced_outputs_equal_untraced(policy_name):
    workload = _small_workload()
    untraced = _cell(policy_name, workload)
    untraced_paths = _fast_paths(policy_name, workload)
    counts = Counts()
    tracer = Tracer()
    tracer.install(targets(counts))
    try:
        with tracer.region("units"):
            with tracer.unit(policy_name):
                traced = _cell(policy_name, workload)
            traced_paths = _fast_paths(policy_name, workload)
    finally:
        tracer.uninstall()
        reset_shared_snapshot_store()
    assert traced == untraced
    assert traced_paths == untraced_paths
    calls = {node.metric for node, _, _ in tracer.walk("units") if node.calls}
    assert {"engine.run", "cache.access", "cache.llc_insert"} <= calls
    assert counts.values["gets"] > 0


def _outcome(uid, digest, error=None):
    return Outcome(uid, 1.0, digest, 10, 0, error)


def test_check_outputs_against_references_and_passes():
    passes = [[_outcome("a", "d1"), _outcome("b", "d2")],
              [_outcome("a", "d1"), _outcome("b", "dX")]]
    assert check_outputs(passes, {}) == {"pass1:b": "digest dX != expected d2"}
    assert set(check_outputs(passes, {"a": "d0", "b": "d2"})) == {
        "pass0:a", "pass1:a", "pass1:b"}
    failed = [[_outcome("a", None, "ValueError: boom")]]
    assert check_outputs(failed, {}) == {"pass0:a": "ValueError: boom"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
