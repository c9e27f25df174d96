#!/usr/bin/env bash
# Tier-1 CI gate: the full test suite plus a fast performance smoke.
#
# Usage: scripts/ci.sh
#   [--skip-tests|--skip-bench|--skip-memo|--skip-schema|--skip-durability|
#    --skip-analytical|--skip-workloads]
#
# The bench leg runs a *reduced* matrix (3 policies x 1 mix, smoke
# scale, best-of-3) against the committed full-matrix baseline —
# `compare_benches` scores the geomean of *matched* per-case ratios,
# so the skipped cells do not skew the verdict.  A geomean regression
# beyond the threshold exits non-zero.  The reduced matrix keeps this
# leg well under two minutes; the full matrix remains available via
# `python -m repro bench` directly.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TESTS=1
RUN_BENCH=1
RUN_MEMO=1
RUN_SCHEMA=1
RUN_DURABILITY=1
RUN_ANALYTICAL=1
RUN_WORKLOADS=1
for arg in "$@"; do
  case "$arg" in
    --skip-tests) RUN_TESTS=0 ;;
    --skip-bench) RUN_BENCH=0 ;;
    --skip-memo) RUN_MEMO=0 ;;
    --skip-schema) RUN_SCHEMA=0 ;;
    --skip-durability) RUN_DURABILITY=0 ;;
    --skip-analytical) RUN_ANALYTICAL=0 ;;
    --skip-workloads) RUN_WORKLOADS=0 ;;
    *) echo "ci.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

# One scratch root for every leg's outputs, removed on any exit.
TMP_ROOT="$(mktemp -d)"
trap 'rm -rf "$TMP_ROOT"' EXIT

if [[ "$RUN_TESTS" == 1 ]]; then
  echo "== ci: tier-1 test suite + perfbench self-tests =="
  python -m pytest -x -q tests perfbench

  echo "== ci: forecast digests (one perfbench lifetime pass) =="
  # run.py exits non-zero unless all five Fig. 10a forecast digests
  # match perfbench/references.json and the engine's golden digests
  # match tests/goldens/determinism.json; this pins the forecast
  # outputs (aging, fault-map re-entry), which the tier-1 goldens do
  # not cover.  It runs from a copy of the files it reads so that its
  # detail file lands under $TMP_ROOT, not in the working tree.
  mkdir -p "$TMP_ROOT/perfbench/tests"
  cp -r src perfbench "$TMP_ROOT/perfbench/"
  cp -r tests/goldens "$TMP_ROOT/perfbench/tests/"
  python3 "$TMP_ROOT/perfbench/perfbench/run.py" \
    --workload lifetime --seed 0 --seconds 1
fi

if [[ "$RUN_SCHEMA" == 1 ]]; then
  echo "== ci: artefact schema consistency =="
  # Every committed BENCH_*.json and the golden digests must validate
  # against the *current* RunRecord schema and metric registry, so a
  # metric rename or schema bump can never silently orphan artefacts.
  python -m repro export --check
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== ci: bench regression smoke (reduced matrix) =="
  python -m repro bench \
    --scale smoke \
    --label ci_smoke \
    --policies bh,ca_rwr,cp_sd \
    --mixes mix1 \
    --repeats 3 \
    --out "$TMP_ROOT/bench" \
    --baseline benchmarks/results/BENCH_engine.json \
    --threshold 0.25
fi

if [[ "$RUN_MEMO" == 1 ]]; then
  echo "== ci: memoization correctness smoke =="
  # `bench --memo` runs a reduced campaign twice against one result
  # cache and *raises* unless the second pass is served entirely from
  # cache with byte-identical results (and the snapshot warm-start is
  # digest-identical) — so this leg is a correctness gate, not a
  # timing one; no baseline comparison needed here.
  python -m repro bench --memo --scale smoke --out "$TMP_ROOT/memo"
fi

if [[ "$RUN_DURABILITY" == 1 ]]; then
  echo "== ci: storage durability under disk-fault chaos =="
  # A short campaign with disk-level chaos (torn result writes and
  # payload bit flips at p=0.3, inside the workers) must lose zero
  # tasks — every defect is caught by the envelope checksums and
  # retried — and the surviving artefacts must pass a strict
  # post-mortem audit (corrupt ones sit quarantined with reason
  # records, which the doctor skips by design).
  python -m repro campaign \
    --scale smoke \
    --out "$TMP_ROOT/durability" \
    --experiments tables \
    --chaos p=0.3,kinds=disk-torn,disk-flip \
    --retries 8 \
    --timeout 120 \
    --backoff 0.05 \
    --jobs 2
  python -m repro doctor --strict "$TMP_ROOT/durability"
  # ... and the committed artefacts audit clean too.
  python -m repro doctor --strict
fi

if [[ "$RUN_ANALYTICAL" == 1 ]]; then
  echo "== ci: analytical estimator accuracy gate =="
  # Re-estimate every case of the committed reference matrix and fail
  # when any mean error leaves its documented tolerance
  # (docs/analytical_validation.md) — the contract that licenses the
  # explorer's screening tier.
  python -m repro --scale smoke analytical

  echo "== ci: explorer smoke (tiny grid, kill-and-resume) =="
  # A tiny-grid sweep with a crash injected right after rung 1's
  # durable write must abort, leave the rung artefact on disk, and
  # complete under --resume without recomputing finished rungs; the
  # resulting directory must pass a strict doctor audit.
  if REPRO_EXPLORE_KILL_AFTER="rung:1" python -m repro --scale smoke explore \
      --out "$TMP_ROOT/explore" --space tiny --confirm 4 >/dev/null 2>&1; then
    echo "FAIL: injected kill after rung 1 did not abort the sweep" >&2
    exit 1
  fi
  if [[ ! -f "$TMP_ROOT/explore/rung_1.json" ]]; then
    echo "FAIL: rung_1.json not durable at the kill point" >&2
    exit 1
  fi
  python -m repro --scale smoke explore --resume "$TMP_ROOT/explore" \
    --space tiny --confirm 4
  if [[ ! -f "$TMP_ROOT/explore/frontier.json" ]]; then
    echo "FAIL: resume did not produce frontier.json" >&2
    exit 1
  fi
  python -m repro doctor --strict "$TMP_ROOT/explore"
fi

if [[ "$RUN_WORKLOADS" == 1 ]]; then
  echo "== ci: workload registry completeness + golden byte-identity =="
  # Two gates.  (1) Registry byte-identity: the golden window built
  # *through the registry* must reproduce the committed pre-registry
  # digests — the proof that the synthetic family is the old
  # construction, not a re-implementation of it.
  # (2) Registry completeness: every registered family's first target
  # must describe itself, build at a tiny scale, and run one short
  # simulation to a schema-valid RunRecord stamped with its family.
  python - <<'PY'
import json, sys
from repro.bench.golden import compute_golden_digests

committed = json.load(open("tests/goldens/determinism.json"))
computed = compute_golden_digests(via_registry=True)
failures = [(policy, digest) for policy, digest in computed.items()
            if committed.get(policy) != digest]
if failures:
    for policy, digest in failures:
        print(f"FAIL: registry/{policy} computed {digest}", file=sys.stderr)
    sys.exit(1)
print(f"registry: {len(computed)} golden digests match")
PY
  python - <<'PY'
from dataclasses import replace

from repro.core import make_policy
from repro.engine import Simulation
from repro.experiments.common import SMOKE
from repro.manifest import describe_workload
from repro.metrics import RunRecord
from repro.workloads.registry import build_workload, family_names, get_family

tiny = replace(SMOKE, trace_records_per_core=3_000)
config = tiny.system()
epoch = config.dueling.epoch_cycles
for name in family_names():
    family = get_family(name)
    targets = family.targets()
    assert targets, f"family {name!r} registered no targets"
    target = targets[0]
    spec = family.target_spec(target)
    workload = build_workload(spec.ref, scale=tiny)
    assert workload.family == name, (name, workload.family)
    policy = make_policy("bh")
    sim = Simulation(config, policy, workload)
    result = sim.run(cycles=epoch, warmup_cycles=epoch * 0.25)
    record = RunRecord.from_simulation(
        result,
        meta={"workload": describe_workload(workload)},
        policy=policy,
    )
    record.validate()
    payload = record.to_json()
    meta = RunRecord.from_json(payload).meta["workload"]  # schema round-trip
    assert meta.get("family") == name, meta
    print(f"family {name}: {spec.ref} built, simulated, "
          f"RunRecord family stamp ok")
PY
  # ... and the CLI surface end to end for a non-default family:
  # list -> simulate -> campaign (one experiment) -> export.
  python -m repro workloads --family datacenter | grep -q "datacenter:kv_read"
  python -m repro --scale smoke simulate \
    --mix datacenter:kv_read --policy bh --epochs 1 --warmup-epochs 0.5
  python -m repro --scale smoke campaign \
    --out "$TMP_ROOT/workloads_campaign" \
    --experiments fig6 \
    --workloads datacenter:kv_read \
    --jobs 2 \
    --timeout 300
  python -m repro export --format jsonl "$TMP_ROOT/workloads_campaign" \
    | grep -Eq '"workload_family": ?"datacenter"'
fi

echo "== ci: OK =="
