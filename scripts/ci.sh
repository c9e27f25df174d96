#!/usr/bin/env bash
# Tier-1 CI gate: the test suite and digest-checked perfbench passes,
# the smoke paper artefacts, the artefact, durability and workload
# gates, and a same-host speed gate.
#
# Usage: scripts/ci.sh
#   [--skip-tests|--skip-figures|--skip-bench|--skip-schema|
#    --skip-durability|--skip-workloads]
#
# The figures leg reruns every benchmark under benchmarks/ at smoke
# scale (about 7 minutes on a 2-vCPU host) and fails unless each
# artefact equals its committed benchmarks/results/smoke/ file.
#
# The bench leg times perfbench's `matrix` workload on the working tree
# and on a reference commit, in five alternating pairs on this host.
# The reference is HEAD when src/, perfbench/ or tests/goldens hold
# uncommitted work, and HEAD~1 otherwise.  The leg fails when the
# change's median sim_mips falls below (1 - bound) x the reference's,
# with the bound read from BENCHMARK.json; no timing recorded on another
# host is ever loaded.  It takes a few minutes; --skip-bench skips it
# (for instance in a shallow clone that has no HEAD~1).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TESTS=1
RUN_FIGURES=1
RUN_BENCH=1
RUN_SCHEMA=1
RUN_DURABILITY=1
RUN_WORKLOADS=1
for arg in "$@"; do
  case "$arg" in
    --skip-tests) RUN_TESTS=0 ;;
    --skip-figures) RUN_FIGURES=0 ;;
    --skip-bench) RUN_BENCH=0 ;;
    --skip-schema) RUN_SCHEMA=0 ;;
    --skip-durability) RUN_DURABILITY=0 ;;
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
  python -m pytest -x -q

  echo "== ci: run_one and forecast digests (one pass per perfbench workload) =="
  # run.py exits non-zero unless every unit's digest matches
  # perfbench/references.json and the engine's golden digests match
  # tests/goldens/determinism.json.  The tier-1 goldens cover three
  # policies on a smoke window; these passes pin all eight line-up
  # policies on mix1/mix4 (matrix) and datacenter:kv_write (ingest) at
  # default scale, and the five Fig. 10a forecasts (lifetime) through
  # aging and fault-map re-entry.  They run from a copy of the files
  # they read so that their detail files land under $TMP_ROOT, not in
  # the working tree.
  mkdir -p "$TMP_ROOT/perfbench/tests"
  cp -r src perfbench "$TMP_ROOT/perfbench/"
  cp -r tests/goldens "$TMP_ROOT/perfbench/tests/"
  for workload in lifetime matrix ingest; do
    python3 "$TMP_ROOT/perfbench/perfbench/run.py" \
      --workload "$workload" --seed 0 --seconds 1
  done
fi

if [[ "$RUN_FIGURES" == 1 ]]; then
  echo "== ci: smoke paper artefacts regenerate byte for byte =="
  # The golden digests pin three policies on a short window and
  # perfbench pins single run_one/forecast_policy cells; neither covers
  # how a figure normalises its cells to BH and averages them over
  # mixes.  Every table and figure is rebuilt here from a copy of src/
  # and benchmarks/, so the artefacts land under $TMP_ROOT, and any
  # byte that differs from the committed smoke artefacts fails the leg.
  mkdir -p "$TMP_ROOT/figures"
  cp -r src benchmarks "$TMP_ROOT/figures/"
  # Start without the smoke artefacts, so one that is no longer written
  # fails the diff too.
  rm -rf "$TMP_ROOT/figures/benchmarks/results/smoke"
  (cd "$TMP_ROOT/figures" && REPRO_SCALE=smoke PYTHONPATH="$TMP_ROOT/figures/src" \
    python -m pytest -q -p no:cacheprovider benchmarks/ --benchmark-only)
  diff -r benchmarks/results/smoke "$TMP_ROOT/figures/benchmarks/results/smoke"
fi

if [[ "$RUN_SCHEMA" == 1 ]]; then
  echo "== ci: artefact schema consistency =="
  # The golden digests must stay readable and every registered metric
  # layer must still match the dataclass that produces it, so a metric
  # rename can never silently orphan artefacts.
  python -m repro export --check
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== ci: same-host speed gate (perfbench matrix, change vs reference) =="
  if [[ -n "$(git status --porcelain -- src perfbench tests/goldens)" ]]; then
    REF=HEAD
  else
    REF=HEAD~1
  fi
  if ! git rev-parse --verify --quiet "$REF^{commit}" >/dev/null; then
    echo "FAIL: reference commit $REF does not exist (--skip-bench skips this leg)" >&2
    exit 1
  fi
  # Each side runs from its own copy, against its own perfbench
  # references and golden digests, so every run must also be correct.
  mkdir -p "$TMP_ROOT/ref" "$TMP_ROOT/change/tests"
  git archive "$REF" src perfbench tests/goldens | tar -x -C "$TMP_ROOT/ref"
  cp -r src perfbench "$TMP_ROOT/change/"
  cp -r tests/goldens "$TMP_ROOT/change/tests/"
  python3 - "$TMP_ROOT" "$REF" <<'PY'
import json, os, statistics, subprocess, sys

root, ref = sys.argv[1], sys.argv[2]
bound = next(m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]
             if m["name"] == "sim_mips")
# Without PYTHONPATH, each side imports only the src/ that its own
# perfbench/run.py puts on the path.
env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
samples = {"ref": [], "change": []}
for pair in range(5):
    for side in ("ref", "change") if pair % 2 == 0 else ("change", "ref"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "matrix",
             "--seed", "0", "--seconds", "1"],
            cwd=os.path.join(root, side), env=env, capture_output=True,
            text=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {}
        if proc.returncode != 0 or result.get("correct") is not True:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print(f"FAIL: {side} run of pair {pair + 1} exited "
                  f"{proc.returncode}, correct={result.get('correct')}",
                  file=sys.stderr)
            sys.exit(1)
        samples[side].append(result["metrics"]["sim_mips"]["value"])
        print(f"pair {pair + 1} {side:6s} sim_mips "
              f"{samples[side][-1]:.3f}", flush=True)
ref_median = statistics.median(samples["ref"])
change_median = statistics.median(samples["change"])
ratio = change_median / ref_median
print(f"sim_mips median: change {change_median:.3f} vs {ref} "
      f"{ref_median:.3f}, ratio {ratio:.3f} (floor {1 - bound:.2f})")
if ratio < 1 - bound:
    print(f"FAIL: matrix sim_mips fell by more than the {bound:.0%} bound",
          file=sys.stderr)
    sys.exit(1)
PY
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

if [[ "$RUN_WORKLOADS" == 1 ]]; then
  echo "== ci: a datacenter workload end to end through the CLI =="
  # list -> simulate -> campaign (one experiment) -> export -> audit.
  # Every table entry's build, run and provenance stamp is a tier-1
  # test (tests/test_workload_registry.py).
  python -m repro workloads | grep -q "datacenter:kv_read"
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
  # Its results are simulation RunRecords, so the strict audit also
  # validates each one against the current metric registry.
  python -m repro doctor --strict "$TMP_ROOT/workloads_campaign"
fi

echo "== ci: OK =="
