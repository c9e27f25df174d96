"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 20 --trace 0

Each run is one fresh process that leaves every ``REPRO_*`` variable
unset, so it measures what a user's fresh ``repro`` process gets: cold
workload builds, empty in-process caches, the default engine and the
snapshot store on.  The run builds the workload's inputs cold
``SETUP_REPEATS`` times (``setup_s`` is the median), then runs whole
passes over the workload's units for about ``--seconds`` (at least
one pass; ``wall_s`` and ``sim_mips`` are medians over passes).

Every unit's output digest must equal the reference recorded for the
seed in ``perfbench/references.json`` (on a seed without one, the
digests are printed and passes must agree with each other), and the
golden digests of ``tests/goldens/determinism.json`` are re-checked
once, outside the timed region.

``--trace 1`` runs one untraced pass, then a traced pass (set-up
included) with timing wrappers around every layer's entry points, and
prints the per-layer metrics; the two passes' outputs must be
identical, and the named layers must cover ``COVERAGE_FLOOR`` of the
traced wall time.  Spans and call trees go to ``.perfbench/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (units) and ``metrics``.  The exit code is 0
when the run is correct, 1 when it is not, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402  (needs ROOT on the path)

OUT_DIR = ROOT / ".perfbench"
REFERENCES = Path(__file__).resolve().parent / "references.json"
GOLDENS = ROOT / "tests" / "goldens" / "determinism.json"

_perf = time.perf_counter


class Outcome(NamedTuple):
    uid: str
    seconds: float
    digest: Optional[str]
    instructions: int
    phases: int
    error: Optional[str]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=spec.COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_state() -> None:
    """Empty the in-process caches, as in a fresh process."""
    from repro.memo.snapshots import reset_shared_snapshot_store
    from repro.workloads.cache import SHARED_WORKLOAD_CACHE

    SHARED_WORKLOAD_CACHE.clear()
    reset_shared_snapshot_store()
    gc.collect()


def timed_setup(bench, seed: int) -> float:
    """Build the inputs cold; only the in-process cache keeps them."""
    fresh_state()
    start = _perf()
    bench.setup(seed)
    return _perf() - start


def run_pass(bench, seed: int, probe, tracer=None) -> List[Outcome]:
    """Every unit once; each is timed on its own, checks stay outside."""
    outcomes = []
    for unit in bench.units:
        scope = nullcontext() if tracer is None else tracer.unit(unit.uid)
        start = _perf()
        try:
            with scope:
                output = bench.run(unit, seed)
        except Exception as exc:  # a failed unit is counted, not fatal
            seconds = _perf() - start
            probe.take_instructions()
            outcomes.append(Outcome(unit.uid, seconds, None, 0, 0,
                                    f"{type(exc).__name__}: {exc}"))
            continue
        seconds = _perf() - start
        outcomes.append(Outcome(
            unit.uid, seconds, bench.digest(output),
            probe.take_instructions(),
            len(output.points) if bench.forecast else 0, bench.check(output),
        ))
    return outcomes


def check_outputs(passes: List[List[Outcome]], references: dict) -> dict:
    """``uid -> problem`` for every failed unit attempt (keyed per pass).

    Units must match the seed's reference digests; without a reference
    every pass must match the first pass's digest.
    """
    expected = dict(references)
    for outcome in passes[0]:
        expected.setdefault(outcome.uid, outcome.digest)
    problems = {}
    for index, outcomes in enumerate(passes):
        for o in outcomes:
            if o.error is not None:
                problems[f"pass{index}:{o.uid}"] = o.error
            elif o.digest != expected[o.uid]:
                problems[f"pass{index}:{o.uid}"] = (
                    f"digest {o.digest[:12]} != expected "
                    f"{str(expected[o.uid])[:12]}"
                )
    return problems


def check_goldens() -> Optional[str]:
    """None when the golden window still matches its committed digests."""
    from repro.bench.golden import compute_golden_digests

    try:
        expected = json.loads(GOLDENS.read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read {GOLDENS.relative_to(ROOT)}: {exc}"
    got = compute_golden_digests()
    if got != expected:
        bad = sorted(k for k in set(got) | set(expected)
                     if got.get(k) != expected.get(k))
        return f"golden digests differ for {', '.join(bad)}"
    return None


def host_metadata(bench, seed: int) -> dict:
    import numpy

    from repro.config import resolve_backend_name

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "scale": bench.scale.name,
        "seed": seed,
        "backend": resolve_backend_name(None),
    }


def measure(bench, seed: int, seconds: float, probe) -> dict:
    """The untraced run: set-up repeats, then passes for ``seconds``."""
    setups = [timed_setup(bench, seed) for _ in range(spec.SETUP_REPEATS)]
    passes: List[List[Outcome]] = []
    walls: List[float] = []
    while True:
        if passes:
            setups.append(timed_setup(bench, seed))
        outcomes = run_pass(bench, seed, probe)
        passes.append(outcomes)
        walls.append(sum(o.seconds for o in outcomes))
        if sum(walls) * (1 + 1 / len(walls)) > seconds:
            break
    rate = [sum(o.instructions for o in outcomes) / 1e6 / wall
            for outcomes, wall in zip(passes, walls)]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "sim_mips": statistics.median(rate),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"passes": passes, "metrics": metrics,
            "samples": {"setup_s": setups, "wall_s": walls}}


def trace(bench, seed: int, probe) -> dict:
    """One untraced pass, then a traced set-up and pass."""
    from repro.memo.snapshots import shared_snapshot_store
    from repro.workloads.cache import SHARED_WORKLOAD_CACHE

    from perfbench.layers import Counts, layer_metrics, targets
    from perfbench.tracer import Tracer

    timed_setup(bench, seed)
    untraced = run_pass(bench, seed, probe)
    fresh_state()
    counts = Counts()
    tracer = Tracer()
    cache = SHARED_WORKLOAD_CACHE
    hits, misses = cache.hits, cache.misses
    tracer.install(targets(counts))
    try:
        with tracer.region("setup"):
            built = bench.setup(seed)
        with tracer.region("units"):
            traced = run_pass(bench, seed, probe, tracer)
    finally:
        tracer.uninstall()
    hits, misses = cache.hits - hits, cache.misses - misses
    metrics = layer_metrics(
        tracer, counts, built, shared_snapshot_store(), hits, hits + misses,
        sum(o.phases for o in traced), sum(o.seconds for o in untraced),
    )
    return {"passes": [untraced, traced], "metrics": metrics, "trace": {
        "moves": {m.name: m.moves for m in spec.PER_LAYER},
        "not_measured": spec.NOT_MEASURED,
        "unwrapped": tracer.missing,
        **tracer.dump(),
    }}


def prepare() -> bool:
    """Put ``src/`` on the path and unset every ``REPRO_*`` variable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a "
              "repository checkout", file=sys.stderr)
        return False
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    from perfbench.units import WORKLOADS, SimulationProbe

    bench = WORKLOADS[args.workload]
    host = host_metadata(bench, args.seed)
    references = json.loads(REFERENCES.read_text()).get(args.workload, {})
    references = references.get(str(args.seed), {})

    with SimulationProbe() as probe:
        if args.trace:
            run = trace(bench, args.seed, probe)
        else:
            run = measure(bench, args.seed, args.seconds, probe)
    fresh_state()
    golden_problem = check_goldens()
    problems = check_outputs(run["passes"], references)
    attempted = sum(len(p) for p in run["passes"])
    failed = len(problems)
    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {m.name: {"value": run["metrics"][m.name], "unit": m.unit}
               for m in declared}
    coverage_ok = (not args.trace
                   or run["metrics"]["trace.coverage"] >= spec.COVERAGE_FLOOR)
    correct = golden_problem is None and failed == 0 and coverage_ok

    report(args, bench, host, run, references, problems, golden_problem,
           metrics, attempted, failed, coverage_ok)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:  # the detail file is a convenience; the result line is the output
        OUT_DIR.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "host": host, "workload": args.workload, "seconds": args.seconds,
            "correct": correct, "problems": problems,
            "golden_problem": golden_problem, "metrics": metrics,
            "samples": run.get("samples"),
            "units": [[o._asdict() for o in p] for p in run["passes"]],
            **({"trace": run["trace"]} if args.trace else {}),
        }, indent=1) + "\n")
    except OSError as exc:
        print(f"perfbench: cannot write {out}: {exc}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report(args, bench, host, run, references, problems, golden_problem,
           metrics, attempted, failed, coverage_ok) -> None:
    """Human-readable lines before the result line."""
    print(f"perfbench {args.workload}: " + " ".join(
        f"{k}={v}" for k, v in host.items() if k != "platform"))
    last = run["passes"][-1]
    for o in last:
        status = "ok" if o.error is None else f"ERROR {o.error}"
        print(f"  {o.uid:32s} {o.seconds:7.3f} s  "
              f"{o.instructions / 1e6:8.3f} Minstr  {o.digest or '-'}  "
              f"{status}")
    if not references:
        print(f"  no reference digests for seed {args.seed}: the digests "
              "above are printed for comparison between commits")
    for key, problem in sorted(problems.items()):
        print(f"  FAILED {key}: {problem}")
    print("  golden digests: " + (golden_problem or "match"))
    if args.trace:
        m = run["metrics"]
        # Aging is a few numpy-bound calls, barely slowed by tracing, so
        # its share is taken of the untraced wall time.
        wall = m["trace.untraced_wall_s"] or 1.0
        getx = m["cache.llc_getx"]
        print(f"  character: write_frac={m['workloads.write_frac']:.3f} "
              f"getx_share={getx / ((m['cache.llc_gets'] + getx) or 1):.3f} "
              f"aging_share={m['forecast.aging_s'] / wall:.3f} "
              f"snapshot_hit_ratio={m['memo.snapshot_hit_ratio']:.3f}")
        for name in run["trace"]["unwrapped"]:
            print(f"  not wrapped, no longer defined: {name}")
        print(f"  coverage {m['trace.coverage']:.4f} (floor "
              f"{spec.COVERAGE_FLOOR}): {'ok' if coverage_ok else 'FAILED'}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} units)")


if __name__ == "__main__":
    sys.exit(main())
