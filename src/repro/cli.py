"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      — registered policies, mixes, applications, scales
``workloads`` — workload families/targets with metadata
``simulate``  — run one mix under one policy, print the statistics
``forecast``  — lifetime forecast for one or more policies on a mix
``figure``    — regenerate one of the paper's tables/figures
``ablation``  — run one of the design-choice ablations
``campaign``  — fault-tolerant multi-experiment run with resume
``bench``     — engine speed benchmark with baseline regression gate
``export``    — convert RunRecord artefacts to json/csv/jsonl/prom,
                or ``--check`` committed artefacts for schema drift
``doctor``    — audit artefact integrity (envelopes, checksums,
                schemas); ``--repair`` quarantines, ``--strict`` gates
``analytical``— validate the closed-form estimator against the
                committed reference matrix (``--regenerate`` re-runs
                and re-commits it)
``explore``   — successive-halving design-space sweep: analytical
                screening rungs, simulated confirmation, Pareto
                frontier; crash-consistent artefacts with ``--resume``
``status``    — task summary and last-run counters of a campaign
                directory

Unknown mix/policy/scale/experiment names exit with code 2 and a
one-line "did you mean" suggestion instead of a traceback.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from typing import List, Optional, Sequence

from .core import make_policy, registered_policies
from .engine import Simulation
from .experiments import (
    EXPERIMENT_NAMES,
    SCALE_NAMES,
    format_records,
    get_scale,
    run_compressor_ablation,
    run_cpth_sweep,
    run_energy_study,
    run_epoch_size_sweep,
    run_fig2,
    run_fig8a,
    run_fig9,
    run_fig11c_equal_cost,
    run_lifetime_study,
    run_migration_ablation,
    run_wear_leveling_study,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from .forecast import SECONDS_PER_MONTH, Forecaster
from .workloads.mixes import MIX_NAMES
from .workloads.profiles import APP_NAMES


class UsageError(Exception):
    """A bad command-line value; printed one-line, exits with code 2."""


def _did_you_mean(value: str, choices: Sequence[str]) -> str:
    matches = difflib.get_close_matches(value, list(choices), n=1, cutoff=0.4)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _check_choice(kind: str, value: str, choices: Sequence[str]) -> str:
    """Validate a named choice or raise a one-line :class:`UsageError`."""
    if value not in choices:
        raise UsageError(
            f"unknown {kind} {value!r}{_did_you_mean(value, choices)} "
            f"(choose from: {', '.join(sorted(choices))})"
        )
    return value


def _resolve_scale(name: Optional[str]):
    if name is not None:
        _check_choice("scale", name, SCALE_NAMES)
    try:
        return get_scale(name)
    except KeyError:
        # env-var REPRO_SCALE may also hold a typo
        import os

        value = os.environ.get("REPRO_SCALE", "default")
        raise UsageError(
            f"unknown scale {value!r} (from REPRO_SCALE)"
            f"{_did_you_mean(value, SCALE_NAMES)}"
        ) from None


def _policy_args(value: str):
    """Parse ``name`` or ``name:key=val,key=val`` policy specs."""
    if ":" not in value:
        return value, {}
    name, _, raw = value.partition(":")
    kwargs = {}
    for pair in raw.split(","):
        key, _, val = pair.partition("=")
        try:
            kwargs[key] = int(val)
        except ValueError:
            kwargs[key] = float(val)
    return name, kwargs


def _make_policy_checked(spec: str):
    name, kwargs = _policy_args(spec)
    _check_choice("policy", name, registered_policies())
    return name, make_policy(name, **kwargs)


def _check_workload_ref(value: str) -> str:
    """Validate a workload reference; returns the normalized form.

    Accepts bare mix names (``mix1``) and ``family:target`` refs;
    unknown references exit 2 with a did-you-mean suggestion drawn
    from the registry, matching every other CLI choice error.
    """
    from .workloads.registry import (
        DEFAULT_FAMILY,
        WorkloadRefError,
        normalize_workload_ref,
        workload_refs,
    )

    try:
        return normalize_workload_ref(value)
    except WorkloadRefError as exc:
        prefix = DEFAULT_FAMILY + ":"
        choices = [
            ref[len(prefix):] if ref.startswith(prefix) else ref
            for ref in (exc.choices or workload_refs())
        ]
        raise UsageError(
            f"unknown workload {value!r}{_did_you_mean(value, choices)} "
            "(list with: repro workloads)"
        ) from None


def _check_workload_list(spec: str) -> tuple:
    """Validate a comma-separated ``--workloads`` flag value."""
    refs = tuple(
        _check_workload_ref(ref.strip())
        for ref in spec.split(",")
        if ref.strip()
    )
    if not refs:
        raise UsageError("--workloads needs at least one reference")
    return refs


def cmd_list(args: argparse.Namespace) -> int:
    from .workloads.registry import family_names

    print("policies   :", ", ".join(registered_policies()))
    print("mixes      :", ", ".join(MIX_NAMES))
    print("families   :", ", ".join(family_names()), " (repro workloads)")
    print("apps       :", ", ".join(APP_NAMES))
    print("scales     :", ", ".join(SCALE_NAMES), " (env REPRO_SCALE)")
    print("experiments:", ", ".join(EXPERIMENT_NAMES), " (campaign)")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from .workloads.registry import family_names, get_family

    names = family_names()
    if args.family:
        _check_choice("family", args.family, names)
        names = (args.family,)
    rows = []
    for family_name in names:
        family = get_family(family_name)
        print(f"{family_name}: {family.description}")
        for target in family.targets():
            spec = family.target_spec(target)
            rows.append(
                {
                    "workload": spec.ref,
                    "cores": spec.cores,
                    "footprint_blocks": spec.footprint_blocks,
                    "hcr": f"{spec.hcr_fraction:.2f}",
                    "lcr": f"{spec.lcr_fraction:.2f}",
                    "incomp": f"{spec.incompressible_fraction:.2f}",
                    "description": spec.description,
                }
            )
    print()
    print(format_records(rows, "workload targets"))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scale = _resolve_scale(args.scale)
    config = scale.system()
    args.mix = _check_workload_ref(args.mix)
    name, policy = _make_policy_checked(args.policy)
    workload = scale.workload(args.mix, seed=args.seed)
    sim = Simulation(config, policy, workload)
    epoch = config.dueling.epoch_cycles
    cycles = epoch * (args.warmup_epochs + args.epochs)
    warmup = epoch * args.warmup_epochs
    if args.profile:
        import cProfile
        from pathlib import Path

        out = Path(args.profile)
        out.mkdir(parents=True, exist_ok=True)
        profiler = cProfile.Profile()
        result = profiler.runcall(sim.run, cycles=cycles, warmup_cycles=warmup)
        pstats_path = out / f"simulate_{args.mix}_{name}.pstats"
        profiler.dump_stats(pstats_path)
        print(f"profile: {pstats_path}")
    else:
        result = sim.run(cycles=cycles, warmup_cycles=warmup)
    llc = result.stats.llc
    rows = [
        {"metric": "mean IPC", "value": result.mean_ipc},
        {"metric": "LLC hit rate", "value": llc.hit_rate},
        {"metric": "LLC accesses", "value": llc.accesses},
        {"metric": "hits SRAM / NVM", "value": f"{llc.hits_sram} / {llc.hits_nvm}"},
        {"metric": "fills SRAM / NVM", "value": f"{llc.fills_sram} / {llc.fills_nvm}"},
        {"metric": "NVM bytes written", "value": llc.nvm_bytes_written},
        {"metric": "migrations to NVM", "value": llc.migrations_to_nvm},
        {"metric": "memory writebacks", "value": llc.writebacks_to_memory},
    ]
    print(format_records(rows, f"{name} on {args.mix} ({scale.name} scale)"))
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    scale = _resolve_scale(args.scale)
    config = scale.system()
    args.mix = _check_workload_ref(args.mix)
    epoch = config.dueling.epoch_cycles
    rows = []
    baseline_seconds = None
    for spec in args.policies:
        _, policy = _make_policy_checked(spec)
        forecaster = Forecaster(
            config,
            policy,
            scale.workload(args.mix, seed=args.seed),
            phase_cycles=epoch * 3,
            initial_warmup_cycles=epoch * 10,
            rewarm_cycles=epoch * 0.75,
            capacity_step=0.1,
            max_steps=scale.forecast_max_steps,
        )
        result = forecaster.run()
        seconds = result.lifetime_or_horizon_seconds()
        if baseline_seconds is None:
            baseline_seconds = seconds
        rows.append(
            {
                "policy": spec,
                "initial_ipc": result.initial_ipc,
                "lifetime_months": seconds / SECONDS_PER_MONTH,
                "vs_first": seconds / baseline_seconds,
                "hit_50pct": "yes" if result.reached_stop else "plateau",
            }
        )
    print(format_records(rows, f"Lifetime forecast on {args.mix}"))
    return 0


_FIGURES = {
    "table1": lambda scale: format_records(table1_rows(), "Table I"),
    "table2": lambda scale: format_records(table2_rows(), "Table II"),
    "table3": lambda scale: format_records(table3_rows(), "Table III"),
    "table4": lambda scale: format_records(table4_rows(), "Table IV"),
    "table5": lambda scale: format_records(table5_rows(), "Table V"),
    "fig2": lambda scale: format_records(
        [r.__dict__ for r in run_fig2(n_blocks=256)], "Fig. 2"
    ),
    "fig6": lambda scale: format_records(run_cpth_sweep(scale).rows(), "Figs. 6/7"),
    "fig8a": lambda scale: format_records(
        [{"config": d.label, **{str(k): v for k, v in d.shares.items()}}
         for d in run_fig8a(scale, capacities_pct=(100, 80, 60, 50),
                            mixes=scale.mixes[:2])],
        "Fig. 8a",
    ),
    "fig9": lambda scale: format_records(
        [p.__dict__ for p in run_fig9(scale, th_values=(0.0, 4.0, 8.0),
                                      capacities_pct=(100, 80),
                                      mixes=scale.mixes[:2])],
        "Fig. 9",
    ),
    "fig10a": lambda scale: format_records(
        run_lifetime_study(scale, label="fig10a").rows(), "Fig. 10a"
    ),
    "fig11c": lambda scale: format_records(
        run_fig11c_equal_cost(scale, mixes=scale.mixes[:2]), "Fig. 11c"
    ),
}

_ABLATIONS = {
    "epoch": run_epoch_size_sweep,
    "migration": run_migration_ablation,
    "compressor": run_compressor_ablation,
    "wear_leveling": lambda scale: run_wear_leveling_study(),
    "energy": run_energy_study,
}


def cmd_figure(args: argparse.Namespace) -> int:
    scale = _resolve_scale(args.scale)
    _check_choice("figure", args.id, tuple(_FIGURES))
    print(_FIGURES[args.id](scale))
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    scale = _resolve_scale(args.scale)
    _check_choice("ablation", args.id, tuple(_ABLATIONS))
    print(format_records(_ABLATIONS[args.id](scale), f"ablation: {args.id}"))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .harness import (
        CampaignConfigError,
        CampaignRunner,
        CampaignSettings,
        ChaosSpecError,
        parse_chaos_spec,
    )

    chaos = None
    if args.chaos:
        try:
            chaos = parse_chaos_spec(args.chaos, seed=args.seed)
        except ChaosSpecError as exc:
            raise UsageError(str(exc)) from None

    settings = CampaignSettings(
        jobs=args.jobs,
        task_timeout=args.timeout,
        retries=args.retries,
        backoff_base=args.backoff,
        chaos=chaos,
        profile_dir=args.profile,
        isolate_tasks=args.isolate_tasks,
        use_result_cache=not args.no_result_cache,
        result_cache_dir=args.result_cache,
    )

    if args.resume:
        if args.workloads:
            raise UsageError(
                "--workloads applies at creation; a resumed campaign "
                "reuses the workload list recorded in its manifest"
            )
        directory, resume = args.resume, True
        scale_name = None
        experiments: Sequence[str] = ()
        workloads = None
    else:
        if not args.out:
            raise UsageError("campaign needs --out DIR (or --resume DIR)")
        directory, resume = args.out, False
        scale_name = _resolve_scale(args.scale).name
        from .experiments import ALL_EXPERIMENT_NAMES

        experiments = [e.strip() for e in args.experiments.split(",") if e.strip()]
        for name in experiments:
            _check_choice("experiment", name, ALL_EXPERIMENT_NAMES)
        workloads = (
            _check_workload_list(args.workloads) if args.workloads else None
        )

    # Workers inherit the environment, so pointing the trace cache at
    # the campaign directory lets every task share materialized traces.
    import os
    from pathlib import Path

    from .memo.results import RESULT_CACHE_ENV
    from .workloads.cache import TRACE_CACHE_ENV

    # The overrides live only for this campaign: embedding processes
    # (the test suite, scripts) call main() repeatedly, and a leaked
    # REPRO_RESULT_CACHE pointing at a dead directory would silently
    # redirect every later campaign's cache.
    saved_env = {
        key: os.environ.get(key)
        for key in (TRACE_CACHE_ENV, RESULT_CACHE_ENV)
    }

    os.environ.setdefault(TRACE_CACHE_ENV, str(Path(directory) / "trace_cache"))
    # Same idea for completed unit results: default the result cache to
    # a sibling of the trace cache so re-running or widening a campaign
    # at the same path re-pays only never-computed units.
    if not args.no_result_cache:
        os.environ.setdefault(
            RESULT_CACHE_ENV, str(Path(directory) / "result_cache")
        )

    try:
        try:
            runner = CampaignRunner(
                directory,
                scale=scale_name or "default",
                experiments=experiments,
                settings=settings,
                resume=resume,
                workloads=workloads,
                progress=lambda message: print(message),
            )
        except CampaignConfigError as exc:
            raise UsageError(str(exc)) from None
        report = runner.run()
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    status = "OK" if report.ok else "INCOMPLETE"
    cache_note = (
        f", {report.cache_hits} served from result cache"
        if report.cache_hits
        else ""
    )
    print(
        f"campaign {status}: {report.completed} completed, "
        f"{report.skipped} skipped (verified), {len(report.failed)} failed, "
        f"{report.retried_attempts} attempts retried{cache_note}"
    )
    for failed in report.failed:
        last = failed.failures[-1] if failed.failures else None
        detail = f" ({last.kind}: {last.detail})" if last else ""
        print(f"  lost: {failed.task_id} after {failed.attempts} attempts{detail}")
    return 0 if report.ok else 1


def _print_comparison_detail(comparison) -> None:
    """Phase-delta table + host-mismatch warnings of a bench diff."""
    if comparison.phases:
        print("  phase breakdown (current vs baseline):")
        for ph in comparison.phases:
            print(
                f"    {ph.phase:20s} {ph.current_seconds:7.2f}s vs "
                f"{ph.baseline_seconds:7.2f}s  {ph.ratio:5.2f}x"
            )
    for warning in comparison.host_warnings:
        print(f"  WARNING: {warning}")


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        BenchMatrix,
        compare_benches,
        load_bench,
        run_bench,
        run_parallel_bench,
        write_bench,
    )

    scale = _resolve_scale(args.scale)

    if args.explore:
        from .bench.explore import ExploreBenchError, run_explore_bench

        label = args.label if args.label != "engine" else "explore"
        try:
            document = run_explore_bench(scale, label=label, progress=print)
        except ExploreBenchError as exc:
            print(f"explore bench FAILED: {exc}", file=sys.stderr)
            return 1
        path = write_bench(document, args.out)
        print(f"wrote {path}")
        info = document["explore"]
        print(
            f"explore leverage {info['instruction_speedup']:.0f}x "
            f"(floor {info['speedup_floor']:.0f}x) over "
            f"{info['n_points']} points in {info['total_seconds']:.1f}s"
        )
        return 0

    if args.memo:
        from .bench.memo import MemoBenchError, run_memo_bench

        if args.jobs is None:
            jobs = 2
        else:
            try:
                jobs = int(args.jobs)
            except ValueError:
                raise UsageError(
                    "--memo takes a single integer --jobs value"
                ) from None
        label = args.label if args.label != "engine" else "memo"
        try:
            document = run_memo_bench(
                scale, label=label, jobs=jobs, progress=print
            )
        except MemoBenchError as exc:
            print(f"memo bench FAILED: {exc}", file=sys.stderr)
            return 1
        path = write_bench(document, args.out)
        print(f"wrote {path}")
        memo = document["memo"]
        print(
            f"warm campaign speedup {memo['campaign']['speedup']:.1f}x "
            f"({memo['campaign']['units']} units, byte-identical); "
            f"snapshot restore speedup {memo['snapshot']['speedup']:.1f}x"
        )
        if args.baseline is None:
            return 0
        comparison = compare_benches(
            document, load_bench(args.baseline), threshold=args.threshold
        )
        for case in comparison.cases:
            print(f"  {case.policy:14s} {case.mix:12s} {case.ratio:5.2f}x")
        _print_comparison_detail(comparison)
        print(comparison.summary())
        return 0 if comparison.ok else 1

    if args.jobs is not None:
        from .bench.parallel import _parse_jobs_spec

        try:
            jobs_values = _parse_jobs_spec(args.jobs)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        label = args.label if args.label != "engine" else "parallel"
        document = run_parallel_bench(
            scale, jobs_values=jobs_values, label=label, progress=print
        )
        path = write_bench(document, args.out)
        print(f"wrote {path}")
        warm = document["warm_pool"]
        print(
            f"warm-pool advantage {warm['advantage_geomean']:.2f}x "
            f"over {warm['warm_tasks']} tasks; efficiency at max jobs "
            f"{document['scaling'][-1]['efficiency']:.2f}"
        )
        return 0
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    for name in policies:
        _check_choice("policy", name, registered_policies())
    mixes = tuple(m.strip() for m in args.mixes.split(",") if m.strip())
    for name in mixes:
        _check_choice("mix", name, MIX_NAMES)
    matrix = BenchMatrix(
        policies=policies,
        mixes=mixes,
        epochs=args.epochs,
        warmup_epochs=args.warmup_epochs,
        seed=args.seed,
        repeats=args.repeats,
    )
    document = run_bench(scale, matrix=matrix, label=args.label, progress=print)
    path = write_bench(document, args.out)
    print(f"wrote {path}")
    print(
        f"geomean {document['geomean_mcycles_per_s']:.3f} Mcycles/s "
        f"over {len(document['cases'])} cases"
    )

    if args.baseline is None:
        return 0
    comparison = compare_benches(
        document, load_bench(args.baseline), threshold=args.threshold
    )
    for case in comparison.cases:
        print(f"  {case.policy:10s} {case.mix:6s} {case.ratio:5.2f}x")
    for missing in comparison.missing_cases:
        print(f"  {missing}: not in baseline")
    _print_comparison_detail(comparison)
    print(comparison.summary())
    return 0 if comparison.ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    from .metrics.export import (
        ExportError,
        check_artifacts,
        export_records,
        load_records,
    )

    if args.check:
        checked, errors = check_artifacts(extra_paths=args.paths)
        for error in errors:
            print(f"  FAIL: {error}", file=sys.stderr)
        verdict = "FAILED" if errors else "ok"
        print(
            f"export --check {verdict}: {len(checked)} artefacts, "
            f"{len(errors)} errors"
        )
        return 1 if errors else 0

    if not args.paths:
        raise UsageError("export needs at least one path (or --check)")
    try:
        records = load_records(args.paths)
        text = export_records(records, args.format)
    except ExportError as exc:
        raise UsageError(str(exc)) from None
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out} ({len(records)} records, {args.format})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    from .fsio.doctor import run_doctor

    report = run_doctor(args.paths, repair=args.repair)
    for finding in report.findings:
        print(finding.line(), file=sys.stderr)
    print(report.summary())
    if args.strict:
        return 0 if report.ok else 1
    return 0


def cmd_analytical(args: argparse.Namespace) -> int:
    from .analytical.validate import (
        DEFAULT_REFERENCE,
        TOLERANCES,
        generate_reference,
        load_reference,
        validate_against_reference,
        validation_table,
    )
    from .experiments.common import get_scale

    reference_path = args.reference or DEFAULT_REFERENCE
    if args.regenerate:
        scale = _resolve_scale(args.scale)
        generate_reference(scale, reference_path)
        print(f"wrote {reference_path} ({scale.name} scale)")

    reference = load_reference(reference_path)
    if reference is None:
        raise UsageError(
            f"no reference at {reference_path}; generate one with "
            "'repro analytical --regenerate'"
        )
    scale = get_scale(reference["scale"])
    report = validate_against_reference(reference, scale)
    if args.table:
        print(validation_table(report, TOLERANCES))
    print(report.summary(TOLERANCES))
    return 0 if report.ok(TOLERANCES) else 1


def cmd_explore(args: argparse.Namespace) -> int:
    from .experiments import format_records
    from .explore import (
        OBJECTIVES,
        SPACE_NAMES,
        ExploreError,
        ExploreSettings,
        run_explore,
    )

    if args.resume:
        directory, resume = args.resume, True
    else:
        if not args.out:
            raise UsageError("explore needs --out DIR (or --resume DIR)")
        directory, resume = args.out, False
    scale = _resolve_scale(args.scale)
    _check_choice("space", args.space, SPACE_NAMES)
    _check_choice("objective", args.objective, OBJECTIVES)
    if args.workloads:
        from dataclasses import replace

        scale = replace(scale, mixes=_check_workload_list(args.workloads))
    try:
        settings = ExploreSettings(
            space=args.space,
            eta=args.eta,
            confirm=args.confirm,
            objective=args.objective,
            seed=args.seed,
        )
        result = run_explore(scale, directory, settings, resume=resume,
                             progress=print)
    except ExploreError as exc:
        raise UsageError(str(exc)) from None

    rows = [
        {
            "point": e.point.key(),
            "mean_ipc": round(e.mean_ipc, 4),
            "llc_hit_rate": round(e.llc_hit_rate, 4),
            "lifetime_s": f"{e.lifetime_seconds:.3g}",
        }
        for e in result.frontier
    ]
    print(format_records(rows, f"Pareto frontier ({settings.objective})"))
    print(
        f"explore ok: {result.n_points} points, {result.n_evaluations} "
        f"analytical evaluations, {len(result.confirmed)} confirmed, "
        f"{result.instruction_speedup:.0f}x fewer simulated instructions "
        "than exhaustive"
    )
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .fsio.durable import read_bytes, unwrap_json
    from .harness import CampaignConfigError
    from .harness.manifest import CampaignManifest
    from .harness.scheduler import HEALTH_RECORD_NAME

    path = args.path
    try:
        manifest = CampaignManifest.load(Path(path))
    except CampaignConfigError as exc:
        raise UsageError(str(exc)) from None
    by_status: dict = {}
    for entry in manifest.tasks.values():
        by_status[entry.status] = by_status.get(entry.status, 0) + 1
    counts = ", ".join(
        f"{count} {status}" for status, count in sorted(by_status.items())
    )
    print(
        f"campaign {path}: scale={manifest.scale} "
        f"experiments={','.join(manifest.experiments)}"
    )
    print(f"  tasks: {counts or 'none enumerated yet'}")
    health_path = Path(path) / HEALTH_RECORD_NAME
    if health_path.exists():
        record = unwrap_json(
            _json.loads(read_bytes(health_path).decode("utf-8")),
            path=health_path,
        )
        metrics = record.get("metrics", {})
        scheduler = {
            key.split(".", 1)[1]: value
            for key, value in sorted(metrics.items())
            if key.startswith("scheduler.")
        }
        print(
            "  last run: "
            + ", ".join(f"{key}={value}" for key, value in scheduler.items())
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid-LLC compression-aware insertion policies (HPCA'23)",
    )
    parser.add_argument("--scale", default=None,
                        help="smoke | default | full | paper (default: env)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list policies, mixes, apps").set_defaults(
        func=cmd_list
    )

    p = sub.add_parser(
        "workloads",
        help="list workload families/targets with metadata",
    )
    p.add_argument("--family", default=None,
                   help="only list this family's targets")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("simulate", help="run one mix under one policy")
    p.add_argument("--mix", default="mix1",
                   help="mix name or family:target workload ref "
                        "(see: repro workloads)")
    p.add_argument("--policy", default="cp_sd",
                   help="name or name:key=val (e.g. ca_rwr:cpth=37)")
    p.add_argument("--epochs", type=float, default=4.0)
    p.add_argument("--warmup-epochs", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default=None, metavar="DIR",
                   help="dump a cProfile .pstats of the run into DIR")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("forecast", help="lifetime forecast for policies")
    p.add_argument("--mix", default="mix1",
                   help="mix name or family:target workload ref")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("policies", nargs="+",
                   help="e.g. bh lhybrid cp_sd cp_sd_th:th=8")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("id", help=f"one of {sorted(_FIGURES)}")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("ablation", help="run a design-choice ablation")
    p.add_argument("id", help=f"one of {sorted(_ABLATIONS)}")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser(
        "campaign",
        help="fault-tolerant multi-experiment run with checkpoint/resume",
    )
    p.add_argument("--scale", default=argparse.SUPPRESS,
                   help="smoke | default | full | paper (default: env)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="campaign directory to create")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="existing campaign directory to resume")
    p.add_argument("--experiments", default=",".join(EXPERIMENT_NAMES),
                   help=f"comma-separated subset of {EXPERIMENT_NAMES}")
    p.add_argument("--workloads", default=None, metavar="REFS",
                   help="comma-separated family:target workload refs "
                        "replacing the scale's default mixes (recorded in "
                        "the manifest; --resume reuses them)")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel worker processes")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="per-task deadline in seconds")
    p.add_argument("--retries", type=int, default=3,
                   help="retry budget per task")
    p.add_argument("--backoff", type=float, default=1.0,
                   help="base of the exponential retry backoff, seconds")
    p.add_argument("--seed", type=int, default=0,
                   help="chaos injection seed")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="inject faults, e.g. p=0.3,kinds=crash,timeout,corrupt")
    p.add_argument("--profile", default=None, metavar="DIR",
                   help="each worker dumps DIR/<task_id>.pstats")
    p.add_argument("--isolate-tasks", action="store_true",
                   help="fresh worker process per task attempt instead of "
                        "the persistent warm-cache pool")
    p.add_argument("--result-cache", default=None, metavar="DIR",
                   help="content-addressed result cache directory "
                        "(default: <campaign>/result_cache, or "
                        "REPRO_RESULT_CACHE)")
    p.add_argument("--no-result-cache", action="store_true",
                   help="always recompute units, never serve cached results")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "bench", help="benchmark engine speed, optionally gate on a baseline"
    )
    p.add_argument("--scale", default=argparse.SUPPRESS,
                   help="smoke | default | full | paper (default: env)")
    p.add_argument("--label", default="engine",
                   help="artefact name: BENCH_<label>.json")
    p.add_argument("--policies", default=",".join(
        ("bh", "bh_cp", "lhybrid", "tap", "ca", "ca_rwr", "cp_sd")),
        help="comma-separated policy names")
    p.add_argument("--mixes", default="mix1,mix4",
                   help="comma-separated mix names")
    p.add_argument("--epochs", type=float, default=2.0)
    p.add_argument("--warmup-epochs", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1,
                   help="timing repeats per case (best-of is reported)")
    p.add_argument("--jobs", default=None, metavar="SPEC",
                   help="parallel scaling mode: run bench_cells campaigns "
                        "at these job counts ('auto' = 1 and cpu_count, or "
                        "e.g. '1,4,8'); writes BENCH_parallel.json")
    p.add_argument("--memo", action="store_true",
                   help="memoization mode: time a cold vs cache-served "
                        "campaign pass (verified byte-identical) plus a "
                        "snapshot warm-start; writes BENCH_memo.json")
    p.add_argument("--explore", action="store_true",
                   help="explorer mode: run the full default design space "
                        "through the analytical screening tier, measure "
                        "the simulated-instruction speedup vs exhaustive "
                        "(gated at 50x); writes BENCH_explore.json")
    p.add_argument("--out", default="benchmarks/results", metavar="DIR",
                   help="directory for BENCH_<label>.json")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="BENCH_*.json to diff against; regression exits 1")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="allowed geomean ratio band around 1.0")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "export",
        help="export RunRecord artefacts (files or campaign dirs) "
             "to json/csv/jsonl/prom, or --check committed artefacts",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="result files, BENCH_*.json artefacts, or "
                        "campaign directories")
    p.add_argument("--format", default="json",
                   choices=("json", "csv", "jsonl", "prom"),
                   help="output format (default: json)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write to FILE instead of stdout")
    p.add_argument("--check", action="store_true",
                   help="validate committed BENCH_*.json artefacts and "
                        "golden digests against the current schema; "
                        "extra PATHs are checked too; exits 1 on drift")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "doctor",
        help="audit artefact integrity: envelopes, checksums, schemas, "
             "stale fingerprints; reports a failure taxonomy",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="artefact files, campaign directories, or cache "
                        "directories (default: the committed bench "
                        "artefacts and golden digests)")
    p.add_argument("--repair", action="store_true",
                   help="move corrupt artefacts to quarantine/ with a "
                        "structured reason record")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on any corruption finding (CI gate); "
                        "warnings (stale cache entries) never fail")
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser(
        "analytical",
        help="validate the closed-form estimator against the committed "
             "reference matrix (exit 1 when a mean error leaves its "
             "documented tolerance)",
    )
    p.add_argument("--scale", default=argparse.SUPPRESS,
                   help="scale for --regenerate (default: env)")
    p.add_argument("--reference", default=None, metavar="FILE",
                   help="reference blob (default: "
                        "benchmarks/results/validation/REFERENCE_smoke.json)")
    p.add_argument("--regenerate", action="store_true",
                   help="re-simulate the validation matrix and rewrite "
                        "the reference blob before validating")
    p.add_argument("--table", action="store_true",
                   help="print the per-case markdown table (the one "
                        "committed to docs/analytical_validation.md)")
    p.set_defaults(func=cmd_analytical)

    p = sub.add_parser(
        "explore",
        help="successive-halving design-space sweep: analytical "
             "screening, simulated confirmation, Pareto frontier",
    )
    p.add_argument("--scale", default=argparse.SUPPRESS,
                   help="smoke | default | full | paper (default: env)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="exploration directory to create")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="existing exploration directory to resume")
    p.add_argument("--space", default="default",
                   help="design space: default (1008 points) | tiny (CI)")
    p.add_argument("--workloads", default=None, metavar="REFS",
                   help="comma-separated family:target workload refs "
                        "replacing the scale's default mixes")
    p.add_argument("--eta", type=int, default=4,
                   help="successive-halving keep ratio (keep 1/eta per rung)")
    p.add_argument("--confirm", type=int, default=16,
                   help="survivors confirmed with real simulations")
    p.add_argument("--objective", default="balanced",
                   help="rung scoring: performance | lifetime | balanced")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed of the rung fidelity ladder")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "status",
        help="task summary and last-run counters of a campaign directory",
    )
    p.add_argument("path", metavar="DIR",
                   help="campaign directory to summarise")
    p.set_defaults(func=cmd_status)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is cmd_campaign and args.jobs is None:
        import os

        # No hidden clamp: default to every core (the old min(4, ...)
        # silently serialised campaigns on wide machines).
        args.jobs = max(1, os.cpu_count() or 1)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
