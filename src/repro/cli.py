"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      — registered policies, workloads, applications, scales
``workloads`` — the named workloads with metadata
``simulate``  — run one workload under one policy, print the statistics
``forecast``  — lifetime forecast for one or more policies on a workload
``figure``    — regenerate one of the paper's tables/figures
``ablation``  — run one of the design-choice ablations
``campaign``  — fault-tolerant multi-experiment run with resume
``export``    — convert RunRecord artefacts to json/csv/jsonl,
                or ``--check`` committed artefacts for schema drift
``doctor``    — audit artefact integrity (envelopes, checksums,
                schemas); ``--repair`` quarantines, ``--strict`` gates
``status``    — task summary and last-run counters of a campaign
                directory

Unknown workload/policy/scale/experiment names exit with code 2 and a
one-line "did you mean" suggestion instead of a traceback; impossible
settings (a non-positive ``--epochs``, a negative ``--warmup-epochs``,
``campaign --jobs`` below 1) exit 2 with a one-line message too.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from typing import List, Optional, Sequence

from .core import make_policy, registered_policies
from .experiments import (
    EXPERIMENT_NAMES,
    SCALE_NAMES,
    forecast_policy,
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
    run_one,
    run_wear_leveling_study,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from .forecast import SECONDS_PER_MONTH
from .metrics.export import EXPORT_FORMATS
from .workloads.mixes import WORKLOADS, WorkloadRefError, workload_profiles
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
    """Validate a workload reference (a key of the workload table).

    Unknown references exit 2 with a did-you-mean suggestion, matching
    every other CLI choice error.
    """
    try:
        workload_profiles(value)
    except WorkloadRefError as exc:
        raise UsageError(
            f"unknown workload {value!r}{_did_you_mean(value, exc.choices)} "
            "(list with: repro workloads)"
        ) from None
    return value


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
    print("policies   :", ", ".join(registered_policies()))
    print("workloads  :", ", ".join(WORKLOADS), " (repro workloads)")
    print("apps       :", ", ".join(APP_NAMES))
    print("scales     :", ", ".join(SCALE_NAMES), " (env REPRO_SCALE)")
    print("experiments:", ", ".join(EXPERIMENT_NAMES), " (campaign)")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for ref, (description, profiles) in WORKLOADS.items():
        n = len(profiles)
        rows.append(
            {
                "workload": ref,
                "cores": n,
                "footprint_blocks": sum(p.footprint_blocks for p in profiles),
                "hcr": f"{sum(p.hcr_fraction for p in profiles) / n:.2f}",
                "lcr": f"{sum(p.lcr_fraction for p in profiles) / n:.2f}",
                "incomp": f"{sum(p.incompressible_fraction for p in profiles) / n:.2f}",
                "description": description,
            }
        )
    print(format_records(rows, "named workloads"))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    # Negated, so that NaN is refused too.
    if not 0 < args.epochs < float("inf"):
        raise UsageError(f"--epochs must be finite and above 0, not {args.epochs}")
    if not 0 <= args.warmup_epochs < float("inf"):
        raise UsageError(
            f"--warmup-epochs must be finite and at least 0, not {args.warmup_epochs}"
        )
    scale = _resolve_scale(args.scale)
    args.mix = _check_workload_ref(args.mix)
    name, policy = _make_policy_checked(args.policy)
    workload = scale.workload(args.mix, seed=args.seed)
    result = run_one(scale.system(), policy, workload, args.warmup_epochs, args.epochs)
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
    rows = []
    baseline_seconds = None
    for spec in args.policies:
        _, policy = _make_policy_checked(spec)
        workload = scale.workload(args.mix, seed=args.seed)
        result = forecast_policy(scale, config, policy, workload, phase_epochs=3.0)
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
            chaos = parse_chaos_spec(args.chaos)
        except ChaosSpecError as exc:
            raise UsageError(str(exc)) from None

    settings = CampaignSettings(
        jobs=args.jobs,
        task_timeout=args.timeout,
        retries=args.retries,
        backoff_base=args.backoff,
        chaos=chaos,
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
        experiments = [e.strip() for e in args.experiments.split(",") if e.strip()]
        for name in experiments:
            _check_choice("experiment", name, EXPERIMENT_NAMES)
        workloads = (
            _check_workload_list(args.workloads) if args.workloads else None
        )

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

    status = "OK" if report.ok else "INCOMPLETE"
    print(
        f"campaign {status}: {report.completed} completed, "
        f"{report.skipped} skipped (verified), {len(report.failed)} failed, "
        f"{report.retried_attempts} attempts retried"
    )
    for failed in report.failed:
        last = failed.failures[-1] if failed.failures else None
        detail = f" ({last.kind}: {last.detail})" if last else ""
        print(f"  lost: {failed.task_id} after {failed.attempts} attempts{detail}")
    return 0 if report.ok else 1


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


def cmd_status(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .fsio.durable import unwrap_json
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
            _json.loads(health_path.read_bytes().decode("utf-8")),
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

    sub.add_parser("list", help="list policies, workloads, apps").set_defaults(
        func=cmd_list
    )

    sub.add_parser(
        "workloads", help="list the named workloads with metadata"
    ).set_defaults(func=cmd_workloads)

    p = sub.add_parser("simulate", help="run one workload under one policy")
    p.add_argument("--mix", default="mix1",
                   help="workload reference, e.g. mix1 or datacenter:kv_read "
                        "(see: repro workloads)")
    p.add_argument("--policy", default="cp_sd",
                   help="name or name:key=val (e.g. ca_rwr:cpth=37)")
    p.add_argument("--epochs", type=float, default=4.0)
    p.add_argument("--warmup-epochs", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("forecast", help="lifetime forecast for policies")
    p.add_argument("--mix", default="mix1",
                   help="workload reference (see: repro workloads)")
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
                   help="comma-separated workload references replacing "
                        "the scale's default mixes (recorded in the "
                        "manifest; --resume reuses them)")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel worker processes")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="per-task deadline in seconds")
    p.add_argument("--retries", type=int, default=3,
                   help="retry budget per task")
    p.add_argument("--backoff", type=float, default=1.0,
                   help="base of the exponential retry backoff, seconds")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="inject faults, e.g. p=0.3,kinds=crash,timeout,corrupt"
                        "[,seed=7]")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "export",
        help="export RunRecord artefacts (files or campaign dirs) "
             "to json/csv/jsonl, or --check committed artefacts",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="result files or campaign directories")
    p.add_argument("--format", default="json",
                   choices=EXPORT_FORMATS,
                   help="output format (default: json)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write to FILE instead of stdout")
    p.add_argument("--check", action="store_true",
                   help="check that the golden digests stay readable and "
                        "the metric registry matches its producers; extra "
                        "PATHs are validated against the current schema; "
                        "exits 1 on drift")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "doctor",
        help="audit artefact integrity: envelopes, checksums, schemas; "
             "reports a failure taxonomy",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="artefact files, campaign directories, or "
                        "directories of artefacts (default: the committed "
                        "golden digests)")
    p.add_argument("--repair", action="store_true",
                   help="move corrupt artefacts to quarantine/ with a "
                        "structured reason record")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on any corruption finding (CI gate)")
    p.set_defaults(func=cmd_doctor)

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
