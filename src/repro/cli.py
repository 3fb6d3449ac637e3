"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``dss`` — reproduce the DSS study (Tables 2-5, Figure 1);
* ``oltp`` — reproduce the YCSB study (Figures 2-6, load times);
* ``dbgen`` — generate TPC-H data and write dbgen-compatible ``.tbl`` files;
* ``query`` — execute one TPC-H query on generated data and print the answer;
* ``explain`` — show both engines' physical plans for one query;
* ``hiveql`` — execute a HiveQL statement on generated data;
* ``scorecard`` — paper-vs-model accuracy summary and claim checklist.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.common.envelope import write_report
from repro.common.errors import ConfigurationError

#: Default burn-rate rules for --live-report: chaos runs live on a
#: compressed virtual clock (ops ~1 ms, elections ~250 ms), so the windows
#: are short by wall-clock standards.
DEFAULT_SLO_RULES = "p99<=25ms@100ms,200ms"


def _require_positive(value: float, flag: str) -> None:
    if value <= 0:
        raise ConfigurationError(f"{flag} must be > 0, got {value:g}")


def _dbgen(scale_factor: float, seed: int, flag: str = "--sf"):
    """A ``DbGen`` for ``flag``'s scale factor; one it refuses is a usage
    error.  Only construction is guarded: a fault while generating is not."""
    from repro.tpch.dbgen import DbGen

    _require_positive(scale_factor, flag)
    try:
        return DbGen(scale_factor=scale_factor, seed=seed)
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from exc


def _parse_whatif_for(spec: str, family: str, context: str) -> dict:
    """Parse a --whatif spec and reject mechanisms of the wrong engine family."""
    from repro.obs import MECHANISMS, parse_whatif

    scales = parse_whatif(spec)
    wrong = sorted(n for n in scales if MECHANISMS[n][0] != family)
    if wrong:
        applicable = ", ".join(
            sorted(n for n, (fam, _) in MECHANISMS.items() if fam == family)
        )
        raise ConfigurationError(
            f"--whatif mechanism(s) {', '.join(wrong)} do not apply to "
            f"{context}; applicable: {applicable}"
        )
    return scales


def _output_path(path: str) -> str:
    """The argparse ``type`` of every output-path flag (``-`` is stdout).

    The file's directory must exist when the command line is parsed, so a
    mistyped path fails before the run it was meant to record, not after.
    """
    parent = os.path.dirname(path) or "."
    if path != "-" and not os.path.isdir(parent):
        raise ConfigurationError(
            f"cannot write {path}: no such directory {parent!r}")
    return path


def _require_query(number: int, what: str) -> None:
    from repro.tpch.queries import QUERY_NUMBERS

    if number not in QUERY_NUMBERS:
        raise ConfigurationError(
            f"{what} {number} is not a TPC-H query "
            f"({min(QUERY_NUMBERS)}-{max(QUERY_NUMBERS)})"
        )


def _parse_query_list(spec: str, flag: str) -> list[int]:
    """Parse a comma-separated TPC-H query list like ``1,22``."""
    numbers: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            number = int(chunk)
        except ValueError:
            raise ConfigurationError(
                f"malformed {flag} entry {chunk!r}: expected a query number"
            ) from None
        _require_query(number, f"{flag} query")
        if number not in numbers:
            numbers.append(number)
    if not numbers:
        raise ConfigurationError(f"empty {flag} list")
    return numbers


def _profiling_enabled(args) -> bool:
    """Any of the --profile family turns the self-profiler on."""
    return bool(args.profile or args.profile_report
                or args.profile_speedscope or args.profile_folded)


def _profile_outputs(args, prof, scenario: dict) -> None:
    """Shared --profile-report/--profile-speedscope/--profile-folded handling."""
    from repro.obs import (
        build_prof_report,
        render_prof_report,
        validate_prof_report,
        write_folded,
        write_speedscope,
    )

    prof.stop()
    report = build_prof_report(prof, scenario)
    validate_prof_report(report)
    print(render_prof_report(report))
    if args.profile_report:
        write_report(report, args.profile_report)
        print(f"wrote profile -> {args.profile_report}")
    if args.profile_speedscope:
        write_speedscope(prof, args.profile_speedscope)
        print(f"wrote speedscope profile -> {args.profile_speedscope}")
    if args.profile_folded:
        stacks = write_folded(prof, args.profile_folded)
        print(f"wrote {stacks} folded stacks -> {args.profile_folded}")


def _cmd_compare(args) -> int:
    """Top-level ``--compare A B``: diff two report files (repro-compare/1)."""
    from repro.obs import (
        compare_files,
        render_compare_report,
        validate_compare_report,
    )

    report = compare_files(args.compare[0], args.compare[1])
    validate_compare_report(report)
    print(render_compare_report(report))
    if args.compare_report:
        write_report(report, args.compare_report)
        print(f"wrote compare report -> {args.compare_report}")
    return 0


def _fault_outputs(args, report, tracer, metrics, sampler) -> None:
    """Shared --fault-report/--trace/--metrics/--utilization handling."""
    from repro.faults.report import render_fault_report
    from repro.obs import (
        sparkline_heatmap,
        write_chrome_trace,
        write_metrics,
        write_series_csv,
    )

    print(render_fault_report(report))
    if args.fault_report:
        write_report(report.to_dict(), args.fault_report)
        print(f"wrote fault report -> {args.fault_report}")
    if args.trace:
        count = write_chrome_trace(args.trace, tracer, metrics, sampler=sampler)
        print(f"wrote {count} trace events -> {args.trace}")
    if args.metrics:
        write_metrics(args.metrics, metrics)
        print(f"wrote metrics -> {args.metrics}")
    if args.utilization == "-" and sampler is not None:
        print(sparkline_heatmap(sampler))
    elif args.utilization is not None:
        rows = write_series_csv(args.utilization, sampler)
        print(f"wrote {rows} utilization rows -> {args.utilization}")


def _dss_faults(args, study) -> int:
    from repro.faults import FaultPlan
    from repro.faults.report import dss_fault_report
    from repro.obs import MetricsRegistry, Tracer, UtilizationSampler

    plan = FaultPlan.parse(args.faults, seed=args.seed)
    tracer, metrics = Tracer(), MetricsRegistry()
    sampler = UtilizationSampler() if args.utilization is not None else None
    report = dss_fault_report(
        study, args.trace_query, args.trace_sf, plan,
        tracer=tracer, metrics=metrics, sampler=sampler,
    )
    _fault_outputs(args, report, tracer, metrics, sampler)
    return 0


def _oltp_replication(args):
    """Parse --replication (and a single --write-concern) for a faulted run."""
    if not args.replication:
        return None
    from repro.replication.config import ReplicationConfig
    from repro.replication.writeconcern import WriteConcern

    config = ReplicationConfig.parse(args.replication)
    if config is not None and args.write_concern:
        config = config.with_concern(WriteConcern.parse(args.write_concern))
    return config


def _oltp_faults(args, study) -> int:
    from repro.faults import FaultPlan
    from repro.faults.report import oltp_fault_report
    from repro.obs import MetricsRegistry, Tracer, UtilizationSampler

    workload = args.workload if args.workload != "all" else "A"
    plan = FaultPlan.parse(args.faults, seed=args.seed)
    tracer, metrics = Tracer(), MetricsRegistry()
    sampler = (UtilizationSampler(interval=0.5)
               if args.utilization is not None else None)
    report = oltp_fault_report(
        plan, workload=workload, system=args.system, target=args.target,
        duration=args.duration, study=study,
        replication=_oltp_replication(args),
        tracer=tracer, metrics=metrics, sampler=sampler,
    )
    _fault_outputs(args, report, tracer, metrics, sampler)
    return 0


def _oltp_availability(args) -> int:
    """Chaos sweep + acknowledged-write audit (repro-availability/1)."""
    from repro.faults.availability import (
        availability_report,
        render_availability_report,
        validate_availability_report,
    )
    from repro.faults.chaos import ChaosConfig
    from repro.replication.config import ReplicationConfig
    from repro.replication.writeconcern import parse_concern_list

    chaos = (ChaosConfig() if args.chaos in (None, "default", "on")
             else ChaosConfig.parse(args.chaos))
    replication = (ReplicationConfig.parse(args.replication)
                   if args.replication else None)
    if args.replication and replication is None:
        raise ConfigurationError(
            "the chaos sweep needs replication enabled; "
            "drop '--replication off'"
        )
    concerns = (parse_concern_list(args.write_concern)
                if args.write_concern else None)
    workload = args.workload if args.workload != "all" else "A"
    report = availability_report(
        concerns=concerns, chaos=chaos, workload=workload,
        operations=args.operations, seed=args.seed,
        replication=replication, overload=_overload_policy(args),
    )
    validate_availability_report(report)
    print(render_availability_report(report))
    if args.availability_report:
        write_report(report, args.availability_report)
        print(f"wrote availability report -> {args.availability_report}")
    # Exit 0 only while the acknowledged-write safety invariant holds.
    return 0 if report["invariant_ok"] else 1


def _oltp_reshard(args) -> int:
    """Elastic resharding under live traffic (repro-reshard/1)."""
    from repro.faults.chaos import ChaosConfig
    from repro.faults.reshard import (
        render_reshard_report,
        reshard_report,
        validate_reshard_report,
    )
    from repro.replication.config import ReplicationConfig
    from repro.replication.writeconcern import WriteConcern

    reshard = args.reshard or "scale:shards=6@0.3"
    chaos = (None if args.chaos is None
             else ChaosConfig() if args.chaos in ("default", "on")
             else ChaosConfig.parse(args.chaos))
    concern = (WriteConcern.parse(args.write_concern)
               if args.write_concern else None)
    replication = (ReplicationConfig.parse(args.replication)
                   if args.replication else None)
    if not 0.0 < args.reshard_throttle <= 1.0:
        raise ConfigurationError(
            "--reshard-throttle must be in (0, 1]"
        )
    workload = args.workload if args.workload != "all" else "A"
    report = reshard_report(
        reshard=reshard, throttle=args.reshard_throttle, chaos=chaos,
        concern=concern, workload=workload, operations=args.operations,
        seed=args.seed, replication=replication,
    )
    validate_reshard_report(report)
    print(render_reshard_report(report))
    if args.reshard_report:
        write_report(report, args.reshard_report)
        print(f"wrote reshard report -> {args.reshard_report}")
    # Exit 0 only while no acked write was lost across a migration.
    return 0 if report["invariant_ok"] else 1


def _oltp_live(args) -> int:
    """One chaos run watched live (repro-live/1): dashboard + SLO alerts."""
    from repro.core.oltp import OltpStudy
    from repro.obs import (
        SpanSamplePolicy,
        parse_slo_rules,
        render_live_report,
        validate_live_report,
    )

    # Specs are parsed before the run so a typo is a one-line exit 2.
    rules = parse_slo_rules(args.slo_rules)
    span_sample = (SpanSamplePolicy.parse(args.span_sample)
                   if args.span_sample else None)
    chaos = (None if args.chaos in (None, "default", "on") else args.chaos)
    workload = args.workload if args.workload != "all" else "A"
    study = OltpStudy(isolation=args.isolation)
    prof = None
    if _profiling_enabled(args):
        from repro.obs import ProfiledRun

        prof = ProfiledRun().start()
    report = study.live_report(
        args.system, concern=args.write_concern or "safe",
        workload=workload, slo_rules=rules, slice_s=args.live_slice,
        chaos=chaos, operations=args.operations, seed=args.seed,
        replication=_oltp_replication(args), span_sample=span_sample,
        prof=prof,
    )
    validate_live_report(report)
    if prof is not None:
        with prof.section("report.render"):
            rendered = render_live_report(report)
    else:
        rendered = render_live_report(report)
    print(rendered)
    if args.live_report != "-":
        write_report(report, args.live_report)
        print(f"wrote live report -> {args.live_report}")
    if prof is not None:
        _profile_outputs(args, prof, {
            "kind": "oltp-live", "system": args.system, "workload": workload,
            "chaos": chaos or "default", "operations": args.operations,
            "seed": args.seed,
        })
    return 0


def _overload_policy(args):
    """Parse --overload into an OverloadPolicy (None when the flag is off)."""
    if not (getattr(args, "overload", None) or
            getattr(args, "overload_report", None)):
        return None
    from repro.overload import OverloadPolicy

    return OverloadPolicy.parse(args.overload or "default")


def _oltp_overload(args) -> int:
    """``oltp --overload``: graceful degradation under overload.

    Without a fault plan (or with a station-level one) this runs the
    metastable-failure demonstration — the same transient trigger with and
    without protection — and exits 0 only when the contrast holds.  A
    shard-level ``--faults`` plan runs the functional breaker cell instead.
    """
    from repro.overload import (
        functional_overload_cell,
        overload_report,
        render_overload_report,
        validate_overload_report,
    )

    policy = _overload_policy(args)
    workload = args.workload if args.workload != "all" else "A"
    plan = None
    if args.faults:
        from repro.faults import FaultPlan

        plan = FaultPlan.parse(args.faults, seed=args.seed)

    if plan is not None and (plan.shard_faults or plan.member_faults):
        cell = functional_overload_cell(
            plan, policy, system=args.system, workload=workload,
            replication=_oltp_replication(args),
        )
        contrast = cell["contrast"]
        print(
            f"overload cell [{args.system}] plan {plan.spec_string()}  "
            f"policy {policy.spec_string()}"
        )
        print(
            f"  backoff {cell['unprotected']['backoff_seconds']:g}s -> "
            f"{cell['protected']['backoff_seconds']:g}s "
            f"(saved {contrast['backoff_saved_seconds']:g}s)  "
            f"breaker trips {contrast['breaker_trips']}  "
            f"shed {cell['protected']['shed']}"
        )
        if args.overload_report:
            write_report(cell, args.overload_report)
            print(f"wrote overload cell -> {args.overload_report}")
        return 0

    live = None
    if args.live_report is not None:
        from repro.obs import LiveTelemetry, parse_slo_rules

        live = LiveTelemetry(slice_s=args.live_slice,
                             rules=parse_slo_rules(args.slo_rules))
    demo_kwargs = {"seed": args.seed, "live": live}
    if plan is not None:
        demo_kwargs["plan"] = args.faults
    report = overload_report(policy, **demo_kwargs)
    validate_overload_report(report)
    print(render_overload_report(report))
    if args.overload_report:
        write_report(report, args.overload_report)
        print(f"wrote overload report -> {args.overload_report}")
    if live is not None:
        from repro.obs import (
            build_live_report,
            render_live_report,
            validate_live_report,
        )

        live_doc = build_live_report(live, {
            "kind": "overload-demo", "workload": "read-only",
            "policy": policy.spec_string(),
            "plan": demo_kwargs.get("plan", "default"),
            "seed": args.seed,
        })
        validate_live_report(live_doc)
        print(render_live_report(live_doc))
        if args.live_report != "-":
            write_report(live_doc, args.live_report)
            print(f"wrote live report -> {args.live_report}")
    # Exit 0 only when the metastable contrast demonstrably holds.
    return 0 if report["contrast"]["metastable_demonstrated"] else 1


def _cmd_dss(args) -> int:
    from repro.core.dss import DssStudy
    from repro.core.report import (
        render_figure1,
        render_table2,
        render_table3,
        render_table4,
        render_table5,
    )

    if not _dbgen(args.calibration_sf, args.seed, "--calibration-sf").orders:
        raise ConfigurationError(
            f"--calibration-sf {args.calibration_sf:g} places no orders to "
            "calibrate on")
    _require_query(args.trace_query, "--trace-query")
    _require_positive(args.trace_sf, "--trace-sf")
    if args.fault_report and not args.faults:
        raise ConfigurationError("--fault-report requires --faults")
    if args.whatif_report and not args.whatif:
        raise ConfigurationError("--whatif-report requires --whatif")
    if args.decompose_report and not args.decompose:
        raise ConfigurationError("--decompose-report requires --decompose")
    # Specs are validated before the (slow) study construction so a typo
    # fails fast with the one-line exit-2 convention.
    whatif_scales = (
        _parse_whatif_for(args.whatif, args.engine, f"engine {args.engine}")
        if args.whatif else None
    )
    decompose_numbers = (
        _parse_query_list(args.decompose, "--decompose")
        if args.decompose else None
    )
    profiling = _profiling_enabled(args)
    if profiling and args.faults:
        raise ConfigurationError("--profile does not compose with --faults")
    study = DssStudy(calibration_sf=args.calibration_sf, seed=args.seed)
    if args.faults:
        return _dss_faults(args, study)
    observing = (args.trace or args.metrics or args.timeline
                 or args.utilization is not None or args.bottlenecks
                 or args.critical_path is not None or args.whatif
                 or profiling)
    if decompose_numbers:
        from repro.obs import render_decomposition

        report = study.decomposition(decompose_numbers)
        print(render_decomposition(report))
        if args.decompose_report:
            write_report(report.to_dict(), args.decompose_report)
            print(f"wrote decomposition -> {args.decompose_report}")
        if not observing:
            return 0
        print()
    if observing:
        from repro.obs import (
            UtilizationSampler,
            ascii_timeline,
            render_report,
            sparkline_heatmap,
            write_chrome_trace,
            write_metrics,
            write_series_csv,
        )

        sampler = None
        if args.utilization is not None or args.bottlenecks:
            sampler = UtilizationSampler()
        prof = None
        if profiling:
            from repro.obs import ProfiledRun

            prof = ProfiledRun().start()
        result, tracer, metrics = study.trace_query(
            args.trace_query, args.trace_sf, engine=args.engine,
            sampler=sampler, prof=prof,
        )
        print(
            f"{args.engine} q{args.trace_query} @ SF {args.trace_sf:g}: "
            f"{result.total_time:.1f} s simulated, {len(tracer.spans)} spans"
        )
        if args.trace:
            count = write_chrome_trace(args.trace, tracer, metrics,
                                       sampler=sampler)
            print(f"wrote {count} trace events -> {args.trace}")
        if args.metrics:
            write_metrics(args.metrics, metrics)
            print(f"wrote metrics -> {args.metrics}")
        if args.timeline:
            if prof is not None:
                with prof.section("report.render"):
                    timeline = ascii_timeline(tracer)
            else:
                timeline = ascii_timeline(tracer)
            print(timeline)
        if args.utilization == "-":
            print(sparkline_heatmap(sampler))
        elif args.utilization is not None:
            rows = write_series_csv(args.utilization, sampler)
            print(f"wrote {rows} utilization rows -> {args.utilization}")
        if args.bottlenecks:
            _, attributions, _, _ = study.bottleneck_report(
                args.trace_query, args.trace_sf, engine=args.engine
            )
            print(render_report(
                attributions,
                title=(f"{args.engine} q{args.trace_query} "
                       f"@ SF {args.trace_sf:g} bottlenecks"),
            ))
        if args.critical_path is not None:
            from repro.obs import (
                critical_path,
                render_critical_path,
            )

            path = critical_path(tracer)
            print(render_critical_path(path))
            if args.critical_path != "-":
                write_report(path.to_dict(), args.critical_path)
                print(f"wrote critical path -> {args.critical_path}")
        if whatif_scales:
            from repro.obs import (
                dss_whatif_report,
                render_whatif_report,
            )

            report = dss_whatif_report(
                tracer, args.engine, whatif_scales,
                target={"query": args.trace_query,
                        "scale_factor": args.trace_sf},
            )
            print(render_whatif_report(report))
            if args.whatif_report:
                write_report(report.to_dict(), args.whatif_report)
                print(f"wrote what-if report -> {args.whatif_report}")
        if prof is not None:
            _profile_outputs(args, prof, {
                "kind": "dss", "engine": args.engine,
                "query": args.trace_query, "scale_factor": args.trace_sf,
            })
        return 0
    table = study.table3()
    for block in (
        render_table2(study),
        render_table3(table),
        render_figure1(study, table),
        render_table4(study),
        render_table5(study),
    ):
        print(block)
        print()
    return 0


def _oltp_frontier(args) -> int:
    """``oltp --frontier``: open-loop sweep + knee search per system."""
    from repro.core.oltp import OltpStudy
    from repro.ycsb.frontier import (
        render_frontier_report,
        validate_frontier_report,
    )

    _require_positive(args.slo_ms, "--slo-ms")
    _require_positive(args.frontier_ops, "--frontier-ops")
    _require_positive(args.frontier_window, "--frontier-window")
    systems = None
    if args.frontier_systems:
        systems = [s.strip() for s in args.frontier_systems.split(",")
                   if s.strip()]
    workloads = None
    if args.frontier_workloads:
        workloads = [w.strip().upper() for w in
                     args.frontier_workloads.split(",") if w.strip()]
    metrics = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    study = OltpStudy(isolation=args.isolation)
    from repro.ycsb.frontier import frontier_report as build_frontier

    report = build_frontier(
        systems=systems, workloads=workloads, slo_ms=args.slo_ms,
        seed=args.seed, measure_ops=args.frontier_ops,
        warmup_ops=max(args.frontier_ops // 4, 1),
        min_window_s=args.frontier_window,
        concern=args.write_concern, faults=args.faults,
        overload=_overload_policy(args),
        params=study.params, isolation=study.isolation, metrics=metrics,
    )
    validate_frontier_report(report)
    print(render_frontier_report(report))
    if args.frontier_report:
        write_report(report, args.frontier_report)
        print(f"wrote frontier report -> {args.frontier_report}")
    if args.metrics:
        from repro.obs import write_metrics

        write_metrics(args.metrics, metrics)
        print(f"wrote metrics -> {args.metrics}")
    return 0


def _cmd_oltp(args) -> int:
    from repro.core.oltp import OltpStudy
    from repro.core.report import render_oltp_load_times, render_ycsb_figure

    from repro.ycsb.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        raise ConfigurationError(
            f"unknown workload {args.workload!r}; expected one of "
            f"{', '.join(sorted(WORKLOADS))} or 'all'"
        )
    _require_positive(args.target, "--target")
    _require_positive(args.duration, "--duration")
    _require_positive(args.operations, "--operations")
    if args.fault_report and not args.faults:
        raise ConfigurationError("--fault-report requires --faults")
    if args.whatif_report and not args.whatif:
        raise ConfigurationError("--whatif-report requires --whatif")
    if args.write_concern and not (args.replication or args.chaos
                                   or args.availability_report
                                   or args.frontier or args.frontier_report
                                   or args.reshard or args.reshard_report
                                   or args.live_report is not None):
        raise ConfigurationError(
            "--write-concern requires --replication, --chaos, "
            "--live-report, --reshard, or --frontier"
        )
    if args.live_report is None and (args.slo_rules != DEFAULT_SLO_RULES
                                     or args.span_sample):
        raise ConfigurationError(
            "--slo-rules/--span-sample require --live-report"
        )
    overloading = args.overload or args.overload_report
    if overloading and (args.reshard or args.reshard_report):
        raise ConfigurationError(
            "--overload does not compose with --reshard"
        )
    if (overloading and (args.chaos or args.availability_report)
            and args.live_report is not None):
        raise ConfigurationError(
            "--overload with --chaos does not compose with --live-report"
        )
    _require_positive(args.live_slice, "--live-slice")
    whatif_scales = (
        _parse_whatif_for(args.whatif, "oltp", "the oltp event simulator")
        if args.whatif else None
    )
    profiling = _profiling_enabled(args)
    if profiling and (args.frontier or args.frontier_report or args.reshard
                      or args.reshard_report or args.availability_report
                      or args.faults or args.overload or args.overload_report
                      or (args.chaos and args.live_report is None)):
        # The profiler hooks the event-sim and live paths today; the sweep
        # modes run many simulations whose profiles would blur together.
        raise ConfigurationError(
            "--profile composes with the traced event-sim point and "
            "--live-report only"
        )
    if args.frontier or args.frontier_report:
        return _oltp_frontier(args)
    if overloading and not (args.chaos or args.availability_report):
        return _oltp_overload(args)
    if args.live_report is not None:
        return _oltp_live(args)
    if args.reshard or args.reshard_report:
        return _oltp_reshard(args)
    if args.chaos or args.availability_report:
        return _oltp_availability(args)
    study = OltpStudy(isolation=args.isolation)
    if args.faults:
        return _oltp_faults(args, study)
    observing = (args.trace or args.metrics or args.timeline
                 or args.utilization is not None or args.bottlenecks
                 or args.critical_path is not None or args.whatif
                 or profiling)
    if observing:
        from repro.obs import (
            MetricsRegistry,
            Tracer,
            UtilizationSampler,
            ascii_timeline,
            render_report,
            sparkline_heatmap,
            write_chrome_trace,
            write_metrics,
            write_series_csv,
        )

        workload = args.workload if args.workload != "all" else "A"
        # A profile-only run skips span/metrics collection: the point of
        # --profile is to measure the simulator itself, and span
        # construction is its own (instrumented) cost.
        span_observing = (args.trace or args.metrics or args.timeline
                          or args.utilization is not None or args.bottlenecks
                          or args.critical_path is not None or args.whatif)
        tracer = Tracer() if span_observing else None
        metrics = MetricsRegistry() if span_observing else None
        sampler = None
        if args.utilization is not None:
            sampler = UtilizationSampler(interval=0.5)
        prof = None
        if profiling:
            from repro.obs import ProfiledRun

            prof = ProfiledRun().start()
        point, sim = study.event_sim_point(
            args.system, workload, args.target, duration=args.duration,
            seed=args.seed, tracer=tracer, metrics=metrics, sampler=sampler,
            prof=prof,
        )
        spans = len(tracer.spans) if tracer is not None else 0
        print(
            f"{args.system} workload {workload} @ {args.target:g} ops/s target: "
            f"event-sim {sim.throughput:.0f} ops/s (scaled), "
            f"{sim.completed_ops} measured ops, {spans} spans"
        )
        if args.trace:
            count = write_chrome_trace(args.trace, tracer, metrics,
                                       sampler=sampler)
            print(f"wrote {count} trace events -> {args.trace}")
        if args.metrics:
            write_metrics(args.metrics, metrics)
            print(f"wrote metrics -> {args.metrics}")
        if args.timeline:
            if prof is not None:
                with prof.section("report.render"):
                    timeline = ascii_timeline(tracer, cat="resource")
            else:
                timeline = ascii_timeline(tracer, cat="resource")
            print(timeline)
        if args.utilization == "-":
            print(sparkline_heatmap(sampler))
        elif args.utilization is not None:
            rows = write_series_csv(args.utilization, sampler)
            print(f"wrote {rows} utilization rows -> {args.utilization}")
        if args.bottlenecks:
            _, attributions, _ = study.bottlenecks(
                args.system, workload, args.target
            )
            print(render_report(
                attributions,
                title=(f"{args.system} workload {workload} "
                       f"@ {args.target:g} ops/s bottlenecks"),
            ))
        if args.critical_path is not None:
            from repro.obs import (
                critical_path,
                render_critical_path,
            )

            # An OLTP trace has no single root: take the slowest measured
            # request — the one whose visits explain the latency tail.
            requests = [
                span for span in tracer.find(cat="request")
                if span.end >= 10.0 and not span.args.get("error")
            ]
            if not requests:
                raise ConfigurationError(
                    "no measured requests to extract a critical path from "
                    "(try a longer --duration)"
                )
            root = max(requests, key=lambda s: (s.duration, -s.span_id))
            path = critical_path(tracer, root=root)
            print(render_critical_path(path))
            if args.critical_path != "-":
                write_report(path.to_dict(), args.critical_path)
                print(f"wrote critical path -> {args.critical_path}")
        if whatif_scales:
            from repro.obs import (
                oltp_whatif_report,
                render_whatif_report,
            )

            report = oltp_whatif_report(
                tracer, whatif_scales,
                target={"system": args.system, "workload": workload,
                        "target_ops": args.target},
            )
            print(render_whatif_report(report))
            if args.whatif_report:
                write_report(report.to_dict(), args.whatif_report)
                print(f"wrote what-if report -> {args.whatif_report}")
        if prof is not None:
            _profile_outputs(args, prof, {
                "kind": "oltp", "system": args.system, "workload": workload,
                "target": args.target, "duration": args.duration,
                "seed": args.seed,
            })
        return 0
    figures = [
        ("C", [5_000, 10_000, 20_000, 40_000, 80_000, 160_000], ["read"]),
        ("B", [5_000, 10_000, 20_000, 40_000, 80_000, 160_000], ["read", "update"]),
        ("A", [1_000, 2_000, 5_000, 10_000, 20_000, 40_000], ["read", "update"]),
        ("D", [20_000, 40_000, 80_000, 160_000, 320_000, 640_000], ["read", "insert"]),
        ("E", [250, 500, 1_000, 2_000, 4_000, 8_000], ["scan", "insert"]),
    ]
    selected = [f for f in figures if args.workload in ("all", f[0])]
    if not selected:
        print(f"unknown workload {args.workload!r}; use A-E or 'all'",
              file=sys.stderr)
        return 2
    for workload, targets, op_classes in selected:
        print(render_ycsb_figure(study, workload, targets, op_classes))
        if args.ascii:
            from repro.core.figures import figure_to_ascii

            figure = study.figure(workload, targets)
            print()
            print(figure_to_ascii(figure, op_classes[0],
                                  title=f"Workload {workload}"))
        print()
    if args.workload == "all":
        print(render_oltp_load_times(study))
    return 0


def _cmd_dbgen(args) -> int:
    from repro.tpch.tbl_io import write_tbl

    db = _dbgen(args.sf, args.seed).generate()
    written = write_tbl(db, args.output)
    for name, rows in sorted(written.items()):
        print(f"{name:>10}: {rows:>10,} rows -> {args.output}/{name}.tbl")
    return 0


def _cmd_scorecard(args) -> int:
    from repro.core.scorecard import build_scorecard

    card = build_scorecard()
    print(card.render())
    return 0 if card.all_claims_hold else 1


def _cmd_explain(args) -> int:
    from repro.core.explain import explain_query

    _require_query(args.number, "query")
    _require_positive(args.sf, "--sf")
    print(explain_query(args.number, args.sf))
    return 0


def _cmd_hiveql(args) -> int:
    from repro.common.errors import PlanError
    from repro.hive.hiveql import compile_plan, parse
    from repro.relational.operators import run

    gen = _dbgen(args.sf, args.seed)
    try:
        # Parsed and planned first: malformed SQL fails before any data exists.
        plan = compile_plan(parse(args.sql))
        db = gen.generate()
        rows = run(plan, db)
    except PlanError as exc:
        raise ConfigurationError(str(exc)) from exc
    for row in rows[: args.limit]:
        print(row)
    print(f"({len(rows)} row(s))")
    return 0


def _cmd_query(args) -> int:
    from repro.tpch.queries import run_query

    _require_query(args.number, "query")
    db = _dbgen(args.sf, args.seed).generate()
    rows = run_query(args.number, db)
    for row in rows[: args.limit]:
        print(row)
    print(f"({len(rows)} row(s))")
    return 0


def _add_profile_flags(sub_parser) -> None:
    """Self-profiling flags shared by the dss and oltp subcommands."""
    sub_parser.add_argument(
        "--profile", action="store_true",
        help="profile the run itself (wall-clock stack sampler + exact "
             "subsystem counters) and print the repro-prof/1 summary")
    sub_parser.add_argument(
        "--profile-report", metavar="PATH", type=_output_path,
        help="write the repro-prof/1 JSON (implies --profile)")
    sub_parser.add_argument(
        "--profile-speedscope", metavar="PATH", type=_output_path,
        help="write sampled stacks as a speedscope.app document "
             "(implies --profile)")
    sub_parser.add_argument(
        "--profile-folded", metavar="PATH", type=_output_path,
        help="write folded stacks for flamegraph.pl (implies --profile)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Can the Elephants Handle the NoSQL "
        "Onslaught?' (VLDB 2012)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="diff two report JSON files (repro-prof/1 "
                             "or repro-live/1, both the same kind) and "
                             "attribute the regression; prints a "
                             "repro-compare/1 table")
    parser.add_argument("--compare-report", metavar="PATH", type=_output_path,
                        help="write the repro-compare/1 JSON "
                             "(requires --compare)")
    sub = parser.add_subparsers(dest="command", required=False)

    dss = sub.add_parser("dss", help="run the TPC-H study (Tables 2-5, Fig 1)")
    dss.add_argument("--calibration-sf", type=float, default=0.01)
    dss.add_argument("--seed", type=int, default=42)
    dss.add_argument("--trace", metavar="PATH", type=_output_path,
                     help="trace one query; write Chrome trace-event JSON")
    dss.add_argument("--metrics", metavar="PATH", type=_output_path,
                     help="trace one query; write the metrics snapshot JSON")
    dss.add_argument("--timeline", action="store_true",
                     help="trace one query; print an ASCII timeline")
    dss.add_argument("--trace-query", type=int, default=1,
                     help="TPC-H query to trace (default 1)")
    dss.add_argument("--trace-sf", type=float, default=250.0,
                     help="scale factor for the traced query (default 250)")
    dss.add_argument("--engine", default="hive", choices=["hive", "pdw"],
                     help="engine to trace (default hive)")
    dss.add_argument("--utilization", metavar="PATH", nargs="?", const="-",
                     type=_output_path,
                     help="sample per-resource utilization for the traced "
                          "query; write series CSV to PATH, or print the "
                          "sparkline heatmap when no PATH is given")
    dss.add_argument("--bottlenecks", action="store_true",
                     help="print the per-phase bottleneck attribution report")
    dss.add_argument("--critical-path", metavar="PATH", nargs="?", const="-",
                     type=_output_path,
                     help="trace one query; print its critical path and "
                          "slack, or also write repro-critpath/1 JSON to PATH")
    dss.add_argument("--whatif", metavar="SPEC",
                     help="replay the traced query with mechanisms scaled, "
                          "e.g. 'map-startup=0' or 'shuffle=0.5x,dms=0'")
    dss.add_argument("--whatif-report", metavar="PATH", type=_output_path,
                     help="write the repro-whatif/1 JSON (requires --whatif)")
    dss.add_argument("--decompose", metavar="QUERIES",
                     help="fit fixed-vs-variable overhead across all SFs for "
                          "a comma-separated query list, e.g. '1,22'")
    dss.add_argument("--decompose-report", metavar="PATH", type=_output_path,
                     help="write the repro-decompose/1 JSON "
                          "(requires --decompose)")
    dss.add_argument("--faults", metavar="PLAN",
                     help="inject faults into the traced query and compare "
                          "Hive vs PDW recovery; PLAN is "
                          "'kind:target@at[+dur][xmag];...' "
                          "(e.g. 'crash:n3@0.5' or 'straggler:n2@0.3x4')")
    dss.add_argument("--fault-report", metavar="PATH", type=_output_path,
                     help="write the healthy-vs-faulted comparison JSON")
    _add_profile_flags(dss)
    dss.set_defaults(func=_cmd_dss)

    oltp = sub.add_parser("oltp", help="run the YCSB study (Figures 2-6)")
    oltp.add_argument("--workload", default="all", help="A-E or 'all'")
    oltp.add_argument(
        "--isolation", default="read_committed",
        choices=["read_committed", "read_uncommitted"],
    )
    oltp.add_argument("--ascii", action="store_true",
                      help="also draw ASCII latency/throughput plots")
    oltp.add_argument("--trace", metavar="PATH", type=_output_path,
                      help="event-simulate one point; write Chrome trace JSON")
    oltp.add_argument("--metrics", metavar="PATH", type=_output_path,
                      help="event-simulate one point; write metrics JSON")
    oltp.add_argument("--timeline", action="store_true",
                      help="event-simulate one point; print an ASCII timeline")
    oltp.add_argument("--system", default="mongo-as",
                      choices=["sql-cs", "mongo-as", "mongo-cs"],
                      help="system to trace (default mongo-as)")
    oltp.add_argument("--target", type=float, default=10_000.0,
                      help="target ops/s for the traced point (default 10000)")
    oltp.add_argument("--duration", type=float, default=60.0,
                      help="simulated seconds for the traced point")
    oltp.add_argument("--seed", type=int, default=1234)
    oltp.add_argument("--utilization", metavar="PATH", nargs="?", const="-",
                      type=_output_path,
                      help="sample per-station utilization for the traced "
                           "point; write series CSV to PATH, or print the "
                           "sparkline heatmap when no PATH is given")
    oltp.add_argument("--bottlenecks", action="store_true",
                      help="print the bottleneck attribution report "
                           "(MVA utilizations, lock rows vs the paper's "
                           "25-45%% mongostat band)")
    oltp.add_argument("--critical-path", metavar="PATH", nargs="?", const="-",
                      type=_output_path,
                      help="event-simulate one point; print the slowest "
                           "request's critical path, or also write "
                           "repro-critpath/1 JSON to PATH")
    oltp.add_argument("--whatif", metavar="SPEC",
                      help="replay the traced point with mechanisms scaled, "
                           "e.g. 'lock-wait=0.5x' or 'disk=0,backoff=0'")
    oltp.add_argument("--whatif-report", metavar="PATH", type=_output_path,
                      help="write the repro-whatif/1 JSON (requires --whatif)")
    oltp.add_argument("--faults", metavar="PLAN",
                      help="inject faults and compare healthy vs faulted: "
                           "shard faults ('kill-shard:0@0.25') run the "
                           "functional cluster with retry/backoff, station "
                           "faults ('disk-stall:disk@20+10x8') run the event "
                           "simulator")
    oltp.add_argument("--fault-report", metavar="PATH", type=_output_path,
                      help="write the healthy-vs-faulted comparison JSON")
    oltp.add_argument("--replication", metavar="SPEC",
                      help="run functional clusters with HA: replica sets "
                           "per Mongo shard, synchronous mirroring per SQL "
                           "node; 'on' or 'replicas=3,lag=0.05,timeout=0.25' "
                           "('off' keeps the paper's bare deployments)")
    oltp.add_argument("--write-concern", metavar="NAME",
                      help="write concern for replicated runs: unacked, "
                           "safe, journaled, majority, or w:N; 'all' sweeps "
                           "the spectrum under --chaos")
    oltp.add_argument("--chaos", metavar="SPEC", nargs="?", const="default",
                      help="seeded chaos run with an acknowledged-write "
                           "audit: 'kills=2,partitions=1,lag-spikes=1' "
                           "(bare --chaos uses that default); exits 0 only "
                           "if the durability invariant holds")
    oltp.add_argument("--operations", type=int, default=500,
                      help="ops per chaos run (default 500)")
    oltp.add_argument("--availability-report", metavar="PATH",
                      type=_output_path,
                      help="write the repro-availability/1 JSON "
                           "(implies --chaos)")
    oltp.add_argument("--reshard", metavar="SPEC", nargs="?",
                      const="scale:shards=6@0.3",
                      help="elastic resharding under live traffic: a "
                           "topology plan like 'scale:shards=6@0.3' or "
                           "'drain:shard=1@0.35' (bare flag uses the "
                           "former), optionally ';'-joined with extra "
                           "fault specs; composes with --chaos and "
                           "--write-concern; exits 0 only if no acked "
                           "write is lost across a migration")
    oltp.add_argument("--reshard-report", metavar="PATH", type=_output_path,
                      help="write the repro-reshard/1 JSON "
                           "(implies --reshard)")
    oltp.add_argument("--reshard-throttle", type=float, default=0.5,
                      metavar="FRACTION",
                      help="migration copy duty cycle in (0, 1] "
                           "(default 0.5)")
    oltp.add_argument("--live-report", metavar="PATH", nargs="?", const="-",
                      type=_output_path,
                      help="watch one chaos run live — windowed latency "
                           "digests, online burn-rate SLO alerts, ASCII "
                           "dashboard (repro-live/1); bare flag prints "
                           "the dashboard without writing JSON")
    oltp.add_argument("--slo-rules", metavar="SPEC",
                      default=DEFAULT_SLO_RULES,
                      help="';'-separated burn-rate rules for "
                           f"--live-report (default {DEFAULT_SLO_RULES}; "
                           "windows are virtual-clock)")
    oltp.add_argument("--span-sample", metavar="SPEC",
                      help="tail-biased span sampling for --live-report: "
                           "RATE[,slow_ms=N] keeps every fault/retry/"
                           "election/slow/error span and head-samples "
                           "the rest")
    oltp.add_argument("--live-slice", type=float, default=0.1,
                      help="live dashboard slice width in virtual "
                           "seconds (default 0.1)")
    oltp.add_argument("--overload", metavar="SPEC", nargs="?",
                      const="default",
                      help="graceful degradation under overload: admission "
                           "control, deadline propagation, retry budgets, "
                           "circuit breakers "
                           "('queue=64,policy=deadline-drop,deadline=500ms,"
                           "budget=0.1,breaker=on'; bare flag uses that "
                           "default); alone it runs the metastable-failure "
                           "demo (exit 0 only if the with/without contrast "
                           "holds); composes with --faults (shard plans run "
                           "the functional breaker cell), --chaos, "
                           "--frontier, and --live-report")
    oltp.add_argument("--overload-report", metavar="PATH", type=_output_path,
                      help="write the repro-overload/1 JSON "
                           "(implies --overload)")
    oltp.add_argument("--frontier", action="store_true",
                      help="sweep open-loop Poisson arrival rates and "
                           "bisect each system's saturation knee (max "
                           "sustained throughput with coordinated-omission-"
                           "correct p99 under --slo-ms); composes with "
                           "--faults, --write-concern, and --metrics")
    oltp.add_argument("--frontier-report", metavar="PATH", type=_output_path,
                      help="write the repro-frontier/1 JSON "
                           "(implies --frontier)")
    oltp.add_argument("--slo-ms", type=float, default=250.0,
                      help="frontier p99 objective in ms (default 250; "
                           "values under the 100 ms journal flush window "
                           "are unreachable for journaled writes: exit 2)")
    oltp.add_argument("--frontier-systems", metavar="LIST",
                      help="comma-separated systems to sweep (default "
                           "sql-cs,mongo-as,mongo-cs,mongo-as-safe)")
    oltp.add_argument("--frontier-workloads", metavar="LIST",
                      help="comma-separated workloads to sweep (default A,C)")
    oltp.add_argument("--frontier-ops", type=int, default=40000,
                      help="measured arrivals per probe (default 40000; "
                           "warmup adds a quarter of this)")
    oltp.add_argument("--frontier-window", type=float, default=2.0,
                      help="minimum measured seconds per probe (default 2; "
                           "overloaded rates need wall time for the backlog "
                           "to surface in p99 — lower only for smoke runs)")
    _add_profile_flags(oltp)
    oltp.set_defaults(func=_cmd_oltp)

    dbgen = sub.add_parser("dbgen", help="generate TPC-H .tbl files")
    dbgen.add_argument("--sf", type=float, default=0.01)
    dbgen.add_argument("--seed", type=int, default=42)
    dbgen.add_argument("--output", default="tpch-data")
    dbgen.set_defaults(func=_cmd_dbgen)

    scorecard = sub.add_parser(
        "scorecard", help="paper-vs-model accuracy summary and claim checklist"
    )
    scorecard.set_defaults(func=_cmd_scorecard)

    explain = sub.add_parser(
        "explain", help="show both engines' physical plans for a query"
    )
    explain.add_argument("number", type=int)
    explain.add_argument("--sf", type=float, default=4000.0)
    explain.set_defaults(func=_cmd_explain)

    hiveql = sub.add_parser(
        "hiveql", help="execute a HiveQL statement on generated TPC-H data"
    )
    hiveql.add_argument("sql")
    hiveql.add_argument("--sf", type=float, default=0.01)
    hiveql.add_argument("--seed", type=int, default=42)
    hiveql.add_argument("--limit", type=int, default=20)
    hiveql.set_defaults(func=_cmd_hiveql)

    query = sub.add_parser("query", help="run one TPC-H query")
    query.add_argument("number", type=int)
    query.add_argument("--sf", type=float, default=0.01)
    query.add_argument("--seed", type=int, default=42)
    query.add_argument("--limit", type=int, default=20)
    query.set_defaults(func=_cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            if args.compare:
                return _cmd_compare(args)
            parser.error("a command or --compare is required")
        if args.compare:
            raise ConfigurationError(
                "--compare is a standalone mode; drop the subcommand"
            )
        if args.compare_report:
            raise ConfigurationError("--compare-report requires --compare")
        return args.func(args)
    except ConfigurationError as exc:
        # Bad input (unknown workload, non-positive scale factor, malformed
        # fault plan) is a usage error: one line on stderr, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
