"""Command-line interface: run the reproduction's experiments.

::

    python -m repro list                 # experiment inventory
    python -m repro run e_t16            # one experiment, print its tables
    python -m repro run all --trials 5   # the whole battery
    python -m repro demo                 # 30-second protocol demo
    python -m repro demo --faults gilbert:p01=0.05,p10=0.5
    python -m repro faults sweep         # fault-model comparison tables
    python -m repro faults replay F.json # run a scripted fault schedule
    python -m repro scenario list        # streaming-scenario catalogue
    python -m repro scenario run --scenario baseline --seed 1
    python -m repro sweep run --dir S    # crash-tolerant sharded sweep
    python -m repro sweep resume --dir S # pick up after any crash

Each experiment id matches DESIGN.md's index; ``run`` prints the same
tables the benchmark harness saves under ``benchmarks/results/``.

Observability: ``--log-level`` (before or after the subcommand) opts
into library logging; every work-executing subcommand
(``run``/``demo``/``report``/``scenario run``) accepts
``--metrics-out PATH`` (enable the process metrics registry, write its
JSON snapshot at exit) and ``--trace-out PATH`` (emit a JSONL run
trace: manifest + records + summary; ``demo`` traces every protocol
round, and ``demo --flight`` adds per-worm flight-recorder events).
``run`` and ``scenario run`` also take ``--prom-port N`` (serve live
Prometheus text metrics on ``127.0.0.1:N/metrics`` for the duration of
the run) and ``--profile`` (span profiler: print an ASCII flame view of
where the wall time went). ``scenario run --snapshot-every K`` emits
per-window stats every K rounds; ``--watch`` (or the ``scenario
watch`` alias) renders them live as a refreshing sparkline dashboard.
``repro trace {summary,timeline,links,diff}`` analyses saved traces and
``repro bench compare A.json B.json`` diffs two engine benchmark files,
exiting nonzero on a regression. See docs/OBSERVABILITY.md.

Sweeps: ``repro sweep {run,status,resume,retry-quarantined}`` drives
the crash-tolerant sharded sweep service (durable journal, supervised
workers, ``--chaos SPEC`` / ``$REPRO_CHAOS`` fault injection; exit
code 3 when shards were quarantined). See docs/SWEEPS.md.

History: ``run``, ``faults sweep``, ``scenario run`` and ``sweep``
accept ``--ledger [PATH]`` to record the run in the persistent run ledger
(default ``.repro/ledger.db``); ``repro runs
{list,show,compare,groups,gc}`` queries it -- ``repro runs compare
latest~1 latest`` (or ``repro runs compare latest`` against the grouped
history baseline) diffs runs with per-stage attribution and exits
nonzero past the regression threshold.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from typing import Callable

from repro.errors import ExperimentError, ReproError

__all__ = ["main", "EXPERIMENTS"]


def _registry() -> dict[str, tuple[str, Callable]]:
    from repro.experiments import (
        exp_ablations,
        exp_adversary,
        exp_baselines,
        exp_extensions,
        exp_hard_permutations,
        exp_lemma24,
        exp_lower_bounds,
        exp_mt11,
        exp_mt12_13,
        exp_predictor,
        exp_resilience,
        exp_rwa,
        exp_streaming,
        exp_thm15,
        exp_thm16,
        exp_thm17,
        exp_witness,
    )

    return {
        "e_t11": ("Main Theorem 1.1: leveled collections, serve-first", exp_mt11.run),
        "e_t12_13": (
            "Main Theorems 1.2/1.3: serve-first vs priority on cyclic gadgets",
            exp_mt12_13.run,
        ),
        "e_lb": ("Section 2.2 lower bounds: staircases and bundles", exp_lower_bounds.run),
        "e_l24": ("Lemma 2.4: congestion halving", exp_lemma24.run),
        "e_t15": ("Theorem 1.5: node-symmetric networks", exp_thm15.run),
        "e_t16": ("Theorem 1.6: d-dimensional meshes", exp_thm16.run),
        "e_t17": ("Theorem 1.7: butterflies, q-functions", exp_thm17.run),
        "e_cmp": ("Baselines: conversion and TDM", exp_baselines.run),
        "e_ab": ("Ablations: schedules, bandwidth, model knobs", exp_ablations.run),
        "e_f4": ("Witness trees and Claim 2.6", exp_witness.run),
        "e_ext": ("Section 4 open problems", exp_extensions.run),
        "e_pred": ("Mean-field model vs simulation", exp_predictor.run),
        "e_rwa": ("Static wavelength assignment vs trial-and-failure", exp_rwa.run),
        "e_fault": ("Transient link-fault resilience", exp_resilience.run),
        "e_adv": ("Assembled S2.2/S3.2 lower-bound instances", exp_adversary.run),
        "e_hard": ("Worst-case permutations and Valiant's trick", exp_hard_permutations.run),
        "e_stream": (
            "Streaming arrivals: steady-state throughput/latency/drop rate",
            exp_streaming.run,
        ),
    }


def EXPERIMENTS() -> dict[str, tuple[str, Callable]]:
    """The experiment registry: id -> (description, runner)."""
    return _registry()


def _open_sinks(args):
    """The (registry, trace writer, exporter) triple behind the CLI flags.

    Enabling the process-default registry is what routes the in-process
    engine/protocol/runner instrumentation into its consumers, so it
    turns on whenever anything will read it: ``--metrics-out``, a
    ``--prom-port`` scrape endpoint, or a ``--json`` summary that embeds
    the final snapshot.
    """
    from repro.observability import TraceWriter, enable_metrics

    want_registry = bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "prom_port", None) is not None
        or getattr(args, "json", False)
    )
    registry = enable_metrics() if want_registry else None
    writer = (
        TraceWriter(args.trace_out) if getattr(args, "trace_out", None) else None
    )
    exporter = None
    if getattr(args, "prom_port", None) is not None:
        from repro.observability import start_http_exporter

        exporter = start_http_exporter(registry, args.prom_port)
        print(
            f"serving Prometheus metrics on {exporter.url}", file=sys.stderr
        )
    return registry, writer, exporter


def _close_sinks(args, registry, writer, exporter=None) -> None:
    """Write the metrics snapshot, close the trace, restore the default."""
    from repro.observability import disable_metrics

    if exporter is not None:
        exporter.close()
    if writer is not None:
        writer.close()
        print(f"wrote trace to {args.trace_out}")
    if registry is not None:
        if getattr(args, "metrics_out", None):
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote metrics snapshot to {args.metrics_out}")
        disable_metrics()


def _open_profiler(args):
    """The span profiler behind ``--profile`` (None when not requested)."""
    if not getattr(args, "profile", False):
        return None
    from repro.observability import enable_profiling

    return enable_profiling()


def _render_profiler(args, profiler) -> None:
    """Print the ``--profile`` flame view, restore the no-op default.

    Under ``--json`` the view goes to stderr so stdout stays one parseable
    JSON object.
    """
    if profiler is None:
        return
    from repro.observability import disable_profiling, render_spans

    disable_profiling()
    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    print("\nspan profile (wall/self time per span path):", file=out)
    print(render_spans(profiler.snapshot()), file=out)


def _open_ledger(args):
    """The run ledger behind ``--ledger`` (None when not requested)."""
    if getattr(args, "ledger", None) is None:
        return None
    from repro.observability import RunLedger

    return RunLedger(args.ledger or None)


def _record_cli_run(
    ledger,
    *,
    kind: str,
    workload: str,
    args,
    wall: float,
    metrics=None,
    profiler=None,
    fault_model: str = "none",
    summary: dict | None = None,
) -> str:
    """One ``kind="experiment"`` ledger row for a CLI-level invocation."""
    from repro.core.engine import get_default_backend
    from repro.observability import RunRecord, fingerprint_of

    backend = getattr(args, "backend", None) or get_default_backend()
    seed = getattr(args, "seed", None)
    trials = getattr(args, "trials", None)
    return ledger.record(
        RunRecord(
            kind=kind,
            wall_seconds=wall,
            workload=workload,
            backend=backend,
            fault_model=fault_model,
            seed=seed,
            trials=trials,
            fingerprint=fingerprint_of(kind, workload, backend, seed, trials),
            summary=summary or {},
            metrics=metrics.snapshot() if metrics is not None else None,
            spans=profiler.snapshot() if profiler is not None else None,
        )
    )


def _cmd_list(_args) -> int:
    registry = _registry()
    width = max(len(k) for k in registry)
    print("available experiments (see DESIGN.md for the paper mapping):\n")
    for key, (desc, _) in registry.items():
        print(f"  {key.ljust(width)}  {desc}")
    print(f"\n  {'all'.ljust(width)}  run everything")
    return 0


def _cmd_run(args) -> int:
    registry = _registry()
    if args.experiment == "all":
        targets = list(registry)
    elif args.experiment in registry:
        targets = [args.experiment]
    else:
        raise ExperimentError(
            f"unknown experiment {args.experiment!r}; try 'python -m repro list'"
        )
    jobs = getattr(args, "jobs", 1)
    metrics, writer, exporter = _open_sinks(args)
    profiler = _open_profiler(args)
    ledger = _open_ledger(args)
    if writer is not None:
        writer.write_manifest(
            command="run",
            experiments=targets,
            trials=args.trials,
            seed=args.seed,
            jobs=jobs,
        )
    try:
        for key in targets:
            desc, runner = registry[key]
            kwargs = {"trials": args.trials, "seed": args.seed}
            # Only parallel-ready experiments (module-level trial callables)
            # advertise a ``jobs`` parameter; the rest stay serial.
            if jobs != 1 and "jobs" in inspect.signature(runner).parameters:
                kwargs["jobs"] = jobs
            print(f"\n### {key}: {desc} (trials={args.trials}, seed={args.seed})")
            t0 = time.perf_counter()
            tables = runner(**kwargs)
            elapsed = time.perf_counter() - t0
            if not isinstance(tables, (list, tuple)):
                tables = [tables]
            for table in tables:
                print()
                print(table.format())
            print(f"\n[{key} done in {elapsed:.1f}s]")
            if writer is not None:
                writer.write("experiment", id=key, seconds=elapsed)
            if ledger is not None:
                # One row per experiment; the metrics/span snapshots are
                # cumulative across the invocation's targets.
                _record_cli_run(
                    ledger,
                    kind="experiment",
                    workload=key,
                    args=args,
                    wall=elapsed,
                    metrics=metrics,
                    profiler=profiler,
                    summary={"experiment": key, "trials": args.trials},
                )
        if writer is not None:
            if profiler is not None:
                from repro.observability import write_profile

                write_profile(writer, profiler)
            writer.write_summary(experiments=len(targets))
    finally:
        _close_sinks(args, metrics, writer, exporter)
        _render_profiler(args, profiler)
        if ledger is not None:
            print(f"recorded {len(targets)} run(s) in ledger {ledger.path}")
            ledger.close()
    return 0


def _read_trace_arg(path: str, *, strict: bool = False):
    """Read a CLI-supplied trace path, with a clear error when missing.

    Analysis subcommands read with ``strict=False`` so crash-truncated
    traces still render a partial view.
    """
    import pathlib

    from repro.errors import ObservabilityError
    from repro.observability import read_trace

    p = pathlib.Path(path)
    if not p.is_file():
        raise ObservabilityError(f"trace file not found: {p}")
    return read_trace(p, strict=strict)


def _print_fault_outcome(result) -> None:
    """Repairs and stall diagnostics of a fault-aware execution."""
    for rep in result.repairs:
        print(
            f"  repair: round {rep.round}, worm {rep.worm} rerouted "
            f"({rep.old_length} -> {rep.new_length} links)"
        )
    if not result.completed:
        print(f"  stalled: {result.stall_reason}")
        for uid, kind in sorted(result.diagnosis.items()):
            print(f"    worm {uid}: {kind}")


def _cmd_demo(args) -> int:
    from repro import (
        Butterfly,
        GeometricSchedule,
        butterfly_path_collection,
        random_permutation,
        route_collection,
    )

    bf = Butterfly(6)
    pairs = random_permutation(range(bf.rows), rng=0)
    coll = butterfly_path_collection(bf, pairs)
    print(f"routing a random permutation on {bf.name}: {coll!r}")
    faults = None
    if getattr(args, "faults", None):
        from repro.faults import parse_fault_spec

        faults = parse_fault_spec(args.faults)
        print(f"fault model: {faults!r}, repair={args.repair}")
    flight = getattr(args, "flight", False)
    if flight and not getattr(args, "trace_out", None):
        from repro.errors import ObservabilityError

        raise ObservabilityError(
            "--flight records through the run trace; pass --trace-out PATH too"
        )
    metrics, writer, exporter = _open_sinks(args)
    if writer is not None:
        writer.write_manifest(
            command="demo", seed=0, network=bf.name, worms=coll.n, bandwidth=4
        )
    try:
        result = route_collection(
            coll,
            bandwidth=4,
            worm_length=4,
            schedule=GeometricSchedule(c_congestion=2.0, c_floor=0.5),
            rng=0,
            metrics=metrics,
            trace=writer,
            flight=flight,
            faults=faults,
            repair=getattr(args, "repair", "none"),
        )
        if writer is not None:
            writer.write_summary(rounds=result.rounds)
    finally:
        _close_sinks(args, metrics, writer, exporter)
    print(f"completed in {result.rounds} rounds / {result.total_time} steps")
    for rec in result.records:
        line = (
            f"  round {rec.index}: Delta={rec.delay_range}, active "
            f"{rec.active_before}, delivered {rec.delivered}"
        )
        if rec.faulted:
            line += f", faulted {rec.faulted}"
        print(line)
    _print_fault_outcome(result)
    return 0


def _cmd_faults_sweep(args) -> int:
    from repro.experiments import exp_resilience

    metrics, writer, exporter = _open_sinks(args)
    profiler = _open_profiler(args)
    ledger = _open_ledger(args)
    if writer is not None:
        writer.write_manifest(
            command="faults sweep",
            trials=args.trials,
            seed=args.seed,
            jobs=args.jobs,
        )
    common = dict(
        side=args.side,
        d=args.d,
        bandwidth=args.bandwidth,
        worm_length=args.worm_length,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
    )
    try:
        t0 = time.perf_counter()
        tables = [
            exp_resilience.run_fault_sweep(**common),
            exp_resilience.run_model_sweep(
                max_rounds=args.max_rounds, repair=args.repair, **common
            ),
            exp_resilience.run_repair_ablation(
                max_rounds=args.max_rounds, **common
            ),
        ]
        rendered = "\n\n".join(t.format() for t in tables)
        print(rendered)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
            print(f"\nwrote fault-sweep tables to {args.out}")
        elapsed = time.perf_counter() - t0
        if writer is not None:
            if profiler is not None:
                from repro.observability import write_profile

                write_profile(writer, profiler)
            writer.write_summary(tables=len(tables), elapsed=elapsed)
        if ledger is not None:
            run_id = _record_cli_run(
                ledger,
                kind="experiment",
                workload=f"faults_sweep(side={args.side}, d={args.d})",
                args=args,
                wall=elapsed,
                metrics=metrics,
                profiler=profiler,
                fault_model="sweep",
                summary={"tables": len(tables), "repair": args.repair},
            )
            print(f"recorded run {run_id} in ledger {ledger.path}")
    finally:
        _close_sinks(args, metrics, writer, exporter)
        _render_profiler(args, profiler)
        if ledger is not None:
            ledger.close()
    return 0


def _cmd_faults_replay(args) -> int:
    from repro.core.protocol import route_collection
    from repro.experiments.workloads import mesh_random_function
    from repro.faults import ScriptedFaults

    model = ScriptedFaults.from_json(args.schedule)
    coll = mesh_random_function(args.side, args.d, rng=args.seed)
    print(
        f"replaying scripted faults from {args.schedule} on "
        f"mesh{(args.side,) * args.d}: {coll!r} (repair={args.repair})"
    )
    metrics, writer, exporter = _open_sinks(args)
    if writer is not None:
        writer.write_manifest(
            command="faults replay",
            schedule=args.schedule,
            seed=args.seed,
            repair=args.repair,
        )
    try:
        result = route_collection(
            coll,
            bandwidth=args.bandwidth,
            worm_length=args.worm_length,
            faults=model,
            repair=args.repair,
            max_rounds=args.max_rounds,
            rng=args.seed,
            metrics=metrics,
            trace=writer,
        )
        if writer is not None:
            writer.write_summary(rounds=result.rounds)
    finally:
        _close_sinks(args, metrics, writer, exporter)
    status = "completed" if result.completed else "STALLED"
    print(
        f"{status} in {result.rounds} rounds / {result.total_time} steps; "
        f"{sum(rec.faulted for rec in result.records)} fault hit(s), "
        f"{len(result.repairs)} repair(s)"
    )
    _print_fault_outcome(result)
    return 1 if not result.completed else 0


def _cmd_scenario_list(_args) -> int:
    from repro.scenarios import SCENARIO_REGISTRY, scenario_names

    names = scenario_names()
    width = max(len(n) for n in names)
    print("available streaming scenarios (see docs/SCENARIOS.md):\n")
    for name in names:
        print(f"  {name.ljust(width)}  {SCENARIO_REGISTRY[name].description}")
    print(
        "\nrun one with 'repro scenario run --scenario NAME', or a custom "
        "JSON spec with '--spec FILE.json'"
    )
    return 0


def _make_watcher(args, windows: list):
    """The ``--watch`` window callback: live dashboard or one row per window.

    On a TTY the whole sparkline dashboard redraws in place (ANSI clear);
    otherwise (pipes, CI logs) each window appends one stat row. With
    ``--json`` the rows go to stderr so stdout stays one JSON object.
    """
    from repro.observability import format_window, render_windows

    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    interactive = out.isatty()

    def on_window(window: dict) -> None:
        windows.append(window)
        if interactive:
            out.write("\x1b[2J\x1b[H" + render_windows(windows) + "\n")
        else:
            out.write(format_window(window) + "\n")
        out.flush()

    return on_window


def _cmd_scenario_run(args) -> int:
    from repro.scenarios import ScenarioSpec, get_scenario, run_scenario

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = ScenarioSpec.from_json(fh.read())
    else:
        spec = get_scenario(args.scenario)
    watch = getattr(args, "watch", False)
    snapshot_every = getattr(args, "snapshot_every", None)
    if watch and snapshot_every is None and spec.snapshot_every is None:
        snapshot_every = 8  # watching needs windows; pick a sane default
    windows: list = []
    on_window = _make_watcher(args, windows) if watch else None
    metrics, writer, exporter = _open_sinks(args)
    profiler = _open_profiler(args)
    ledger = _open_ledger(args)
    if writer is not None:
        writer.write_manifest(
            command="scenario run",
            scenario=spec.name,
            seed=args.seed,
            rounds=args.rounds if args.rounds is not None else spec.rounds,
        )
    try:
        t0 = time.perf_counter()
        result = run_scenario(
            spec, seed=args.seed, metrics=metrics, trace=writer,
            rounds=args.rounds, snapshot_every=snapshot_every,
            on_window=on_window, ledger=ledger,
        )
        elapsed = time.perf_counter() - t0
        if writer is not None:
            if profiler is not None:
                from repro.observability import write_profile

                write_profile(writer, profiler)
            writer.write_summary(**result.snapshot())
    finally:
        _close_sinks(args, metrics, writer, exporter)
        _render_profiler(args, profiler)
        if ledger is not None:
            print(
                f"recorded scenario run in ledger {ledger.path}",
                file=sys.stderr if args.json else sys.stdout,
            )
            ledger.close()
    snap = result.snapshot()
    if args.json:
        payload = dict(snap)
        if metrics is not None:
            # --json always enables the registry (see _open_sinks), so the
            # one-line summary carries the full final metrics snapshot.
            payload["metrics"] = metrics.snapshot()
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"scenario {spec.name!r}: {snap['rounds']} rounds / "
            f"{snap['total_time']} steps in {elapsed:.1f}s"
        )
        print(
            f"  offered {snap['offered']}, admitted {snap['admitted']}, "
            f"acked {snap['acked']}, rejected {snap['rejected']}, "
            f"expired {snap['expired']}"
        )
        print(
            f"  throughput {snap['throughput']:.4f} worms/step, "
            f"drop rate {snap['drop_rate']:.3f}, "
            f"drained: {snap['drained']}"
        )
        if snap["latency_p50"] is not None:
            print(
                f"  admission latency (rounds): p50 {snap['latency_p50']:.0f}, "
                f"p95 {snap['latency_p95']:.0f}, p99 {snap['latency_p99']:.0f}"
            )
    # Exit code reflects admission health: shedding more than the
    # allowed fraction of offered load (or acking nothing despite
    # offers) fails CI smoke runs.
    healthy = snap["drop_rate"] <= args.max_drop_rate and (
        snap["acked"] > 0 or snap["offered"] == 0
    )
    if not healthy:
        print(
            f"UNHEALTHY: drop rate {snap['drop_rate']:.3f} exceeds "
            f"--max-drop-rate {args.max_drop_rate} (or nothing was acked)",
            file=sys.stderr,
        )
    return 0 if healthy else 1


def _cmd_bench_compare(args) -> int:
    from repro.observability.benchcmp import (
        DEFAULT_THRESHOLD,
        compare_benchmarks,
        render_comparison,
    )

    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    deltas = compare_benchmarks(
        args.baseline, args.candidate, threshold=threshold
    )
    print(render_comparison(deltas, threshold=threshold))
    regressed = [d.backend for d in deltas if d.regressed]
    if regressed:
        print(
            f"REGRESSION: backend(s) {', '.join(regressed)} exceeded "
            f"x{threshold:.2f} on round_seconds_median",
            file=sys.stderr,
        )
        return 1
    return 0


def _runs_ledger(args):
    """The ledger a ``repro runs`` subcommand queries (default path)."""
    from repro.observability import RunLedger

    return RunLedger(args.ledger)


def _runs_filters(args) -> dict:
    """The shared ``repro runs`` history filters as keyword arguments."""
    return {
        "kind": getattr(args, "kind", None),
        "workload": getattr(args, "workload", None),
        "backend": getattr(args, "runs_backend", None),
        "fault_model": getattr(args, "fault_model", None),
        "scenario": getattr(args, "scenario", None),
    }


def _cmd_runs_list(args) -> int:
    with _runs_ledger(args) as ledger:
        records = ledger.runs(limit=args.limit, **_runs_filters(args))
        path = ledger.path
    if not records:
        print(f"no matching runs in {path} (record some with --ledger)")
        return 0
    print(f"{len(records)} run(s) in {path} (oldest first):\n")
    for r in records:
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(r.started_unix)
        )
        what = r.scenario or r.workload or "-"
        print(
            f"  {r.run_id}  {when}  {r.kind:<10} {(r.backend or '-'):<10} "
            f"{r.wall_seconds:9.3f}s  {what}"
        )
    print("\ninspect one with 'repro runs show REF' (REF: id prefix, "
          "latest, latest~N)")
    return 0


def _cmd_runs_show(args) -> int:
    with _runs_ledger(args) as ledger:
        record = ledger.get(args.ref)
    payload = record.to_dict()
    if not args.full:
        for heavy in ("metrics", "spans", "groups"):
            if payload.get(heavy):
                payload[heavy] = (
                    f"<{len(payload[heavy])} entries; rerun with --full>"
                )
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_runs_compare(args) -> int:
    from repro.observability import compare_runs, render_comparison
    from repro.observability.benchcmp import DEFAULT_THRESHOLD

    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    with _runs_ledger(args) as ledger:
        delta = compare_runs(
            ledger, args.baseline, args.candidate, threshold=threshold
        )
    print(f"baseline:  {delta.baseline.meta.get('run_id')}")
    print(f"candidate: {delta.candidate.meta.get('run_id')}")
    print(render_comparison([delta], threshold=threshold))
    if delta.regressed:
        print(
            f"REGRESSION: {delta.metric} grew x{delta.ratio:.2f} "
            f"(threshold x{threshold:.2f})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_runs_groups(args) -> int:
    from repro.observability import parse_group_key

    with _runs_ledger(args) as ledger:
        stats = ledger.group_history(**_runs_filters(args))
    snap = stats.snapshot()
    if args.json:
        print(json.dumps(snap, sort_keys=True))
        return 0
    if not snap:
        print("no grouped history yet (record runs with --ledger first)")
        return 0

    def fmt(v) -> str:
        return "n/a" if v is None else f"{v:.4g}"

    for key, fields in snap.items():
        labels = parse_group_key(key)
        desc = ", ".join(f"{k}={v}" for k, v in labels.items() if v)
        print(f"group [{desc or 'unlabelled'}]:")
        for name, data in fields.items():
            mean = data["sum"] / data["count"] if data["count"] else 0.0
            print(
                f"  {name:>12}: n={data['count']} mean={fmt(mean)} "
                f"p50={fmt(data['p50'])} p95={fmt(data['p95'])} "
                f"p99={fmt(data['p99'])} min={fmt(data['min'])} "
                f"max={fmt(data['max'])}"
            )
    return 0


def _cmd_runs_gc(args) -> int:
    if args.keep is None and args.older_than_days is None:
        raise ReproError("runs gc needs --keep and/or --older-than-days")
    before = (
        time.time() - args.older_than_days * 86400.0
        if args.older_than_days is not None
        else None
    )
    with _runs_ledger(args) as ledger:
        removed = ledger.gc(keep=args.keep, before=before, kind=args.kind)
        remaining = len(ledger.runs())
        path = ledger.path
    print(f"removed {removed} run(s) from {path}; {remaining} remain")
    return 0


def _sweep_options(args):
    """The :class:`~repro.sweep.SweepOptions` behind the sweep flags.

    ``--chaos SPEC`` wins over ``$REPRO_CHAOS``; both absent means no
    chaos harness.
    """
    from repro.faults import chaos_from_env, parse_chaos_spec
    from repro.sweep import SweepOptions

    spec = getattr(args, "chaos", None)
    chaos = parse_chaos_spec(spec) if spec is not None else chaos_from_env()
    return SweepOptions(
        workers=0 if getattr(args, "serial", False) else args.workers,
        lease_timeout=args.lease_timeout,
        heartbeat_interval=args.heartbeat_interval,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        backoff_seed=args.backoff_seed,
        chaos=chaos,
    )


def _sweep_plan(args):
    """The plan a ``sweep run`` executes: ``--plan FILE`` or flag-built."""
    from repro.sweep import SweepPlan, default_plan

    if args.plan:
        return SweepPlan.load(args.plan)
    faults = tuple(
        None if spec.strip().lower() in ("", "none") else spec.strip()
        for spec in args.faults.split(";")
    )
    return default_plan(
        name=args.name,
        side=args.side,
        d=args.d,
        trials=args.trials,
        shard_size=args.shard_size,
        seed=args.seed,
        bandwidth=args.bandwidth,
        worm_length=args.worm_length,
        max_rounds=args.max_rounds,
        faults=faults,
        backend=args.backend,
    )


def _print_sweep_report(args, report) -> int:
    """Render a sweep report; exit 3 = completed with quarantined shards."""
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        counts = report.counts
        states = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        print(
            f"sweep '{report.name}' [{sum(counts.values())} shard(s)]: "
            f"{states or 'empty'}"
        )
        print(
            f"trials: {report.completed}/{report.trials} routed to "
            "completion"
        )
        if report.merged_path:
            print(f"merged grouped stats: {report.merged_path}")
        if report.quarantined:
            print(
                f"QUARANTINED shard(s) {report.quarantined}: each failed "
                "its whole attempt budget; inspect hb/shard-*.err under "
                "the sweep dir, then 'repro sweep retry-quarantined "
                f"--dir {args.dir}'",
                file=sys.stderr,
            )
    return 3 if report.quarantined else 0


def _sweep_drive(args, mode: str) -> int:
    """Shared driver for ``sweep run|resume|retry-quarantined``."""
    from repro.sweep import SweepSupervisor

    metrics, writer, exporter = _open_sinks(args)
    profiler = _open_profiler(args)
    ledger = _open_ledger(args)
    if writer is not None:
        writer.write_manifest(command=f"sweep {mode}", dir=args.dir)
    try:
        supervisor = SweepSupervisor(args.dir, options=_sweep_options(args))
        if mode == "run":
            report = supervisor.start(_sweep_plan(args))
        elif mode == "resume":
            report = supervisor.resume()
        else:
            report = supervisor.retry_quarantined()
        if ledger is not None:
            run_id = supervisor.record(report, ledger)
            if not getattr(args, "json", False):
                print(f"recorded run {run_id} in ledger {ledger.path}")
        if writer is not None:
            if profiler is not None:
                from repro.observability import write_profile

                write_profile(writer, profiler)
            writer.write_summary(**report.counts)
        return _print_sweep_report(args, report)
    finally:
        _close_sinks(args, metrics, writer, exporter)
        _render_profiler(args, profiler)
        if ledger is not None:
            ledger.close()


def _cmd_sweep_run(args) -> int:
    return _sweep_drive(args, "run")


def _cmd_sweep_resume(args) -> int:
    return _sweep_drive(args, "resume")


def _cmd_sweep_retry(args) -> int:
    return _sweep_drive(args, "retry-quarantined")


def _cmd_sweep_status(args) -> int:
    from repro.sweep import SweepSupervisor

    report = SweepSupervisor(args.dir).status()
    return _print_sweep_report(args, report)


def _cmd_report(args) -> int:
    from repro.experiments.report import write_report

    metrics, writer, exporter = _open_sinks(args)
    if writer is not None:
        writer.write_manifest(command="report", results=args.results, out=args.out)
    try:
        t0 = time.perf_counter()
        sections = write_report(args.results, args.out)
        if writer is not None:
            writer.write_summary(
                sections=sections, elapsed=time.perf_counter() - t0
            )
    finally:
        _close_sinks(args, metrics, writer, exporter)
    print(f"wrote {args.out} with {sections} sections")
    return 0


def _cmd_trace_summary(args) -> int:
    from repro.observability import summarize_trace

    print(summarize_trace(_read_trace_arg(args.trace)))
    return 0


def _cmd_trace_timeline(args) -> int:
    from repro.errors import ObservabilityError
    from repro.observability import render_timeline, replay_rounds

    rounds = replay_rounds(_read_trace_arg(args.trace), trial=args.trial)
    if args.round is not None:
        rounds = [rr for rr in rounds if rr.round == args.round]
    if not rounds:
        raise ObservabilityError(
            f"{args.trace}: no flight-recorder rounds match "
            f"(trial={args.trial}, round={args.round}); record with "
            "'repro demo --flight --trace-out PATH' or flight=True"
        )
    print(
        "\n\n".join(
            render_timeline(rr, width=args.width, max_worms=args.max_worms)
            for rr in rounds
        )
    )
    return 0


def _cmd_trace_links(args) -> int:
    from repro.errors import ObservabilityError
    from repro.observability import link_stats, render_links, replay_rounds

    rounds = replay_rounds(_read_trace_arg(args.trace), trial=args.trial)
    if not rounds:
        raise ObservabilityError(
            f"{args.trace}: no flight-recorder rounds found; record with "
            "'repro demo --flight --trace-out PATH' or flight=True"
        )
    print(render_links(link_stats(rounds), top=args.top))
    return 0


def _cmd_trace_diff(args) -> int:
    from repro.observability import diff_traces

    diffs = diff_traces(_read_trace_arg(args.a), _read_trace_arg(args.b))
    if not diffs:
        print("traces are equivalent")
        return 0
    for line in diffs:
        print(line)
    print(f"\n{len(diffs)} difference(s)")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Flammini & Scheideler (SPAA 1997): "
        "trial-and-failure routing for all-optical networks.",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="opt into library logging on stderr at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        fn=_cmd_list
    )

    def _add_observability_flags(p) -> None:
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="enable the metrics registry and write its JSON snapshot here",
        )
        p.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help="write a structured JSONL run trace here",
        )
        # Same option as the root parser's, accepted after the subcommand
        # too; SUPPRESS keeps the root default when the flag is absent.
        p.add_argument(
            "--log-level",
            choices=["debug", "info", "warning", "error"],
            default=argparse.SUPPRESS,
            help="opt into library logging on stderr at this level",
        )

    def _add_live_flags(p) -> None:
        p.add_argument(
            "--prom-port",
            type=int,
            default=None,
            metavar="N",
            help="serve live Prometheus text metrics on 127.0.0.1:N/metrics "
            "while the run lasts (0 picks a free port)",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="span profiler: print an ASCII flame view of where the "
            "wall time went (and add a span_profile record to --trace-out)",
        )

    def _add_backend_flag(p) -> None:
        from repro.core.engine import BACKENDS

        p.add_argument(
            "--backend",
            choices=list(BACKENDS),
            default=None,
            help="backend label recorded with the run; the names are "
            "aliases that run the same code (see docs/PERFORMANCE.md)",
        )

    def _add_ledger_flag(p) -> None:
        p.add_argument(
            "--ledger",
            nargs="?",
            const="",
            default=None,
            metavar="PATH",
            help="record this run in the persistent run ledger (default "
            ".repro/ledger.db when PATH is omitted; query with 'repro runs')",
        )

    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument("--trials", type=int, default=5, help="trials per data point")
    run.add_argument("--seed", type=int, default=0, help="root RNG seed")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per sweep (results are seed-identical to "
        "--jobs 1; experiments without parallel support run serially)",
    )
    _add_observability_flags(run)
    _add_backend_flag(run)
    _add_live_flags(run)
    _add_ledger_flag(run)
    run.set_defaults(fn=_cmd_run)

    demo = sub.add_parser("demo", help="a 30-second protocol demo")
    _add_observability_flags(demo)
    _add_backend_flag(demo)
    demo.add_argument(
        "--flight",
        action="store_true",
        help="record per-worm flight events into --trace-out "
        "(analyse with 'repro trace')",
    )
    demo.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject faults: none | transient:rate=R | gilbert:p01=A,p10=B "
        "| persistent:rate=R | node:rate=R | ackloss:p=P | "
        "scripted:path=F.json (see docs/FAULTS.md)",
    )
    demo.add_argument(
        "--repair",
        choices=["none", "reroute"],
        default="none",
        help="reroute worms stranded on suspected-dead links",
    )
    demo.set_defaults(fn=_cmd_demo)

    faults = sub.add_parser(
        "faults", help="fault-injection sweeps and scripted replays"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    def _add_fault_workload_flags(p) -> None:
        p.add_argument("--side", type=int, default=8, help="mesh side length")
        p.add_argument("--d", type=int, default=2, help="mesh dimension")
        p.add_argument("--bandwidth", type=int, default=2, help="wavelengths B")
        p.add_argument("--worm-length", type=int, default=4, help="worm length L")
        p.add_argument(
            "--max-rounds", type=int, default=300, help="round budget per trial"
        )

    f_sweep = faults_sub.add_parser(
        "sweep",
        help="rate sweep + model comparison + repair ablation tables",
    )
    _add_fault_workload_flags(f_sweep)
    f_sweep.add_argument("--trials", type=int, default=5, help="trials per row")
    f_sweep.add_argument("--seed", type=int, default=0, help="root RNG seed")
    f_sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes per sweep"
    )
    f_sweep.add_argument(
        "--repair",
        choices=["none", "reroute"],
        default="none",
        help="repair mode for the model-comparison table",
    )
    f_sweep.add_argument(
        "--out", default=None, metavar="PATH", help="also write the tables here"
    )
    _add_observability_flags(f_sweep)
    _add_backend_flag(f_sweep)
    _add_live_flags(f_sweep)
    _add_ledger_flag(f_sweep)
    f_sweep.set_defaults(fn=_cmd_faults_sweep)

    f_replay = faults_sub.add_parser(
        "replay",
        help="run one execution under a scripted fault schedule "
        "(exit 1 if it stalls)",
    )
    f_replay.add_argument(
        "schedule", help="JSON fault schedule (see ScriptedFaults.from_json)"
    )
    _add_fault_workload_flags(f_replay)
    f_replay.add_argument("--seed", type=int, default=0, help="RNG seed")
    f_replay.add_argument(
        "--repair",
        choices=["none", "reroute"],
        default="none",
        help="reroute worms stranded on suspected-dead links",
    )
    _add_observability_flags(f_replay)
    _add_backend_flag(f_replay)
    f_replay.set_defaults(fn=_cmd_faults_replay)

    scenario = sub.add_parser(
        "scenario", help="streaming-traffic scenarios (see docs/SCENARIOS.md)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    s_list = scenario_sub.add_parser(
        "list", help="list the named scenario catalogue"
    )
    s_list.set_defaults(fn=_cmd_scenario_list)

    def _add_scenario_run_flags(p) -> None:
        p.add_argument(
            "--scenario",
            default="baseline",
            metavar="NAME",
            help="registry name from 'scenario list' (default: baseline)",
        )
        p.add_argument(
            "--spec",
            default=None,
            metavar="FILE.json",
            help="run a custom ScenarioSpec JSON file instead of a registry name",
        )
        p.add_argument("--seed", type=int, default=0, help="root RNG seed")
        p.add_argument(
            "--rounds",
            type=int,
            default=None,
            help="override the scenario's round horizon (bounds the run)",
        )
        p.add_argument(
            "--max-drop-rate",
            type=float,
            default=0.5,
            metavar="F",
            help="health threshold: exit 1 when drop rate exceeds this "
            "fraction of offered load (default 0.5)",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="print the metrics snapshot as one JSON object",
        )
        p.add_argument(
            "--snapshot-every",
            type=int,
            default=None,
            metavar="K",
            help="emit per-window stats (scenario_window trace records, "
            "window gauges) every K rounds",
        )
        _add_observability_flags(p)
        _add_backend_flag(p)
        _add_live_flags(p)
        _add_ledger_flag(p)

    s_run = scenario_sub.add_parser(
        "run",
        help="run one streaming scenario (exit 1 if admission is unhealthy)",
    )
    _add_scenario_run_flags(s_run)
    s_run.add_argument(
        "--watch",
        action="store_true",
        help="render window snapshots live: a refreshing sparkline "
        "dashboard on a TTY, one stat row per window otherwise",
    )
    s_run.set_defaults(fn=_cmd_scenario_run)

    s_watch = scenario_sub.add_parser(
        "watch",
        help="run a scenario with the live window dashboard "
        "(same as 'scenario run --watch')",
    )
    _add_scenario_run_flags(s_watch)
    s_watch.set_defaults(fn=_cmd_scenario_run, watch=True)

    bench = sub.add_parser(
        "bench", help="benchmark utilities (compare saved BENCH_engine.json)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    b_compare = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_engine.json files with per-stage attribution "
        "(exit 1 past the regression threshold)",
    )
    b_compare.add_argument("baseline", help="baseline benchmark JSON")
    b_compare.add_argument("candidate", help="candidate benchmark JSON")
    b_compare.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="X",
        help="flag a backend whose round median grew by more than this "
        "factor (default 1.25)",
    )
    b_compare.set_defaults(fn=_cmd_bench_compare)

    runs = sub.add_parser(
        "runs", help="query the persistent run ledger (see --ledger)"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _add_runs_ledger_flag(p) -> None:
        p.add_argument(
            "--ledger",
            default=None,
            metavar="PATH",
            help="ledger path (default .repro/ledger.db; .jsonl/.ndjson "
            "selects the append-only JSONL backend)",
        )

    def _add_runs_filter_flags(p) -> None:
        p.add_argument(
            "--kind",
            choices=["trials", "scenario", "bench", "experiment", "sweep"],
            default=None,
            help="only runs of this kind",
        )
        p.add_argument(
            "--workload", default=None, help="only this workload label"
        )
        p.add_argument(
            "--backend",
            dest="runs_backend",
            default=None,
            help="only this engine backend",
        )
        p.add_argument(
            "--fault-model", default=None, help="only this fault-model label"
        )
        p.add_argument(
            "--scenario", default=None, help="only this scenario name"
        )

    r_list = runs_sub.add_parser("list", help="list recorded runs")
    _add_runs_ledger_flag(r_list)
    _add_runs_filter_flags(r_list)
    r_list.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show only the most recent N matching runs",
    )
    r_list.set_defaults(fn=_cmd_runs_list)

    r_show = runs_sub.add_parser(
        "show", help="print one recorded run as JSON"
    )
    r_show.add_argument(
        "ref", help="run reference: id (or unique prefix), latest, latest~N"
    )
    r_show.add_argument(
        "--full",
        action="store_true",
        help="include the full metrics/span/grouped-stats snapshots",
    )
    _add_runs_ledger_flag(r_show)
    r_show.set_defaults(fn=_cmd_runs_show)

    r_compare = runs_sub.add_parser(
        "compare",
        help="diff two runs -- or one run against its grouped history "
        "baseline -- with per-stage attribution (exit 1 past the "
        "regression threshold)",
    )
    r_compare.add_argument(
        "baseline", help="baseline run reference (or, with no candidate, "
        "the run to judge against its history)"
    )
    r_compare.add_argument(
        "candidate",
        nargs="?",
        default=None,
        help="candidate run reference; omit to compare 'baseline' against "
        "the median of its (kind, workload, backend, fault-model, "
        "scenario) history",
    )
    r_compare.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="X",
        help="flag a regression when the headline metric grew by more "
        "than this factor (default 1.25)",
    )
    _add_runs_ledger_flag(r_compare)
    r_compare.set_defaults(fn=_cmd_runs_compare)

    r_groups = runs_sub.add_parser(
        "groups",
        help="bounded-memory grouped history: per (workload, backend, "
        "fault-model, scenario) counts, means and p50/p95/p99",
    )
    _add_runs_ledger_flag(r_groups)
    _add_runs_filter_flags(r_groups)
    r_groups.add_argument(
        "--json",
        action="store_true",
        help="print the merged grouped-stats snapshot as one JSON object",
    )
    r_groups.set_defaults(fn=_cmd_runs_groups)

    r_gc = runs_sub.add_parser(
        "gc", help="delete old runs from the ledger"
    )
    _add_runs_ledger_flag(r_gc)
    r_gc.add_argument(
        "--keep",
        type=int,
        default=None,
        metavar="N",
        help="retain only the most recent N runs (per --kind when given)",
    )
    r_gc.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        metavar="D",
        help="delete runs started more than D days ago",
    )
    r_gc.add_argument(
        "--kind",
        choices=["trials", "scenario", "bench", "experiment", "sweep"],
        default=None,
        help="restrict gc to runs of this kind",
    )
    r_gc.set_defaults(fn=_cmd_runs_gc)

    sweep = sub.add_parser(
        "sweep",
        help="crash-tolerant sharded sweeps with worker supervision "
        "(see docs/SWEEPS.md)",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def _add_sweep_dir_flag(p) -> None:
        p.add_argument(
            "--dir",
            required=True,
            metavar="PATH",
            help="sweep state directory (plan, journal, checkpoints, "
            "results, merged stats)",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="print the report as one JSON object",
        )

    def _add_sweep_supervision_flags(p) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=2,
            help="concurrent shard worker processes",
        )
        p.add_argument(
            "--serial",
            action="store_true",
            help="run every shard in-process (the bit-identity reference "
            "mode; same as --workers 0)",
        )
        p.add_argument(
            "--lease-timeout",
            type=float,
            default=5.0,
            metavar="SECONDS",
            help="heartbeat staleness after which a worker is presumed "
            "dead, SIGKILLed, and its shard retried",
        )
        p.add_argument(
            "--heartbeat-interval",
            type=float,
            default=0.2,
            metavar="SECONDS",
            help="how often workers refresh their liveness file",
        )
        p.add_argument(
            "--max-attempts",
            type=int,
            default=3,
            help="attempts per shard before quarantine",
        )
        p.add_argument(
            "--backoff-base",
            type=float,
            default=0.05,
            metavar="SECONDS",
            help="first retry delay (doubles per attempt, plus "
            "deterministic jitter)",
        )
        p.add_argument(
            "--backoff-cap",
            type=float,
            default=1.0,
            metavar="SECONDS",
            help="retry delay ceiling",
        )
        p.add_argument(
            "--backoff-seed",
            type=int,
            default=0,
            help="seed of the (dedicated) retry-jitter hash stream",
        )
        p.add_argument(
            "--chaos",
            default=None,
            metavar="SPEC",
            help="chaos harness, e.g. kill_after=2,drop=1,poison=0+3 "
            "(default $REPRO_CHAOS; see docs/SWEEPS.md)",
        )

    s_run = sweep_sub.add_parser(
        "run",
        help="start a new sweep (exit 3 = completed with quarantined "
        "shards)",
    )
    _add_sweep_dir_flag(s_run)
    s_run.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="sweep plan JSON (omit to build one from the flags below)",
    )
    s_run.add_argument("--name", default="mesh-sweep", help="plan name")
    s_run.add_argument("--side", type=int, default=4, help="mesh side length")
    s_run.add_argument("--d", type=int, default=2, help="mesh dimension")
    s_run.add_argument(
        "--trials", type=int, default=8, help="trials per config"
    )
    s_run.add_argument(
        "--shard-size",
        type=int,
        default=4,
        help="trials per shard (the retry/checkpoint granularity)",
    )
    s_run.add_argument("--seed", type=int, default=0, help="root RNG seed")
    s_run.add_argument("--bandwidth", type=int, default=2, help="wavelengths B")
    s_run.add_argument(
        "--worm-length", type=int, default=4, help="worm length L"
    )
    s_run.add_argument(
        "--max-rounds", type=int, default=400, help="round budget per trial"
    )
    s_run.add_argument(
        "--faults",
        default="none;transient:rate=0.02",
        metavar="SPECS",
        help="';'-separated fault specs, one sweep config per spec "
        "('none' = fault-free; see docs/FAULTS.md)",
    )
    _add_sweep_supervision_flags(s_run)
    _add_observability_flags(s_run)
    _add_backend_flag(s_run)
    _add_live_flags(s_run)
    _add_ledger_flag(s_run)
    s_run.set_defaults(fn=_cmd_sweep_run)

    s_status = sweep_sub.add_parser(
        "status", help="report a sweep directory's journal state"
    )
    _add_sweep_dir_flag(s_status)
    s_status.set_defaults(fn=_cmd_sweep_status)

    def _add_sweep_continue_parser(name: str, help_text: str, fn):
        p = sweep_sub.add_parser(name, help=help_text)
        _add_sweep_dir_flag(p)
        _add_sweep_supervision_flags(p)
        _add_observability_flags(p)
        _add_backend_flag(p)
        _add_live_flags(p)
        _add_ledger_flag(p)
        p.set_defaults(fn=fn)
        return p

    _add_sweep_continue_parser(
        "resume",
        "continue a sweep after a crashed or killed supervisor",
        _cmd_sweep_resume,
    )
    _add_sweep_continue_parser(
        "retry-quarantined",
        "give quarantined shards a fresh attempt budget and supervise",
        _cmd_sweep_retry,
    )

    report = sub.add_parser(
        "report", help="aggregate benchmarks/results into one markdown report"
    )
    report.add_argument(
        "--results", default="benchmarks/results", help="saved-tables directory"
    )
    report.add_argument(
        "--out", default="REPRODUCTION_REPORT.md", help="output markdown path"
    )
    _add_observability_flags(report)
    report.set_defaults(fn=_cmd_report)

    trace = sub.add_parser(
        "trace", help="analyse a saved JSONL run trace (.jsonl or .jsonl.gz)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    t_summary = trace_sub.add_parser(
        "summary",
        help="overview: manifest, record counts, replay verification, hot-spots",
    )
    t_summary.add_argument("trace", help="trace path")
    t_summary.set_defaults(fn=_cmd_trace_summary)

    t_timeline = trace_sub.add_parser(
        "timeline", help="ASCII per-worm timeline of replayed round(s)"
    )
    t_timeline.add_argument("trace", help="trace path (needs flight events)")
    t_timeline.add_argument(
        "--trial", type=int, default=None, help="restrict to one trial"
    )
    t_timeline.add_argument(
        "--round", type=int, default=None, help="restrict to one round index"
    )
    t_timeline.add_argument(
        "--width", type=int, default=72, help="timeline width in columns"
    )
    t_timeline.add_argument(
        "--max-worms", type=int, default=32, help="rows per round before eliding"
    )
    t_timeline.set_defaults(fn=_cmd_trace_timeline)

    t_links = trace_sub.add_parser(
        "links", help="per-link utilization heatmap and contention ranking"
    )
    t_links.add_argument("trace", help="trace path (needs flight events)")
    t_links.add_argument(
        "--trial", type=int, default=None, help="restrict to one trial"
    )
    t_links.add_argument(
        "--top", type=int, default=20, help="links shown, busiest first"
    )
    t_links.set_defaults(fn=_cmd_trace_links)

    t_diff = trace_sub.add_parser(
        "diff", help="material differences between two traces (exit 1 if any)"
    )
    t_diff.add_argument("a", help="first trace path")
    t_diff.add_argument("b", help="second trace path")
    t_diff.set_defaults(fn=_cmd_trace_diff)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        from repro.observability import configure_logging

        configure_logging(args.log_level)
    if getattr(args, "backend", None):
        # Process default rather than per-call plumbing: every engine the
        # subcommand builds (and, via the pool initializer, every worker
        # process) picks it up.
        from repro.core.engine import set_default_backend

        set_default_backend(args.backend)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
