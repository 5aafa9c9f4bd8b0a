"""Benchmark entry point: end-to-end metrics, or the traced per-layer run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload trials-mesh32 --seed 1 --seconds 20 --trace 0

``--trace 0`` spreads the ``--seconds`` measuring window over
``SETUP_SAMPLES`` fresh child processes, run one after another. Each
child times its own set-up (interpreter start, ``import repro``, inputs,
one warm-up unit) and then runs units until its share of the window is
spent.

The host's speed drifts by a third and more within seconds, so raw
wall times of runs minutes apart do not compare. End-to-end times are
therefore scaled to a host on which a fixed pure-Python reference loop
takes ``REF_MS``. Each unit is scaled by the mean of the loop timed just
before and just after it in its child process. The loop is also timed in
the parent while no child runs, before and after each child; set-up is
scaled by the parent's loop before its child. If a child's loops run
more than ``CONTENTION_LIMIT`` slower than the parent's loops around it,
the program is slowing code beside it (a thread or a process pool left
busy, say), which per-unit scaling would cancel: that child's units are
then scaled by the parent's loops alone, and the run says so. Workloads
whose time is mostly waiting (``SCALE_TIMES = False``) report host wall
time. The raw host times and the loop times are printed above the
result.

``--trace 1`` runs one child that alternates untraced and traced units
and reports the per-layer roll-up. Every unit's output digest is checked
against ``expected_digests.json``. A seed not listed there only gets a
cross-configuration check, against the same inputs run through another
configuration of the program, and the run says so. A mismatch counts
the unit as failed and makes the command exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
and ``failed`` count units. Earlier lines describe the run and its
measurement environment. ``--record-digests N`` records the digests of
seeds ``0..N-1`` (of ``--workload`` only, when given) into the table.
"""

from __future__ import annotations

import os

#: Set before numpy can be imported anywhere in this process tree: the
#: default OpenBLAS pool busy-spins, and an unpinned hash seed changes
#: set and dict layouts from one process to the next.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "expected_digests.json"
SCRATCH = workloads.ROOT / ".perfbench_tmp"

#: Fresh child processes per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_SAMPLES = 4
#: Reference-loop time, in ms, of the host speed end-to-end times are scaled to.
REF_MS = 15.0
#: How much slower the loop may run beside the program than without it.
CONTENTION_LIMIT = 0.15
#: Layer coverage the traced roll-up must reach (share of traced wall).
COVERAGE_TARGET = 0.90
CHILD_TIMEOUT_S = 170


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment(workload: workloads.Workload) -> dict:
    """The measurement environment, recorded with every result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": workload.backend,
    }


def calibrate_ms() -> float:
    """Wall milliseconds of a fixed pure-Python reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return (time.perf_counter() - start) * 1000.0


def host_loop_ms() -> float:
    """Median of five reference loops: the host's current speed."""
    return statistics.median(calibrate_ms() for _ in range(5))


def timed_unit(workload: workloads.Workload, variant: int):
    """One unit from a freshly collected heap; returns (seconds, output)."""
    gc.collect()
    start = time.perf_counter()
    output = workload.unit(variant)
    return time.perf_counter() - start, output


# -- child processes ---------------------------------------------------------


def child_setup(args) -> tuple[workloads.Workload, list]:
    """Import, build inputs, run the warm-up unit; returns (workload, record)."""
    import repro  # noqa: F401  (part of what set-up measures)

    workload = workloads.make_workload(args.workload, args.seed, SCRATCH / str(os.getpid()))
    workload.setup()
    seconds, output = timed_unit(workload, 0)
    result = workload.summarise(output, 0)
    return workload, [0, seconds, result.digest, result.acked, result.attempted]


def child_measure(args) -> dict:
    """One ``--trace 0`` child: set-up, then units until the window closes."""
    workload, warmup = child_setup(args)
    setup_s = time.time() - args.t0
    try:
        units, calib = [], []
        variant = args.first_variant
        deadline = time.perf_counter() + args.seconds
        while not units or time.perf_counter() < deadline:
            variant = (variant + 1) % workload.VARIANTS
            calib.append(calibrate_ms())
            seconds, output = timed_unit(workload, variant)
            r = workload.summarise(output, variant)
            units.append([variant, seconds, r.digest, r.acked, r.attempted])
        calib.append(calibrate_ms())
        out = {
            "setup_s": setup_s,
            "warmup": warmup,
            "units": units,
            "variant": variant,
            "calib_ms": calib,
            "peak_rss_mb": peak_rss_mb(),
            "environment": environment(workload),
        }
        if args.reference:
            out["reference"] = workload.reference_digests()
        return out
    finally:
        workload.close()


def child_trace(args) -> dict:
    """The ``--trace 1`` child: alternate untraced and traced units."""
    from layers import LAYERS, LayerTracer, counter_total, span_self_total
    from repro.observability import metrics as metrics_mod, spans as spans_mod
    from repro.sweep import worker

    workload, warmup = child_setup(args)
    tracer = LayerTracer()
    profiler = spans_mod.SpanProfiler()
    registry = metrics_mod.MetricsRegistry()
    plain, traced, walls, calib, shard_s, supervise, units = [], [], [], [], [], [], [warmup]
    sweep = isinstance(workload, workloads.SweepMesh16W2)
    try:
        deadline = time.perf_counter() + args.seconds
        variant = 0
        while not traced or time.perf_counter() < deadline:
            variant = (variant + 1) % workload.VARIANTS
            calib.append(calibrate_ms())
            seconds, output = timed_unit(workload, variant)
            plain.append(seconds)
            r = workload.summarise(output, variant)
            units.append([variant, seconds, r.digest, r.acked, r.attempted])

            calib.append(calibrate_ms())
            gc.collect()
            spans_mod.enable_profiling(profiler)
            metrics_mod.enable_metrics(registry)
            tracer.install()
            try:
                journal_before = tracer.total_s["sweep.commit_json"]
                seconds, output = timed_unit(workload, variant)
                wall = seconds
                if sweep:
                    journal_s = tracer.total_s["sweep.commit_json"] - journal_before
                    # Forked workers never report back: run the same
                    # shards in process to split the work by layer.
                    pass_dir = workload.fresh_dir()
                    work = 0.0
                    for index in range(len(workload.plan.shards())):
                        start = time.perf_counter()
                        worker.execute_shard(workload.plan, index, pass_dir)
                        shard_s.append(time.perf_counter() - start)
                        work += shard_s[-1]
                    wall += work
                    supervise.append(seconds - work / workload.workers - journal_s)
                    shutil.rmtree(pass_dir, ignore_errors=True)
            finally:
                tracer.uninstall()
                spans_mod.disable_profiling()
                metrics_mod.disable_metrics()
            traced.append(seconds)
            walls.append(wall)
            r = workload.summarise(output, variant)
            units.append([variant, seconds, r.digest, r.acked, r.attempted])
        reference = workload.reference_digests() if args.reference else None
    finally:
        workload.close()

    n = len(traced)
    spans = profiler.snapshot()
    counters = registry.snapshot(kinds=("counter",))

    def count(name: str) -> float:
        return counter_total(counters, name) / n

    events = counter_total(counters, "engine_events_total")
    free = counter_total(counters, "engine_free_events_total")
    launched = counter_total(counters, "engine_worms_launched_total")
    path_calls = sum(v for k, v in tracer.calls.items() if k.startswith("paths."))
    attributed = tracer.attributed_s()
    per_layer = {
        "engine.self_s": (tracer.self_s["engine"] / n, "s"),
        "engine.build_events_s": (span_self_total(spans, "engine.build_events") / n, "s"),
        "engine.resolve_s": (span_self_total(spans, "engine.resolve") / n, "s"),
        "engine.finalise_s": (span_self_total(spans, "engine.finalise") / n, "s"),
        "engine.mutate_s": (tracer.total_s["engine.mutate"] / n, "s"),
        "engine.events": (events / n, "count"),
        "engine.contended_event_share": (1.0 - free / events if events else 0.0, "ratio"),
        "engine.delivery_yield": (
            counter_total(counters, "engine_delivered_total") / launched if launched else 0.0,
            "ratio",
        ),
        "protocol.self_s": (tracer.self_s["protocol"] / n, "s"),
        "protocol.rounds": (count("protocol_rounds_total") + count("scenario_rounds_total"), "count"),
        "paths.self_s": (tracer.self_s["paths"] / n, "s"),
        "paths.calls": (path_calls / n, "count"),
        "paths.oracle_s": (tracer.total_s["paths.oracle"] / n, "s"),
        "network.validate_s": (tracer.total_s["network.validate_path"] / n, "s"),
        "network.validate_calls": (tracer.calls["network.validate_path"] / n, "count"),
        "faults.repair_s": (tracer.total_s["faults.repair"] / n, "s"),
        "faults.repairs": (count("protocol_repairs_total"), "count"),
        "scenarios.self_s": (tracer.self_s["scenarios"] / n, "s"),
        "scenarios.admitted": (count("scenario_admitted_total"), "count"),
        "scenarios.dropped": (count("scenario_dropped_total"), "count"),
        "runners.self_s": (tracer.self_s["runners"] / n, "s"),
        "sweep.shard_s_p50": (statistics.median(shard_s) if shard_s else 0.0, "s"),
        "sweep.journal_commits": (tracer.calls["sweep.commit_json"] / n, "count"),
        "sweep.journal_s": (tracer.total_s["sweep.commit_json"] / n, "s"),
        "sweep.supervise_s": (statistics.median(supervise) if supervise else 0.0, "s"),
        # Filled in by the parent, which holds the expected digests.
        "failed_share": (None, "ratio"),
        "unattributed_s": ((sum(walls) - attributed) / n, "s"),
        "trace_overhead": (statistics.median(traced) / statistics.median(plain), "ratio"),
        "host.calib_ms": (statistics.median(calib), "ms"),
    }
    return {
        "units": units,
        "per_layer": {k: [v, u] for k, (v, u) in per_layer.items()},
        "layer_self_s": {layer: tracer.self_s[layer] / n for layer in LAYERS},
        "coverage": attributed / sum(walls),
        "traced_units": n,
        "environment": environment(workload),
        "reference": reference,
    }


# -- parent ------------------------------------------------------------------


class ChildFailed(RuntimeError):
    """A child process ended without a report."""


def load_table() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def expected_digests(workload: str, seed: int) -> list[str] | None:
    """The recorded digests of ``seed``'s unit inputs, if the table has them."""
    expected = load_table().get(workload, {}).get(str(seed))
    if expected is None:
        print(f"outputs check: seed {seed} is not in {DIGESTS.name}; its units are "
              f"checked only against the same inputs run through "
              f"{workloads.WORKLOADS[workload].REFERENCE}, which shares most of the "
              f"simulation code")
    return expected


def spawn_child(args, *, mode: str, seconds: float, first_variant: int, reference: bool) -> dict:
    """Run one child process to completion and parse its JSON report."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--child", mode,
        "--t0", repr(time.time()),
        "--first-variant", str(first_variant),
    ]
    if reference:
        cmd.append("--reference")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=workloads.ROOT
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{mode} child process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_units(units: list, expected: list[str]) -> int:
    """Number of units whose digest differs from the expected one."""
    return sum(1 for u in units if u[2] != expected[u[0]])


def acked_share(units: list, expected: list[str]) -> float:
    """Worms acknowledged over worms attempted, across ``units``.

    A unit whose outputs fail the digest check acknowledged nothing.
    """
    acked = sum(u[3] for u in units if u[2] == expected[u[0]])
    return acked / sum(u[4] for u in units)


def run_measure(args) -> dict:
    expected = expected_digests(args.workload, args.seed)
    reports = []
    variant = 0
    loop_ms = [host_loop_ms()]
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        report = spawn_child(
            args,
            mode="measure",
            seconds=args.seconds / SETUP_SAMPLES,
            first_variant=variant,
            reference=last and expected is None,
        )
        loop_ms.append(host_loop_ms())
        report["setup_loop_ms"] = loop_ms[-2]
        report["host_loop_ms"] = (loop_ms[-2] + loop_ms[-1]) / 2
        variant = report["variant"]
        reports.append(report)
    scale = workloads.WORKLOADS[args.workload].SCALE_TIMES
    result = aggregate(reports, expected or reports[-1]["reference"], scale=scale)
    raw = aggregate(reports, expected or reports[-1]["reference"], scale=False)["metrics"]
    timed = [u for r in reports for u in r["units"]]
    inside = [c for r in reports for c in r["calib_ms"]]
    print(f"workload {args.workload}: seed {args.seed}, {len(timed)} timed units in "
          f"{len(reports)} processes (one set-up sample each)")
    print(f"host wall time: worms_per_s {raw['worms_per_s']['value']:.1f}, unit_s_p50 "
          f"{raw['unit_s_p50']['value']:.4f} s, setup_s {raw['setup_s']['value']:.4f} s; "
          + (f"the metrics are scaled to a {REF_MS:g} ms reference loop" if scale
             else "the metrics are host wall time"))
    print(f"reference loop: {statistics.median(loop_ms):.2f} ms between processes "
          f"(range {min(loop_ms):.2f}-{max(loop_ms):.2f}), {statistics.median(inside):.2f} ms "
          f"beside the program")
    slowed = sum(contended(r) for r in reports)
    if scale and slowed:
        print(f"warning: in {slowed} of {len(reports)} processes the loop ran more than "
              f"{CONTENTION_LIMIT:.0%} slower beside the program than between processes; "
              f"their units are scaled by the loop between processes only")
    print("environment " + json.dumps(reports[0]["environment"], sort_keys=True))
    return result


def aggregate(reports: list[dict], expected: list[str], *, scale: bool) -> dict:
    """The end-to-end result of a run's child reports.

    Every unit, warm-ups included, is checked against ``expected``; a
    unit that fails the check acknowledged nothing, so its worms count
    against ``acked_share``. With ``scale``, times are scaled to the
    ``REF_MS`` loop as the module docstring describes.
    """
    timed = [u for r in reports for u in r["units"]]
    seconds = [
        u[1] * f for r in reports for u, f in zip(r["units"], unit_factors(r, scale))
    ]
    every = timed + [r["warmup"] for r in reports]
    failed = check_units(every, expected)
    acked = sum(u[3] for u in timed if u[2] == expected[u[0]])
    setup = [r["setup_s"] * (REF_MS / r["setup_loop_ms"] if scale else 1.0) for r in reports]
    return {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {
            "worms_per_s": {"value": acked / sum(seconds), "unit": "1/s"},
            "unit_s_p50": {"value": statistics.median(seconds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reports), "unit": "MB"},
            "acked_share": {"value": acked_share(timed, expected), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        },
    }


def contended(report: dict) -> bool:
    """Whether a child's loops ran slower beside the program than without it."""
    return statistics.median(report["calib_ms"]) > report["host_loop_ms"] * (1 + CONTENTION_LIMIT)


def unit_factors(report: dict, scale: bool) -> list[float]:
    """The factor each of a child's unit times is scaled by."""
    n = len(report["units"])
    if not scale:
        return [1.0] * n
    if contended(report):
        return [REF_MS / report["host_loop_ms"]] * n
    calib = report["calib_ms"]
    return [2 * REF_MS / (calib[i] + calib[i + 1]) for i in range(n)]


def run_trace(args) -> dict:
    expected = expected_digests(args.workload, args.seed)
    report = spawn_child(
        args, mode="trace", seconds=args.seconds, first_variant=0, reference=expected is None
    )
    expected = expected or report["reference"]
    units = report["units"]
    failed = check_units(units, expected)
    report["per_layer"]["failed_share"][0] = 1.0 - acked_share(units, expected)
    coverage = report["coverage"]
    print(f"workload {args.workload}: seed {args.seed}, {report['traced_units']} traced units")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print("layer self seconds per unit: " + ", ".join(
        f"{layer} {s:.4f}" for layer, s in report["layer_self_s"].items() if s
    ))
    verdict = "meets" if coverage >= COVERAGE_TARGET else "SHORTFALL, below"
    print(f"roll-up {args.workload}: layers account for {coverage:.1%} of traced wall "
          f"({verdict} the {COVERAGE_TARGET:.0%} target); unattributed "
          f"{report['per_layer']['unattributed_s'][0]:.4f} s per unit; trace overhead "
          f"{report['per_layer']['trace_overhead'][0]:.3f}x")
    return {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["per_layer"].items()},
    }


def record_digests(count: int, names: list[str]) -> None:
    """Record the benchmarked configuration's digests of seeds ``0..count-1``.

    Entries of other workloads are kept. The table is read again just
    before it is written, so runs recording different workloads can
    share it.
    """
    got: dict[str, dict[str, list[str]]] = {}
    for name in names:
        for seed in range(count):
            workload = workloads.make_workload(name, seed, SCRATCH / str(os.getpid()))
            try:
                workload.setup()
                got.setdefault(name, {})[str(seed)] = [
                    workload.summarise(workload.unit(v), v).digest
                    for v in range(workload.VARIANTS)
                ]
            finally:
                workload.close()
            print(f"{name} seed {seed}: recorded", flush=True)
    table = load_table()
    table.update(got)
    # One line per seed keeps the table readable in a diff.
    DIGESTS.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(digests)}"
            for seed, digests in sorted(table[name].items(), key=lambda kv: int(kv[0]))
        ) + "\n}"
        for name in sorted(table)
    ) + "\n}\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, metavar="N")
    parser.add_argument("--child", choices=("measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--first-variant", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record_digests is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.ensure_repro_importable()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.record_digests is not None:
        record_digests(args.record_digests, [args.workload] if args.workload else list(workloads.WORKLOADS))
        return 0
    if args.child is not None:
        body = child_measure(args) if args.child == "measure" else child_trace(args)
        print(json.dumps(body))
        return 0
    try:
        result = run_trace(args) if args.trace else run_measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
