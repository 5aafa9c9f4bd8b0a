"""Append one sample to ``BENCH_engine.json``: the engine perf time-series.

Where :mod:`benchmarks.engine_baseline` writes a full one-off snapshot
under ``benchmarks/results/``, this script maintains a *time series* at
the repository root: every invocation measures the same E-T16-sized
workload (random function on the 16x16 mesh) and appends one
schema-versioned sample::

    {
      "benchmark": "engine_series",
      "schema": 1,
      "samples": [
        {"schema": 1, "taken_unix": ..., "git_rev": ..., "python": ...,
         "cpu_count": ..., "workload": ..., "worms": ...,
         "events_per_round": ..., "round_seconds_median": ...,
         "round_seconds_best": ..., "events_per_second": ...,
         "stages": {"build_events": ..., "resolve": ..., "finalise": ...},
         "trials_per_second_serial": ...},
        ...
      ]
    }

Stage means come from the span profiler
(:mod:`repro.observability.spans`, paths ``engine.round/engine.*``), so
a slowdown points at a stage instead of "the engine got slower". Every
invocation records one sample per backend name
(``"backend": "python" | "vectorized" | "batched"``; samples predating
the field are python ones). The engine rounds run one kernel under
every name; the trial figures differ for ``"batched"``, which runs
lockstep trial slices. Each new sample is compared against
the most recent previous sample *with the same backend* and the script
exits non-zero on a >25% ``round_seconds_median`` slowdown (the CI
gate); samples are appended either way, so the series keeps recording
even across regressions. Absolute numbers are only comparable on the
same host -- CI runners and laptops differ, and on a single-CPU host the
pooled-trials figures cannot beat serial -- which is why the gate is
relative to the previous sample, not to a fixed budget. Run via ``make
bench-series`` or ``python benchmarks/bench_series.py``; tune with
``--threshold`` or skip the gate with ``--no-check``.

``--ledger PATH`` additionally records each sample as one
``kind="bench"`` row in the persistent run ledger
(:mod:`repro.observability.ledger`), which is the preferred query
surface going forward: ``repro runs list --kind bench`` / ``repro runs
compare`` replace ad-hoc BENCH_engine.json parsing (the JSON write
stays for schema compatibility, but new consumers should read the
ledger). ``REPRO_BENCH_SLEEP`` (seconds, float) injects a deterministic
per-round sleep into the timed loop -- a test/CI hook for exercising
the regression gate with a synthetic slowdown.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

SERIES_SCHEMA = 1
DEFAULT_SERIES = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"
DEFAULT_THRESHOLD = 1.25

SIDE = 16
DIM = 2
BANDWIDTH = 2
WORM_LENGTH = 4
ROUND_REPEATS = 15
TRIALS = 8


def collect_sample(backend: str = "python") -> dict:
    """Measure one series sample on the canonical workload."""
    import numpy as np

    from repro.core.engine import RoutingEngine
    from repro.experiments.workloads import mesh_random_function
    from repro.observability import MetricsRegistry, SpanProfiler, git_revision
    from repro.optics.coupler import CollisionRule
    from repro.runners import route_collection_trials
    from repro.worms.worm import Launch, make_worms

    registry = MetricsRegistry()
    profiler = SpanProfiler()
    coll = mesh_random_function(SIDE, DIM, rng=0)
    worms = make_worms(coll.paths, WORM_LENGTH)
    rng = np.random.default_rng(0)
    delays = rng.integers(0, 4 * coll.path_congestion, size=coll.n)
    wls = rng.integers(0, BANDWIDTH, size=coll.n)
    launches = [
        Launch(worm=i, delay=int(delays[i]), wavelength=int(wls[i]))
        for i in range(coll.n)
    ]
    engine = RoutingEngine(
        worms,
        CollisionRule.SERVE_FIRST,
        metrics=registry,
        profiler=profiler,
    )
    events = sum(w.n_links for w in worms)

    engine.run_round(launches, collect_collisions=False)  # warm-up
    registry.reset()
    profiler.reset()
    # CI hook: a deterministic synthetic slowdown for gate smoke tests.
    bench_sleep = float(os.environ.get("REPRO_BENCH_SLEEP", "0") or 0)
    timings = []
    for _ in range(ROUND_REPEATS):
        t0 = time.perf_counter()
        if bench_sleep > 0:
            time.sleep(bench_sleep)
        engine.run_round(launches, collect_collisions=False)
        timings.append(time.perf_counter() - t0)

    spans = profiler.snapshot()
    stages = {}
    for stage in ("build_events", "resolve", "finalise"):
        span = spans[f"engine.round/engine.{stage}"]
        stages[stage] = span["total"] / span["count"]

    # Warm-up (same spirit as the round warm-up above): first-touch
    # costs -- the collection's cached sharing bitsets, allocator pools --
    # belong to neither backend's steady-state throughput.
    route_collection_trials(
        coll, bandwidth=BANDWIDTH, trials=2,
        worm_length=WORM_LENGTH, seed=0, jobs=1, backend=backend,
    )
    t0 = time.perf_counter()
    route_collection_trials(
        coll, bandwidth=BANDWIDTH, trials=TRIALS,
        worm_length=WORM_LENGTH, seed=0, jobs=1, backend=backend,
    )
    t_serial = time.perf_counter() - t0

    best = min(timings)
    return {
        "schema": SERIES_SCHEMA,
        "backend": backend,
        "taken_unix": time.time(),
        "git_rev": git_revision(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "workload": f"mesh_random_function({SIDE}, {DIM})",
        "worms": coll.n,
        "events_per_round": events,
        "round_seconds_median": statistics.median(timings),
        "round_seconds_best": best,
        "events_per_second": events / best,
        "stages": stages,
        "trials_per_second_serial": TRIALS / t_serial,
    }


def load_series(path: str | pathlib.Path) -> dict:
    """Read the series file, or a fresh empty series when absent."""
    path = pathlib.Path(path)
    if not path.is_file():
        return {"benchmark": "engine_series", "schema": SERIES_SCHEMA, "samples": []}
    series = json.loads(path.read_text(encoding="utf-8"))
    if series.get("benchmark") != "engine_series":
        raise ValueError(f"{path} is not an engine_series file")
    if series.get("schema") != SERIES_SCHEMA:
        raise ValueError(
            f"{path}: series schema {series.get('schema')} != "
            f"supported {SERIES_SCHEMA}"
        )
    return series


def check_regression(
    series: dict, sample: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Gate failures for ``sample`` against its backend's last sample.

    Compares ``round_seconds_median`` (the stable aggregate; ``best`` is
    too noisy on shared CI hosts) against the most recent previous
    sample with the same ``backend`` (samples predating the field count
    as python). No prior sample for the backend passes trivially.
    """
    backend = sample.get("backend", "python")
    previous = None
    for candidate in reversed(series.get("samples", [])):
        if candidate.get("backend", "python") == backend:
            previous = candidate
            break
    if previous is None:
        return []
    before = previous["round_seconds_median"]
    now = sample["round_seconds_median"]
    if before > 0 and now > threshold * before:
        return [
            f"round_seconds_median regressed {now / before:.2f}x "
            f"({before:.6f}s -> {now:.6f}s, threshold {threshold:.2f}x, "
            f"previous git_rev {previous.get('git_rev')})"
        ]
    return []


def append_sample(path: str | pathlib.Path, sample: dict) -> dict:
    """Append ``sample`` to the series at ``path`` and rewrite the file."""
    path = pathlib.Path(path)
    series = load_series(path)
    series["samples"].append(sample)
    path.write_text(json.dumps(series, indent=2) + "\n", encoding="utf-8")
    return series


def record_sample(ledger, sample: dict, *, wall: float) -> str:
    """One ``kind="bench"`` ledger row for a measured series sample.

    The whole sample travels in ``summary`` (so ``round_seconds_median``
    and ``stages`` feed ``repro runs compare`` directly), plus a grouped
    reservoir of the headline for history quantiles.
    """
    from repro.observability import GroupedStats, RunRecord, fingerprint_of

    labels = {
        "workload": sample["workload"],
        "backend": sample["backend"],
        "fault_model": "none",
        "scenario": "",
    }
    groups = GroupedStats()
    groups.observe(
        labels,
        ("bench", sample["taken_unix"]),
        round_seconds_median=sample["round_seconds_median"],
        round_seconds_best=sample["round_seconds_best"],
    )
    return ledger.record(
        RunRecord(
            kind="bench",
            started_unix=sample["taken_unix"],
            wall_seconds=wall,
            workload=sample["workload"],
            backend=sample["backend"],
            fault_model="none",
            fingerprint=fingerprint_of(
                "engine_series", sample["workload"], sample["backend"]
            ),
            summary=dict(sample),
            groups=groups.snapshot(),
        )
    )


def main(argv: list[str] | None = None) -> int:
    """Measure, append, gate; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--out", default=str(DEFAULT_SERIES), help="series JSON path"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fail when median round time exceeds this multiple of the "
        "previous sample's (default 1.25)",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="append the sample without enforcing the regression gate",
    )
    parser.add_argument(
        "--ledger",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="also record each sample in the persistent run ledger "
        "(default .repro/ledger.db when PATH is omitted)",
    )
    args = parser.parse_args(argv)

    from repro.core.engine import BACKENDS

    ledger = None
    if args.ledger is not None:
        from repro.observability import RunLedger

        ledger = RunLedger(args.ledger or None)

    series_before = load_series(args.out)
    failures: list[str] = []
    trial_rates: dict[str, float] = {}
    for backend in BACKENDS:
        t_sample = time.perf_counter()
        sample = collect_sample(backend)
        sample_wall = time.perf_counter() - t_sample
        trial_rates[backend] = sample["trials_per_second_serial"]
        if ledger is not None:
            record_sample(ledger, sample, wall=sample_wall)
        if not args.no_check:
            # Each backend name gates against ITS previous sample, so
            # samples from before the one-kernel engine never mask a
            # regression.
            failures += check_regression(
                series_before, sample, threshold=args.threshold
            )
        series = append_sample(args.out, sample)
        print(
            f"sample {len(series['samples'])} [{backend}]: median round "
            f"{sample['round_seconds_median'] * 1e3:.2f}ms, "
            f"{sample['events_per_second']:.0f} events/s, "
            f"{sample['trials_per_second_serial']:.2f} trials/s "
            f"(git {sample['git_rev'] or 'n/a'})"
        )
    if trial_rates.get("vectorized") and trial_rates.get("batched"):
        print(
            f"batched/vectorized serial trial throughput: "
            f"{trial_rates['batched'] / trial_rates['vectorized']:.2f}x "
            f"({trial_rates['vectorized']:.2f} -> "
            f"{trial_rates['batched']:.2f} trials/s; lockstep batching "
            "amortises the sort kernel across the whole trial slice)"
        )
    print(f"appended to {args.out}")
    if ledger is not None:
        print(f"recorded {len(BACKENDS)} ledger row(s) in {ledger.path}")
        ledger.close()
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
