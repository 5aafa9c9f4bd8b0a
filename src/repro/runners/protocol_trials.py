"""Picklable protocol trials: route one collection many times, in parallel.

The protocol layer's :func:`repro.core.protocol.route_collection` is a
pure function of ``(collection, config, seed)``, which makes a full
protocol execution the natural unit of parallel work. This module
provides the module-level trial callable the
:class:`~repro.runners.trial.TrialRunner` needs (closures cannot cross a
process boundary) plus the convenience entry point experiments, the CLI
and the benchmark harness share.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Callable

from repro.core.protocol import (
    ProtocolConfig,
    TrialAndFailureProtocol,
    run_protocol_batch,
)
from repro.core.records import ProtocolResult
from repro.observability.groupstats import GroupedStats
from repro.observability.ledger import RunLedger, RunRecord, fingerprint_of, stable_repr
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import get_profiler
from repro.optics.coupler import CollisionRule
from repro.paths.collection import PathCollection
from repro.runners.trial import (
    TrialProgress,
    TrialRunner,
    _describe_trial_fn,
    spawn_seeds,
)

__all__ = [
    "protocol_trial",
    "protocol_trial_batch",
    "instrumented_protocol_trial",
    "instrumented_protocol_trial_batch",
    "fault_label",
    "protocol_dispatch",
    "route_collection_trials",
]


def fault_label(config: ProtocolConfig) -> str:
    """The canonical fault-model label of a protocol config.

    The run ledger groups history by (workload, backend, fault-model,
    scenario); this is the fault-model coordinate -- ``"none"`` for a
    fault-free config, otherwise the fault spec and repair policy.
    """
    parts = []
    if config.faults is not None:
        parts.append(stable_repr(config.faults))
    if config.repair != "none":
        parts.append(f"repair={config.repair}")
    return ",".join(parts) or "none"


def _record_trial_batch(
    ledger: RunLedger,
    *,
    collection: PathCollection,
    config: ProtocolConfig,
    backend: str,
    trial_fn,
    trials: int,
    seed,
    results: list[ProtocolResult],
    started: float,
    wall: float,
    metrics: MetricsRegistry | None,
) -> str:
    """One ledger row for a completed trial batch; returns the run id."""
    labels = {
        "workload": repr(collection),
        "backend": backend,
        "fault_model": fault_label(config),
        "scenario": "",
    }
    groups = GroupedStats()
    for child_seed, result in zip(spawn_seeds(seed, trials), results):
        groups.observe(
            labels,
            child_seed,
            rounds=result.rounds,
            makespan=result.total_time,
        )
    completed = sum(1 for r in results if r.completed)
    profiler = get_profiler()
    record = RunRecord(
        kind="trials",
        started_unix=started,
        wall_seconds=wall,
        workload=labels["workload"],
        backend=backend,
        fault_model=labels["fault_model"],
        seed=seed if isinstance(seed, int) else None,
        trials=trials,
        fingerprint=fingerprint_of(
            _describe_trial_fn(trial_fn), backend, trials, seed
        ),
        summary={
            "completed": completed,
            "trials": trials,
            "rounds_p50": groups.quantile(labels, "rounds", 0.50),
            "rounds_p95": groups.quantile(labels, "rounds", 0.95),
            "rounds_p99": groups.quantile(labels, "rounds", 0.99),
            "seed": seed if isinstance(seed, int) else stable_repr(seed),
        },
        metrics=metrics.snapshot() if metrics is not None else None,
        spans=get_profiler().snapshot() if profiler.enabled else None,
        groups=groups.snapshot(),
    )
    return ledger.record(record)


def protocol_trial(
    seed: int, collection: PathCollection, config: ProtocolConfig
) -> ProtocolResult:
    """One full trial-and-failure execution; picklable by construction."""
    return TrialAndFailureProtocol(collection, config).run(seed)


def protocol_trial_batch(
    seeds: list[int], collection: PathCollection, config: ProtocolConfig
) -> list[ProtocolResult]:
    """One lockstep-batched trial per seed; picklable by construction.

    The batched backend's unit of work: all the seeds' rounds are
    simulated through :func:`repro.core.protocol.run_protocol_batch`,
    bit-identical per trial to :func:`protocol_trial` on the same seed.
    """
    return run_protocol_batch(collection, config, seeds)


def instrumented_protocol_trial(
    seed: int, collection: PathCollection, config: ProtocolConfig
) -> tuple[ProtocolResult, dict]:
    """One execution against a private registry; returns (result, snapshot).

    The private-registry-per-trial shape is what makes pooled metric
    aggregation deterministic: each worker ships its snapshot back with
    its result, and the parent merges them in trial order, so counters
    and gauges are bit-identical for any ``jobs``.
    """
    registry = MetricsRegistry()
    result = TrialAndFailureProtocol(collection, config, metrics=registry).run(seed)
    return result, registry.snapshot()


def instrumented_protocol_trial_batch(
    seeds: list[int], collection: PathCollection, config: ProtocolConfig
) -> list[tuple[ProtocolResult, dict]]:
    """Lockstep-batched trials, each against its own private registry.

    Returns one ``(result, snapshot)`` pair per seed, so the caller's
    merge loop is identical to the per-seed instrumented path: counters
    and gauges stay bit-identical for any ``jobs`` or slice boundaries
    (wall-clock histogram sums are run-dependent by contract).
    """
    registries = [MetricsRegistry() for _ in seeds]
    results = run_protocol_batch(collection, config, seeds, metrics=registries)
    return [(r, m.snapshot()) for r, m in zip(results, registries)]


def protocol_dispatch(
    collection: PathCollection,
    config: ProtocolConfig,
    *,
    trials: int,
    jobs: int = 1,
    instrumented: bool = False,
) -> tuple[str, Callable, int | None]:
    """How protocol trials of ``config`` run: ``(backend, trial_fn, batch_size)``.

    The one place the effective backend (``config.backend``, else the
    process default) is resolved and turned into a
    :class:`~repro.runners.trial.TrialRunner` trial function and slice
    width. ``"batched"`` gives each of ``jobs`` workers one contiguous
    lockstep slice through :func:`protocol_trial_batch`; every other
    backend runs :func:`protocol_trial` one seed per unit
    (``batch_size=None``). ``instrumented`` picks the variants that
    return a private metrics snapshot with each result.
    """
    from repro.core.engine import get_default_backend

    backend = config.backend or get_default_backend()
    if backend == "batched":
        fn = instrumented_protocol_trial_batch if instrumented else protocol_trial_batch
        batch_size = max(1, math.ceil(trials / max(1, jobs)))
    else:
        fn = instrumented_protocol_trial if instrumented else protocol_trial
        batch_size = None
    return backend, partial(fn, collection=collection, config=config), batch_size


def route_collection_trials(
    collection: PathCollection,
    bandwidth: int,
    trials: int,
    *,
    rule: CollisionRule = CollisionRule.SERVE_FIRST,
    worm_length: int = 4,
    seed=0,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    progress: Callable[[TrialProgress], None] | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoint=None,
    backend: str | None = None,
    ledger: RunLedger | None = None,
    **config_kwargs,
) -> list[ProtocolResult]:
    """Route ``collection`` over ``trials`` independent seeds.

    Bit-identical to calling :func:`repro.core.protocol.route_collection`
    serially on each child seed of ``seed``, for any ``jobs``.
    ``checkpoint`` passes through to the runner: a killed batch rerun
    with the same arguments resumes from the journal, skipping the
    already-completed trials. ``backend`` names how trials run
    (``"python"``, ``"vectorized"`` or ``"batched"``, bit-identical
    results; None = process default); it travels inside the pickled
    config, so it applies in worker processes too. ``"python"`` and
    ``"vectorized"`` run the one engine kernel the same way. The runner
    has one dispatch path, and :func:`protocol_dispatch` decides only
    the slice width: ``"batched"`` gives each worker one
    contiguous slice of seeds, run in lockstep through
    :func:`repro.core.protocol.run_protocol_batch` (amortising the sort
    kernel across the slice while staying bit-identical per trial);
    every other backend runs width-1 slices, one trial each.

    When ``metrics`` is given, every trial runs instrumented against its
    own private registry (in the worker process for ``jobs > 1``) and the
    snapshots are merged into ``metrics`` in trial order -- so counter
    and gauge aggregation is bit-identical for any ``jobs`` (wall-clock
    histogram sums are run-dependent by nature). The runner's own batch
    metrics land in the same registry.

    When ``ledger`` (a :class:`~repro.observability.ledger.RunLedger`)
    is given, the completed batch is recorded as one ``kind="trials"``
    row: config fingerprint, seed, backend, workload and fault-model
    labels, wall time, the metrics/span snapshots, and a
    :class:`~repro.observability.groupstats.GroupedStats` snapshot of
    per-trial rounds and makespan keyed by each trial's child seed --
    bit-identical for any ``jobs`` because the results are.
    """
    config = ProtocolConfig(
        bandwidth=bandwidth,
        rule=rule,
        worm_length=worm_length,
        backend=backend,
        **config_kwargs,
    )
    backend, trial_fn, batch_size = protocol_dispatch(
        collection,
        config,
        trials=trials,
        jobs=jobs,
        instrumented=metrics is not None,
    )
    runner = TrialRunner(
        trial_fn,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        progress=progress,
        metrics=metrics,
        checkpoint=checkpoint,
        batch_size=batch_size,
    )
    started = time.time()
    outputs = runner.run(trials, seed)
    wall = time.time() - started
    if metrics is None:
        results = outputs
    else:
        results = []
        for result, snapshot in outputs:
            results.append(result)
            metrics.merge(snapshot)
    if ledger is not None:
        _record_trial_batch(
            ledger,
            collection=collection,
            config=config,
            backend=backend,
            trial_fn=trial_fn,
            trials=trials,
            seed=seed,
            results=results,
            started=started,
            wall=wall,
            metrics=metrics,
        )
    return results
