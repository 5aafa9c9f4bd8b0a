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
    """One full trial-and-failure execution; picklable by construction.

    The one-trial case of the lockstep loop :func:`protocol_trial_batch`
    runs, for callers that hand a :class:`TrialRunner` one seed at a time.
    """
    return TrialAndFailureProtocol(collection, config).run(seed)


def protocol_trial_batch(
    seeds: list[int], collection: PathCollection, config: ProtocolConfig
) -> list[ProtocolResult]:
    """One lockstep trial per seed; picklable by construction.

    The runner's unit of work for every backend name: all the seeds'
    rounds are simulated through
    :func:`repro.core.protocol.run_protocol_batch`, bit-identical per
    trial to :func:`protocol_trial` on the same seed.
    """
    return run_protocol_batch(collection, config, seeds)


def instrumented_protocol_trial_batch(
    seeds: list[int], collection: PathCollection, config: ProtocolConfig
) -> list[tuple[ProtocolResult, dict]]:
    """Lockstep trials, each against its own private registry.

    Returns one ``(result, snapshot)`` pair per seed. The caller merges
    the snapshots in trial order, so counters and gauges stay
    bit-identical for any ``jobs`` or slice boundaries (wall-clock
    histogram sums are run-dependent by contract).
    """
    registries = [MetricsRegistry() for _ in seeds]
    results = run_protocol_batch(collection, config, seeds, metrics=registries)
    return [(r, m.snapshot()) for r, m in zip(results, registries)]


#: Link traversals (engine events per round) one lockstep slice may stack.
#: Peak RSS grows about 150 bytes per stacked event while throughput is
#: flat from ~10^4 events up (docs/PERFORMANCE.md), so this bounds a
#: slice near 150 MB above the one-trial run at no measured speed cost.
_LOCKSTEP_EVENTS = 1 << 20


def protocol_dispatch(
    collection: PathCollection,
    config: ProtocolConfig,
    *,
    trials: int,
    jobs: int = 1,
    instrumented: bool = False,
) -> tuple[str, Callable, int]:
    """How protocol trials of ``config`` run: ``(backend, trial_fn, batch_size)``.

    The one place the effective backend (``config.backend``, else the
    process default) is resolved and the
    :class:`~repro.runners.trial.TrialRunner` trial function and slice
    width are chosen. Every backend name runs the same way: each of
    ``jobs`` workers gets contiguous seed slices, stepped in lockstep by
    :func:`protocol_trial_batch`. A slice holds ``ceil(trials / jobs)``
    seeds, capped so that it stacks at most ``_LOCKSTEP_EVENTS`` link
    traversals (the collection's total path length per trial) into one
    engine pass; a collection past the budget runs one trial per slice.
    The name only labels the run (checkpoint context, ledger rows).
    ``instrumented`` picks the variant that returns a private metrics
    snapshot with each result.
    """
    from repro.core.engine import get_default_backend

    backend = config.backend or get_default_backend()
    fn = instrumented_protocol_trial_batch if instrumented else protocol_trial_batch
    links_per_trial = int(collection.layout.count.sum())
    batch_size = min(
        max(1, math.ceil(trials / max(1, jobs))),
        max(1, _LOCKSTEP_EVENTS // links_per_trial),
    )
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
    already-completed trials. The journal and the ``progress`` reports
    advance one settled slice at a time (see below): at ``jobs=1`` a
    batch that fits the event budget is a single slice, so it journals
    and reports only when all its trials finish, and a kill before that
    resumes from the first trial. ``backend`` (``"python"``,
    ``"vectorized"`` or ``"batched"``; None = process default) labels
    the run in its checkpoint context and ledger row; every name runs
    the same way. :func:`protocol_dispatch` gives each worker contiguous
    seed slices, run in lockstep through
    :func:`repro.core.protocol.run_protocol_batch` (amortising each
    engine pass's fixed cost across the slice while staying
    bit-identical per trial), as wide as the slice's event budget
    allows.

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
