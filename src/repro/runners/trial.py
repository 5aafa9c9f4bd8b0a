"""Parallel, batched execution of independent Monte-Carlo trials.

Every "w.h.p." statement in the reproduction becomes replicated trials.
:class:`TrialRunner` executes many independent trials, in-process or
across a :class:`concurrent.futures.ProcessPoolExecutor`, while keeping
the *numbers* untouchable:

* each trial is seeded with its own child seed from :func:`spawn_seeds`
  (independent streams, prefix-stable in the trial count), so a trial's
  result depends only on its seed -- never on which worker ran it or in
  which order trials finished;
* results are returned in trial order, making ``jobs=N`` bit-identical
  to serial execution for the same root seed;
* the unit of work is a contiguous slice of seeds. A trial function
  taking one seed (``batch_size=None``) runs as width-1 slices; a batch
  trial function taking a seed list runs as slices of up to
  ``batch_size`` seeds. One serial and one pool dispatcher serve both;
* per-unit ``timeout`` and ``retries`` bound a stuck or flaky unit
  (a timed-out attempt is abandoned and resubmitted; the abandoned
  worker finishes in the background);
* a structured :class:`TrialProgress` callback reports completions as
  they happen, for long sweeps that want live feedback.

The trial callable must be picklable for ``jobs > 1`` (a module-level
function, or :func:`functools.partial` over one). Unpicklable callables
-- the closures older experiment code builds -- transparently fall back
to in-process execution with a logged warning (logger
``repro.runners.trial``), so ``--jobs`` is always safe to pass.

Two robustness layers on top:

* ``checkpoint=PATH`` makes batches crash-safe: every settled unit's
  results are appended to an atomically rewritten JSON file, and a rerun
  of the same seed batch skips the already-completed indices -- the
  resumed batch returns bit-identical results because each trial
  depends only on its own seed. A checkpoint written for a *different*
  seed batch (fingerprint mismatch) or by a different trial function,
  runner config, or engine backend (context mismatch) is refused rather
  than silently mixing non-comparable results.
* a :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
  killed by the OOM killer, a segfaulting extension, ...) no longer
  abandons the batch: the pool is rebuilt and every unsettled unit is
  resubmitted (counted as an attempt), up to a separate rebuild cap so
  ``retries=0`` batches still survive worker crashes.

Batch mechanics (trial counts, per-unit latency, retries, timeouts,
pool occupancy, pool rebuilds, checkpoint traffic) are instrumented
through :mod:`repro.observability.metrics`; pass ``metrics=`` or enable
the process default registry to collect them.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import logging
import pathlib
import pickle
import re
import time
from concurrent.futures import Future, ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro._util import as_generator, durable_write_text
from repro.errors import TrialError
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import get_profiler

__all__ = ["TrialProgress", "TrialRunner", "spawn_seeds"]


def _submit(pool: ProcessPoolExecutor, fn: Callable, arg) -> Future:
    """``pool.submit``, reporting a pool that broke mid-submission in the future.

    A worker can die while later work is still being submitted, and the
    pool then refuses the rest. Handing back a future that carries the
    BrokenProcessPool lets the settle loop rebuild the pool exactly as
    for a break it sees while waiting.
    """
    try:
        return pool.submit(fn, arg)
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


_log = logging.getLogger(__name__)

_CHECKPOINT_VERSION = 2

#: Default object reprs embed the instance address; strip it so the
#: checkpoint context digest is stable across processes.
_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def _stable_repr(value) -> str:
    return _HEX_ADDR.sub("0x", repr(value))


def _describe_trial_fn(fn) -> str:
    """A stable, process-independent description of a trial callable.

    Unwraps :func:`functools.partial` layers (the standard way experiment
    code binds a collection and config to a module-level trial function)
    and records the innermost callable's module-qualified name plus the
    stable repr of every bound argument. Dataclass configs
    (:class:`~repro.core.protocol.ProtocolConfig` and friends) have full
    value reprs, so a changed config changes the description; instance
    addresses are normalised away so mere re-construction does not.
    """
    parts = []
    while isinstance(fn, functools.partial):
        keywords = dict(sorted((fn.keywords or {}).items()))
        parts.append(
            f"partial(args={_stable_repr(fn.args)}, "
            f"keywords={_stable_repr(keywords)})"
        )
        fn = fn.func
    qualname = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    module = getattr(fn, "__module__", "") or ""
    parts.append(f"{module}:{qualname}")
    return " | ".join(reversed(parts))

#: Default for ``TrialRunner(pool_rebuilds=...)``: how many times one
#: batch tolerates the worker pool breaking before giving up.
#: Deliberately separate from per-trial ``retries`` (a pool break is an
#: infrastructure failure, not a trial failure).
_POOL_REBUILD_LIMIT = 3

#: Sentinel distinguishing "not settled yet" from a legal None result.
_UNSET = object()

#: Per-worker shared state: the unpickled unit callable. Populated once
#: per worker process by :func:`_worker_init`; every subsequent submit
#: ships only a seed slice instead of re-pickling the whole closure
#: (worms, topology, engine config) on each unit.
_WORKER_FN: Callable | None = None


def _worker_init(payload: bytes, default_backend: str) -> None:
    """Pool initializer: unpickle the unit function once per worker.

    Also propagates the parent's default backend name, so a driver's
    single ``set_default_backend("vectorized")`` call covers the whole
    pool (worker processes may be spawned, not forked, and then would
    not inherit parent module state).
    """
    global _WORKER_FN
    _WORKER_FN = pickle.loads(payload)
    from repro.core.engine import set_default_backend

    set_default_backend(default_backend)


def _worker_unit(seeds: list[int]):
    """Invoke the worker's shared unit function on a seed slice."""
    assert _WORKER_FN is not None, "worker pool initializer did not run"
    return _WORKER_FN(seeds)


def _each_seed(fn: Callable, seeds: Sequence[int]) -> list:
    """Run a one-seed trial function over a seed slice, seed by seed.

    Bound with :func:`functools.partial` this turns a per-seed ``fn``
    into a unit function, picklable whenever ``fn`` is.
    """
    return [fn(seed) for seed in seeds]


def _unit_label(unit: Sequence[int], seeds: Sequence[int]) -> str:
    """How a failure names its unit: one trial, or a slice of trials."""
    if len(unit) == 1:
        return f"trial {unit[0]} (seed {seeds[unit[0]]})"
    return f"trial unit {unit[0]}..{unit[-1]} ({len(unit)} seed(s))"


def _batch_results(out, unit: Sequence[int]) -> list:
    """Validate a batch trial function's return value (one result per seed)."""
    try:
        out = list(out)
    except TypeError as exc:
        raise TrialError(
            f"batch trial function returned non-iterable "
            f"{type(out).__name__!r} for trials "
            f"{unit[0]}..{unit[-1]}"
        ) from exc
    if len(out) != len(unit):
        raise TrialError(
            f"batch trial function returned {len(out)} result(s) for "
            f"{len(unit)} seed(s) (trials {unit[0]}..{unit[-1]})"
        )
    return out


class _Checkpoint:
    """Crash-safe journal of settled trial results for one seed batch.

    The file is a single JSON object ``{"version", "fingerprint",
    "context", "completed": {index: base64(pickle(result))}}`` rewritten
    atomically (temp file + :func:`os.replace`) after every settled
    unit, so a kill at any instant leaves either the previous or the
    next consistent state -- never a torn file. The fingerprint hashes
    the seed list and the context digest hashes the trial function's
    description plus the active engine backend, together binding the
    checkpoint to its batch: resuming with different seeds, a different
    trial function/config, or a switched backend raises instead of
    silently mixing non-comparable results.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        seeds: Sequence[int],
        context: str = "",
    ) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = hashlib.sha256(
            json.dumps(list(seeds)).encode("ascii")
        ).hexdigest()
        self.context = hashlib.sha256(context.encode("utf-8")).hexdigest()
        self.completed: dict[int, object] = {}

    def load(self) -> dict[int, object]:
        """Read previously settled results (empty when no file yet)."""
        if not self.path.exists():
            return {}
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise TrialError(
                f"checkpoint {self.path} is unreadable: {exc}"
            ) from exc
        if data.get("version") != _CHECKPOINT_VERSION:
            raise TrialError(
                f"checkpoint {self.path} has schema version "
                f"{data.get('version')!r}, expected {_CHECKPOINT_VERSION}"
            )
        if data.get("fingerprint") != self.fingerprint:
            raise TrialError(
                f"checkpoint {self.path} was written for a different seed "
                "batch (fingerprint mismatch); delete it or rerun with the "
                "original seeds"
            )
        if data.get("context") != self.context:
            raise TrialError(
                f"checkpoint {self.path} was written by a different trial "
                "function, runner config, or engine backend (context "
                "mismatch); its results are not comparable -- delete it or "
                "rerun with the original setup"
            )
        self.completed = {
            int(i): pickle.loads(base64.b64decode(blob))
            for i, blob in data.get("completed", {}).items()
        }
        return dict(self.completed)

    def record(self, indices: Sequence[int], results: Sequence) -> None:
        """Persist one settled unit in a single atomic, fsynced rewrite.

        The file contents depend only on the completed-trials map, so a
        run's final checkpoint is byte-identical for any slice width
        or ``jobs`` -- a wider unit just amortises the rewrite.
        Durability matters as much as atomicity here: the sweep layer's
        whole resume story assumes a checkpoint visible on disk really
        holds its trials, so the temp file and its directory entry are
        both fsynced before the ``os.replace`` -- a ``kill -9`` (or
        power cut) at any instant leaves either the previous or the next
        valid JSON, never a torn file.
        """
        for i, r in zip(indices, results):
            self.completed[i] = r
        self._flush()

    def _flush(self) -> None:
        payload = {
            "version": _CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "context": self.context,
            "completed": {
                str(i): base64.b64encode(pickle.dumps(r)).decode("ascii")
                for i, r in sorted(self.completed.items())
            },
        }
        durable_write_text(self.path, json.dumps(payload))


def spawn_seeds(seed, n: int) -> list[int]:
    """``n`` independent child seeds derived from ``seed``.

    Prefix-stable: growing ``n`` never changes earlier seeds, so adding
    trials to a sweep cannot perturb already published numbers.
    """
    rng = as_generator(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


@dataclass(frozen=True)
class TrialProgress:
    """One completed (or finally failed) trial, reported as it lands.

    ``index`` is the trial's position in the batch (0-based), ``seed``
    its child seed, ``attempts`` how many submissions it took (1 =
    first try), ``done``/``total`` the batch completion counters and
    ``elapsed`` the seconds since the batch started. ``error`` carries
    the failure description when the trial exhausted its retries.
    """

    index: int
    seed: int
    attempts: int
    done: int
    total: int
    elapsed: float
    error: str | None = None


class _Batch:
    """The bookkeeping of one :meth:`TrialRunner.run_seeds` dispatch.

    Result slots (checkpointed trials prefilled), the settle counter,
    the journal and the progress stream: the serial and the pool
    dispatcher share this one settle, failure and finish path.
    """

    def __init__(
        self,
        progress: Callable[[TrialProgress], None] | None,
        seeds: list[int],
        units: list[list[int]],
        metrics: MetricsRegistry,
        ckpt: _Checkpoint | None,
        preloaded: dict[int, object],
        mode: str,
    ) -> None:
        self.progress = progress
        self.seeds = seeds
        self.units = units
        self.metrics = metrics
        self.ckpt = ckpt
        self.mode = mode
        self.results: list = [_UNSET] * len(seeds)
        for i, r in preloaded.items():
            self.results[i] = r
        self.done = len(preloaded)
        self.executed = 0
        self.t0 = time.perf_counter()

    def report(self, index: int, attempts: int, error: str | None = None) -> None:
        if self.progress is not None:
            self.progress(
                TrialProgress(
                    index=index,
                    seed=self.seeds[index],
                    attempts=attempts,
                    done=self.done,
                    total=len(self.seeds),
                    elapsed=time.perf_counter() - self.t0,
                    error=error,
                )
            )

    def settle(self, unit: list[int], out, attempts: int) -> None:
        """Merge, journal and report one unit's results."""
        out = _batch_results(out, unit)
        self.executed += len(unit)
        for i, r in zip(unit, out):
            self.results[i] = r
        if self.ckpt is not None:
            self.ckpt.record(unit, out)
            self.metrics.inc("runner_checkpoint_writes_total")
        for i in unit:
            self.done += 1
            self.report(i, attempts)

    def failure(
        self, unit: list[int], attempts: int, exc: BaseException, timed_out: bool
    ) -> TrialError:
        """Count and report a unit out of attempts; the error to raise."""
        self.metrics.inc("runner_trials_failed_total", mode=self.mode)
        self.report(unit[0], attempts, error=repr(exc) if timed_out else str(exc))
        label = _unit_label(unit, self.seeds)
        if timed_out:
            return TrialError(f"{label} timed out after {attempts} attempt(s)")
        return TrialError(f"{label} failed after {attempts} attempt(s): {exc}")

    def finish(self) -> list:
        self.metrics.inc("runner_trials_total", self.executed, mode=self.mode)
        if self.metrics.enabled:
            self.metrics.observe(
                "runner_batch_seconds",
                time.perf_counter() - self.t0,
                mode=self.mode,
            )
        return self.results


class TrialRunner:
    """Run a trial function over many independent seeds, optionally in parallel.

    ``jobs`` is the worker-process count (1 = in-process serial);
    ``timeout`` bounds one attempt of one unit in seconds (enforced only
    when ``jobs > 1``: a single process cannot preempt its own unit);
    ``retries`` is how many *extra* attempts a failed or timed-out unit
    gets before :class:`TrialError` is raised; ``progress`` is called
    with a :class:`TrialProgress` after every trial settles; ``metrics``
    optionally names the registry receiving batch instrumentation (None
    defers to the process default, a no-op unless enabled);
    ``checkpoint`` optionally names a JSON file settled results are
    journaled to -- rerunning the same batch resumes from it, skipping
    completed trials and returning bit-identical results;
    ``pool_rebuilds`` caps how many times one batch tolerates the worker
    pool breaking (a hard-killed worker) before giving up -- separate
    from per-trial ``retries`` and folded into the checkpoint context,
    so a resumed batch must use the same cap.

    The unit of work -- submitted, timed out, retried and checkpointed
    as one -- is a contiguous slice of outstanding seeds. With
    ``batch_size=None`` (the default) ``fn`` takes **one seed** and
    returns its result; the runner calls it through a picklable adapter
    over width-1 slices, so timeout, retry and progress stay per trial.
    With ``batch_size=k`` ``fn`` takes a **list of seeds** and returns
    one result per seed (in seed order), over slices of up to ``k``
    seeds. This is how protocol trials run under every backend name
    (:func:`~repro.runners.protocol_trials.protocol_dispatch`): a worker
    steps its slice in lockstep, amortising each engine pass across the
    slice, so a ``timeout`` or ``retries`` there bounds a whole slice,
    not one trial. Results, order, and checkpoint bytes are independent
    of the slice boundaries (each trial still depends only on its own
    seed); per-trial progress reports are preserved (one per trial,
    emitted when its unit settles).
    """

    def __init__(
        self,
        fn: Callable,
        *,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 0,
        progress: Callable[[TrialProgress], None] | None = None,
        metrics: MetricsRegistry | None = None,
        checkpoint: str | pathlib.Path | None = None,
        pool_rebuilds: int = _POOL_REBUILD_LIMIT,
        batch_size: int | None = None,
    ) -> None:
        if jobs < 1:
            raise TrialError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise TrialError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise TrialError(f"retries must be >= 0, got {retries}")
        if pool_rebuilds < 0:
            raise TrialError(
                f"pool_rebuilds must be >= 0, got {pool_rebuilds}"
            )
        if batch_size is not None and batch_size < 1:
            raise TrialError(
                f"batch_size must be >= 1 (or None), got {batch_size}"
            )
        self.fn = fn
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.metrics = metrics
        self.checkpoint = checkpoint
        self.pool_rebuilds = pool_rebuilds
        self.batch_size = batch_size

    # -- public API ----------------------------------------------------------

    def run(self, trials: int, seed=0) -> list:
        """Execute ``trials`` independent trials derived from ``seed``."""
        if trials <= 0:
            raise TrialError(f"trials must be positive, got {trials}")
        return self.run_seeds(spawn_seeds(seed, trials))

    def run_seeds(self, seeds: Sequence[int]) -> list:
        """Execute one trial per seed; results in seed order."""
        seeds = list(seeds)
        if not seeds:
            return []
        metrics = self.metrics if self.metrics is not None else get_metrics()
        ckpt: _Checkpoint | None = None
        preloaded: dict[int, object] = {}
        if self.checkpoint is not None:
            from repro.core.engine import get_default_backend

            # The context describes the caller's fn, never the per-seed
            # adapter; the slice width stays out of it on purpose (the
            # bytes do not depend on it, and a resume may re-slice).
            context = (
                f"fn={_describe_trial_fn(self.fn)} "
                f"backend={get_default_backend()} "
                f"pool_rebuilds={self.pool_rebuilds}"
            )
            ckpt = _Checkpoint(self.checkpoint, seeds, context)
            preloaded = ckpt.load()
            stale = [i for i in preloaded if i >= len(seeds)]
            if stale:  # can't happen with a matching fingerprint; be safe
                raise TrialError(
                    f"checkpoint {ckpt.path} holds trial indices {stale} "
                    f"beyond the batch size {len(seeds)}"
                )
            if preloaded:
                _log.info(
                    "checkpoint %s: resuming batch with %d/%d trial(s) "
                    "already complete",
                    ckpt.path,
                    len(preloaded),
                    len(seeds),
                )
                metrics.inc("runner_checkpoint_loaded_total", len(preloaded))
        if self.batch_size is None:
            unit_fn, width = functools.partial(_each_seed, self.fn), 1
        else:
            unit_fn, width = self.fn, self.batch_size
        # Units are contiguous slices of the *remaining* indices (a
        # resume re-slices around checkpointed holes).
        todo = [i for i in range(len(seeds)) if i not in preloaded]
        units = [todo[k:k + width] for k in range(0, len(todo), width)]
        parallel = self.jobs > 1 and len(units) > 1
        if parallel and not self._picklable():
            parallel = False
            _log.warning(
                "trial function %r is not picklable; running %d trial(s) "
                "in-process although jobs=%d were requested (define it at "
                "module level, or wrap module-level functions with "
                "functools.partial, to parallelize)",
                self.fn,
                len(seeds),
                self.jobs,
            )
            metrics.inc("runner_serial_fallbacks_total")
        batch = _Batch(
            self.progress, seeds, units, metrics, ckpt, preloaded,
            "pool" if parallel else "serial",
        )
        if parallel:
            return self._dispatch_pool(unit_fn, batch)
        return self._dispatch_serial(unit_fn, batch)

    # -- internals -----------------------------------------------------------

    def _picklable(self) -> bool:
        try:
            pickle.dumps(self.fn)
            return True
        except Exception:
            return False

    def _dispatch_serial(self, unit_fn: Callable, batch: _Batch) -> list:
        metrics = batch.metrics
        if self.timeout is not None:
            # A single process cannot preempt its own unit, so a
            # configured timeout silently stops protecting the batch the
            # moment it runs in-process (jobs=1, a tiny remainder, or the
            # unpicklable-fn fallback). Say so instead of letting a stuck
            # trial hang a "timeout-bounded" sweep without explanation.
            _log.warning(
                "timeout=%ss is configured but this batch of %d trial(s) "
                "runs in-process, where timeouts cannot be enforced; a "
                "stuck trial will hang the batch (use jobs>1 for "
                "preemptible trials)",
                self.timeout,
                sum(map(len, batch.units)),
            )
            metrics.inc("runner_timeout_unenforced_total")
        observe = metrics.enabled
        prof = get_profiler()
        for unit in batch.units:
            unit_seeds = [batch.seeds[i] for i in unit]
            attempts = 0
            while True:
                attempts += 1
                try:
                    t_unit = time.perf_counter() if observe else 0.0
                    with prof.span("runner.unit"):
                        out = unit_fn(unit_seeds)
                    if observe:
                        metrics.observe(
                            "runner_unit_seconds",
                            time.perf_counter() - t_unit,
                            mode="serial",
                        )
                    break
                except Exception as exc:
                    if attempts > self.retries:
                        raise batch.failure(unit, attempts, exc, False) from exc
                    metrics.inc("runner_retries_total", mode="serial")
            batch.settle(unit, out, attempts)
        return batch.finish()

    def _dispatch_pool(self, unit_fn: Callable, batch: _Batch) -> list:
        metrics, seeds, units = batch.metrics, batch.seeds, batch.units
        rebuilds = 0
        metrics.gauge("runner_pool_jobs", self.jobs)
        # The unit function crosses the process boundary exactly once
        # per worker (pool initializer), not once per submit: each
        # submit afterwards carries only its seed slice.
        from repro.core.engine import get_default_backend

        initargs = (pickle.dumps(unit_fn), get_default_backend())

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=initargs,
            )

        def submit(ui: int) -> Future:
            return _submit(pool, _worker_unit, [seeds[i] for i in units[ui]])

        def rebuild_pool(exc: BaseException) -> None:
            # A worker died hard (OOM kill, segfault): the pool is
            # unusable and *every* unsettled future is lost, not just the
            # one we were waiting on. Rebuild and resubmit them all,
            # counting one attempt each -- capped separately from
            # per-unit retries so retries=0 batches survive.
            nonlocal pool, rebuilds
            rebuilds += 1
            metrics.inc("runner_pool_rebuilds_total")
            if rebuilds > self.pool_rebuilds:
                raise TrialError(
                    f"worker pool broke {rebuilds} times (limit "
                    f"{self.pool_rebuilds}); giving up on the batch"
                ) from exc
            pending = [
                ui for ui in futures if batch.results[units[ui][0]] is _UNSET
            ]
            _log.warning(
                "worker pool broke (%r); rebuilding (%d/%d) and "
                "resubmitting %d unsettled unit(s)",
                exc,
                rebuilds,
                self.pool_rebuilds,
                len(pending),
            )
            pool.shutdown(wait=False, cancel_futures=True)
            pool = make_pool()
            for ui in pending:
                attempts[ui] += 1
                futures[ui] = submit(ui)

        pool = make_pool()
        try:
            futures = {ui: submit(ui) for ui in range(len(units))}
            attempts = dict.fromkeys(futures, 1)
            # Settle units in index order: per-unit timeouts compose and
            # the progress stream matches the (deterministic) result order.
            for ui, unit in enumerate(units):
                while True:
                    try:
                        out = futures[ui].result(timeout=self.timeout)
                        break
                    except BrokenProcessPool as exc:
                        rebuild_pool(exc)  # raises TrialError past the cap
                    except Exception as exc:
                        timed_out = isinstance(exc, FutureTimeout)
                        if timed_out:
                            futures[ui].cancel()
                            metrics.inc("runner_timeouts_total")
                        if attempts[ui] > self.retries:
                            raise batch.failure(
                                unit, attempts[ui], exc, timed_out
                            ) from exc
                        attempts[ui] += 1
                        metrics.inc("runner_retries_total", mode="pool")
                        futures[ui] = submit(ui)
                batch.settle(unit, out, attempts[ui])
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)
        return batch.finish()
