"""The sweep supervisor: lease shards, watch heartbeats, retry, merge.

:class:`SweepSupervisor` drives a :class:`~repro.sweep.plan.SweepPlan`
to completion through the durable :class:`~repro.sweep.journal.SweepJournal`:

* up to ``workers`` shard processes run concurrently, each heartbeating
  to a liveness file; a heartbeat staler than ``lease_timeout`` gets the
  worker SIGKILLed and its lease expired;
* the loop is event-driven: it blocks on the live workers' process
  sentinels and wakes when one exits, when a lease could next expire,
  or when a backoff elapses -- never on a fixed poll tick;
* each pass is one journal step: its reaps, failures and leases commit
  once, before any worker it leases is spawned;
* a failed or expired attempt backs off exponentially (base doubling,
  capped) plus a deterministic jitter drawn from a *dedicated* hash
  stream of ``(backoff_seed, shard, attempt)`` -- never from the trial
  seed stream, so retry timing cannot perturb run results;
* a shard failing ``max_attempts`` times is quarantined and the sweep
  degrades gracefully: everything else completes, the report says
  exactly what was left behind, and ``retry-quarantined`` can give the
  poisoned shards a fresh budget later;
* ``workers=0`` runs every shard in-process (the serial reference mode:
  same journal, same merge path, no multiprocessing at all).

The merge folds shard results through
:class:`~repro.observability.groupstats.GroupedStats` in shard order.
Because shard payloads depend only on the plan and the merge is
order-independent, a chaos-ridden parallel sweep merges bit-identically
to a serial run -- the property tests and CI certify.

Supervisor death is part of the design, not an error path: ``kill -9``
the supervisor at any instant, run ``resume``, and the successor adopts
published results, releases orphaned leases, and carries on.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import multiprocessing.connection
import os
import pathlib
import signal
import time
from dataclasses import dataclass, field

from repro.errors import SweepError
from repro.faults.chaos import ChaosPolicy
from repro.observability.groupstats import GroupedStats, parse_group_key
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import get_profiler
from repro.sweep.journal import SweepJournal, commit_json
from repro.sweep.plan import SweepPlan
from repro.sweep import worker as worker_mod

__all__ = ["SweepOptions", "SweepReport", "SweepSupervisor"]

_log = logging.getLogger(__name__)

MERGED_VERSION = 1

PLAN_FILENAME = "plan.json"
JOURNAL_FILENAME = "journal.json"
MERGED_FILENAME = "merged.json"


def _backoff_jitter(seed: int, shard: int, attempt: int, base: float) -> float:
    """Deterministic jitter in ``[0, base)`` from a dedicated hash stream.

    Keyed by (backoff seed, shard, attempt) -- entirely disjoint from
    the trial seed stream, so retry pacing can never leak into results.
    """
    digest = hashlib.blake2b(
        f"{seed}|{shard}|{attempt}".encode("ascii"), digest_size=8
    ).digest()
    return base * (int.from_bytes(digest, "big") / 2**64)


@dataclass(frozen=True)
class SweepOptions:
    """Supervision knobs (all timing, never results).

    ``workers=0`` selects the in-process serial reference mode.
    ``lease_timeout`` is the heartbeat staleness that expires a lease;
    ``heartbeat_interval`` how often a worker refreshes its heartbeat;
    ``max_attempts`` the per-shard budget before quarantine; the backoff
    delay for attempt *k* is ``min(cap, base * 2**(k-1))`` plus a
    deterministic jitter in ``[0, base)``. ``chaos`` switches on the
    :class:`~repro.faults.ChaosPolicy` harness for workers and journal.
    """

    workers: int = 2
    lease_timeout: float = 5.0
    heartbeat_interval: float = 0.2
    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    backoff_seed: int = 0
    chaos: ChaosPolicy | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise SweepError(f"workers must be >= 0, got {self.workers}")
        if self.lease_timeout <= 0:
            raise SweepError(
                f"lease_timeout must be positive, got {self.lease_timeout}"
            )
        if self.heartbeat_interval <= 0:
            raise SweepError(
                "heartbeat_interval must be positive, got "
                f"{self.heartbeat_interval}"
            )
        if self.max_attempts < 1:
            raise SweepError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise SweepError("backoff base and cap must be >= 0")


@dataclass
class SweepReport:
    """What a supervision pass accomplished (JSON-ready via ``to_dict``)."""

    name: str
    plan_digest: str
    counts: dict
    quarantined: list = field(default_factory=list)
    trials: int = 0
    completed: int = 0
    merged_path: str | None = None
    run_id: str | None = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Every shard done, nothing quarantined."""
        return self.counts.get("done", 0) == sum(self.counts.values())

    def to_dict(self) -> dict:
        """JSON form of the report (what ``sweep --json`` prints)."""
        return {
            "name": self.name,
            "plan": self.plan_digest,
            "counts": self.counts,
            "quarantined": list(self.quarantined),
            "trials": self.trials,
            "completed": self.completed,
            "merged": self.merged_path,
            "run_id": self.run_id,
            "wall_seconds": self.wall_seconds,
        }


class _Lease:
    """Supervisor-side bookkeeping for one running shard process."""

    __slots__ = ("proc", "attempt", "started")

    def __init__(self, proc, attempt: int, started: float) -> None:
        self.proc = proc
        self.attempt = attempt
        self.started = started


class SweepSupervisor:
    """Drive one sweep directory to completion (crash-tolerantly).

    The directory layout it owns::

        <dir>/plan.json          the plan (written by ``start``)
        <dir>/journal.json       the durable work queue (+ .bak twin)
        <dir>/checkpoints/       per-shard TrialRunner journals
        <dir>/results/           per-shard published result payloads
        <dir>/hb/                worker heartbeats and error notes
        <dir>/merged.json        the merged grouped stats (on completion)
    """

    def __init__(
        self,
        sweep_dir: "str | pathlib.Path",
        *,
        options: SweepOptions | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.dir = pathlib.Path(sweep_dir)
        self.options = options or SweepOptions()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.owner = f"supervisor-{os.getpid()}"

    # -- paths ----------------------------------------------------------------

    @property
    def plan_path(self) -> pathlib.Path:
        """``plan.json`` inside the sweep directory."""
        return self.dir / PLAN_FILENAME

    @property
    def journal_path(self) -> pathlib.Path:
        """``journal.json`` inside the sweep directory."""
        return self.dir / JOURNAL_FILENAME

    @property
    def merged_path(self) -> pathlib.Path:
        """``merged.json`` inside the sweep directory."""
        return self.dir / MERGED_FILENAME

    # -- entry points ---------------------------------------------------------

    def start(self, plan: SweepPlan) -> SweepReport:
        """Initialise the sweep directory for ``plan`` and run it."""
        self.dir.mkdir(parents=True, exist_ok=True)
        if self.journal_path.exists():
            raise SweepError(
                f"{self.dir} already holds a sweep journal; use resume "
                "(or a fresh directory) instead of run"
            )
        commit_json(self.plan_path, plan.to_dict())
        journal = SweepJournal.create(self.journal_path, plan)
        return self._supervise(plan, journal)

    def resume(self) -> SweepReport:
        """Pick up a sweep after a dead supervisor (or finish a partial one)."""
        plan = SweepPlan.load(self.plan_path)
        journal = SweepJournal.load(
            self.journal_path, plan_digest=plan.digest()
        )
        with journal.step():
            for index in journal.in_state("leased"):
                # A lease can only be orphaned here: our workers aren't
                # running yet, so whoever held it is gone.
                journal.release(index)
                self.metrics.inc("sweep_leases_released_total")
        return self._supervise(plan, journal)

    def retry_quarantined(self) -> SweepReport:
        """Give quarantined shards a fresh attempt budget, then supervise."""
        plan = SweepPlan.load(self.plan_path)
        journal = SweepJournal.load(
            self.journal_path, plan_digest=plan.digest()
        )
        with journal.step():
            revived = journal.reset(journal.in_state("quarantined"))
            if revived:
                _log.info("retrying quarantined shard(s) %s", revived)
            for index in journal.in_state("leased"):
                journal.release(index)
        return self._supervise(plan, journal)

    def status(self) -> SweepReport:
        """The journal's current state, without running anything."""
        plan = SweepPlan.load(self.plan_path)
        journal = SweepJournal.load(
            self.journal_path, plan_digest=plan.digest()
        )
        return self._report(plan, journal, wall=0.0)

    # -- supervision core -----------------------------------------------------

    def _supervise(self, plan: SweepPlan, journal: SweepJournal) -> SweepReport:
        t0 = time.perf_counter()
        chaos = self.options.chaos or ChaosPolicy()
        with get_profiler().span("sweep.run"):
            self.metrics.gauge("sweep_workers", self.options.workers)
            if self.options.workers == 0:
                self._run_serial(plan, journal, chaos)
            else:
                self._run_supervised(plan, journal, chaos)
            if journal.is_settled() and journal.in_state("done"):
                self._merge(plan, journal)
        wall = time.perf_counter() - t0
        report = self._report(plan, journal, wall=wall)
        for state, n in report.counts.items():
            self.metrics.gauge("sweep_shards", n, state=state)
        return report

    def _fail_shard(
        self,
        journal: SweepJournal,
        index: int,
        attempt: int,
        error: str,
        *,
        now: float,
    ) -> None:
        """Route one failed attempt to backoff-retry or quarantine."""
        if attempt >= self.options.max_attempts:
            _log.warning(
                "shard %d quarantined after %d attempt(s): %s",
                index,
                attempt,
                error,
            )
            self.metrics.inc("sweep_quarantined_total")
            journal.fail(
                index, error, now=now, retry_at=None, quarantine=True
            )
            return
        base = self.options.backoff_base
        delay = min(self.options.backoff_cap, base * 2 ** (attempt - 1))
        delay += _backoff_jitter(
            self.options.backoff_seed, index, attempt, base
        )
        _log.info(
            "shard %d attempt %d failed (%s); retrying in %.3fs",
            index,
            attempt,
            error,
            delay,
        )
        self.metrics.inc("sweep_retries_total")
        journal.fail(
            index, error, now=now, retry_at=now + delay, quarantine=False
        )

    def _adopt_results(self, journal: SweepJournal) -> int:
        """Mark unleased shards with valid published results done.

        These are results no worker of ours was seen finishing: a dead
        supervisor's leftovers, or the late publication of a worker it
        orphaned. A worker this supervisor reaps is settled by
        :meth:`_settle` instead, so every shard completes exactly once.
        """
        digest = journal.plan_digest
        adopted = 0
        for index in journal.in_state("pending", "failed"):
            if worker_mod.load_result(self.dir, index, digest) is not None:
                journal.complete(
                    index, str(worker_mod.result_path(self.dir, index).name)
                )
                adopted += 1
        if adopted:
            _log.info("adopted %d already-published shard result(s)", adopted)
            self.metrics.inc("sweep_results_adopted_total", adopted)
        return adopted

    def _maybe_truncate_journal(self, chaos: ChaosPolicy) -> None:
        """Chaos knob: tear the primary journal behind our own back.

        The in-memory journal keeps supervising fine; what this proves is
        that any *resume* must survive a torn primary via the ``.bak``
        twin.
        """
        if not chaos.truncate_journal:
            return
        try:
            size = self.journal_path.stat().st_size
            with open(self.journal_path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
        except OSError:  # pragma: no cover - nothing durable to tear
            pass

    # -- serial reference mode ------------------------------------------------

    def _run_serial(
        self, plan: SweepPlan, journal: SweepJournal, chaos: ChaosPolicy
    ) -> None:
        """Execute every shard in-process through the same journal/merge path.

        The bit-identity baseline and the no-multiprocessing fallback.
        Only the chaos knobs that make sense in-process apply (poison,
        drop, delay); kill/hang would take the supervisor down with the
        work and are ignored with a note.
        """
        if chaos.active() and (chaos.kill_after or chaos.hang_after):
            _log.warning(
                "serial mode ignores chaos kill_after/hang_after (they "
                "would kill the supervisor itself, not a worker)"
            )
        self._adopt_results(journal)
        while not journal.is_settled():
            now = time.time()
            ready = journal.leasable(now)
            if not ready:
                # Everything left is backing off: nap until the first
                # retry is due.
                time.sleep(max(0.0, journal.next_wakeup() - now))
                continue
            index = ready[0]
            attempt = journal.lease(
                index, owner=self.owner, pid=os.getpid(), now=now
            )
            striking = chaos.active() and chaos.applies(attempt)
            try:
                if chaos.is_poisoned(index):
                    raise SweepError(
                        f"chaos poison: shard {index} fails unconditionally"
                    )
                with get_profiler().span("sweep.shard"):
                    payload = worker_mod.execute_shard(plan, index, self.dir)
                if striking and chaos.delay > 0:
                    time.sleep(chaos.delay)
                if striking and chaos.drop:
                    raise SweepError("chaos drop: result withheld")
                out = worker_mod.result_path(self.dir, index)
                out.parent.mkdir(parents=True, exist_ok=True)
                commit_json(out, payload)
                journal.complete(index, out.name)
                self.metrics.inc("sweep_shards_done_total")
            except SweepError as exc:
                self._fail_shard(
                    journal, index, attempt, str(exc), now=time.time()
                )
            self._maybe_truncate_journal(chaos)

    # -- supervised (multi-process) mode --------------------------------------

    def _spawn(
        self, plan: SweepPlan, index: int, attempt: int, chaos: ChaosPolicy
    ) -> _Lease:
        """Launch one shard worker process (stale liveness files cleared)."""
        for path in (
            worker_mod.heartbeat_path(self.dir, index),
            worker_mod.error_path(self.dir, index),
        ):
            try:
                path.unlink()
            except OSError:
                pass
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        proc = ctx.Process(
            target=worker_mod.run_shard_worker,
            args=(str(self.plan_path), index, str(self.dir)),
            kwargs={
                "attempt": attempt,
                "chaos_spec": chaos.to_spec(),
                "heartbeat_interval": self.options.heartbeat_interval,
            },
            name=f"sweep-shard-{index}",
            daemon=False,
        )
        proc.start()
        self.metrics.inc("sweep_workers_spawned_total")
        return _Lease(proc, attempt, time.time())

    def _worker_error(self, index: int, default: str) -> str:
        note = worker_mod.error_path(self.dir, index)
        try:
            text = note.read_text(encoding="utf-8").strip()
        except OSError:
            return default
        return text or default

    def _settle(
        self,
        journal: SweepJournal,
        index: int,
        lease: _Lease,
        now: float,
        *,
        expired: bool,
    ) -> None:
        """Record how a worker's attempt ended: done, retry or quarantine.

        ``expired`` marks a worker the loop killed for a stale heartbeat
        rather than saw exit; a result it published anyway is adopted.
        """
        digest = journal.plan_digest
        if worker_mod.load_result(self.dir, index, digest) is not None:
            journal.complete(
                index, worker_mod.result_path(self.dir, index).name
            )
            if expired:
                self.metrics.inc("sweep_results_adopted_total")
            else:
                self.metrics.inc("sweep_shards_done_total")
                self.metrics.observe(
                    "sweep_shard_seconds", now - lease.started
                )
            return
        if expired:
            error = "lease expired (heartbeat stale)"
        else:
            code = lease.proc.exitcode
            error = self._worker_error(
                index,
                f"worker killed by signal {-code}"
                if code is not None and code < 0
                else f"worker exited {code} without a result",
            )
        self._fail_shard(journal, index, lease.attempt, error, now=now)

    def _reap(
        self,
        journal: SweepJournal,
        active: dict[int, _Lease],
        exited: list,
        now: float,
    ) -> list[float]:
        """Settle exited workers and expire stale leases, in place.

        A worker counts as exited when its sentinel is in ``exited`` (the
        last wait's ready list) or it has an exit code. A live worker
        whose heartbeat is staler than ``lease_timeout`` (hung or
        wedged) is SIGKILLed and routed through retry. Returns the
        moments at which the surviving leases could next expire.
        """
        timeout = self.options.lease_timeout
        deadlines = []
        for index, lease in list(active.items()):
            proc = lease.proc
            if proc.sentinel in exited or proc.exitcode is not None:
                proc.join()
                del active[index]
                self._settle(journal, index, lease, now, expired=False)
                continue
            beat = worker_mod.read_heartbeat(self.dir, index)
            last = beat["time"] if beat else lease.started
            if now - last <= timeout:
                deadlines.append(last + timeout)
                continue
            _log.warning(
                "shard %d heartbeat stale for %.1fs; killing worker pid %s",
                index,
                now - last,
                proc.pid,
            )
            self.metrics.inc("sweep_leases_expired_total")
            self._kill(proc)
            del active[index]
            self._settle(journal, index, lease, now, expired=True)
        return deadlines

    def _run_supervised(
        self, plan: SweepPlan, journal: SweepJournal, chaos: ChaosPolicy
    ) -> None:
        """The event loop: one journal step, its spawns, then a wait.

        Each pass reaps, adopts stray results and leases shards for the
        free worker slots inside one journal step, so its transitions
        commit once and before any of its workers starts. It then
        blocks on the live workers' sentinels until one exits, a lease
        could expire (last heartbeat + ``lease_timeout``) or, with a
        slot free, a backoff elapses.
        """
        profiler = get_profiler()
        active: dict[int, _Lease] = {}
        exited: list = []
        try:
            while True:
                with journal.step():
                    now = time.time()
                    deadlines = self._reap(journal, active, exited, now)
                    self._adopt_results(journal)
                    spawns = []
                    free = self.options.workers - len(active)
                    for index in journal.leasable(now)[:free]:
                        attempt = journal.lease(
                            index, owner=self.owner, pid=None, now=now
                        )
                        spawns.append((index, attempt))
                if spawns:
                    with profiler.span("sweep.spawn"):
                        for index, attempt in spawns:
                            lease = self._spawn(plan, index, attempt, chaos)
                            active[index] = lease
                            deadlines.append(
                                lease.started + self.options.lease_timeout
                            )
                self._maybe_truncate_journal(chaos)

                if not active and journal.is_settled():
                    break
                if len(active) < self.options.workers:
                    wake = journal.next_wakeup()
                    if wake is not None:
                        deadlines.append(wake)
                with profiler.span("sweep.wait"):
                    exited = multiprocessing.connection.wait(
                        [lease.proc.sentinel for lease in active.values()],
                        timeout=max(0.0, min(deadlines) - time.time()),
                    )
        finally:
            for lease in active.values():
                self._kill(lease.proc)

    @staticmethod
    def _kill(proc) -> None:
        try:
            if proc.pid is not None and proc.exitcode is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5)
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass

    # -- merge + report -------------------------------------------------------

    def _merge(self, plan: SweepPlan, journal: SweepJournal) -> dict:
        """Fold all shard results in shard order into ``merged.json``.

        Deliberately excludes every wall-clock observable, so the file
        is byte-comparable between a chaos-ridden parallel sweep and a
        serial run of the same plan.
        """
        with get_profiler().span("sweep.merge"):
            merged = GroupedStats()
            trials = completed = 0
            for index in journal.indices():
                if journal.shard(index)["state"] != "done":
                    continue
                payload = worker_mod.load_result(
                    self.dir, index, journal.plan_digest
                )
                if payload is None:
                    raise SweepError(
                        f"shard {index} is marked done but its result file "
                        "is missing or invalid; re-run `repro sweep resume` "
                        "after restoring it (or delete the journal row)"
                    )
                merged.merge(payload["groups"])
                trials += int(payload["trials"])
                completed += int(payload["completed"])
            summary = {}
            for key in merged.groups():
                labels = parse_group_key(key)
                summary[key] = {
                    "labels": labels,
                    "rounds_p50": merged.quantile(key, "rounds", 0.50),
                    "rounds_p95": merged.quantile(key, "rounds", 0.95),
                    "rounds_p99": merged.quantile(key, "rounds", 0.99),
                    "makespan_p50": merged.quantile(key, "makespan", 0.50),
                    "makespan_p95": merged.quantile(key, "makespan", 0.95),
                    "makespan_p99": merged.quantile(key, "makespan", 0.99),
                }
            payload = {
                "version": MERGED_VERSION,
                "name": plan.name,
                "plan": journal.plan_digest,
                "shards": len(journal.indices()),
                "quarantined": journal.in_state("quarantined"),
                "trials": trials,
                "completed": completed,
                "summary": summary,
                "groups": merged.snapshot(),
            }
            commit_json(self.merged_path, payload)
        return payload

    def _report(
        self, plan: SweepPlan, journal: SweepJournal, *, wall: float
    ) -> SweepReport:
        trials = completed = 0
        for index in journal.in_state("done"):
            payload = worker_mod.load_result(
                self.dir, index, journal.plan_digest
            )
            if payload is not None:
                trials += int(payload["trials"])
                completed += int(payload["completed"])
        return SweepReport(
            name=plan.name,
            plan_digest=journal.plan_digest,
            counts=journal.counts(),
            quarantined=journal.in_state("quarantined"),
            trials=trials,
            completed=completed,
            merged_path=(
                str(self.merged_path) if self.merged_path.exists() else None
            ),
            wall_seconds=wall,
        )

    # -- ledger ---------------------------------------------------------------

    def record(self, report: SweepReport, ledger) -> str:
        """One ``kind="sweep"`` ledger row for a finished supervision pass."""
        from repro.observability.ledger import RunRecord

        merged = None
        if self.merged_path.exists():
            from repro.sweep.journal import load_json

            merged = load_json(self.merged_path, backup=False)
        record = RunRecord(
            kind="sweep",
            started_unix=time.time() - report.wall_seconds,
            wall_seconds=report.wall_seconds,
            workload=report.name,
            backend="",
            fault_model="none",
            trials=report.trials,
            fingerprint=report.plan_digest,
            summary={
                "counts": report.counts,
                "quarantined": list(report.quarantined),
                "trials": report.trials,
                "completed": report.completed,
                "merged": merged["summary"] if merged else None,
            },
            groups=merged["groups"] if merged else None,
        )
        run_id = ledger.record(record)
        report.run_id = run_id
        return run_id
