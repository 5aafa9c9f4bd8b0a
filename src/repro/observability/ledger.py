"""Persistent run ledger: durable, queryable history of every run.

Runs, sweeps, scenarios and benchmark samples all emit metrics/trace
artifacts that die on disk with no identity. The ledger gives each one
a durable row -- config fingerprint, seed, backend, workload, fault
model, scenario, git revision, wall time, plus the full deterministic
:class:`~repro.observability.metrics.MetricsRegistry` /
:class:`~repro.observability.spans.SpanProfile` snapshots and a
:class:`~repro.observability.groupstats.GroupedStats` snapshot -- so
"how does this run compare to the last 50 of the same workload?" is a
query, not an archaeology project.

Storage is zero-dependency: SQLite via the stdlib ``sqlite3`` module at
the default ``.repro/ledger.db``, or an append-only JSONL file when the
path ends in ``.jsonl``/``.ndjson`` (the fallback writer for
environments where a database file cannot be rewritten). Both backends
store one JSON payload per run and support the same query surface.

Producers opt in through the ``ledger=`` parameter on
:func:`~repro.runners.protocol_trials.route_collection_trials` and
:func:`~repro.scenarios.spec.run_scenario`, the CLI's ``--ledger
[PATH]`` flags, and ``benchmarks/bench_series.py --ledger``. Consumers
use the ``repro runs list|show|compare|groups|gc`` CLI family or this
module directly; :func:`compare_runs` reuses
:func:`repro.observability.benchcmp.delta_between`, so ``repro runs
compare`` reports the same headline-ratio + per-stage attribution as
``repro bench compare`` and exits nonzero past the threshold -- a
history-aware regression gate instead of a pairwise file diff.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

from repro.errors import ObservabilityError
from repro.observability.benchcmp import (
    DEFAULT_THRESHOLD,
    BenchDelta,
    BenchSample,
    delta_between,
)
from repro.observability.groupstats import GroupedStats
from repro.observability.trace import git_revision

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA_VERSION",
    "RunRecord",
    "RunLedger",
    "stable_repr",
    "fingerprint_of",
    "compare_runs",
]

#: Where the CLI's bare ``--ledger`` flag records to.
DEFAULT_LEDGER_PATH = ".repro/ledger.db"

LEDGER_SCHEMA_VERSION = 1

#: Suffixes selecting the append-only JSONL backend instead of SQLite.
_JSONL_SUFFIXES = (".jsonl", ".ndjson")

#: Default object reprs embed instance addresses; strip them so
#: fingerprints are stable across processes (the same normalisation the
#: PR 4 checkpoint context digest applies).
_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def stable_repr(value) -> str:
    """``repr(value)`` with memory addresses normalised away."""
    return _HEX_ADDR.sub("0x", repr(value))


def fingerprint_of(*parts) -> str:
    """A stable config fingerprint: sha256 over the parts' stable reprs.

    The same digest shape as the trial-runner checkpoint context, so a
    ledger row and a checkpoint journal written for the same (trial
    function, config, backend) setup agree on identity.
    """
    payload = "\x1f".join(stable_repr(p) for p in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class RunRecord:
    """One ledger row: the identity and observables of a single run.

    ``kind`` partitions the history: ``"trials"`` (a
    ``route_collection_trials`` batch), ``"scenario"`` (a streaming
    scenario run), ``"bench"`` (one ``bench_series`` sample),
    ``"experiment"`` (a CLI experiment/sweep invocation) or
    ``"sweep"`` (a merged sharded sweep — fingerprint is the plan
    digest, groups are the shard-order fold; see
    :mod:`repro.sweep`). ``groups``
    carries a :class:`~repro.observability.groupstats.GroupedStats`
    snapshot keyed by (workload, backend, fault-model, scenario), which
    is what makes the history's quantiles mergeable with bounded
    memory; ``metrics``/``spans`` hold the registry and span-profile
    snapshots when the producer had them enabled.
    """

    kind: str
    run_id: str = ""
    schema: int = LEDGER_SCHEMA_VERSION
    started_unix: float = 0.0
    wall_seconds: float = 0.0
    workload: str = ""
    backend: str = ""
    fault_model: str = "none"
    scenario: str = ""
    seed: int | None = None
    trials: int | None = None
    fingerprint: str = ""
    git_rev: str | None = None
    python: str = ""
    summary: dict = field(default_factory=dict)
    metrics: dict | None = None
    spans: dict | None = None
    groups: dict | None = None

    def to_dict(self) -> dict:
        """Plain JSON-ready dict (the stored payload)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunRecord":
        """Rebuild a record from a stored payload, ignoring unknown keys."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in dict(data).items() if k in known})

    def group_labels(self) -> dict[str, str]:
        """The canonical grouping labels of this run."""
        return {
            "workload": self.workload,
            "backend": self.backend,
            "fault_model": self.fault_model,
            "scenario": self.scenario,
        }

    def headline(self) -> tuple[str, float]:
        """The (metric name, value) pair ``repro runs compare`` diffs.

        Benchmark rows compare on their median round time; everything
        else on wall seconds.
        """
        if self.kind == "bench" and "round_seconds_median" in self.summary:
            return (
                "round_seconds_median",
                float(self.summary["round_seconds_median"]),
            )
        return "wall_seconds", float(self.wall_seconds)

    def stage_means(self) -> dict[str, float]:
        """Per-stage mean seconds: bench stages, else span-path means."""
        if self.kind == "bench" and isinstance(
            self.summary.get("stages"), dict
        ):
            return {k: float(v) for k, v in self.summary["stages"].items()}
        if not self.spans:
            return {}
        return {
            path: stats["total"] / stats["count"]
            for path, stats in self.spans.items()
            if stats.get("count")
        }


def _new_run_id(started_unix: float) -> str:
    """A unique, roughly time-sortable run id."""
    return f"r{int(started_unix * 1000):013x}{os.urandom(3).hex()}"


class _SqliteStore:
    """SQLite storage (internal): one ``runs`` table, JSON payloads."""

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS runs (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            run_id TEXT UNIQUE NOT NULL,
            kind TEXT NOT NULL,
            started_unix REAL NOT NULL,
            workload TEXT NOT NULL DEFAULT '',
            backend TEXT NOT NULL DEFAULT '',
            fault_model TEXT NOT NULL DEFAULT '',
            scenario TEXT NOT NULL DEFAULT '',
            payload TEXT NOT NULL
        )
    """

    def __init__(self, path: pathlib.Path) -> None:
        import sqlite3

        self.path = path
        try:
            self._conn = sqlite3.connect(str(path))
            with self._conn:
                self._conn.execute(self._SCHEMA)
        except sqlite3.Error as exc:
            raise ObservabilityError(
                f"cannot open run ledger {path}: {exc}"
            ) from exc

    def append(self, record: RunRecord) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT INTO runs (run_id, kind, started_unix, workload,"
                " backend, fault_model, scenario, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.run_id,
                    record.kind,
                    record.started_unix,
                    record.workload,
                    record.backend,
                    record.fault_model,
                    record.scenario,
                    json.dumps(record.to_dict(), sort_keys=True, default=str),
                ),
            )

    def load(self) -> list[RunRecord]:
        rows = self._conn.execute(
            "SELECT payload FROM runs ORDER BY id"
        ).fetchall()
        return [RunRecord.from_dict(json.loads(p)) for (p,) in rows]

    def delete(self, run_ids: Iterable[str]) -> int:
        ids = list(run_ids)
        with self._conn:
            cur = self._conn.executemany(
                "DELETE FROM runs WHERE run_id = ?", [(r,) for r in ids]
            )
        return cur.rowcount if cur.rowcount >= 0 else len(ids)

    def close(self) -> None:
        self._conn.close()


class _JsonlStore:
    """Append-only JSONL storage (internal): one payload per line.

    The fallback for environments where SQLite cannot rewrite its
    database file: ``append`` only ever appends. ``delete`` (for
    ``gc``) atomically rewrites via a temp file, the one operation that
    needs more than append rights.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path

    def append(self, record: RunRecord) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(record.to_dict(), sort_keys=True, default=str)
                + "\n"
            )

    def load(self) -> list[RunRecord]:
        if not self.path.exists():
            return []
        records = []
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(RunRecord.from_dict(json.loads(line)))
                except (ValueError, TypeError) as exc:
                    raise ObservabilityError(
                        f"run ledger {self.path} line {lineno} is "
                        f"unreadable: {exc}"
                    ) from exc
        return records

    def delete(self, run_ids: Iterable[str]) -> int:
        doomed = set(run_ids)
        kept = [r for r in self.load() if r.run_id not in doomed]
        removed = 0
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for record in kept:
                fh.write(
                    json.dumps(record.to_dict(), sort_keys=True, default=str)
                    + "\n"
                )
        removed = len(self.load()) - len(kept)
        os.replace(tmp, self.path)
        return removed

    def close(self) -> None:
        """Nothing to release (the file is opened per operation)."""


#: ``latest`` / ``latest~N`` run references.
_LATEST_REF = re.compile(r"^latest(?:~(\d+))?$")


class RunLedger:
    """The persistent run history: record, query, compare, collect garbage.

    ``path`` selects the backend by suffix: ``.jsonl``/``.ndjson`` is
    the append-only JSONL writer, anything else SQLite (the default
    ``.repro/ledger.db``). Parent directories are created on demand.
    Usable as a context manager; :meth:`close` releases the database
    handle.
    """

    def __init__(self, path: str | pathlib.Path | None = None) -> None:
        self.path = pathlib.Path(path if path is not None else DEFAULT_LEDGER_PATH)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.suffix in _JSONL_SUFFIXES:
            self._store = _JsonlStore(self.path)
        else:
            self._store = _SqliteStore(self.path)

    # -- recording -----------------------------------------------------------

    def record(self, record: RunRecord) -> str:
        """Persist one run; fills run identity defaults. Returns the run id."""
        if not record.kind:
            raise ObservabilityError("a ledger record needs a kind")
        if not record.started_unix:
            record.started_unix = time.time()
        if not record.run_id:
            record.run_id = _new_run_id(record.started_unix)
        if record.git_rev is None:
            record.git_rev = git_revision()
        if not record.python:
            record.python = sys.version.split()[0]
        self._store.append(record)
        return record.run_id

    # -- querying ------------------------------------------------------------

    def runs(
        self,
        *,
        kind: str | None = None,
        workload: str | None = None,
        backend: str | None = None,
        fault_model: str | None = None,
        scenario: str | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Matching runs, oldest first; ``limit`` keeps the most recent N."""
        out = [
            r
            for r in self._store.load()
            if (kind is None or r.kind == kind)
            and (workload is None or r.workload == workload)
            and (backend is None or r.backend == backend)
            and (fault_model is None or r.fault_model == fault_model)
            and (scenario is None or r.scenario == scenario)
        ]
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    def get(self, ref: str) -> RunRecord:
        """Resolve ``latest``, ``latest~N``, a run id, or a unique prefix."""
        records = self._store.load()
        if not records:
            raise ObservabilityError(
                f"run ledger {self.path} holds no runs yet"
            )
        m = _LATEST_REF.match(ref)
        if m:
            back = int(m.group(1) or 0)
            if back >= len(records):
                raise ObservabilityError(
                    f"{ref!r} reaches past the ledger's {len(records)} run(s)"
                )
            return records[len(records) - 1 - back]
        matches = [r for r in records if r.run_id == ref]
        if not matches:
            matches = [r for r in records if r.run_id.startswith(ref)]
        if not matches:
            raise ObservabilityError(
                f"no run {ref!r} in ledger {self.path}; try 'repro runs list'"
            )
        if len(matches) > 1:
            raise ObservabilityError(
                f"run reference {ref!r} is ambiguous "
                f"({len(matches)} matches); use more characters"
            )
        return matches[0]

    def group_history(self, cap: int | None = None, **filters) -> GroupedStats:
        """All matching runs' grouped stats merged into one accumulator.

        Merge order cannot matter (the reservoirs are keep-smallest by
        tag), so the result is a pure function of the set of rows.
        """
        stats = GroupedStats() if cap is None else GroupedStats(cap)
        for record in self.runs(**filters):
            if record.groups:
                stats.merge(record.groups)
        return stats

    # -- maintenance ---------------------------------------------------------

    def gc(
        self,
        *,
        keep: int | None = None,
        before: float | None = None,
        kind: str | None = None,
    ) -> int:
        """Delete old runs; returns how many rows were removed.

        ``keep=N`` retains the most recent N (per the whole ledger, or
        per the ``kind`` filter when given); ``before=UNIX`` deletes
        runs started earlier than the timestamp. At least one bound is
        required -- a bare ``gc`` deleting everything would be a trap.
        """
        if keep is None and before is None:
            raise ObservabilityError("gc needs keep= and/or before=")
        if keep is not None and keep < 0:
            raise ObservabilityError(f"keep must be >= 0, got {keep}")
        candidates = self.runs(kind=kind)
        doomed = []
        if before is not None:
            doomed.extend(r for r in candidates if r.started_unix < before)
        if keep is not None and len(candidates) > keep:
            doomed.extend(candidates[: len(candidates) - keep])
        doomed_ids = {r.run_id for r in doomed}
        if not doomed_ids:
            return 0
        return self._store.delete(sorted(doomed_ids))

    def close(self) -> None:
        """Release the storage handle."""
        self._store.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        backend = type(self._store).__name__.strip("_")
        return f"<RunLedger {self.path} ({backend})>"


def _sample_of(record: RunRecord, metric: str) -> BenchSample:
    """A ledger row as the normalised sample shape benchcmp diffs."""
    _, value = record.headline()
    return BenchSample(
        backend=record.backend or record.kind,
        round_seconds_median=value,
        round_seconds_best=value,
        events_per_second=0.0,
        stages=record.stage_means(),
        meta={
            "run_id": record.run_id,
            "kind": record.kind,
            "git_rev": record.git_rev,
            "workload": record.workload,
            "scenario": record.scenario,
        },
    )


def compare_runs(
    ledger: RunLedger,
    baseline_ref: str,
    candidate_ref: str | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchDelta:
    """Diff two ledger runs (or one run against its grouped history).

    With ``candidate_ref`` given, both rows must share ``kind`` and
    ``backend`` (runs under different backend names dispatch trials
    differently, so their difference is not a regression signal). With ``candidate_ref=None``, the
    *baseline* becomes the median headline of every other run in the
    same (kind, workload, backend, fault-model, scenario) group and the
    referenced run is the candidate -- the history-aware gate. The
    returned delta reuses :func:`~repro.observability.benchcmp.delta_between`,
    so per-stage attribution and the threshold flag behave exactly like
    ``repro bench compare``.
    """
    if candidate_ref is not None:
        base = ledger.get(baseline_ref)
        cand = ledger.get(candidate_ref)
        if base.kind != cand.kind:
            raise ObservabilityError(
                f"cannot compare a {base.kind!r} run against a "
                f"{cand.kind!r} run"
            )
        if base.backend != cand.backend:
            raise ObservabilityError(
                f"cannot compare backends {base.backend!r} vs "
                f"{cand.backend!r}; their timings are not commensurable"
            )
        metric, _ = cand.headline()
        return delta_between(
            _sample_of(base, metric),
            _sample_of(cand, metric),
            threshold=threshold,
            metric=metric,
        )
    cand = ledger.get(baseline_ref)
    metric, _ = cand.headline()
    peers = [
        r
        for r in ledger.runs(
            kind=cand.kind,
            workload=cand.workload,
            backend=cand.backend,
            fault_model=cand.fault_model,
            scenario=cand.scenario,
        )
        if r.run_id != cand.run_id
    ]
    if not peers:
        raise ObservabilityError(
            f"run {cand.run_id} has no history peers (same kind/workload/"
            "backend/fault-model/scenario) to compare against"
        )
    headline = statistics.median(r.headline()[1] for r in peers)
    stage_names = set()
    for r in peers:
        stage_names.update(r.stage_means())
    stages = {}
    for name in stage_names:
        values = [
            r.stage_means()[name] for r in peers if name in r.stage_means()
        ]
        if values:
            stages[name] = statistics.median(values)
    baseline = BenchSample(
        backend=cand.backend or cand.kind,
        round_seconds_median=headline,
        round_seconds_best=headline,
        events_per_second=0.0,
        stages=stages,
        meta={"run_id": f"history[n={len(peers)}]", "kind": cand.kind},
    )
    return delta_between(
        baseline, _sample_of(cand, metric), threshold=threshold, metric=metric
    )
