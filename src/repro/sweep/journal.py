"""The sweep's durable work queue: shard states that survive ``kill -9``.

One JSON document tracks every shard of a sweep through the state
machine ::

    pending --lease--> leased --complete--> done
                         |
                         +--fail--> failed --(backoff elapses, re-lease)--> leased
                                      |
                                      +--(attempts exhausted)--> quarantined

Transitions mutate the in-memory rows; durability comes in *steps*.
Inside :meth:`SweepJournal.step` every transition of one supervision
step (its reaps, failures and leases) is held in memory, and leaving
the step commits them all at once. A transition made outside any step
is a step of its own and commits immediately. The supervisor spawns a
step's workers only after the step has committed, so a running worker
always holds a durable lease.

A commit goes through :func:`commit_json`: the payload is fsynced to a
temp file, atomically renamed over the journal, the directory entry
fsynced, and then a second identical copy is renamed over the ``.bak``
sibling. A crash between the two renames leaves the backup one commit
behind -- still a valid state, just slightly stale -- and
:func:`load_json` falls back to it whenever the primary is torn or
truncated (which the chaos harness's ``truncate_journal`` knob inflicts
on purpose). Staleness is safe by construction: shard *results* live in
their own content-addressed files, so a lost ``done`` transition merely
re-discovers the finished result file when a supervisor next adopts
published results.

The journal embeds the plan digest; loading it against a different plan
is refused rather than silently mixing incomparable shard sets.
"""

from __future__ import annotations

import contextlib
import json
import logging
import pathlib
import time
from typing import Iterable, Iterator, Mapping

from repro._util import durable_write_text
from repro.errors import SweepError
from repro.observability.spans import get_profiler

__all__ = ["SHARD_STATES", "SweepJournal", "commit_json", "load_json"]

_log = logging.getLogger(__name__)

JOURNAL_VERSION = 1

SHARD_STATES = ("pending", "leased", "done", "failed", "quarantined")

#: States a supervisor may (re-)lease work from.
LEASABLE_STATES = ("pending", "failed")

#: How many failure descriptions one shard retains (newest last).
_FAILURE_LOG_CAP = 8


def commit_json(path: "str | pathlib.Path", payload, *, backup: bool = False) -> None:
    """Durably write ``payload`` as JSON; optionally refresh a ``.bak`` twin.

    With ``backup=True`` the same bytes are written twice (primary, then
    backup), each via :func:`repro._util.durable_write_text`, so at
    every instant at least one of the two siblings is a complete valid
    document -- the property the torn-write recovery in
    :func:`load_json` relies on.
    """
    path = pathlib.Path(path)
    text = json.dumps(payload, sort_keys=True)
    durable_write_text(path, text)
    if backup:
        durable_write_text(path.with_name(path.name + ".bak"), text)


def load_json(path: "str | pathlib.Path", *, backup: bool = True):
    """Read a JSON document, recovering from the ``.bak`` twin when torn.

    Returns the parsed payload. Raises :class:`SweepError` when the file
    is missing, or when both the primary and its backup are unreadable.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise SweepError(f"journal file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        primary_error = exc
    bak = path.with_name(path.name + ".bak")
    if backup and bak.exists():
        try:
            payload = json.loads(bak.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            pass
        else:
            _log.warning(
                "journal %s is torn (%s); recovered from backup %s",
                path,
                primary_error,
                bak,
            )
            return payload
    raise SweepError(
        f"journal {path} is unreadable ({primary_error}) and no valid "
        "backup exists"
    )


def _new_shard_row() -> dict:
    return {
        "state": "pending",
        "attempts": 0,
        "not_before": 0.0,
        "lease": None,
        "result": None,
        "failures": [],
    }


class SweepJournal:
    """In-memory view of the work queue, committed durably once per step.

    One supervisor owns the journal at a time (``owner`` is a purely
    informational id recorded into leases); after a supervisor dies, a
    successor simply loads the file and re-leases whatever did not
    finish -- there is no lock to steal because shard results are
    idempotent and content-addressed.
    """

    def __init__(
        self,
        path: "str | pathlib.Path",
        plan_digest: str,
        shards: dict[int, dict],
        created_unix: float,
    ) -> None:
        self.path = pathlib.Path(path)
        self.plan_digest = plan_digest
        self._shards = shards
        self.created_unix = created_unix
        self._in_step = False
        self._dirty = False

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls, path: "str | pathlib.Path", plan, *, now: float | None = None
    ) -> "SweepJournal":
        """Start a fresh journal with every shard pending; refuses to clobber."""
        path = pathlib.Path(path)
        if path.exists():
            raise SweepError(
                f"journal {path} already exists; resume the sweep (or "
                "remove the directory) instead of starting it twice"
            )
        shards = {s.index: _new_shard_row() for s in plan.shards()}
        journal = cls(
            path,
            plan.digest(),
            shards,
            now if now is not None else time.time(),
        )
        journal.commit()
        return journal

    @classmethod
    def load(
        cls, path: "str | pathlib.Path", *, plan_digest: str | None = None
    ) -> "SweepJournal":
        """Read a journal back (torn-write tolerant); verify the plan digest."""
        payload = load_json(path)
        if not isinstance(payload, Mapping):
            raise SweepError(f"journal {path} is not a JSON object")
        if payload.get("version") != JOURNAL_VERSION:
            raise SweepError(
                f"journal {path} has schema version "
                f"{payload.get('version')!r}, expected {JOURNAL_VERSION}"
            )
        digest = str(payload.get("plan", ""))
        if plan_digest is not None and digest != plan_digest:
            raise SweepError(
                f"journal {path} was written for a different plan "
                "(digest mismatch); its shards are not comparable -- "
                "point --dir at the original plan or start a new sweep"
            )
        raw = payload.get("shards", {})
        shards: dict[int, dict] = {}
        for key, row in raw.items():
            if not isinstance(row, Mapping) or row.get("state") not in SHARD_STATES:
                raise SweepError(
                    f"journal {path} shard {key!r} has a malformed row"
                )
            shards[int(key)] = dict(row)
        return cls(
            path, digest, shards, float(payload.get("created_unix", 0.0))
        )

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The persisted form: version, plan digest, per-shard rows."""
        return {
            "version": JOURNAL_VERSION,
            "plan": self.plan_digest,
            "created_unix": self.created_unix,
            "shards": {str(i): row for i, row in sorted(self._shards.items())},
        }

    def commit(self) -> None:
        """Durably persist the current state (primary + backup twin)."""
        with get_profiler().span("sweep.commit"):
            commit_json(self.path, self.to_dict(), backup=True)
        self._dirty = False

    @contextlib.contextmanager
    def step(self) -> Iterator[None]:
        """One supervision step: its transitions share one durable commit.

        Transitions inside the block change memory only; leaving it
        commits them once (nothing is written when none happened). A
        block left by an exception does not commit: what it changed
        reaches disk with the next commit, or is re-derived by a
        successor from the last committed state and the published
        result files.
        """
        self._in_step = True
        try:
            yield
        finally:
            self._in_step = False
        if self._dirty:
            self.commit()

    def _changed(self) -> None:
        """Note a transition; commit now unless a step is open."""
        self._dirty = True
        if not self._in_step:
            self.commit()

    # -- queries -------------------------------------------------------------

    def shard(self, index: int) -> dict:
        """The live row for shard ``index`` (``SweepError`` if unknown)."""
        try:
            return self._shards[index]
        except KeyError:
            raise SweepError(
                f"journal {self.path} has no shard {index}"
            ) from None

    def indices(self) -> list[int]:
        """All shard indices tracked by this journal, ascending."""
        return sorted(self._shards)

    def in_state(self, *states: str) -> list[int]:
        """Shard indices currently in any of ``states``, ascending."""
        return sorted(
            i for i, row in self._shards.items() if row["state"] in states
        )

    def leasable(self, now: float) -> list[int]:
        """Shards a supervisor may lease right now (backoff elapsed)."""
        return [
            i
            for i in self.in_state(*LEASABLE_STATES)
            if self._shards[i]["not_before"] <= now
        ]

    def next_wakeup(self) -> float | None:
        """The earliest ``not_before`` among backing-off shards, if any."""
        pending = [
            row["not_before"]
            for row in self._shards.values()
            if row["state"] in LEASABLE_STATES and row["not_before"] > 0
        ]
        return min(pending) if pending else None

    def counts(self) -> dict[str, int]:
        """``{state: shard count}`` for every state (zeros included)."""
        out = {state: 0 for state in SHARD_STATES}
        for row in self._shards.values():
            out[row["state"]] += 1
        return out

    def is_settled(self) -> bool:
        """Whether no shard can make further progress (done/quarantined)."""
        return all(
            row["state"] in ("done", "quarantined")
            for row in self._shards.values()
        )

    # -- transitions (durable at the end of their step) ----------------------

    def lease(
        self,
        index: int,
        *,
        owner: str,
        pid: int | None,
        now: float,
    ) -> int:
        """Move a leasable shard to ``leased``; returns the attempt number."""
        row = self.shard(index)
        if row["state"] not in LEASABLE_STATES:
            raise SweepError(
                f"shard {index} is {row['state']}, not leasable"
            )
        row["state"] = "leased"
        row["attempts"] += 1
        row["lease"] = {"owner": owner, "pid": pid, "since": now}
        self._changed()
        return row["attempts"]

    def complete(self, index: int, result: str) -> None:
        """Mark a shard ``done``, recording its result file (relative path)."""
        row = self.shard(index)
        row["state"] = "done"
        row["lease"] = None
        row["result"] = result
        self._changed()

    def fail(
        self,
        index: int,
        error: str,
        *,
        now: float,
        retry_at: float | None,
        quarantine: bool,
    ) -> None:
        """Record a failed attempt: back off for retry, or quarantine."""
        row = self.shard(index)
        row["lease"] = None
        row["failures"] = (row["failures"] + [error])[-_FAILURE_LOG_CAP:]
        if quarantine:
            row["state"] = "quarantined"
            row["not_before"] = 0.0
        else:
            row["state"] = "failed"
            row["not_before"] = retry_at if retry_at is not None else now
        self._changed()

    def release(self, index: int) -> None:
        """Demote a leased shard back to its retry pool without blame.

        Used on resume for leases orphaned by a dead supervisor: the
        attempt stays counted (the work may have partially run) but no
        failure is recorded and no backoff applies.
        """
        row = self.shard(index)
        if row["state"] == "leased":
            row["state"] = "failed" if row["attempts"] else "pending"
            row["lease"] = None
            self._changed()

    def reset(self, indices: Iterable[int]) -> list[int]:
        """Return quarantined shards to ``pending`` with a fresh attempt budget."""
        touched = []
        for index in indices:
            row = self.shard(index)
            if row["state"] != "quarantined":
                continue
            row["state"] = "pending"
            row["attempts"] = 0
            row["not_before"] = 0.0
            row["lease"] = None
            touched.append(index)
        if touched:
            self._changed()
        return touched

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{state}={n}" for state, n in self.counts().items() if n
        )
        return f"<SweepJournal {self.path} {counts or 'empty'}>"
