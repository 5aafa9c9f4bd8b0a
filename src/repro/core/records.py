"""Result records for rounds and full protocol executions."""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from repro.worms.worm import FailureKind, WormOutcome

__all__ = [
    "CollisionKind",
    "CollisionEvent",
    "OutcomeColumns",
    "RoundResult",
    "RoundRecord",
    "RepairEvent",
    "ProtocolResult",
    "DIAG_STRANDED",
    "DIAG_ACK_LOST",
    "DIAG_CONTENTION",
]

#: Per-worm diagnoses attached to incomplete executions: the worm's path
#: crosses a suspected-dead link; the worm was delivered but its
#: acknowledgement never came back; the worm simply kept losing coupler
#: conflicts within the round budget.
DIAG_STRANDED = "stranded-by-dead-link"
DIAG_ACK_LOST = "ack-lost"
DIAG_CONTENTION = "contention-starved"


class CollisionKind(enum.Enum):
    """What a collision did to the blocked worm."""

    ELIMINATED = "eliminated"  # arriving head cut; worm gone from here on
    TRUNCATED = "truncated"  # mid-transmission tail dumped (priority rule)


@dataclass(frozen=True)
class CollisionEvent:
    """One worm losing a coupler conflict to another.

    ``blocked`` lost to ``blocker`` on the directed ``link`` at
    ``wavelength`` during step ``time``; ``link_pos`` is the 0-based index
    of the link on the blocked worm's path. These events are the raw
    material of the witness-tree construction.
    """

    time: int
    link: tuple
    wavelength: int
    blocked: int
    blocker: int
    link_pos: int
    kind: CollisionKind


class OutcomeColumns:
    """One round's per-worm outcomes as columns, one row per launched worm.

    Rows are in launch order. ``worm`` holds each uid; ``code`` indexes
    :attr:`KINDS` (0 for a delivered worm, else its failure kind);
    ``flits`` the delivered flits; ``completion`` and ``failed_at`` the
    completion time and failure position, -1 standing for None.
    ``blockers`` maps a row to its blocker uids; a row without an entry
    has none. The engine writes these; :meth:`to_dict` and :meth:`of`
    convert to and from the :class:`WormOutcome` records.
    """

    #: The failure kind of each ``code``; code 0 is a delivered worm.
    KINDS = (None, *FailureKind)
    #: The ``code`` of each failure kind (None: delivered).
    CODES = dict(zip(KINDS, range(len(KINDS))))

    __slots__ = ("worm", "code", "flits", "completion", "failed_at", "blockers")

    def __init__(self, worm, code, flits, completion, failed_at, blockers) -> None:
        self.worm = worm
        self.code = code
        self.flits = flits
        self.completion = completion
        self.failed_at = failed_at
        self.blockers = blockers

    @classmethod
    def of(cls, outcomes: dict[int, WormOutcome]) -> "OutcomeColumns":
        """The columns of an outcome dict, one row per entry in its order."""
        rows = list(outcomes.values())
        code = cls.CODES

        def column(values, dtype=np.int64):
            return np.fromiter(values, dtype=dtype, count=len(rows))

        return cls(
            worm=column(o.worm for o in rows),
            code=column((code[o.failure] for o in rows), np.int8),
            flits=column(o.delivered_flits for o in rows),
            completion=column(
                -1 if o.completion_time is None else o.completion_time for o in rows
            ),
            failed_at=column(
                -1 if o.failed_at_link is None else o.failed_at_link for o in rows
            ),
            blockers={row: o.blockers for row, o in enumerate(rows) if o.blockers},
        )

    def __len__(self) -> int:
        return self.worm.shape[0]

    def to_dict(self) -> dict[int, WormOutcome]:
        """One :class:`WormOutcome` per row, keyed by uid, in row order."""
        kinds = self.KINDS
        blockers = self.blockers
        return {
            uid: WormOutcome(
                worm=uid,
                delivered=code == 0,
                delivered_flits=flits,
                failure=kinds[code],
                failed_at_link=None if at < 0 else at,
                completion_time=None if done < 0 else done,
                blockers=blockers.get(row, ()),
            )
            for row, (uid, code, flits, done, at) in enumerate(zip(
                self.worm.tolist(), self.code.tolist(), self.flits.tolist(),
                self.completion.tolist(), self.failed_at.tolist(),
            ))
        }


class RoundResult:
    """Engine output for one forward pass of launched worms.

    ``outcomes`` maps worm uid to its :class:`WormOutcome`, in launch
    order; ``collisions`` lists every losing conflict in time order;
    ``makespan`` is the last step during which any flit moved --
    including the dumped tails of eliminated and truncated worms, which
    keep draining through the links upstream of their cut. It is ``None``
    exactly when no flit moved at all: either nothing was launched, or
    every launched worm lost its head entering its very first link.
    ``faulted_links`` lists the dead directed links that actually ate a
    head this round (each once, in event order) -- the evidence stream
    the protocol's link-health monitor accumulates.

    ``outcomes`` may be given as a dict or as :class:`OutcomeColumns`.
    The engine gives columns: the dict is then built on the first read
    of :attr:`outcomes`. The tallies (:attr:`delivered`,
    :attr:`n_delivered`, :attr:`failure_counts`, ...) read columns,
    built from a given dict on first use. Results are immutable, compare
    by value and pickle.
    """

    __slots__ = ("_outcomes", "_columns", "collisions", "makespan", "faulted_links")

    def __init__(
        self,
        outcomes: "dict[int, WormOutcome] | OutcomeColumns",
        collisions: tuple[CollisionEvent, ...],
        makespan: int | None,
        faulted_links: tuple[tuple, ...] = (),
    ) -> None:
        columns = outcomes if isinstance(outcomes, OutcomeColumns) else None
        init = object.__setattr__
        init(self, "_columns", columns)
        init(self, "_outcomes", None if columns is not None else outcomes)
        init(self, "collisions", collisions)
        init(self, "makespan", makespan)
        init(self, "faulted_links", faulted_links)

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.outcomes, self.collisions, self.makespan, self.faulted_links)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"RoundResult(outcomes={self.outcomes!r}, "
            f"collisions={self.collisions!r}, makespan={self.makespan!r}, "
            f"faulted_links={self.faulted_links!r})"
        )

    def __reduce__(self):
        source = self._columns if self._outcomes is None else self._outcomes
        return (
            RoundResult,
            (source, self.collisions, self.makespan, self.faulted_links),
        )

    @property
    def outcomes(self) -> dict[int, WormOutcome]:
        """Uid -> :class:`WormOutcome`, in launch order (built on first read)."""
        if self._outcomes is None:
            object.__setattr__(self, "_outcomes", self._columns.to_dict())
        return self._outcomes

    @property
    def columns(self) -> OutcomeColumns:
        """The outcomes as :class:`OutcomeColumns`, in launch order."""
        if self._columns is None:
            object.__setattr__(self, "_columns", OutcomeColumns.of(self._outcomes))
        return self._columns

    @property
    def n_launched(self) -> int:
        """Number of launched worms (one outcome each)."""
        return len(self.columns)

    @property
    def delivered(self) -> list[int]:
        """Uids delivered completely this round."""
        cols = self.columns
        return cols.worm[cols.code == 0].tolist()

    @property
    def failed(self) -> list[int]:
        """Uids that failed this round."""
        cols = self.columns
        return cols.worm[cols.code != 0].tolist()

    @property
    def n_delivered(self) -> int:
        """Number of complete deliveries."""
        return int(np.count_nonzero(self.columns.code == 0))

    @property
    def n_failed(self) -> int:
        """Number of failures."""
        return self.n_launched - self.n_delivered

    @property
    def failure_counts(self) -> dict[FailureKind, int]:
        """How many worms failed with each :class:`FailureKind` (zeros included)."""
        kinds = OutcomeColumns.KINDS
        counts = np.bincount(self.columns.code, minlength=len(kinds)).tolist()
        return dict(zip(kinds[1:], counts[1:]))


@dataclass(frozen=True)
class RoundRecord:
    """Protocol-level bookkeeping for one round ``t``.

    ``duration`` is the paper's nominal round budget
    ``Delta_t + 2(D + L)``; ``observed_span`` is the simulated forward
    makespan -- the last step any flit moved, draining tails included --
    (plus ack span in simulated-ack mode). ``active_congestion``
    is the path congestion C̃_t of the worms still active at the *start*
    of the round (the Lemma 2.4 quantity), when tracking is enabled.
    """

    index: int
    delay_range: int
    active_before: int
    delivered: int
    eliminated: int
    truncated: int
    acked: int
    duration: int
    observed_span: int
    active_congestion: int | None = None
    faulted: int = 0


@dataclass(frozen=True)
class RepairEvent:
    """One worm rerouted around suspected-dead links (``repair="reroute"``).

    ``round`` is the round *after* which the repair was applied; the
    lengths are in links. Any repair means the routed collection is no
    longer guaranteed to satisfy the structural invariants (leveled,
    short-cut-free) the original was built with.
    """

    round: int
    worm: int
    old_length: int
    new_length: int


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of a full trial-and-failure execution.

    ``delivered_round`` maps worm uid to the round (1-based) in which its
    delivery was acknowledged; worms missing from it never finished inside
    ``max_rounds``. ``total_time`` sums the nominal round durations (the
    quantity the theorems bound); ``observed_time`` sums simulated spans.

    Incomplete executions degrade gracefully instead of returning a bare
    ``completed=False``: ``diagnosis`` maps every still-active worm uid
    to one of :data:`DIAG_STRANDED` / :data:`DIAG_ACK_LOST` /
    :data:`DIAG_CONTENTION`, and ``stall_reason`` is a one-line human
    summary. ``repairs`` lists the reroute events a fault-aware run
    applied (empty for ``repair="none"``).
    """

    completed: bool
    rounds: int
    total_time: int
    observed_time: int
    records: tuple[RoundRecord, ...]
    delivered_round: dict[int, int]
    collisions_per_round: tuple[tuple[CollisionEvent, ...], ...] = field(
        default_factory=tuple
    )
    duplicate_deliveries: int = 0
    diagnosis: dict[int, str] = field(default_factory=dict)
    stall_reason: str | None = None
    repairs: tuple[RepairEvent, ...] = field(default_factory=tuple)

    @property
    def n_worms_delivered(self) -> int:
        """How many worms were delivered and acknowledged."""
        return len(self.delivered_round)

    def rounds_histogram(self) -> dict[int, int]:
        """Round index -> number of worms first acknowledged that round."""
        hist: dict[int, int] = {}
        for r in self.delivered_round.values():
            hist[r] = hist.get(r, 0) + 1
        return dict(sorted(hist.items()))
