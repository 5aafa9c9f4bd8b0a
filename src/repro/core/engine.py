"""The discrete-event wormhole routing engine.

Simulates one round (one forward pass) of the trial-and-failure protocol
exactly under the model of Section 1.1:

* a worm with startup delay ``delta`` enters the ``i``-th directed link of
  its path at step ``delta + i``; flit ``j`` crosses that link during step
  ``delta + i + j``; a fragment of ``l`` flits occupies the link during
  the inclusive window ``[delta+i, delta+i+l-1]``;
* worms are never buffered: at every coupler the head either proceeds or
  the worm loses flits, per the serve-first / priority kernels of
  :mod:`repro.optics.coupler`;
* an *eliminated* worm's upstream flits drain harmlessly (its already
  scheduled upstream occupancies stand, downstream ones never happen);
* a *truncated* worm (priority rule) keeps its leading fragment -- length
  = (cut time) - (entry time at the cut link) -- which continues to travel
  and to contend for links; occupancies strictly upstream of the cut keep
  their previous length; repeated truncations compose via ``min``.

Each contended (link, wavelength, time) group is decided by the
serve-first or priority rule of :mod:`repro.optics.coupler`.

One round body serves every call. :func:`run_round_batch` runs a
*pass*: one or more independent rounds (typically the same round of
many trials that differ only in their seeds), whose head-arrival events
are built with numpy and sorted once, channel-major: by (trial, link,
wavelength, time, position, launch row).
:meth:`RoutingEngine.run_round` is the one-call pass. Two events can
only interact if they share a (link, wavelength) channel *and* are at
most ``max_worm_length - 1`` steps apart (an occupancy written at
``t`` expires by ``t + L - 1``), so a single sorted-adjacent-gap test
marks every event that sits in such a pair as *clashed*. Every other
event meets an idle or stale channel, so its worm advances unless it is
already dead or the link is down.

Under serve-first a numpy fixed point (:func:`_settle`) decides every
clashed event in that same order: which are live, which meet a tie or
an occupant, which are lost to a dead link, and whom each eliminated
worm lost to. Serve-first never cuts a worm, so outcomes, last steps,
collisions and faulted links all follow from each worm's death position
and blocker in array arithmetic; no scalar loop runs and no per-worm
state is built unless a flight recorder asks for it. Under the priority
rule every clashed event replays through the scalar loop
(:meth:`RoutingEngine._resolve_scalar`, which applies the coupler
kernels), and each worm's makespan contribution follows from a closed
form over its truncations. Canonical (time, link, wavelength, position,
launch row) order -- the order such a replay walks -- is computed only
for the rows that need it: a priority round's replay, a recorder's
stream, the events worms die at. The clash test is conservative (it
over-approximates contention), so outcomes equal a replay of every
event; the flit-level oracle (:mod:`repro.core.reference`), the golden
round corpus and a differential test of the settle step against a
scalar replay enforce it.

A round's launches cross into the engine as
:class:`~repro.worms.worm.Launches` columns (launch objects are turned
into columns once, on entry) and its outcomes leave as
:class:`~repro.core.records.OutcomeColumns`: every worm without run
state gets its outcome and last step from array arithmetic, and the
:class:`~repro.core.records.RoundResult` builds its per-worm records
only when they are read.

Within a pass no trial's events cluster with another's (the trial id is
the most significant part of the channel key), so each trial's
outcomes, collision order, fault attribution and flight-recorder stream
are bit-identical to running that trial alone. A pass allocates its
event columns once, and every call writes its events into its slice.

The backend names (:data:`BACKENDS`) select nothing here: every name
runs this one kernel, and the trial runner steps trials in lockstep
passes under every name.

Every sort goes through :func:`_lexorder`, which packs the integer key
columns into as few int64 words as fit and sorts those; the pass's
channel sort reads its time and channel columns back from the sorted
word.
"""

from __future__ import annotations

import time
from collections import abc
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.records import (
    CollisionEvent,
    CollisionKind,
    OutcomeColumns,
    RoundResult,
)
from repro.errors import ProtocolError
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import SpanProfiler, get_profiler
from repro.optics.coupler import CollisionRule, TieRule, resolve
from repro.optics.signal import Arrival, Occupancy
from repro.paths.layout import LinkLayout, LinkUniverse, assign_link_ids
from repro.worms.worm import FailureKind, Launch, Launches, Worm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.observability.flightrec import FlightRecorder

__all__ = [
    "BACKENDS",
    "RoundCall",
    "RoutingEngine",
    "get_default_backend",
    "run_round",
    "run_round_batch",
    "set_default_backend",
]

#: The backend names a run can carry (see the module docstring).
BACKENDS = ("python", "vectorized", "batched")

_default_backend = "python"

#: Sentinel for :meth:`RoutingEngine.fork`'s ``metrics`` parameter: None
#: is a meaningful value there ("use the process default registry"), so
#: "inherit the parent's" needs its own marker.
_INHERIT = object()

_UID, _LENGTH, _PATH = map(attrgetter, ("uid", "length", "path"))

#: The timed stages of a pass, in order; each is one child span of
#: ``engine.round``.
_STAGES = ("build_events", "resolve", "finalise")


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend name.

    Runs that name no backend of their own (``ProtocolConfig.backend``
    None) take this one: it picks their trial dispatch and is part of
    their checkpoint context and ledger rows. Worker processes inherit
    the parent's choice through the trial runner's pool initializer, so
    one call in the driver covers a whole parallel sweep.
    """
    global _default_backend
    if name not in BACKENDS:
        raise ProtocolError(
            f"backend must be one of {BACKENDS}, got {name!r}"
        )
    _default_backend = name


def get_default_backend() -> str:
    """The process-wide default backend name (see :func:`set_default_backend`)."""
    return _default_backend


def _lexorder(
    columns: Sequence[np.ndarray], bounds: Sequence[int], keep: int = 0
):
    """Row order sorting integer ``columns``, the first most significant.

    ``columns[i]`` holds values in ``[0, bounds[i])``. The columns are
    packed, most significant first, into as few int64 words as hold 63
    bits each, with the row index in the lowest bits of the last word.
    Every key is then unique, so one word sorts in place by value (much
    faster than an ``argsort``) and the row order is read back from its
    low bits; several go through ``np.lexsort`` on the words. Either
    way the result equals the stable ``np.lexsort(columns[::-1])``.

    With ``keep``, returns ``(order, sorted)`` instead: ``sorted`` holds
    the first ``keep`` columns in that order, read back from the sorted
    word when there is one (cheaper than gathering them). The inputs
    are never written; each returned array is one allocation.
    """
    n = columns[0].shape[0]
    order = np.arange(n)
    words: list[np.ndarray] = []
    used = 64
    for col, bound in zip((*columns, order), (*bounds, n)):
        width = max(1, (int(bound) - 1).bit_length())
        if used + width > 63:
            # A copy, even of an int64 column: the word is packed in place.
            words.append(col.astype(np.int64))
            used = width
        else:
            words[-1] <<= width
            words[-1] |= col
            used += width
    if len(words) > 1:
        order = np.lexsort(words[::-1])
        return (order, [col[order] for col in columns[:keep]]) if keep else order
    # ``width`` is the row index's, packed lowest; ``order`` is its buffer.
    word = words[0]
    word.sort()
    np.bitwise_and(word, (1 << width) - 1, out=order)
    if not keep:
        return order
    kept = []
    for bound in bounds[:keep]:
        width = max(1, (int(bound) - 1).bit_length())
        used -= width
        col = word >> used
        col &= (1 << width) - 1
        kept.append(col)
    return order, kept


def _clash_sorted(chan: np.ndarray, t: np.ndarray, gap) -> np.ndarray:
    """The clash mask of events already sorted by (channel, time).

    An event is clashed if it shares its channel with an event at most
    ``gap`` steps away; ``gap`` is a scalar or, per adjacent pair, the
    later event's. Sorted, adjacent rows are the only candidates.
    """
    clash = (chan[1:] == chan[:-1]) & (t[1:] - t[:-1] <= gap)
    hit = np.zeros(chan.shape[0], dtype=bool)
    hit[1:] = clash
    hit[:-1] |= clash
    return hit


def _clashed(
    chan: np.ndarray, t: np.ndarray, gap, chan_bound: int, t_bound: int
) -> np.ndarray:
    """Mask of events sharing a channel with an event at most ``gap`` steps away.

    ``chan`` and ``t`` are each event's channel and time, below
    ``chan_bound`` and ``t_bound``; ``gap`` is a scalar or one value per
    event. Rows tied on (channel, time) sit together with a zero gap,
    so all of them are clashed and their neighbours see the same time
    whichever of them ends the tie: the mask does not depend on how
    the sort breaks ties.
    """
    order = _lexorder((chan, t), (chan_bound, t_bound))
    if isinstance(gap, np.ndarray):
        gap = gap[order[1:]]
    mask = np.empty(order.shape[0], dtype=bool)
    mask[order] = _clash_sorted(chan[order], t[order], gap)
    return mask


#: The settle step's death position for a worm that survives the round.
_ALIVE = np.iinfo(np.int64).max


def _settle(
    chan: np.ndarray,
    t: np.ndarray,
    pos: np.ndarray,
    run: np.ndarray,
    dark: np.ndarray,
    lowest: np.ndarray,
    uid: np.ndarray,
    length: np.ndarray,
    cap: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Serve-first outcome of clashed events, as a Jacobi fixed point.

    The event arrays hold clashed serve-first events in (channel, time,
    position, launch row) order: ``run`` indexes the per-worm ``uid``,
    ``length`` and ``cap`` (the position of each worm's first dead link
    outside the clashes, ``_ALIVE`` if none); ``dark`` marks events on a
    dead link and ``lowest`` those under ``LOWEST_ID_WINS``. Each
    iteration recomputes every event from the last one's state:

    * an event is *live* if its head gets there, ``pos <= dead_at``
      (a head does reach the link where it dies);
    * a (channel, time) group with two or more live events is a *tie*;
    * an event is *occupied* if the latest install strictly before its
      group on its channel still holds the channel at its time (the
      occupant's own worm length sets its end; serve-first installs
      only on an idle channel, so the latest install is the only one
      that can still hold it);
    * a live event on a dead link faults its worm; a live event in a
      tie or on an occupied channel is eliminated, except the lowest
      live uid of an unoccupied ``LOWEST_ID_WINS`` tie, which installs
      like a lone head on an idle channel.

    Every event depends only on events at strictly earlier times, so
    after the ``k``-th iteration the events at the ``k`` earliest times
    are final; the loop stops at the first iteration that changes
    neither the losses nor the installs, which is the unique
    fixed point, after at most one iteration per event plus one.

    Returns four arrays. Per worm: the death position, and the blocker
    uid of a worm eliminated here (-1 for every other worm). The
    blocker is the occupant on an occupied channel and the winner of a
    ``LOWEST_ID_WINS`` tie; in an ``ALL_LOSE`` tie it is the group's
    first live arrival, and the second one for that first arrival
    itself. Per event, for the counters: the live events of contended
    groups, and the events a scalar replay of the clashes would contend
    over -- those plus the install of each occupied group's occupant.
    """
    n = t.shape[0]
    if not n:
        empty = np.zeros(0, dtype=bool)
        return cap, np.full(cap.shape[0], -1, dtype=np.int64), empty, empty
    step = np.empty(n, dtype=bool)
    step[0] = True
    np.not_equal(chan[1:], chan[:-1], out=step[1:])
    # The first row of each event's channel, then of its (channel, time)
    # group.
    chan_first = np.flatnonzero(step)[np.cumsum(step) - 1]
    step[1:] |= t[1:] != t[:-1]
    firsts = np.flatnonzero(step)
    group = np.cumsum(step) - 1
    group_first = firsts[group]
    end = t + length[run] - 1
    # Most clusters have no same-time group and no dead link: skip the
    # terms that are then always False.
    any_tie = firsts.shape[0] < n
    any_dark = bool(dark.any())
    any_lowest = any_tie and bool(lowest.any())
    ids = uid[run] if any_lowest else None
    won = None
    reachable = ~dark
    rows = np.arange(n)
    # latest[i]: the last installing row before row i (-1 if none).
    latest = np.full(n + 1, -1, dtype=np.int64)
    dead_at = cap
    installed = killed = np.zeros(n, dtype=bool)
    for _ in range(n + 1):
        live = pos <= dead_at[run]
        latest[1:] = np.where(installed, rows, -1)
        np.maximum.accumulate(latest, out=latest)
        occupant = latest[group_first]
        # A row -1 fails the channel test, so its wrapped lookup is moot.
        occupied = (occupant >= chan_first) & (end[occupant] >= t)
        open_live = live & reachable if any_dark else live
        if any_tie:
            tie = np.add.reduceat(live, firsts, dtype=np.int64)[group] >= 2
            contended = open_live & (tie | occupied)
        else:
            contended = open_live & occupied
        install = open_live & ~contended
        lost = (live & dark) | contended if any_dark else contended
        if any_lowest:
            open_tie = contended & lowest & ~occupied
            key = np.where(open_tie, ids, _ALIVE)
            won = open_tie & (ids == np.minimum.reduceat(key, firsts)[group])
            install |= won
            lost = lost & ~won
        if not ((lost != killed).any() or (install != installed).any()):
            break
        killed, installed = lost, install
        dead_at = cap.copy()
        np.minimum.at(dead_at, run[killed], pos[killed])
    else:
        raise ProtocolError(f"the settle step did not converge over {n} events")
    # Each eliminated event is its worm's only loss, so it names the
    # worm's one blocker; pick the row of the event it lost to.
    eliminated = np.flatnonzero(contended & lost)
    pick = occupant[eliminated]
    tied = ~occupied[eliminated]
    if tied.any():
        rows_tied = eliminated[tied]
        g = group[rows_tied]
        live_rows = np.where(live, rows, n)
        first = np.minimum.reduceat(live_rows, firsts)
        live_rows[first[first < n]] = n
        second = np.minimum.reduceat(live_rows, firsts)
        alt = np.where(rows_tied == first[g], second[g], first[g])
        if won is not None:
            winner = np.maximum.reduceat(np.where(won, rows, -1), firsts)[g]
            alt = np.where(lowest[rows_tied], winner, alt)
        pick[tied] = alt
    blocker = np.full(cap.shape[0], -1, dtype=np.int64)
    blocker[run[eliminated]] = uid[run[pick]]
    replay = contended.copy()
    replay[occupant[contended & occupied]] = True
    return dead_at, blocker, contended, replay


class _Record:
    """One live occupancy: worm ``run`` holds a link from ``entry`` to ``end``."""

    __slots__ = ("run", "pos", "entry", "end")

    def __init__(self, run: "_Run", pos: int, entry: int, end: int) -> None:
        self.run = run
        self.pos = pos
        self.entry = entry
        self.end = end


class _Run:
    """Mutable per-worm state for one round.

    Built only for a priority-rule worm that the scalar replay or a dead
    link touches, and for every worm of a recorded round (the flight
    recorder reads its fields); every other worm's outcome is written
    straight from the columns.
    """

    __slots__ = (
        "uid",
        "length",
        "n_links",
        "delay",
        "wavelength",
        "priority",
        "cut_len",
        "dead_at",
        "faulted",
        "cuts",
        "blockers",
        "records",
    )

    def __init__(
        self,
        uid: int,
        length: int,
        n_links: int,
        delay: int,
        wavelength: "int | tuple[int, ...]",
        priority: int,
    ) -> None:
        self.uid = uid
        self.length = length
        self.n_links = n_links
        self.delay = delay
        self.wavelength = wavelength
        self.priority = priority
        self.cut_len = length
        self.dead_at: int | None = None
        self.faulted = False
        # Applied truncations as (event index, cut position, new length);
        # each one lowered cut_len.
        self.cuts: list[tuple[int, int, int]] = []
        self.blockers: list[int] = []
        self.records: list[_Record] = []


def _check_launch(worm: Worm, delay: int, wl: "int | tuple[int, ...]") -> None:
    """Reject a launch whose delay or wavelengths the engine cannot route."""
    if delay < 0:
        raise ProtocolError(f"worm {worm.uid}: negative launch delay {delay}")
    if isinstance(wl, tuple):
        if len(wl) != worm.n_links:
            raise ProtocolError(
                f"worm {worm.uid}: {len(wl)} per-link wavelengths "
                f"for {worm.n_links} links"
            )
        if any(w < 0 for w in wl):
            raise ProtocolError(
                f"worm {worm.uid}: negative per-link wavelength in {wl}"
            )
    elif wl < 0:
        raise ProtocolError(f"worm {worm.uid}: negative wavelength {wl}")


class _WormColumns:
    """The registered worms as columns, in registration order.

    ``start`` and ``count`` locate each worm's rows in the event table;
    ``length`` and ``uid`` are the worm's own. Replaced with the event
    table whenever the worm set changes; the uid lookup behind
    :meth:`rows` is sorted on first use.
    """

    __slots__ = ("uid", "start", "count", "length", "_index")

    def __init__(self, uid, start, count, length) -> None:
        self.uid = uid
        self.start = start
        self.count = count
        self.length = length
        self._index: tuple[np.ndarray, np.ndarray] | None = None

    def rows(self, uids: np.ndarray) -> tuple[np.ndarray, bool]:
        """Each of ``uids``' rows, and whether every one is registered."""
        if self._index is None:
            order = np.argsort(self.uid, kind="stable")
            self._index = (order, self.uid[order])
        order, ranked = self._index
        n = ranked.shape[0]
        if not n:
            return np.zeros_like(uids), not uids.shape[0]
        at = np.searchsorted(ranked, uids)
        np.minimum(at, n - 1, out=at)
        return order[at], bool((ranked[at] == uids).all())


#: The link ids of an engine without worms (arrays are never written in
#: place, so every engine starts from this one).
_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False


class _Launched(abc.Sequence):
    """One round's checked launches beside their worms' columns.

    ``launches`` are the round's :class:`Launches`; ``n_links``,
    ``length`` and ``start`` (first event-table row) are each launched
    worm's, in launch order. Indexing and iteration give the launched
    :class:`Worm` objects.
    """

    __slots__ = ("launches", "n_links", "length", "start", "_worms")

    def __init__(
        self,
        launches: Launches,
        rows: np.ndarray,
        table: _WormColumns,
        worms: dict[int, Worm],
    ) -> None:
        self.launches = launches
        self.n_links = table.count[rows]
        self.length = table.length[rows]
        self.start = table.start[rows]
        self._worms = worms

    def __len__(self) -> int:
        return len(self.launches)

    def __getitem__(self, k: int) -> Worm:
        return self._worms[int(self.launches.worm[range(len(self))[k]])]

    def runs(self, rows: np.ndarray | None = None) -> list[_Run]:
        """Fresh run state for the launch ``rows`` (every row if None)."""
        cols = self.launches
        columns = (cols.worm, self.length, self.n_links, cols.delay, cols.priority)
        if rows is not None:
            columns = tuple(col[rows] for col in columns)
        uid, length, n_links, delay, priority = (col.tolist() for col in columns)
        return list(
            map(_Run, uid, length, n_links, delay, cols.wavelengths(rows), priority)
        )


def _last_step(run: _Run, last: int) -> int:
    """The last step any flit of ``run`` moved, given its last live position.

    Every flit crossing lives inside some occupancy record, and each
    record ends with the last surviving flit through its link. The worm
    holds a record at every position ``p <= last``; that record entered
    at ``delay + p`` and lasts ``min(length, new_len of every cut in
    run.cuts at a position <= p)`` steps. A cut reaches the records at
    and downstream of its position whenever it lands, and none upstream,
    because those were written before it (a cut at ``c`` lands after
    step ``delay + c``). The length is therefore constant between cut
    positions, and the latest end lies at the last position before a cut
    or at ``last``.
    """
    flits = run.length
    end = -1
    for _, cut_pos, new_len in sorted(run.cuts, key=lambda cut: cut[1]):
        if cut_pos > 0:
            end = max(end, run.delay + cut_pos - 1 + flits - 1)
        flits = min(flits, new_len)
    return max(end, run.delay + last + flits - 1)


class _OrderedRecorder:
    """Buffers flight-recorder calls tagged with their global event index.

    Under the priority rule the engine emits the replayed events' calls
    from the scalar replay and the other events' calls from a later
    pass (a serve-first round emits every call from that pass); tagging
    each call with the index of the event that produced it and flushing
    in sorted order gives the recorder every event in the round's
    canonical order. Recorder methods read ``run.cut_len`` at call time
    (the ``surviving`` field), and the replay mutates it, so each
    buffered call carries the value in force at its event and the flush
    restores it around the real emission.
    """

    __slots__ = ("calls", "base")

    def __init__(self) -> None:
        self.calls: list[tuple[int, str, "_Run", tuple, int]] = []
        self.base = 0

    def add(self, index: int, name: str, run: "_Run", cut_len: int, *args) -> None:
        """Buffer one call for event ``index`` with ``cut_len`` in force."""
        self.calls.append((index, name, run, args, cut_len))

    def _buffer(self, name: str, run: "_Run", args: tuple) -> None:
        self.add(self.base, name, run, run.cut_len, *args)

    def advance(self, run: "_Run", *args) -> None:
        self._buffer("advance", run, args)

    def truncate(self, run: "_Run", *args) -> None:
        self._buffer("truncate", run, args)

    def eliminate(self, run: "_Run", *args) -> None:
        self._buffer("eliminate", run, args)

    def fault(self, run: "_Run", *args) -> None:
        self._buffer("fault", run, args)

    def flush(self, recorder: "FlightRecorder") -> None:
        self.calls.sort(key=lambda call: call[0])
        for _, name, run, args, cut_len in self.calls:
            final = run.cut_len
            run.cut_len = cut_len
            getattr(recorder, name)(run, *args)
            run.cut_len = final


class RoutingEngine:
    """Routes a set of worms; reusable across rounds.

    Construction lays out each worm's directed-link ids once; each
    :meth:`run_round` call takes fresh launches (delays, wavelengths,
    priorities) for any subset of the worms. The set is not frozen:
    streaming callers admit arriving worms with :meth:`add_worms` and
    drop delivered or expired ones with :meth:`retire_worms` between
    rounds, without restarting the engine. Link ids are assigned in
    registration order and retained across retirement, so a static
    batch and an incrementally grown one that registered the same worms
    in the same order behave bit-identically.

    ``layout`` optionally gives the worms' paths already compiled (a
    :class:`~repro.paths.layout.LinkLayout` whose row ``k`` is the path
    of ``worms[k]``, typically a
    :attr:`~repro.paths.collection.PathCollection.layout`); the engine
    then builds its link ids and event table from its arrays without
    walking a path. Without it the worms' paths are compiled here.

    ``metrics`` optionally names the registry that receives per-round
    instrumentation (events generated, contended couplers, outcome
    tallies by rule, per-stage wall time); None defers to the process
    default, which is a no-op unless
    :func:`repro.observability.enable_metrics` has been called, so an
    uninstrumented engine pays only one enabled-check per round.

    ``profiler`` optionally names the span profiler receiving the
    ``engine.round`` span and its ``engine.build_events`` /
    ``engine.resolve`` / ``engine.finalise`` children; None defers to
    the process default (a no-op unless
    :func:`repro.observability.enable_profiling` has been called).
    """

    def __init__(
        self,
        worms: Sequence[Worm],
        rule: CollisionRule,
        tie_rule: TieRule = TieRule.ALL_LOSE,
        metrics: MetricsRegistry | None = None,
        profiler: "SpanProfiler | None" = None,
        layout: LinkLayout | None = None,
    ) -> None:
        if not worms:
            raise ProtocolError("the engine needs at least one worm")
        self.rule = rule
        self.tie_rule = tie_rule
        # None means "the process default at call time" (a no-op registry
        # unless repro.observability.enable_metrics installed a real one).
        self._metrics = metrics
        self._profiler = profiler
        self._worms: dict[int, Worm] = {}
        self._universe = LinkUniverse([]) if layout is None else layout.universe
        # Global link id -> local id (-1: unused) and local id -> global
        # id; _links names the links on first use.
        self._local = self._gids = _NONE
        self._link_list: list[tuple] | None = []
        # The event table -- every registered worm's link ids, worm after
        # worm in registration order -- and beside it the worm columns
        # (None until the first registration).
        self._ev_table = _NONE
        self._ev_worms: _WormColumns | None = None
        # Bound on every event position (never lowered by retirement).
        self._max_links = 1
        self._register(worms, layout)

    def fork(self, metrics: "MetricsRegistry | None" = _INHERIT) -> "RoutingEngine":
        """A new engine sharing this one's link layout.

        Bit-identical to constructing a fresh engine over the same worms
        in the same order. The lockstep trial driver uses this to stamp
        out one engine per trial of a shared collection. The worm
        registry is a dict copy, so streaming
        ``add_worms``/``retire_worms`` on either engine never affects
        the other; the link ids, event table and per-worm columns are
        shared read-only (both calls replace them, never write into
        them). ``metrics`` overrides the fork's registry (pass None for
        the process default); omitted, the fork inherits this engine's.
        """
        clone = RoutingEngine.__new__(RoutingEngine)
        clone.__dict__.update(self.__dict__)
        clone._metrics = self._metrics if metrics is _INHERIT else metrics
        clone._worms = dict(self._worms)
        return clone

    @property
    def _links(self) -> list[tuple]:
        """Local link id -> directed link."""
        if self._link_list is None:
            self._link_list = self._universe.of(self._gids)
        return self._link_list

    def _register(self, worms: Sequence[Worm], layout: LinkLayout | None) -> None:
        """Register ``worms`` in one pass (construction and ``add_worms``).

        Every uid is checked before any worm is registered, so a call
        naming a duplicate (within itself or of a registered worm)
        leaves the engine unchanged. ``layout`` holds the worms' paths
        compiled (they are compiled over the engine's link universe when
        it is None). New links get local ids in order of first
        appearance, worm by worm (:func:`assign_link_ids`; an engine's
        first registration takes the layout's cached
        :meth:`~repro.paths.layout.LinkLayout.numbered`), and the
        worms' rows are appended to the event table and worm columns.
        """
        n = len(worms)
        if not n:
            return
        uids = list(map(_UID, worms))
        if len(set(uids)) != n or not self._worms.keys().isdisjoint(uids):
            seen = set(self._worms)
            for w in worms:
                if w.uid in seen:
                    raise ProtocolError(f"duplicate worm uid {w.uid}")
                seen.add(w.uid)
        cols = self._ev_worms
        uid = np.array(uids, dtype=np.int64)
        length = np.fromiter(map(_LENGTH, worms), dtype=np.int64, count=n)
        if layout is None:
            layout = LinkLayout.compile(list(map(_PATH, worms)), self._universe)
        elif len(layout) != n:
            raise ProtocolError(
                f"the layout lays out {len(layout)} paths for {n} worms"
            )
        first = cols is None
        table = (
            _WormColumns(uid, layout.start, layout.count, length)
            if first
            else _WormColumns(
                np.concatenate([cols.uid, uid]),
                np.concatenate(
                    [cols.start, layout.start + self._ev_table.shape[0]]
                ),
                np.concatenate([cols.count, layout.count]),
                np.concatenate([cols.length, length]),
            )
        )
        self._universe = layout.universe
        if self._gids.shape[0]:
            lids, self._local, new = assign_link_ids(
                layout.flat, self._local, self._gids.shape[0]
            )
            if new.shape[0]:
                self._gids = np.concatenate([self._gids, new])
                if self._link_list is not None:
                    # A new list: forks may share the old one.
                    self._link_list = self._link_list + self._universe.of(new)
        else:
            self._local, self._gids = layout.numbered()
            lids = self._local[layout.flat]
            self._link_list = None
        self._max_links = max(self._max_links, int(layout.count.max()))
        self._ev_table = lids if first else np.concatenate([self._ev_table, lids])
        self._ev_worms = table
        self._worms.update(zip(uids, worms))

    @property
    def worms(self) -> dict[int, Worm]:
        """The engine's worms by uid."""
        return dict(self._worms)

    def add_worms(self, worms: Sequence[Worm]) -> None:
        """Admit additional worms between rounds (streaming arrival).

        New worms get link ids appended in registration order; existing
        ids never move, so rounds before and after an admission see the
        same per-link identities.
        """
        self._register(worms, None)

    def retire_worms(self, uids: Sequence[int]) -> None:
        """Drop delivered or expired worms' per-worm state.

        Link ids stay registered (links are shared between worms and the
        id order is what keeps incremental and static runs
        bit-identical); only the worms' event-table rows are released,
        so a long-running engine's memory tracks the *active*
        population. Every uid is checked before any worm is dropped, so
        a call naming an unknown or repeated uid leaves the engine
        unchanged.
        """
        uids = list(uids)
        seen: set[int] = set()
        for uid in uids:
            if uid not in self._worms:
                raise ProtocolError(f"cannot retire unknown worm uid {uid}")
            if uid in seen:
                raise ProtocolError(f"worm uid {uid} retired twice in one call")
            seen.add(uid)
        if not uids:
            return
        cols = self._ev_worms
        keep = np.ones(cols.uid.shape[0], dtype=bool)
        keep[cols.rows(np.array(uids, dtype=np.int64))[0]] = False
        count = cols.count[keep]
        self._ev_table = self._ev_table[np.repeat(keep, cols.count)]
        self._ev_worms = _WormColumns(
            cols.uid[keep], np.cumsum(count) - count, count, cols.length[keep]
        )
        for uid in uids:
            del self._worms[uid]

    def run_round(
        self,
        launches: Sequence[Launch],
        collect_collisions: bool = True,
        dead_links: Sequence[tuple] | None = None,
        recorder: "FlightRecorder | None" = None,
    ) -> RoundResult:
        """Simulate one forward pass for the launched worms.

        ``launches`` name the participating worms (one launch per worm);
        non-launched worms simply do not exist this round. ``dead_links``
        are directed links that are down for the whole round (fault
        injection): any head reaching one is lost there -- the signal
        enters a dark fiber -- and the worm fails with kind ``FAULTED``.
        ``recorder`` optionally takes a
        :class:`~repro.observability.flightrec.FlightRecorder` that
        receives one structured event per worm state change (launch,
        head advance, truncation, elimination, fault); the disabled path
        costs one ``is not None`` check per event. Returns the per-worm
        outcomes and, when requested, every losing collision. This is
        the one-call pass of :func:`run_round_batch`.
        """
        return run_round_batch(
            [RoundCall(self, launches, collect_collisions, dead_links, recorder)]
        )[0]

    def _launched(self, launches: Sequence[Launch]) -> _Launched:
        """The round's launches as columns, checked, beside their worms'.

        The one point where launch objects become :class:`Launches`
        columns (columns pass through as they are). Whole-column checks
        clear the common case; if any fails, the rows are re-walked in
        order so the first bad launch raises its own error.
        """
        cols = Launches.of(launches)
        table = self._ev_worms
        rows, ok = table.rows(cols.worm)
        if ok:
            # Distinct uids: their rows mark as many registered worms.
            seen = np.zeros(table.uid.shape[0], dtype=bool)
            seen[rows] = True
            ok = np.count_nonzero(seen) == rows.shape[0]
        if not (
            ok
            and cols.per_link is None
            and cols.delay.min() >= 0
            and cols.wavelength.min() >= 0
        ):
            self._check_launches(cols)
        return _Launched(cols, rows, table, self._worms)

    def _check_launches(self, cols: Launches) -> None:
        """Walk ``cols`` in order; raise the first bad launch's error."""
        registered = self._worms
        seen: set[int] = set()
        for uid, delay, wl in zip(
            cols.worm.tolist(), cols.delay.tolist(), cols.wavelengths()
        ):
            worm = registered.get(uid)
            if worm is None:
                raise ProtocolError(f"launch names unknown worm uid {uid}")
            if uid in seen:
                raise ProtocolError(f"worm uid {uid} launched twice")
            seen.add(uid)
            _check_launch(worm, delay, wl)

    def _dead_lids(self, dead_links: Sequence[tuple] | None) -> set[int]:
        """The round's dead directed links as registered link ids."""
        dead_lids: set[int] = set()
        if dead_links:
            index = self._universe.index
            local = self._local
            for link in dead_links:
                g = index.get(tuple(link))
                if g is not None and g < local.shape[0] and local[g] >= 0:
                    dead_lids.add(int(local[g]))
        return dead_lids

    def _resolve_scalar(
        self,
        events: list[tuple[int, int, int, int, int]],
        runs: list[_Run],
        dead_lids: set[int],
        collect_collisions: bool,
        recorder,
        collisions: list[CollisionEvent],
        faulted_at: dict[int, int],
        order: list[int],
    ) -> int:
        """Walk ``events`` in order, resolving each (t, link, wl) group.

        The priority rule's clashes are resolved here, through the
        coupler kernels; serve-first clashes are settled in numpy by
        :func:`_settle`. The events are the ones :func:`_partition`
        chose to replay, and ``order`` holds their indices in the
        round's canonical order, so fault attribution, truncation logs
        and recorder emission (through an :class:`_OrderedRecorder`)
        keep global positions. Returns the number of contended coupler
        groups.
        """
        contended = 0
        occupancy: dict[tuple[int, int], _Record] = {}
        rule = self.rule
        tie_rule = self.tie_rule
        links = self._links

        i = 0
        n_events = len(events)
        while i < n_events:
            t, lid, wl, pos, ri = events[i]
            start = i
            j = i + 1
            while (
                j < n_events
                and events[j][0] == t
                and events[j][1] == lid
                and events[j][2] == wl
            ):
                j += 1
            group = events[i:j]
            i = j
            if recorder is not None:
                recorder.base = order[start]

            live = [(p, runs[k]) for (_, _, _, p, k) in group if runs[k].dead_at is None]
            if not live:
                continue

            if lid in dead_lids:
                # Dark fiber: every head entering it is lost outright.
                if lid not in faulted_at:
                    faulted_at[lid] = order[start]
                for p, run in live:
                    run.dead_at = p
                    run.faulted = True
                    if recorder is not None:
                        recorder.fault(run, t, p, links[lid], wl)
                continue

            key = (lid, wl)
            rec = occupancy.get(key)
            if rec is not None and rec.end < t:
                # Stale record: the previous tail already cleared. Evict
                # it so long rounds don't accumulate dead _Records.
                del occupancy[key]
                rec = None

            if rec is None and len(live) == 1:
                # Fast path: idle link, single head -- no conflict to decide.
                p, run = live[0]
                self._install(occupancy, key, run, p, t)
                if recorder is not None:
                    recorder.advance(run, t, p, links[lid], wl)
                continue

            contended += 1
            occ_obj = None
            if rec is not None:
                occ_obj = Occupancy(
                    worm=rec.run.uid,
                    start=rec.entry,
                    end=rec.end,
                    priority=rec.run.priority,
                )
            arrivals = [
                Arrival(worm=run.uid, length=run.cut_len, priority=run.priority)
                for _, run in live
            ]
            decision = resolve(rule, occ_obj, arrivals, t, tie_rule)

            by_uid = {run.uid: (p, run) for p, run in live}
            if decision.eliminated:
                blocker = self._primary_blocker(decision, rec, by_uid)
                for uid in decision.eliminated:
                    p, run = by_uid[uid]
                    run.dead_at = p
                    b = blocker if blocker != uid else self._other_blocker(
                        decision, rec, by_uid, uid
                    )
                    run.blockers.append(b)
                    if recorder is not None:
                        recorder.eliminate(run, t, p, links[lid], wl, b)
                    if collect_collisions:
                        collisions.append(
                            CollisionEvent(
                                time=t,
                                link=links[lid],
                                wavelength=wl,
                                blocked=uid,
                                blocker=b,
                                link_pos=p,
                                kind=CollisionKind.ELIMINATED,
                            )
                        )
            if decision.truncate_occupant:
                assert rec is not None
                occ_run = rec.run
                new_len = t - rec.entry  # flits already forwarded past the cut
                if new_len < occ_run.cut_len:
                    occ_run.cut_len = new_len
                    cut_pos = rec.pos
                    occ_run.cuts.append((order[start], cut_pos, new_len))
                    for r in occ_run.records:
                        if r.pos >= cut_pos:
                            cap = r.entry + new_len - 1
                            if cap < r.end:
                                r.end = cap
                b = (
                    decision.winner
                    if decision.winner is not None
                    else arrivals[0].worm
                )
                occ_run.blockers.append(b)
                if recorder is not None:
                    recorder.truncate(
                        occ_run, t, rec.pos, links[lid], wl, b, new_len
                    )
                if collect_collisions:
                    collisions.append(
                        CollisionEvent(
                            time=t,
                            link=links[lid],
                            wavelength=wl,
                            blocked=occ_run.uid,
                            blocker=b,
                            link_pos=rec.pos,
                            kind=CollisionKind.TRUNCATED,
                        )
                    )
            if decision.winner is not None:
                p, run = by_uid[decision.winner]
                self._install(occupancy, key, run, p, t)
                if recorder is not None:
                    recorder.advance(run, t, p, links[lid], wl)
        return contended

    def _replay(self, slot: "_Slot") -> None:
        """Resolve a priority-rule round from its partition masks.

        ``slot.partition`` marks, over the round's own event rows, the
        ``replay`` events :meth:`_resolve_scalar` must see and the
        ``faults``: heads lost to a dead link outside them. Those rows
        (every row under a recorder) are put in canonical order, whose
        positions then order the replay, the faults and the recorder
        stream. A fault stands only if the replay left its worm alive.
        Runs are built for the worms these events touch.
        """
        call = slot.call
        runs = slot.runs
        recorder = call.recorder
        replay, faults = slot.partition
        slot.free_events = replay.shape[0] - int(np.count_nonzero(replay))
        slot.contended = 0
        if recorder is None:
            (rows,) = np.nonzero(replay | faults)
        else:
            rows = np.arange(replay.shape[0])
        rows = self._canonical(slot, rows)
        arrays = tuple(col[rows] for col in slot.parts)
        _, lid, _, pos, ri = arrays
        replay = replay[rows]
        idx = np.flatnonzero(replay)
        lost = np.flatnonzero(faults[rows])
        fresh = sorted({*ri[idx].tolist(), *ri[lost].tolist()}.difference(runs))
        if fresh:
            runs.update(
                zip(fresh, slot.launched.runs(np.array(fresh, dtype=np.int64)))
            )

        emitter = _OrderedRecorder() if recorder is not None else None
        if idx.shape[0]:
            events = list(zip(*(col[idx].tolist() for col in arrays)))
            slot.contended = self._resolve_scalar(
                events, runs, slot.dead_lids, call.collect_collisions, emitter,
                slot.collisions, slot.faulted_at, order=idx.tolist(),
            )

        faulted_at = slot.faulted_at
        for g, k, p, dlid in zip(
            lost.tolist(), ri[lost].tolist(), pos[lost].tolist(), lid[lost].tolist()
        ):
            run = runs[k]
            if run.dead_at is None:
                run.dead_at = p
                run.faulted = True
                if dlid not in faulted_at or g < faulted_at[dlid]:
                    faulted_at[dlid] = g

        if emitter is not None:
            self._emit(emitter, runs, arrays, np.flatnonzero(~replay))
            emitter.flush(recorder)

    def _emit(
        self,
        emitter: _OrderedRecorder,
        runs: dict[int, _Run],
        arrays: tuple[np.ndarray, ...],
        rows: np.ndarray,
    ) -> None:
        """Buffer the recorder calls of the settled events ``rows``.

        ``arrays`` are canonical event columns and ``runs`` hold every
        worm's final state: each event a worm's head reaches advances
        it, except the one it dies at, which faults or eliminates it.
        """
        links = self._links
        for g, et, elid, ewl, ep, ek in zip(
            rows.tolist(), *(col[rows].tolist() for col in arrays)
        ):
            run = runs[ek]
            dead = run.dead_at
            if dead is not None and ep > dead:
                continue
            # Cuts are logged in event order, each shorter than the last.
            cut_len = run.length
            for gc, _, new_len in run.cuts:
                if gc < g:
                    cut_len = new_len
            args = (et, ep, links[elid], ewl)
            if dead is None or ep < dead:
                emitter.add(g, "advance", run, cut_len, *args)
            elif run.faulted:
                emitter.add(g, "fault", run, cut_len, *args)
            else:
                emitter.add(g, "eliminate", run, cut_len, *args, run.blockers[-1])

    # -- helpers ---------------------------------------------------------------

    def _record_metrics(
        self,
        metrics: MetricsRegistry,
        result: RoundResult,
        *,
        n_events: int,
        contended: int,
        free_events: int,
        seconds: Sequence[float],
    ) -> None:
        """Ship one round's tallies into the registry (enabled path only).

        ``seconds`` holds the round's own build_events, resolve and
        finalise wall times.
        """
        rule = self.rule.name.lower()
        metrics.inc("engine_rounds_total", rule=rule)
        metrics.inc("engine_events_total", n_events, rule=rule)
        metrics.inc("engine_contended_couplers_total", contended, rule=rule)
        metrics.inc("engine_worms_launched_total", result.n_launched, rule=rule)
        metrics.inc("engine_delivered_total", result.n_delivered, rule=rule)
        for kind, count in result.failure_counts.items():
            metrics.inc(f"engine_{kind.value}_total", count, rule=rule)
        metrics.inc("engine_free_events_total", free_events, rule=rule)
        metrics.observe("engine_round_seconds", sum(seconds), rule=rule)
        for stage, secs in zip(_STAGES, seconds):
            metrics.observe("engine_stage_seconds", secs, stage=stage)

    @staticmethod
    def _install(
        occupancy: dict, key: tuple[int, int], run: _Run, pos: int, t: int
    ) -> None:
        rec = _Record(run, pos, t, t + run.cut_len - 1)
        occupancy[key] = rec
        run.records.append(rec)

    @staticmethod
    def _primary_blocker(decision, rec: _Record | None, by_uid: dict) -> int:
        """The worm that witnesses the eliminations of this event."""
        if rec is not None:
            return rec.run.uid
        if decision.winner is not None:
            return decision.winner
        # All-lose tie with no occupant: the arrivals witness each other.
        return next(iter(by_uid))

    @staticmethod
    def _other_blocker(decision, rec: _Record | None, by_uid: dict, uid: int) -> int:
        """A blocker distinct from ``uid`` (for all-lose ties)."""
        if rec is not None:
            return rec.run.uid
        if decision.winner is not None and decision.winner != uid:
            return decision.winner
        for other in by_uid:
            if other != uid:
                return other
        raise ProtocolError(f"worm {uid} blocked with no other participant")

    def _canonical(
        self, slot: "_Slot", rows: np.ndarray, rank: np.ndarray | None = None
    ) -> np.ndarray:
        """``slot``'s event ``rows`` in canonical order.

        Canonical order is (time, link, wavelength, position, launch
        row): the order a replay of the round walks its events in.
        ``rank`` (0 or 1 per row) optionally orders each (time, link,
        wavelength) group before the position does. Only the rows that
        need it are sorted: a priority round's replay and a recorded
        round's stream.
        """
        if not rows.shape[0]:
            return rows
        t, lid, wl, pos, ri = (col[rows] for col in slot.parts)
        keys = [t, lid, wl, pos, ri]
        bounds = [
            int(t.max()) + 1, self._gids.shape[0], int(wl.max()) + 1,
            self._max_links, len(slot.launched),
        ]
        if rank is not None:
            keys.insert(3, rank)
            bounds.insert(3, 2)
        return rows[_lexorder(keys, bounds)]

    def _record_settled(self, slot: "_Slot") -> None:
        """Give a recorded serve-first round's events to its recorder.

        Every worm has a run (see :meth:`_Slot.begin`); the settle
        step's columns set each dead worm's death. The stream walks
        every event a head reaches in canonical order, except that in
        each (time, link, wavelength) group the losses come before the
        one head that goes on, as the coupler decides them.
        """
        runs = slot.runs
        dead_at, faulted, blocker = slot.settled
        for k in np.flatnonzero(dead_at != _ALIVE).tolist():
            run = runs[k]
            run.dead_at = int(dead_at[k])
            run.faulted = bool(faulted[k])
            if not run.faulted:
                run.blockers.append(int(blocker[k]))
        pos, ri = slot.parts[3], slot.parts[4]
        last = dead_at[ri]
        (rows,) = np.nonzero(pos <= last)
        rows = self._canonical(slot, rows, rank=pos[rows] < last[rows])
        emitter = _OrderedRecorder()
        self._emit(
            emitter, runs, tuple(col[rows] for col in slot.parts),
            np.arange(rows.shape[0]),
        )
        emitter.flush(slot.call.recorder)

    def _result(
        self,
        outcomes: OutcomeColumns,
        end: np.ndarray,
        collisions: Sequence[CollisionEvent],
        faulted_lids: Sequence[int],
    ) -> RoundResult:
        """A round's result from its columns and its makespan candidates."""
        links, gids = self._universe.links, self._gids
        makespan = int(end.max())
        return RoundResult(
            outcomes=outcomes,
            collisions=tuple(collisions),
            makespan=makespan if makespan >= 0 else None,
            faulted_links=tuple(links[gids[lid]] for lid in faulted_lids),
        )

    def _finalise(self, slot: "_Slot") -> RoundResult:
        """A priority-rule round's result, from its runs.

        Every worm starts out delivered whole, its outcome and last step
        computed for all rows at once; only worms with run state are
        then visited, and those the round stopped or cut get their own
        row values. A worm without a run was delivered whole: nothing it
        met could stop or cut it.
        """
        launched = slot.launched
        cols = launched.launches
        completion = cols.delay + launched.n_links + launched.length - 2
        end = completion
        code = np.zeros(len(launched), dtype=np.int8)
        flits = launched.length.copy()
        failed_at = np.full(len(launched), -1, dtype=np.int64)
        runs = slot.runs
        codes = OutcomeColumns.CODES
        blockers: dict[int, tuple[int, ...]] = {}
        rows: list[tuple[int, int, int, int, int, int]] = []
        for k, run in runs.items():
            if run.blockers:
                blockers[k] = tuple(run.blockers)
            if run.dead_at is not None:
                kind = FailureKind.FAULTED if run.faulted else FailureKind.ELIMINATED
                # A worm lost at its first link never moved a flit.
                last = _last_step(run, run.dead_at - 1) if run.dead_at else -1
                rows.append((k, codes[kind], 0, -1, run.dead_at, last))
            elif run.cut_len < run.length:
                done = run.delay + run.n_links - 1 + run.cut_len - 1
                last = _last_step(run, run.n_links - 1)
                rows.append(
                    (k, codes[FailureKind.TRUNCATED], run.cut_len, done, -1, last)
                )
        if rows:
            end = completion.copy()
            k, *values = (np.array(col, dtype=np.int64) for col in zip(*rows))
            for col, value in zip((code, flits, completion, failed_at, end), values):
                col[k] = value
        outcomes = OutcomeColumns(cols.worm, code, flits, completion, failed_at, blockers)
        faulted = sorted(slot.faulted_at.items(), key=lambda kv: kv[1])
        return self._result(
            outcomes, end, slot.collisions, [lid for lid, _ in faulted]
        )

    def _finalise_settled(self, slot: "_Slot") -> RoundResult:
        """A serve-first round's result, from the settle step's columns.

        ``slot.settled`` holds each worm's death position, fault flag
        and blocker. Serve-first never cuts a worm, so a dead worm's
        last flit moved ``length - 1`` steps after its head left the
        link before its death (:func:`_last_step` without cuts), and
        every other worm is delivered whole. The collisions and the
        faulted links come from the events the worms died at, in
        canonical order.
        """
        launched = slot.launched
        cols = launched.launches
        length = launched.length
        completion = cols.delay + launched.n_links + length - 2
        end = completion
        code = np.zeros(len(launched), dtype=np.int8)
        flits = length.copy()
        failed_at = np.full(len(launched), -1, dtype=np.int64)
        blockers: dict[int, tuple[int, ...]] = {}
        collisions: list[CollisionEvent] = []
        faulted_lids: dict[int, None] = {}
        dead_at, faulted, blocker = slot.settled
        (dead,) = np.nonzero(dead_at != _ALIVE)
        if dead.shape[0]:
            at = dead_at[dead]
            dark = faulted[dead]
            codes = OutcomeColumns.CODES
            code[dead] = np.where(
                dark, codes[FailureKind.FAULTED], codes[FailureKind.ELIMINATED]
            )
            flits[dead] = 0
            failed_at[dead] = at
            end = completion.copy()
            # A worm lost at its first link never moved a flit.
            end[dead] = np.where(
                at > 0, cols.delay[dead] + at + length[dead] - 2, -1
            )
            completion[dead] = -1
            elim = dead[~dark]
            blockers = dict(zip(elim.tolist(), zip(blocker[elim].tolist())))
            # Each dead worm's last event: a worm's rows start at the
            # running sum of the link counts before it.
            n_links = launched.n_links
            event = (np.cumsum(n_links) - n_links)[dead] + at
            # Few worms die per round: their events sort as tuples, in
            # canonical (t, lid, wl, pos, ri) order.
            if slot.call.collect_collisions and elim.shape[0]:
                rows = event[~dark]
                links = self._links
                uid, blocked_by = cols.worm.tolist(), blocker.tolist()
                collisions = [
                    CollisionEvent(
                        time=t, link=links[lid], wavelength=wl,
                        blocked=uid[k], blocker=blocked_by[k], link_pos=p,
                        kind=CollisionKind.ELIMINATED,
                    )
                    for t, lid, wl, p, k in sorted(
                        zip(*(col[rows].tolist() for col in slot.parts))
                    )
                ]
            if dark.any():
                # Each dead link is named at its first fault.
                rows = event[dark]
                t, lid = slot.parts[0][rows].tolist(), slot.parts[1][rows].tolist()
                faulted_lids = dict.fromkeys(lid for _, lid in sorted(zip(t, lid)))
        outcomes = OutcomeColumns(cols.worm, code, flits, completion, failed_at, blockers)
        return self._result(outcomes, end, collisions, faulted_lids)


def run_round(
    worms: Sequence[Worm],
    launches: Sequence[Launch],
    rule: CollisionRule,
    tie_rule: TieRule = TieRule.ALL_LOSE,
    collect_collisions: bool = True,
    dead_links: Sequence[tuple] | None = None,
) -> RoundResult:
    """One-shot convenience wrapper around :class:`RoutingEngine`."""
    return RoutingEngine(worms, rule, tie_rule).run_round(
        launches, collect_collisions=collect_collisions, dead_links=dead_links
    )


@dataclass
class RoundCall:
    """One trial's :meth:`RoutingEngine.run_round` arguments.

    The unit :func:`run_round_batch` stacks: each call names its own
    engine (typically a :meth:`RoutingEngine.fork` of a shared parent,
    so trials may retire worms independently), launches, fault set, and
    flight recorder. Results come back in call order and are required to
    be bit-identical to running each call in a pass of its own.
    """

    engine: RoutingEngine
    launches: Sequence[Launch]
    collect_collisions: bool = True
    dead_links: Sequence[tuple] | None = None
    recorder: "FlightRecorder | None" = None


class _Slot:
    """One launched call's state through a :func:`run_round_batch` pass.

    :func:`_partition` leaves a serve-first call ``settled`` (its
    worms' death positions, fault flags and blockers) and a
    priority-rule call a ``partition`` (its replay and fault masks).
    """

    __slots__ = (
        "index", "call", "engine", "metrics", "launched", "runs", "n_events",
        "_parts", "dead_lids", "seconds", "contended", "free_events",
        "collisions", "faulted_at", "settled", "partition",
    )

    def __init__(self, index: int, call: RoundCall, metrics: MetricsRegistry) -> None:
        self.index = index
        self.call = call
        self.engine = call.engine
        self.metrics = metrics
        self.collisions: list[CollisionEvent] = []
        self.faulted_at: dict[int, int] = {}
        self.settled: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._parts: tuple[np.ndarray, ...] | None = None

    def begin(self) -> None:
        """Check the launches and lay out the run state.

        The launches become columns here, once (see
        :meth:`RoutingEngine._launched`); everything after reads
        columns. Runs start as an empty dict, filled as the priority
        replay and dead links touch worms, unless a flight recorder
        needs every run from the launch on. The pass sizes its columns
        from ``n_events`` and has :meth:`write_events` fill them.
        """
        eng = self.engine
        call = self.call
        self.launched = launched = eng._launched(call.launches)
        recorder = call.recorder
        self.runs = {}
        if recorder is not None:
            self.runs = dict(enumerate(launched.runs()))
            for run in self.runs.values():
                recorder.launch(run)
        self.n_events = int(launched.n_links.sum())
        self.dead_lids = eng._dead_lids(call.dead_links)

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        """The event columns ``(t, lid, wl, pos, ri)``: in a pass, views of
        its slice of the pass's; a slot alone gets its own on first read."""
        if self._parts is None:
            self.write_events(np.empty((5, self.n_events), dtype=np.int64))
        return self._parts

    def write_events(self, out: np.ndarray) -> None:
        """Write :attr:`parts` into the rows of ``out``, ``(5, n_events)``.

        ``ri`` indexes the launch rows. Only ``ri`` and ``pos`` pass
        through call-sized temporaries (a repeat and a row count); every
        other column is gathered straight into ``out`` by clipping
        ``np.take`` calls (which never copy ``out``; every index is in
        range) from the launch columns and the engine's event table. Row
        order is immaterial: the (time, link, wavelength, pos, run) key
        is unique per event, so the pass's sort fixes the canonical order.
        """
        self._parts = t, lid, wl, pos, ri = tuple(out)
        worms = self.launched
        cols = worms.launches
        counts = worms.n_links
        ri[:] = np.repeat(np.arange(counts.shape[0]), counts)
        np.take(np.cumsum(counts) - counts, ri, out=pos, mode="clip")
        np.subtract(np.arange(self.n_events), pos, out=pos)
        # Event e of run k is at position e and reads table row start[k]+e.
        np.take(worms.start, ri, out=t, mode="clip")
        t += pos
        np.take(self.engine._ev_table, t, out=lid, mode="clip")
        np.take(cols.delay, ri, out=t, mode="clip")
        t += pos
        if cols.per_link is None:
            np.take(cols.wavelength, ri, out=wl, mode="clip")
        else:
            wl[:] = np.fromiter(
                chain.from_iterable(
                    w if isinstance(w, tuple) else repeat(w, n)
                    for w, n in zip(cols.wavelengths(), counts.tolist())
                ),
                dtype=np.int64,
                count=self.n_events,
            )

    def resolve(self) -> None:
        """This call's own resolve work, after the pass-wide partition."""
        if self.settled is None:
            self.engine._replay(self)
        elif self.call.recorder is not None:
            self.engine._record_settled(self)

    def finalise(self) -> RoundResult:
        """This call's round result."""
        if self.settled is None:
            return self.engine._finalise(self)
        return self.engine._finalise_settled(self)


def run_round_batch(calls: Sequence[RoundCall]) -> list[RoundResult]:
    """Simulate one round for each of many independent calls in one pass.

    The engine's only round body; :meth:`RoutingEngine.run_round` is the
    one-call pass. Every call's head-arrival events are stacked into
    single ``(trial, link, wavelength)``-keyed arrays, so the channel
    sort, the adjacent-gap clash test and the serve-first settle step
    amortise across the whole pass. Each priority-rule call's slice
    then replays only its clashes (see the module docstring).

    Bit-identity argument: the sort uses the trial id as the
    most-significant key, so restricting it to one trial's events
    reproduces that trial's own order (the per-trial key tuples are
    unique); the clash test keys channels by trial and uses each
    trial's own ``max_worm_length - 1`` gap, so the per-trial clash
    masks match a one-call pass exactly. The settle step relates an
    event only to events of its own channel and its own worm, both
    keyed by trial, so its per-trial results do too -- and hence
    outcomes, collision order, fault attribution, and recorder streams,
    whose canonical order is taken per call.

    Every pass opens one ``engine.round`` span (on the first call's
    profiler); one that launches anything gives it one
    ``engine.build_events``, ``engine.resolve`` and ``engine.finalise``
    child each. Timings are measured, never apportioned: each call's
    ``engine_stage_seconds`` get the work done for that call alone (its
    launch check and launch columns, its replay or recorder stream, its
    finalise). With several launched calls, writing the events into the
    pass's columns (build_events) and the sort, clash test and settle
    step (resolve) are shared, and are observed once per pass as
    ``engine_batch_stage_seconds`` in the process-default registry; in a
    one-call pass they are that call's own stage time.
    """
    if not calls:
        return []
    eng0 = calls[0].engine
    prof = eng0._profiler if eng0._profiler is not None else get_profiler()
    with prof.span("engine.round"):
        return _run_round_batch(prof, calls)


def _run_round_batch(
    prof: SpanProfiler, calls: Sequence[RoundCall]
) -> list[RoundResult]:
    """The pass body behind :func:`run_round_batch`'s span wrapper."""
    results: list[RoundResult | None] = [None] * len(calls)
    live: list[_Slot] = []
    for ci, call in enumerate(calls):
        eng = call.engine
        metrics = eng._metrics if eng._metrics is not None else get_metrics()
        if call.launches:
            live.append(_Slot(ci, call, metrics))
            continue
        # Nothing launched: no flit ever moves, so there is no makespan
        # -- but the round still happened. Record the (all zero) tallies
        # so engine_rounds_total matches the caller's round count
        # instead of silently undercounting.
        result = RoundResult(outcomes={}, collisions=(), makespan=None)
        if metrics.enabled:
            eng._record_metrics(
                metrics, result, n_events=0, contended=0, free_events=0,
                seconds=(0.0, 0.0, 0.0),
            )
        results[ci] = result
    if not live:
        return results  # type: ignore[return-value]
    batch_metrics = get_metrics()
    # Unobserved passes read no clock: float() is a free 0.0.
    timed = batch_metrics.enabled or any(slot.metrics.enabled for slot in live)
    clock = time.perf_counter if timed else float

    with prof.span("engine.build_events"):
        for slot in live:
            start = clock()
            slot.begin()
            slot.seconds = [clock() - start, 0.0, 0.0]
        # Sized first, the pass's columns are allocated once; each slot
        # writes its events straight into its own slice of them.
        start = clock()
        rows = list(accumulate((slot.n_events for slot in live), initial=0))
        columns = np.empty((5, rows[-1]), dtype=np.int64)
        for slot, lo, hi in zip(live, rows, rows[1:]):
            slot.write_events(columns[:, lo:hi])
        shared = [clock() - start, 0.0]

    with prof.span("engine.resolve"):
        start = clock()
        _partition(live, columns, rows)
        shared[1] = clock() - start
        for slot in live:
            start = clock()
            slot.resolve()
            slot.seconds[1] = clock() - start

    if len(live) == 1:
        # A one-call pass shares nothing: its stacking and partition are
        # its own build_events and resolve work.
        live[0].seconds[0] += shared[0]
        live[0].seconds[1] += shared[1]
    elif batch_metrics.enabled:
        for stage, secs in zip(_STAGES, shared):
            batch_metrics.observe("engine_batch_stage_seconds", secs, stage=stage)

    with prof.span("engine.finalise"):
        for slot, lo, hi in zip(live, rows, rows[1:]):
            start = clock()
            result = results[slot.index] = slot.finalise()
            slot.seconds[2] = clock() - start
            if slot.metrics.enabled:
                slot.engine._record_metrics(
                    slot.metrics, result, n_events=hi - lo,
                    contended=slot.contended, free_events=slot.free_events,
                    seconds=slot.seconds,
                )
    return results  # type: ignore[return-value]


def _partition(live: list[_Slot], columns: np.ndarray, rows: list[int]) -> None:
    """Settle the pass's serve-first clashes; mark its priority replays.

    One sort puts the events in (trial, link, wavelength, time,
    position, launch row) order: channel-major, with each (channel,
    time) group in the (position, launch row) order of a canonical
    sort. The adjacent-gap clash test and :func:`_settle` read that
    order directly. Each trial keeps its own ``max_worm_length - 1``
    gap, and the global wavelength radix keeps the composite channel
    key injective.

    A worm's first dead link among its unclashed events caps it: its
    events past the cap cannot happen. A serve-first slot gets
    ``settled`` from :func:`_settle` over its clashed events, and its
    counters from the settle step's masks. A priority-rule slot gets
    ``partition``: its ``replay`` mask (every clashed event before its
    worm's cap) and ``faults`` mask (the unclashed dead-link event at
    the cap) over its own rows; a worm the replay leaves alive faults
    at its cap.
    """
    t, lid, wl, pos, ri = columns
    n_slots = len(live)
    radix = int(wl.max()) + 1
    chans = max(slot.engine._gids.shape[0] for slot in live) * radix
    lengths = [slot.launched.length for slot in live]
    bases = list(accumulate((length.shape[0] for length in lengths), initial=0))
    chan = lid * radix
    chan += wl
    run = ri.copy() if n_slots > 1 else ri
    for i in range(1, n_slots):
        lo, hi = rows[i], rows[i + 1]
        chan[lo:hi] += i * chans
        run[lo:hi] += bases[i]
    order, (chan_s, t_s) = _lexorder((chan, t, pos), (
        n_slots * chans, int(t.max()) + 1,
        max(slot.engine._max_links for slot in live),
    ), keep=2)
    gaps = [int(length.max()) - 1 for length in lengths]
    gap = gaps[0] if len(set(gaps)) == 1 else np.array(gaps)[chan_s[1:] // chans]
    clashed = _clash_sorted(chan_s, t_s, gap)

    cap = np.full(bases[-1], _ALIVE, dtype=np.int64)
    dark = dark_s = None
    if any(slot.dead_lids for slot in live):
        dark = np.zeros(t.shape[0], dtype=bool)
        for slot, lo, hi in zip(live, rows, rows[1:]):
            if slot.dead_lids:
                down = np.zeros(slot.engine._gids.shape[0], dtype=bool)
                down[list(slot.dead_lids)] = True
                dark[lo:hi] = down[lid[lo:hi]]
        dark_s = dark[order]
        quiet = order[dark_s & ~clashed]
        np.minimum.at(cap, run[quiet], pos[quiet])

    settles = np.array(
        [slot.engine.rule is CollisionRule.SERVE_FIRST for slot in live]
    )
    if settles.any():
        if settles.all():
            (sel,) = np.nonzero(clashed)
        else:
            (sel,) = np.nonzero(clashed & settles[chan_s // chans])
        at = order[sel]
        chan_sel, t_sel = chan_s[sel], t_s[sel]
        slot_of = chan_sel // chans
        lowest = np.array(
            [slot.engine.tie_rule is TieRule.LOWEST_ID_WINS for slot in live]
        )[slot_of]
        dead_at, blocker, contended, replay = _settle(
            chan_sel, t_sel, pos[at], run[at],
            dark_s[sel] if dark_s is not None else np.zeros(sel.shape[0], dtype=bool),
            lowest, np.concatenate([slot.launched.launches.worm for slot in live]),
            np.concatenate(lengths), cap,
        )
        faulted = np.zeros(bases[-1], dtype=bool)
        if dark is not None:
            faulted[run[dark & (pos == dead_at[run])]] = True
        # A contended group's events are adjacent: count their starts.
        (hit,) = np.nonzero(contended)
        head = np.ones(hit.shape[0], dtype=bool)
        head[1:] = (chan_sel[hit[1:]] != chan_sel[hit[:-1]]) | (
            t_sel[hit[1:]] != t_sel[hit[:-1]]
        )
        groups = np.bincount(slot_of[hit[head]], minlength=n_slots)
        replayed = np.bincount(slot_of[replay], minlength=n_slots)
    if not settles.all():
        clashed_u = np.empty_like(clashed)
        clashed_u[order] = clashed
        replay_u, faults_u = clashed_u, np.zeros_like(clashed)
        if dark is not None:
            at_cap = cap[run]
            replay_u = clashed_u & (pos < at_cap)
            faults_u = dark & ~clashed_u & (pos == at_cap)

    for i, (slot, lo, hi) in enumerate(zip(live, rows, rows[1:])):
        if settles[i]:
            w = slice(bases[i], bases[i + 1])
            slot.settled = (dead_at[w], faulted[w], blocker[w])
            slot.contended = int(groups[i])
            slot.free_events = hi - lo - int(replayed[i])
        else:
            slot.partition = (replay_u[lo:hi], faults_u[lo:hi])
