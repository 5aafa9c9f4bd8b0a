"""The trial-and-failure protocol (Section 1.3).

    all n worms are declared active
    for t = 1 to T:
        each active worm launches with a random startup delay in
        [Delta_t] and a random wavelength in [B];
        every completely delivered worm is acknowledged immediately;
        acknowledged worms become inactive.

Round ``t`` costs ``Delta_t + 2(D + L)`` steps -- long enough for either a
successful worm's acknowledgement to return or for the worm (or its ack)
to have been discarded. Acknowledgements default to the paper's analytical
simplification (``ack_mode="ideal"``: a delivered worm is always
acknowledged, the ack band being reserved and its congestion folded into
C̃); ``ack_mode="simulated"`` actually routes length-``ack_length`` worms
back along reversed paths on a separate engine (the reserved band), so a
lost ack leaves the worm active and produces a duplicate delivery --
ablation E-AB3 measures how rare that is.

Priorities (for priority routers) are drawn as a fresh uniform random
permutation of the active worms each round, satisfying the hypothesis of
Claim 2.6 that no two colliding worms tie; deterministic modes are
available since the upper bound of Main Theorem 1.3 holds "for any
assignment of priorities ... whether these priorities are changed from
round to round, chosen randomly, or deterministically".

Fault awareness (not part of the paper's model): ``faults`` plugs in a
:class:`~repro.faults.models.FaultModel` adversary; a
:class:`~repro.faults.health.LinkHealthMonitor` accumulates dead-link
evidence across rounds; ``repair="reroute"`` recomputes stranded worms'
paths around suspected-dead links; ``backoff_after=K`` escalates the
delay schedule after K consecutive zero-progress rounds; and on
``max_rounds`` exhaustion the result carries a per-worm ``diagnosis``
and a ``stall_reason`` instead of a bare ``completed=False``. See
docs/FAULTS.md.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro._util import as_generator, spawn_generator
from repro.core.engine import (
    BACKENDS,
    RoundCall,
    RoutingEngine,
    run_round_batch,
)
from repro.core.records import (
    DIAG_ACK_LOST,
    DIAG_CONTENTION,
    DIAG_STRANDED,
    ProtocolResult,
    RepairEvent,
    RoundRecord,
)
from repro.core.schedule import DelaySchedule, GeometricSchedule, ScheduleContext
from repro.errors import ProtocolError
from repro.faults.health import LinkHealthMonitor, StallDetector
from repro.faults.models import FaultModel
from repro.faults.repair import (
    SurvivingGraph,
    collection_links,
    reroute_path,
    surviving_graph,
)
from repro.observability.logconf import get_logger
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import get_profiler
from repro.optics.coupler import CollisionRule, TieRule
from repro.paths.collection import PathCollection
from repro.worms.worm import FailureKind, Launch, Launches, Worm, make_worms
from repro.worms.ack import ack_worms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.observability.flightrec import FlightRecorder
    from repro.observability.trace import TraceWriter

__all__ = [
    "ProtocolConfig",
    "TrialAndFailureProtocol",
    "route_collection",
    "run_protocol_batch",
]

_PRIORITY_MODES = ("random", "uid", "reverse_uid")
_ACK_MODES = ("ideal", "simulated")
_REPAIR_MODES = ("none", "reroute")

_log = get_logger("core.protocol")


@dataclass(frozen=True)
class ProtocolConfig:
    """Static configuration of one protocol instance.

    ``track_congestion`` re-measures the path congestion of the surviving
    worms at the start of every round (the Lemma 2.4 observable); adaptive
    schedules consume it, at some bookkeeping cost on huge collections.
    ``collect_collisions`` retains per-round collision logs, which witness
    trees (Section 2.1) are built from.

    Fault handling: ``faults`` names the
    :class:`~repro.faults.models.FaultModel` adversary (None = fault-free).
    ``repair`` is ``"none"`` or ``"reroute"`` (reroute stranded
    worms around suspected-dead links); ``suspect_after`` is how many
    fault-bearing rounds convict a link; ``backoff_after`` escalates a
    bounded exponential backoff on ``Delta_t`` after that many
    consecutive zero-progress rounds (0 disables), capped at
    ``backoff_cap`` times the schedule's value. ``backoff_cooldown=N``
    (opt-in, default 0 = off) lets the backoff decay: every N
    consecutive progressing rounds halve the multiplier back toward 1,
    which streaming runs need so one transient stall does not
    permanently inflate ``Delta_t``.

    ``backend`` labels the run (``"python"``, ``"vectorized"`` or
    ``"batched"``); None defers to the process default (see
    :func:`repro.core.engine.set_default_backend`). The names are
    aliases: under every one the trial runner hands a worker slices of
    seeds, stepped in lockstep by :func:`run_protocol_batch` on the one
    engine kernel. The name is part of a run's checkpoint context and
    ledger rows.
    """

    bandwidth: int
    rule: CollisionRule = CollisionRule.SERVE_FIRST
    worm_length: int = 4
    schedule: DelaySchedule = field(default_factory=GeometricSchedule)
    max_rounds: int = 500
    tie_rule: TieRule = TieRule.ALL_LOSE
    ack_mode: str = "ideal"
    ack_length: int = 1
    priority_mode: str = "random"
    track_congestion: bool = True
    collect_collisions: bool = False
    faults: FaultModel | None = None
    repair: str = "none"
    suspect_after: int = 3
    backoff_after: int = 0
    backoff_cap: float = 8.0
    backoff_cooldown: int = 0
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in BACKENDS:
            raise ProtocolError(
                f"backend must be one of {BACKENDS} (or None for the "
                f"process default), got {self.backend!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultModel):
            raise ProtocolError(
                f"faults must be a FaultModel, got {type(self.faults).__name__}"
            )
        if self.repair not in _REPAIR_MODES:
            raise ProtocolError(
                f"repair must be one of {_REPAIR_MODES}, got {self.repair!r}"
            )
        if self.suspect_after < 1:
            raise ProtocolError(
                f"suspect_after must be >= 1, got {self.suspect_after}"
            )
        if self.backoff_after < 0:
            raise ProtocolError(
                f"backoff_after must be >= 0, got {self.backoff_after}"
            )
        if self.backoff_cap < 1.0:
            raise ProtocolError(
                f"backoff_cap must be >= 1.0, got {self.backoff_cap}"
            )
        if self.backoff_cooldown < 0:
            raise ProtocolError(
                f"backoff_cooldown must be >= 0, got {self.backoff_cooldown}"
            )
        if self.bandwidth <= 0:
            raise ProtocolError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.worm_length <= 0:
            raise ProtocolError(f"worm length must be positive, got {self.worm_length}")
        if self.max_rounds <= 0:
            raise ProtocolError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.ack_mode not in _ACK_MODES:
            raise ProtocolError(f"ack_mode must be one of {_ACK_MODES}, got {self.ack_mode!r}")
        if self.ack_length <= 0:
            raise ProtocolError(f"ack length must be positive, got {self.ack_length}")
        if self.priority_mode not in _PRIORITY_MODES:
            raise ProtocolError(
                f"priority_mode must be one of {_PRIORITY_MODES}, got {self.priority_mode!r}"
            )


class _TrialState:
    """Mutable per-execution loop state threaded through the round stepper.

    One instance per trial execution. The stepper methods --
    ``_start_trial``, ``_prepare_round``, ``_absorb_round``,
    ``_finish_trial`` -- read and mutate it, and :func:`_run_lockstep`
    drives them for one trial (:meth:`TrialAndFailureProtocol.run`) or
    many (:func:`run_protocol_batch`) alike; the streaming engine drives
    the round methods itself. ``observe`` selects whether the stepper
    emits the ``protocol_*`` metric family.
    """

    __slots__ = (
        "rng",
        "round_rng",
        "metrics",
        "observe",
        "t_run",
        "active",
        "delivered_round",
        "delivered_ever",
        "duplicates",
        "acks_lost",
        "records",
        "collisions_per_round",
        "repairs",
        "total_time",
        "observed_time",
        "live_coll",
        "live_paths",
        "base_ctx",
        "dl",
        "fault_run",
        "monitor",
        "cut_mask",
        "cut",
        "stall",
        "completed",
        "t",
        "current_congestion",
        "delta",
    )


class _RoundStepper:
    """The protocol's round body: one round of one :class:`_TrialState`.

    A driver owns the engine: it passes :meth:`_prepare_round` the
    round's congestion, runs the launches it returns, and hands the
    result to :meth:`_absorb_round`. A bare stepper is the paper's
    protocol with ideal acks and no repair, which the streaming engine
    steps over the worms it admits and retires between rounds;
    :class:`TrialAndFailureProtocol` steps a fixed collection, adding
    the engines, simulated acks and reroute repair that need one.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        *,
        metrics: MetricsRegistry | None = None,
        trace: "TraceWriter | None" = None,
        trace_trial: int = 0,
    ) -> None:
        self.config = config
        self._metrics = metrics
        self._trace = trace
        self._trace_trial = trace_trial
        self._flight: "FlightRecorder | None" = None

    def _open_trial(self, rng, links) -> _TrialState:
        """A state before round 1, no worm active, faults started on ``links``."""
        cfg = self.config
        st = _TrialState()
        st.rng = as_generator(rng)
        st.metrics = self._metrics if self._metrics is not None else get_metrics()
        st.observe = st.metrics.enabled
        st.t_run = time.perf_counter() if st.observe else 0.0
        st.active = []
        st.delivered_round = {}
        st.delivered_ever = set()
        st.duplicates = 0
        st.acks_lost = 0
        st.records = []
        st.collisions_per_round = []
        st.repairs = []
        st.total_time = 0
        st.observed_time = 0
        st.live_coll = None
        st.live_paths = {}
        st.base_ctx = None
        st.dl = 0
        st.fault_run = (
            cfg.faults.start(links, st.rng) if cfg.faults is not None else None
        )
        st.monitor = LinkHealthMonitor(cfg.suspect_after)
        st.cut_mask = None
        st.cut = frozenset()
        st.stall = StallDetector(
            cfg.backoff_after, cfg.backoff_cap, cooldown=cfg.backoff_cooldown
        )
        st.completed = False
        st.t = 0
        return st

    def _draw_launches(
        self, active: list[int], delta: int, rng: np.random.Generator
    ) -> Sequence[Launch]:
        """One round's launches for the ``active`` worms, in their order.

        Draws delays in ``[0, delta)``, then wavelengths in
        ``[0, bandwidth)``, then (priority rule, random mode) a priority
        permutation, straight into :class:`Launches` columns. Subclasses
        override it to redraw wavelengths.
        """
        config = self.config
        k = len(active)
        delays = rng.integers(0, delta, size=k)
        wavelengths = rng.integers(0, config.bandwidth, size=k)
        if config.rule is CollisionRule.PRIORITY:
            mode = config.priority_mode
            if mode == "random":
                priorities = rng.permutation(k)
            elif mode == "uid":
                priorities = np.array(active)
            else:  # reverse_uid
                priorities = -np.array(active)
        else:
            priorities = None
        return Launches(active, delays, wavelengths, priorities)

    def _acks(self, st: _TrialState, result) -> tuple[set[int], int]:
        """The round's acked uids and ack makespan: the paper's ideal acks."""
        return set(result.delivered), 0

    def _prepare_round(
        self, st: _TrialState, current_congestion: int | None
    ) -> tuple[Sequence[Launch], "list | None"]:
        """Advance to the next round and draw its launches and faults.

        ``current_congestion`` is the surviving worms' path congestion
        (None when untracked), measured by the driver: the lockstep loop
        reads it for all live trials at once (:func:`_round_congestion`).
        The caller must not call past ``max_rounds``. Everything that
        draws from the round RNG happens here, in a fixed order: spawn
        the round generator, draw launches, then fault the links.
        """
        cfg = self.config
        st.t += 1
        st.current_congestion = current_congestion
        ctx = dataclasses.replace(
            st.base_ctx, current_congestion=current_congestion
        )
        delta = cfg.schedule.delay_range(st.t, ctx)
        if st.stall.multiplier > 1.0:
            # Stall backoff: widen the launch window beyond what the
            # schedule believes is enough (bounded exponential).
            delta = max(1, int(math.ceil(delta * st.stall.multiplier)))
        st.delta = delta

        st.round_rng = spawn_generator(st.rng)
        launches = self._draw_launches(st.active, delta, st.round_rng)
        if self._flight is not None:
            self._flight.begin_round(st.t)
        dead_links = (
            st.fault_run.dead_links(st.t, st.round_rng)
            if st.fault_run is not None
            else None
        )
        return launches, dead_links

    def _absorb_round(self, st: _TrialState, result) -> set[int]:
        """Fold one engine round's result into the trial state.

        Acks, bookkeeping, metrics, trace records and health monitoring
        happen here. Returns the round's acked uids; ``st.completed``
        says whether any worm is still active.
        """
        cfg = self.config
        metrics = st.metrics
        observe = st.observe
        t = st.t
        if cfg.collect_collisions:
            st.collisions_per_round.append(result.collisions)

        delivered = result.delivered
        st.duplicates += sum(1 for uid in delivered if uid in st.delivered_ever)
        st.delivered_ever.update(delivered)

        acked, ack_span = self._acks(st, result)

        if st.fault_run is not None and acked:
            lost = st.fault_run.lost_acks(t, sorted(acked), st.round_rng)
            if lost:
                acked -= lost
                st.acks_lost += len(lost)
                if observe:
                    metrics.inc("protocol_acks_lost_total", len(lost))

        if self._flight is not None:
            self._flight.end_round(
                result.makespan, ack_span=ack_span, acked=sorted(acked)
            )

        for uid in acked:
            st.delivered_round.setdefault(uid, t)
        st.active = [uid for uid in st.active if uid not in acked]

        kinds = result.failure_counts
        duration = st.delta + 2 * st.dl
        observed = max(result.makespan or 0, ack_span) + 1
        st.total_time += duration
        st.observed_time += observed
        record = RoundRecord(
            index=t,
            delay_range=st.delta,
            active_before=result.n_launched,
            delivered=len(delivered),
            eliminated=kinds[FailureKind.ELIMINATED],
            truncated=kinds[FailureKind.TRUNCATED],
            acked=len(acked),
            duration=duration,
            observed_span=observed,
            active_congestion=st.current_congestion,
            faulted=kinds[FailureKind.FAULTED],
        )
        st.records.append(record)
        if observe:
            metrics.inc("protocol_rounds_total")
            metrics.inc("protocol_delivered_total", len(delivered))
            metrics.inc("protocol_eliminated_total", record.eliminated)
            metrics.inc("protocol_truncated_total", record.truncated)
            metrics.inc("protocol_faulted_total", record.faulted)
            metrics.inc("protocol_acked_total", len(acked))
            metrics.gauge("protocol_active_worms", len(st.active))
            if st.current_congestion is not None:
                metrics.gauge("protocol_congestion", st.current_congestion)
        if self._trace is not None:
            self._trace.write(
                "round", trial=self._trace_trial, **dataclasses.asdict(record)
            )

        if result.faulted_links:
            st.monitor.observe_round(result.faulted_links)
            if observe:
                metrics.gauge(
                    "protocol_suspected_links", len(st.monitor.suspected)
                )
        if st.stall.observe_round(len(acked)) and observe:
            metrics.inc("protocol_backoff_escalations_total")

        st.completed = not st.active
        return acked


class TrialAndFailureProtocol(_RoundStepper):
    """Drives the round loop over a fixed path collection.

    ``metrics`` optionally names the registry receiving per-round
    instrumentation (active worms, deliveries, failure tallies, ack
    timings); None defers to the process default, a no-op until
    :func:`repro.observability.enable_metrics` opts in. ``trace``
    optionally takes a :class:`~repro.observability.trace.TraceWriter`
    to which the run emits one ``round`` record per round and one
    ``trial`` summary record, tagged with ``trace_trial`` when several
    executions share one trace file. ``flight`` opts into the worm-level
    flight recorder on top of the trace: pass True (requires ``trace``)
    or a pre-built :class:`~repro.observability.flightrec.FlightRecorder`
    to emit one structured event per worm state change, replayable via
    :mod:`repro.observability.analysis`.
    """

    def __init__(
        self,
        collection: PathCollection,
        config: ProtocolConfig,
        *,
        metrics: MetricsRegistry | None = None,
        trace: "TraceWriter | None" = None,
        trace_trial: int = 0,
        flight: "bool | FlightRecorder" = False,
        _share_from: "TrialAndFailureProtocol | None" = None,
    ) -> None:
        super().__init__(config, metrics=metrics, trace=trace, trace_trial=trace_trial)
        self.collection = collection
        # _share_from lets the lockstep batch driver stamp out one
        # protocol per trial of the *same* collection and config without
        # re-deriving worms and link layouts: the worm list is shared
        # (repair rebinds, never mutates it) and the engines are forks.
        # Forks are bit-identical to fresh construction, so sharing is a
        # pure construction-cost optimisation. Ignored unless the donor
        # really matches and is pristine.
        share = _share_from
        if share is not None and (
            share.collection is not collection
            or share.config is not config
            or share._repaired
        ):
            share = None
        self.worms = (
            share.worms
            if share is not None
            else make_worms(collection.paths, config.worm_length)
        )
        if flight:
            from repro.observability.flightrec import FlightRecorder

            if isinstance(flight, FlightRecorder):
                self._flight = flight
            elif trace is None:
                raise ProtocolError(
                    "flight recording writes through the run trace; "
                    "pass trace= alongside flight=True"
                )
            else:
                self._flight = FlightRecorder(trace, trial=trace_trial)
            self._flight.describe_worms(self.worms)
        if share is not None:
            self.engine = share.engine.fork(metrics=metrics)
            self._ack_engine = (
                share._ack_engine.fork(metrics=metrics)
                if share._ack_engine is not None
                else None
            )
            self._base_ctx = share._base_ctx
        else:
            self._build_engines(self.worms, collection)
            self._base_ctx = ScheduleContext(
                n=collection.n,
                bandwidth=config.bandwidth,
                worm_length=config.worm_length,
                dilation=collection.dilation,
                congestion=collection.path_congestion,
            )
        # Lockstep siblings share their donor's compiled repair graph,
        # built at the family's first conviction (_pristine_graph).
        self._graph_owner = share._graph_owner if share is not None else self
        self._repair_graph: SurvivingGraph | None = None
        self._repaired = False

    def _build_engines(self, worms: list[Worm], collection: PathCollection) -> None:
        """(Re)build the forward and ack engines for ``worms``.

        ``collection`` holds the worms' paths (``worms[k]`` routes path
        ``k``); both engines build from its compiled
        :attr:`~repro.paths.collection.PathCollection.layout`, the ack
        engine from the layout run backwards. Called at construction
        and again after a reroute repair replaces stranded worms' paths
        (uids and lengths are stable; only paths change).
        """
        config = self.config
        self.engine = RoutingEngine(
            worms,
            config.rule,
            config.tie_rule,
            metrics=self._metrics,
            layout=collection.layout,
        )
        self._ack_engine: RoutingEngine | None = None
        if config.ack_mode == "simulated":
            # Reversed paths on a dedicated engine: the reserved ack band
            # never contends with forward messages.
            self._ack_engine = RoutingEngine(
                ack_worms(worms, ack_length=config.ack_length),
                config.rule,
                config.tie_rule,
                metrics=self._metrics,
                layout=collection.layout.reversed(),
            )

    # -- round internals -----------------------------------------------------

    def _acks(self, st: _TrialState, result) -> tuple[set[int], int]:
        """Ideal acks, or simulated acks routed on the ack engine.

        Simulated acks read the delivered worms' completion times off
        the round's outcome columns, so no per-worm outcome record is
        built.
        """
        if self.config.ack_mode == "ideal":
            return super()._acks(st, result)
        t_ack = time.perf_counter() if st.observe else 0.0
        cols = result.columns
        done = cols.code == 0
        delivered = cols.worm[done]
        acked, span = set(), 0
        if delivered.shape[0]:
            rng = st.round_rng
            ranks = rng.permutation(delivered.shape[0])
            # One scalar draw per ack, in delivery order, as the ack
            # stream has always drawn them.
            bandwidth = self.config.bandwidth
            wavelengths = [int(rng.integers(0, bandwidth)) for _ in range(ranks.shape[0])]
            offset = len(self.worms)
            launches = Launches(
                delivered + offset, cols.completion[done] + 1, wavelengths, ranks
            )
            acks = self._ack_engine.run_round(launches, collect_collisions=False)
            acked = {uid - offset for uid in acks.delivered}
            span = acks.makespan or 0
        if st.observe:
            st.metrics.observe("protocol_ack_seconds", time.perf_counter() - t_ack)
        return acked, span

    # -- fault-awareness helpers ---------------------------------------------

    def _pristine_graph(self) -> SurvivingGraph:
        """The collection's compiled surviving graph, read-only.

        Built at the first conviction seen by this protocol or by any
        lockstep sibling sharing its construction, and kept by the
        donor, so a family of trials walks the links once and a trial
        that convicts no link never walks them.
        """
        owner = self._graph_owner
        if owner._repair_graph is None:
            coll = owner.collection
            owner._repair_graph = surviving_graph(
                collection_links(coll.paths, coll.topology)
            )
        return owner._repair_graph

    def _attempt_repairs(self, st: _TrialState) -> dict[int, tuple]:
        """Reroute active worms stranded on suspected-dead links.

        Replacement paths are shortest paths on the surviving directed
        graph (the topology's links when the collection has a topology,
        else the union of the collection's own links) minus the
        suspected set. All trials of a family share the collection's
        compiled graph (:meth:`_pristine_graph`); each keeps its
        convictions as a cut mask over the graph's link ids, setting the
        newly convicted links' entries, and the BFS skips masked links
        in the graph's fixed neighbour order, so tie breaking is that of
        a fresh build. Nothing is scanned unless a link was convicted
        since the last attempt: until then every worm it left stranded
        still has no surviving route, and no other worm is stranded.
        Returns the rerouted worms' new paths
        by uid (empty when nothing changed); only those entries of
        ``self.worms`` are replaced. The caller patches the live
        collection with :meth:`PathCollection.rerouted`, which validates
        only the new paths and splices its compiled link layout, and
        rebuilds the engines from that layout: link ids are renumbered
        by first appearance in uid order, exactly as a fresh build of
        the repaired collection numbers them. Worms whose destination
        became unreachable stay stranded and are diagnosed at
        exhaustion.
        """
        monitor = st.monitor
        suspected = monitor.suspected
        if suspected == st.cut:
            return {}
        graph = self._pristine_graph()
        if st.cut_mask is None:
            st.cut_mask = bytearray(graph.dead)
        graph.cut(st.cut_mask, suspected - st.cut)
        st.cut = suspected
        live_paths = st.live_paths
        stranded = [
            uid for uid in st.active if monitor.is_suspected_path(live_paths[uid])
        ]
        changes: dict[int, tuple] = {}
        t = st.t
        for uid in stranded:
            path = live_paths[uid]
            new_path = reroute_path(graph, path[0], path[-1], st.cut_mask)
            if new_path is None or new_path == path:
                continue
            st.repairs.append(
                RepairEvent(
                    round=t,
                    worm=uid,
                    old_length=len(path) - 1,
                    new_length=len(new_path) - 1,
                )
            )
            live_paths[uid] = new_path
            changes[uid] = new_path
            _log.info(
                "round %d: rerouted worm %d around %d suspected-dead "
                "link(s) (%d -> %d links)",
                t,
                uid,
                len(suspected),
                len(path) - 1,
                len(new_path) - 1,
            )
            if self._trace is not None:
                self._trace.write(
                    "repair",
                    trial=self._trace_trial,
                    round=t,
                    worm=uid,
                    old_length=len(path) - 1,
                    new_length=len(new_path) - 1,
                )
        if not changes:
            return changes
        if not self._repaired:
            # Lockstep siblings may share the pristine list: own a copy.
            self.worms = list(self.worms)
        for uid, path in changes.items():
            self.worms[uid] = Worm(uid=uid, path=path, length=self.worms[uid].length)
        self._repaired = True
        if self._flight is not None:
            repaired = {r.worm for r in st.repairs}
            self._flight.describe_worms(
                [w for w in self.worms if w.uid in repaired], force=True
            )
        if st.observe:
            st.metrics.inc("protocol_repairs_total", len(changes))
        return changes

    def _diagnose(
        self,
        active: list[int],
        delivered_ever: set[int],
        live_paths: dict[int, tuple],
        monitor: LinkHealthMonitor,
    ) -> dict[int, str]:
        """Classify every still-active worm at max_rounds exhaustion."""
        diagnosis: dict[int, str] = {}
        for uid in active:
            if uid in delivered_ever:
                diagnosis[uid] = DIAG_ACK_LOST
            elif monitor.is_suspected_path(live_paths[uid]):
                diagnosis[uid] = DIAG_STRANDED
            else:
                diagnosis[uid] = DIAG_CONTENTION
        return diagnosis

    # -- main loop ----------------------------------------------------------------

    def _start_trial(self, rng=None) -> _TrialState:
        """Initialise one execution's loop state (everything before round 1)."""
        if self._repaired:
            # A previous run on this instance rerouted worms; reset to the
            # pristine collection so reruns stay seed-deterministic.
            self.worms = make_worms(self.collection.paths, self.config.worm_length)
            self._build_engines(self.worms, self.collection)
            self._repaired = False
        st = self._open_trial(rng, self.collection.links)
        st.active = [w.uid for w in self.worms]
        st.live_coll = self.collection
        st.live_paths = {w.uid: w.path for w in self.worms}
        st.base_ctx = self._base_ctx
        st.dl = self.collection.dilation + self.config.worm_length
        return st

    def _absorb_round(self, st: _TrialState, result) -> set[int]:
        """The round body, then reroute repair of stranded worms."""
        acked = super()._absorb_round(st, result)
        if st.completed or self.config.repair != "reroute":
            return acked
        changes = self._attempt_repairs(st)
        if changes:
            st.live_coll = st.live_coll.rerouted(changes)
            self._build_engines(self.worms, st.live_coll)
            st.dl = st.live_coll.dilation + self.config.worm_length
            # Repaired paths void the original invariants; re-anchor
            # the schedule on the repaired collection's measures.
            st.base_ctx = dataclasses.replace(
                st.base_ctx,
                dilation=st.live_coll.dilation,
                congestion=st.live_coll.path_congestion,
            )
        return acked

    def _finish_trial(self, st: _TrialState) -> ProtocolResult:
        """Diagnose, emit final metrics/trace, and build the result."""
        cfg = self.config
        metrics = st.metrics
        diagnosis: dict[int, str] = {}
        stall_reason: str | None = None
        if not st.completed:
            diagnosis = self._diagnose(
                st.active, st.delivered_ever, st.live_paths, st.monitor
            )
            counts = Counter(diagnosis.values())
            breakdown = ", ".join(
                f"{n} {kind}" for kind, n in sorted(counts.items())
            )
            stall_reason = (
                f"max_rounds={cfg.max_rounds} exhausted with "
                f"{len(st.active)} active worm(s): {breakdown}"
            )
            _log.warning(
                "protocol exhausted max_rounds=%d with %d active worm(s) "
                "(%s); suspected dead links: %d; repairs applied: %d",
                cfg.max_rounds,
                len(st.active),
                breakdown,
                len(st.monitor.suspected),
                len(st.repairs),
            )
            metrics.inc("protocol_exhausted_total")

        if st.observe:
            metrics.inc("protocol_runs_total")
            if st.completed:
                metrics.inc("protocol_completed_total")
            metrics.inc("protocol_duplicates_total", st.duplicates)
            metrics.observe(
                "protocol_run_seconds", time.perf_counter() - st.t_run
            )
        if self._trace is not None:
            self._trace.write(
                "trial",
                trial=self._trace_trial,
                completed=st.completed,
                rounds=st.t,
                total_time=st.total_time,
                observed_time=st.observed_time,
                delivered_round=st.delivered_round,
                duplicate_deliveries=st.duplicates,
                diagnosis=diagnosis,
                stall_reason=stall_reason,
                repairs=[dataclasses.asdict(r) for r in st.repairs],
            )
        return ProtocolResult(
            completed=st.completed,
            rounds=st.t,
            total_time=st.total_time,
            observed_time=st.observed_time,
            records=tuple(st.records),
            delivered_round=st.delivered_round,
            collisions_per_round=tuple(st.collisions_per_round),
            duplicate_deliveries=st.duplicates,
            diagnosis=diagnosis,
            stall_reason=stall_reason,
            repairs=tuple(st.repairs),
        )

    def run(self, rng=None) -> ProtocolResult:
        """Execute rounds until every worm is acknowledged (or max_rounds).

        The one-trial case of the lockstep loop behind
        :func:`run_protocol_batch`.
        """
        return _run_lockstep([(self, self._start_trial(rng))])[0]


def _run_lockstep(
    trials: list[tuple[TrialAndFailureProtocol, _TrialState]],
) -> list[ProtocolResult]:
    """Step every ``(protocol, state)`` pair to completion, round by round.

    The one driver loop. Each lockstep round opens one
    ``protocol.round`` span, measures every live trial's congestion,
    draws each trial's launches and faults, simulates all of them in one
    :func:`~repro.core.engine.run_round_batch` pass, and folds each
    result back into its trial. A trial leaves the loop once every worm
    is acknowledged or its ``max_rounds`` are spent.
    """
    prof = get_profiler()
    results: list[ProtocolResult | None] = [None] * len(trials)
    live = list(range(len(trials)))
    while live:
        with prof.span("protocol.round"):
            stepping = [trials[i] for i in live]
            calls = []
            for (proto, st), congestion in zip(stepping, _round_congestion(stepping)):
                launches, dead_links = proto._prepare_round(st, congestion)
                calls.append(RoundCall(
                    proto.engine, launches, proto.config.collect_collisions,
                    dead_links, proto._flight,
                ))
            next_live = []
            for i, (proto, st), result in zip(live, stepping, run_round_batch(calls)):
                proto._absorb_round(st, result)
                if st.completed or st.t >= proto.config.max_rounds:
                    results[i] = proto._finish_trial(st)
                else:
                    next_live.append(i)
            live = next_live
    return results  # type: ignore[return-value]


def _round_congestion(
    trials: list[tuple[TrialAndFailureProtocol, _TrialState]],
) -> list[int | None]:
    """Each trial's surviving-worm path congestion (None when untracked).

    ``live_coll.subset(active).path_congestion``, read with one
    :meth:`~repro.paths.collection.PathCollection.subset_congestion_batch`
    call (one mask row per trial) for each group of trials sharing a live
    collection: the shared pristine one, or a repaired trial's patched
    :meth:`~repro.paths.collection.PathCollection.rerouted` copy.
    """
    congestion: list[int | None] = [None] * len(trials)
    groups: dict[int, list[int]] = {}
    for k, (proto, st) in enumerate(trials):
        if proto.config.track_congestion:
            groups.setdefault(id(st.live_coll), []).append(k)
    for group in groups.values():
        coll = trials[group[0]][1].live_coll
        masks = np.zeros((len(group), coll.n), dtype=bool)
        for row, k in enumerate(group):
            masks[row, trials[k][1].active] = True
        for k, val in zip(group, coll.subset_congestion_batch(masks)):
            congestion[k] = int(val)
    return congestion


def route_collection(
    collection: PathCollection,
    bandwidth: int,
    rule: CollisionRule = CollisionRule.SERVE_FIRST,
    worm_length: int = 4,
    rng=None,
    metrics: MetricsRegistry | None = None,
    trace: "TraceWriter | None" = None,
    flight: "bool | FlightRecorder" = False,
    **config_kwargs,
) -> ProtocolResult:
    """Route a collection with default trial-and-failure configuration.

    Convenience entry point: builds a :class:`ProtocolConfig` from the
    keyword arguments and runs one execution. ``metrics``, ``trace`` and
    ``flight`` pass straight through to :class:`TrialAndFailureProtocol`.
    """
    config = ProtocolConfig(
        bandwidth=bandwidth, rule=rule, worm_length=worm_length, **config_kwargs
    )
    return TrialAndFailureProtocol(
        collection, config, metrics=metrics, trace=trace, flight=flight
    ).run(rng)


def run_protocol_batch(
    collection: PathCollection,
    config: ProtocolConfig,
    seeds,
    *,
    metrics=None,
) -> list[ProtocolResult]:
    """Run one protocol trial per seed, simulating their rounds in lockstep.

    The trial runner's driver under every backend name: one
    :class:`TrialAndFailureProtocol` is stamped out per seed (engine
    forks of a shared parent, so construction cost is paid once), and
    every round all still-running trials' launches go through a single
    :func:`repro.core.engine.run_round_batch` pass. Each trial's result
    is bit-identical to ``TrialAndFailureProtocol(collection,
    config).run(seed)``: that is the one-trial case of the same lockstep
    loop, and the engine pass is bit-identical per trial. Congestion
    tracking reads each live collection's exact sharing bitsets once per
    round for all its trials (see :func:`_round_congestion`); a repaired
    trial holds its own patched copy, ``n**2 / 8`` bytes.
    Simulated acks route serially per trial on each trial's own ack
    engine.

    ``metrics`` is None (process default for every trial), one shared
    registry, or a sequence of per-trial registries -- the last is how
    the instrumented trial runner keeps per-trial snapshots exact.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    if isinstance(metrics, (list, tuple)):
        if len(metrics) != len(seeds):
            raise ProtocolError(
                f"got {len(metrics)} metrics registries for "
                f"{len(seeds)} seeds"
            )
        per_trial = list(metrics)
    else:
        per_trial = [metrics] * len(seeds)

    protos: list[TrialAndFailureProtocol] = []
    for m in per_trial:
        protos.append(
            TrialAndFailureProtocol(
                collection,
                config,
                metrics=m,
                _share_from=protos[0] if protos else None,
            )
        )
    return _run_lockstep(
        [(p, p._start_trial(seed)) for p, seed in zip(protos, seeds)]
    )
