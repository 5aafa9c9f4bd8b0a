"""Streaming traffic engine: the trial-and-failure protocol as an open system.

The paper's protocol routes a *fixed* batch of worms until the last ack
arrives. This module runs the same round machinery as an open system:
worm requests arrive continuously from a seed-deterministic
:class:`~repro.scenarios.arrivals.ArrivalProcess`, are admitted between
rounds (bounded by ``max_active``), routed by the shared
:class:`~repro.core.engine.RoutingEngine`, and retired on ack or on
``patience`` expiry. Steady-state behaviour -- throughput, admission
latency, drop rate -- replaces makespan as the headline observable.

Determinism contract: the engine draws all routing randomness from the
caller's generator in *exactly* the static protocol's per-round order
(congestion, schedule, ``spawn_generator`` for the round, delays,
wavelengths, priorities, fault draws, ack-loss draws), and all arrival
randomness from one private generator spawned once up front. Two
consequences, both pinned by tests:

* with ``arrivals=None`` (drain mode) the engine replays the exact draw
  sequence of :class:`~repro.core.protocol.TrialAndFailureProtocol` and
  produces bit-identical per-round records on every backend;
* a fixed (scenario, seed) pair yields an identical
  :meth:`StreamingResult.snapshot` on every run.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro._util import as_generator, spawn_generator
from repro.core.engine import RoutingEngine
from repro.core.protocol import ProtocolConfig, _draw_launches, _subset_congestion
from repro.core.schedule import ScheduleContext
from repro.errors import ScenarioError
from repro.faults.health import StallDetector
from repro.network.topology import Topology
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import get_profiler
from repro.paths.collection import LivePathSet, PathCollection
from repro.paths.layout import LinkLayout, topology_universe
from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.traffic import TrafficPattern
from repro.worms.worm import Worm, make_worms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.trace import TraceWriter

__all__ = [
    "StreamingNetwork",
    "StreamingConfig",
    "StreamingRoundRecord",
    "StreamingResult",
    "StreamingEngine",
]


@dataclass(frozen=True)
class StreamingNetwork:
    """A topology plus a deterministic route chooser for streaming demand.

    ``path_fn(src, dst)`` returns the node path a newly admitted worm
    follows; it must be deterministic (dimension-order routing and the
    like), so all randomness stays in the arrival/traffic draws.
    ``endpoints`` optionally restricts traffic sources/destinations to a
    subset of nodes (in deterministic order); empty means every node.
    """

    topology: Topology
    path_fn: Callable[[Hashable, Hashable], Sequence[Hashable]]
    endpoints: tuple = ()

    def __post_init__(self) -> None:
        if not callable(self.path_fn):
            raise ScenarioError("path_fn must be callable (src, dst) -> path")
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        if self.endpoints:
            known = set(self.topology.nodes)
            missing = [v for v in self.endpoints if v not in known]
            if missing:
                raise ScenarioError(
                    f"endpoints not in the topology: {missing[:4]!r}"
                )

    @property
    def nodes(self) -> tuple:
        """The traffic population: ``endpoints`` or all topology nodes."""
        return self.endpoints if self.endpoints else tuple(self.topology.nodes)


@dataclass(frozen=True)
class StreamingConfig:
    """Configuration of one streaming run.

    ``protocol`` supplies the round machinery (bandwidth, schedule,
    collision rule, faults, backoff); streaming requires the paper's
    analytical ack model (``ack_mode="ideal"``) and no reroute repair.
    ``arrivals``/``traffic`` define the offered load; ``arrivals=None``
    selects *drain mode*: route a fixed initial backlog to completion,
    bit-identical to the static protocol. ``rounds`` bounds a streaming
    run (drain mode uses ``protocol.max_rounds``); ``max_active`` is the
    admission-control window (excess offered requests are *rejected*);
    ``patience`` expires worms still undelivered after that many rounds
    in the system (None = wait forever). ``rate_windows`` is a tuple of
    ``(start_round, duration, multiplier)`` triples scaling the arrival
    rate while active -- overlapping windows multiply -- which is how
    flash-crowd events are expressed. ``snapshot_every`` opts into
    time-resolved observability: every that-many rounds the engine
    emits one bounded-memory window snapshot (per-window throughput,
    drop rate, active worms, reservoir-sampled latency quantiles) as a
    ``scenario_window`` trace record, without perturbing the run -- the
    windowing consumes no routing randomness, so results stay
    bit-identical to an unwindowed run.
    """

    protocol: ProtocolConfig
    arrivals: ArrivalProcess | None = None
    traffic: TrafficPattern | None = None
    rounds: int = 256
    max_active: int = 1024
    patience: int | None = None
    rate_windows: tuple = ()
    snapshot_every: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, ProtocolConfig):
            raise ScenarioError(
                f"protocol must be a ProtocolConfig, "
                f"got {type(self.protocol).__name__}"
            )
        if self.protocol.ack_mode != "ideal":
            raise ScenarioError(
                "streaming scenarios require ack_mode='ideal' "
                f"(got {self.protocol.ack_mode!r})"
            )
        if self.protocol.repair != "none":
            raise ScenarioError(
                "streaming scenarios do not support reroute repair "
                f"(got repair={self.protocol.repair!r})"
            )
        if self.protocol.collect_collisions:
            raise ScenarioError(
                "streaming scenarios never retain collision logs; "
                "set collect_collisions=False"
            )
        if self.arrivals is not None and not isinstance(
            self.arrivals, ArrivalProcess
        ):
            raise ScenarioError(
                f"arrivals must be an ArrivalProcess or None, "
                f"got {type(self.arrivals).__name__}"
            )
        if (self.arrivals is None) != (self.traffic is None):
            raise ScenarioError(
                "arrivals and traffic come together: pass both for a "
                "streaming run or neither for drain mode"
            )
        if self.traffic is not None and not isinstance(
            self.traffic, TrafficPattern
        ):
            raise ScenarioError(
                f"traffic must be a TrafficPattern or None, "
                f"got {type(self.traffic).__name__}"
            )
        if self.rounds < 1:
            raise ScenarioError(f"rounds must be >= 1, got {self.rounds}")
        if self.max_active < 1:
            raise ScenarioError(
                f"max_active must be >= 1, got {self.max_active}"
            )
        if self.patience is not None and self.patience < 1:
            raise ScenarioError(
                f"patience must be >= 1 (or None), got {self.patience}"
            )
        windows = []
        for w in self.rate_windows:
            try:
                start, duration, multiplier = w
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"rate window must be (start_round, duration, "
                    f"multiplier), got {w!r}"
                ) from None
            start, duration, multiplier = int(start), int(duration), float(multiplier)
            if start < 1 or duration < 1:
                raise ScenarioError(
                    f"rate window start/duration must be >= 1, got {w!r}"
                )
            if multiplier < 0.0:
                raise ScenarioError(
                    f"rate window multiplier must be >= 0, got {w!r}"
                )
            windows.append((start, duration, multiplier))
        object.__setattr__(self, "rate_windows", tuple(windows))
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ScenarioError(
                f"snapshot_every must be >= 1 (or None), "
                f"got {self.snapshot_every}"
            )

    def rate_multiplier(self, t: int) -> float:
        """Product of the multipliers of all windows active at round ``t``."""
        m = 1.0
        for start, duration, multiplier in self.rate_windows:
            if start <= t < start + duration:
                m *= multiplier
        return m


@dataclass(frozen=True)
class StreamingRoundRecord:
    """Per-round streaming observables.

    ``offered``/``admitted``/``rejected``/``expired`` count this round's
    arrival-side events; the remaining fields mirror the static
    protocol's :class:`~repro.core.records.RoundRecord` (and match it
    bit-for-bit in drain mode).
    """

    index: int
    delay_range: int
    offered: int
    admitted: int
    rejected: int
    expired: int
    active_before: int
    delivered: int
    acked: int
    duration: int


@dataclass(frozen=True)
class StreamingResult:
    """Outcome of one streaming (or drain) run.

    ``completed`` means the system ended drained (no active worms).
    ``latencies`` holds one admission-to-ack latency per acked worm, in
    ack order (ties broken by uid); quantiles are exact order
    statistics, not interpolations.
    """

    completed: bool
    rounds: int
    total_time: int
    offered: int
    admitted: int
    acked: int
    rejected: int
    expired: int
    records: tuple[StreamingRoundRecord, ...]
    delivered_round: dict[int, int] = field(default_factory=dict)
    admitted_round: dict[int, int] = field(default_factory=dict)
    latencies: tuple[int, ...] = ()

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests rejected at admission or expired."""
        if self.offered == 0:
            return 0.0
        return (self.rejected + self.expired) / self.offered

    @property
    def throughput(self) -> float:
        """Acked worms per unit of protocol time."""
        if self.total_time == 0:
            return 0.0
        return self.acked / self.total_time

    def latency_quantile(self, q: float) -> float | None:
        """Exact order-statistic latency quantile (None with no acks)."""
        if not 0.0 <= q <= 1.0:
            raise ScenarioError(f"quantile must be in [0, 1], got {q}")
        if not self.latencies:
            return None
        data = sorted(self.latencies)
        idx = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
        return float(data[idx])

    def snapshot(self) -> dict:
        """Deterministic JSON-ready summary of the run."""
        return {
            "drained": self.completed,
            "rounds": self.rounds,
            "total_time": self.total_time,
            "offered": self.offered,
            "admitted": self.admitted,
            "acked": self.acked,
            "rejected": self.rejected,
            "expired": self.expired,
            "drop_rate": self.drop_rate,
            "throughput": self.throughput,
            "latency_p50": self.latency_quantile(0.50),
            "latency_p95": self.latency_quantile(0.95),
            "latency_p99": self.latency_quantile(0.99),
        }


#: Latency samples retained per window; windows holding more acks than
#: this report reservoir-sampled (still deterministic) quantiles.
WINDOW_RESERVOIR_CAP = 256


class _WindowTracker:
    """Bounded-memory accumulator behind ``snapshot_every`` (internal).

    Sums per-round deltas and reservoir-samples ack latencies until
    ``every`` rounds have elapsed, then :meth:`flush` produces one
    JSON-ready window dict and resets. The reservoir draws from a
    *private* seeded ``random.Random`` -- never from the run's routing
    generator -- so windowed and unwindowed runs are bit-identical.
    """

    def __init__(self, every: int, cap: int = WINDOW_RESERVOIR_CAP) -> None:
        self.every = every
        self.cap = cap
        self.index = 0
        self.start = 1
        self._rng = random.Random(0x5EED)
        self._reset()

    def _reset(self) -> None:
        self.offered = self.admitted = self.rejected = self.expired = 0
        self.acked = self.delivered = self.duration = self.rounds = 0
        self.seen = 0
        self.sample: list[int] = []

    def observe_latency(self, latency: int) -> None:
        """Reservoir-sample one admission-to-ack latency (algorithm R)."""
        self.seen += 1
        if len(self.sample) < self.cap:
            self.sample.append(latency)
        else:
            j = self._rng.randrange(self.seen)
            if j < self.cap:
                self.sample[j] = latency

    def observe_round(self, record: StreamingRoundRecord) -> None:
        """Fold one round's deltas into the open window."""
        self.offered += record.offered
        self.admitted += record.admitted
        self.rejected += record.rejected
        self.expired += record.expired
        self.acked += record.acked
        self.delivered += record.delivered
        self.duration += record.duration
        self.rounds += 1

    @property
    def due(self) -> bool:
        """True once the open window spans ``every`` rounds."""
        return self.rounds >= self.every

    def flush(self, end_round: int, active: int) -> dict:
        """Close the window ending at ``end_round`` and reset for the next."""
        data = sorted(self.sample)

        def q(p: float) -> float | None:
            if not data:
                return None
            idx = min(len(data) - 1, max(0, math.ceil(p * len(data)) - 1))
            return float(data[idx])

        window = {
            "window": self.index,
            "start_round": self.start,
            "end_round": end_round,
            "rounds": self.rounds,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "expired": self.expired,
            "acked": self.acked,
            "delivered": self.delivered,
            "duration": self.duration,
            "active": active,
            "throughput": self.acked / self.duration if self.duration else 0.0,
            "drop_rate": (
                (self.rejected + self.expired) / self.offered
                if self.offered
                else 0.0
            ),
            "latency_p50": q(0.50),
            "latency_p95": q(0.95),
            "latency_p99": q(0.99),
            "latency_samples": self.seen,
        }
        self.index += 1
        self.start = end_round + 1
        self._reset()
        return window


class StreamingEngine:
    """Runs the trial-and-failure rounds with continuous worm admission.

    Streaming mode (``config.arrivals`` set) needs a ``network``; drain
    mode needs a ``collection`` holding the initial backlog. ``metrics``
    and ``trace`` follow the protocol's conventions: per-round
    ``scenario_round`` trace records plus one ``scenario`` summary,
    and ``scenario_*`` counters/gauges/histograms in the registry. With
    ``config.snapshot_every`` set, each closed window additionally
    yields one ``scenario_window`` trace record, refreshes the
    ``scenario_window_*`` gauges, and is handed to the ``on_window``
    callback (the live-dashboard hook) -- all pure observation, so the
    run itself is bit-identical to an unwindowed one.
    """

    def __init__(
        self,
        config: StreamingConfig,
        *,
        collection: PathCollection | None = None,
        network: StreamingNetwork | None = None,
        metrics: MetricsRegistry | None = None,
        trace: "TraceWriter | None" = None,
        trace_trial: int = 0,
        on_window: Callable[[dict], None] | None = None,
    ) -> None:
        self.config = config
        if config.arrivals is None:
            if collection is None:
                raise ScenarioError(
                    "drain mode (arrivals=None) needs a collection= "
                    "holding the initial backlog"
                )
        elif network is None:
            raise ScenarioError("streaming mode needs a network=")
        if on_window is not None and not callable(on_window):
            raise ScenarioError("on_window must be callable (or None)")
        self.collection = collection
        self.network = network
        self._metrics = metrics
        self._trace = trace
        self._trace_trial = trace_trial
        self._on_window = on_window

    # -- helpers -------------------------------------------------------------

    def _build_engine(self, worms: list[Worm], layout: LinkLayout) -> RoutingEngine:
        """The run's engine over ``worms``, whose paths ``layout`` lays out.

        Streaming runs lay paths out over the topology's links, so
        admissions never meet a link the engine's universe lacks.
        """
        proto = self.config.protocol
        return RoutingEngine(
            worms,
            proto.rule,
            proto.tie_rule,
            metrics=self._metrics,
            layout=layout,
        )

    def _emit_window(self, window: dict, metrics, observe: bool) -> None:
        """Ship one closed window to the trace, gauges and callback."""
        if self._trace is not None:
            self._trace.write(
                "scenario_window", trial=self._trace_trial, **window
            )
        if observe:
            metrics.inc("scenario_windows_total")
            metrics.gauge("scenario_window_throughput", window["throughput"])
            metrics.gauge("scenario_window_drop_rate", window["drop_rate"])
            metrics.gauge("scenario_window_active_worms", window["active"])
            for key in ("latency_p50", "latency_p95", "latency_p99"):
                if window[key] is not None:
                    metrics.gauge(f"scenario_window_{key}", window[key])
        if self._on_window is not None:
            self._on_window(window)

    # -- main loop -----------------------------------------------------------

    def run(self, rng=None) -> StreamingResult:
        """Execute the run; each call restarts from a fresh system state."""
        cfg = self.config
        proto = cfg.protocol
        rng = as_generator(rng)
        metrics = self._metrics if self._metrics is not None else get_metrics()
        observe = metrics.enabled
        prof = get_profiler()
        streaming = cfg.arrivals is not None
        tracker = (
            _WindowTracker(cfg.snapshot_every)
            if cfg.snapshot_every is not None
            else None
        )

        engine: RoutingEngine | None = None
        active: list[int] = []
        live: LivePathSet | None = None
        delivered_round: dict[int, int] = {}
        admitted_round: dict[int, int] = {}
        latencies: list[int] = []
        records: list[StreamingRoundRecord] = []
        offered = admitted = rejected = expired = acked_total = 0
        total_time = 0
        base_ctx: ScheduleContext | None = None
        dl = 0
        next_uid = 0

        # Fault state first (stateful models consume one spawn there),
        # exactly as the static protocol does; only then the private
        # arrivals stream, so drain mode never perturbs the sequence.
        links = (
            self.network.topology.directed_links
            if streaming
            else self.collection.links
        )
        fault_run = (
            proto.faults.start(links, rng) if proto.faults is not None else None
        )
        stall = StallDetector(
            proto.backoff_after, proto.backoff_cap, cooldown=proto.backoff_cooldown
        )

        if streaming:
            live = LivePathSet(self.network.topology)
            arr_rng = spawn_generator(rng)
            arr_stream = cfg.arrivals.start()
            traffic_stream = cfg.traffic.start(self.network.nodes)
            horizon = cfg.rounds
        else:
            arr_rng = arr_stream = traffic_stream = None
            worms = make_worms(self.collection.paths, proto.worm_length)
            engine = self._build_engine(worms, self.collection.layout)
            active = [w.uid for w in worms]
            admitted_round = {uid: 1 for uid in active}
            offered = admitted = len(active)
            next_uid = len(active)
            base_ctx = ScheduleContext(
                n=self.collection.n,
                bandwidth=proto.bandwidth,
                worm_length=proto.worm_length,
                dilation=self.collection.dilation,
                congestion=self.collection.path_congestion,
            )
            dl = self.collection.dilation + proto.worm_length
            horizon = proto.max_rounds

        completed = False
        rounds_used = 0
        for t in range(1, horizon + 1):
            rounds_used = t
            round_offered = round_admitted = round_rejected = round_expired = 0

            if streaming:
                with prof.span("scenario.admission"):
                    # Admission phase, "between rounds": expire the
                    # impatient, then draw and admit this round's arrivals.
                    if cfg.patience is not None and active:
                        stale = [
                            uid
                            for uid in active
                            if t - admitted_round[uid] >= cfg.patience
                        ]
                        if stale:
                            engine.retire_worms(stale)
                            stale_set = set(stale)
                            active = [u for u in active if u not in stale_set]
                            for uid in stale:
                                live.remove(uid)
                            round_expired = len(stale)
                            expired += round_expired
                            if observe:
                                metrics.inc(
                                    "scenario_dropped_total",
                                    round_expired,
                                    reason="expired",
                                )
                    k = arr_stream.count(t, arr_rng, cfg.rate_multiplier(t))
                    round_offered = k
                    offered += k
                    if observe and k:
                        metrics.inc("scenario_offered_total", k)
                    admit = min(k, max(0, cfg.max_active - len(active)))
                    round_rejected = k - admit
                    rejected += round_rejected
                    if round_rejected and observe:
                        metrics.inc(
                            "scenario_dropped_total",
                            round_rejected,
                            reason="rejected",
                        )
                    if admit:
                        new_worms = []
                        for src, dst in traffic_stream.pairs(admit, arr_rng):
                            path = tuple(self.network.path_fn(src, dst))
                            # Validates the path, before the engine sees
                            # any worm of this admission.
                            live.add(next_uid, path)
                            new_worms.append(
                                Worm(uid=next_uid, path=path, length=proto.worm_length)
                            )
                            admitted_round[next_uid] = t
                            active.append(next_uid)
                            next_uid += 1
                        if engine is None:
                            engine = self._build_engine(
                                new_worms,
                                LinkLayout.compile(
                                    [w.path for w in new_worms],
                                    topology_universe(self.network.topology),
                                ),
                            )
                        else:
                            engine.add_worms(new_worms)
                        round_admitted = admit
                        admitted += admit
                        if observe:
                            metrics.inc("scenario_admitted_total", admit)
                        # Re-anchor the schedule envelope on the enlarged
                        # system (congestion/dilation can only be refreshed
                        # when membership changes).
                        dilation = live.dilation
                        base_ctx = ScheduleContext(
                            n=live.n,
                            bandwidth=proto.bandwidth,
                            worm_length=proto.worm_length,
                            dilation=dilation,
                            congestion=live.path_congestion,
                        )
                        dl = dilation + proto.worm_length

            if not active:
                # Idle round: nothing to launch, so no generator is
                # spawned and no fault draw happens (the fault models
                # evolve lazily, so skipping rounds is safe).
                delta = 1
                duration = delta + 2 * dl if base_ctx is not None else delta
                total_time += duration
                record = StreamingRoundRecord(
                    index=t,
                    delay_range=delta,
                    offered=round_offered,
                    admitted=round_admitted,
                    rejected=round_rejected,
                    expired=round_expired,
                    active_before=0,
                    delivered=0,
                    acked=0,
                    duration=duration,
                )
                records.append(record)
                if observe:
                    metrics.gauge("scenario_active_worms", 0)
                if self._trace is not None:
                    self._trace.write(
                        "scenario_round",
                        trial=self._trace_trial,
                        **dataclasses.asdict(record),
                    )
                if tracker is not None:
                    tracker.observe_round(record)
                    if tracker.due:
                        self._emit_window(
                            tracker.flush(t, 0), metrics, observe
                        )
                continue

            with prof.span("scenario.round"):
                # Routing phase: a verbatim mirror of the static protocol's
                # round (same draw order, same arithmetic).
                current_congestion = None
                if proto.track_congestion:
                    if streaming:
                        current_congestion = live.path_congestion
                    else:
                        (current_congestion,) = _subset_congestion(
                            self.collection, [active]
                        )
                ctx = dataclasses.replace(
                    base_ctx, current_congestion=current_congestion
                )
                delta = proto.schedule.delay_range(t, ctx)
                if stall.multiplier > 1.0:
                    delta = max(1, int(math.ceil(delta * stall.multiplier)))

                round_rng = spawn_generator(rng)
                launches = _draw_launches(active, delta, proto, round_rng)
                dead_links = (
                    fault_run.dead_links(t, round_rng)
                    if fault_run is not None
                    else None
                )
                result = engine.run_round(launches, collect_collisions=False,
                                          dead_links=dead_links)
                delivered = result.delivered
                acked = set(delivered)
                if fault_run is not None and acked:
                    lost = fault_run.lost_acks(t, sorted(acked), round_rng)
                    if lost:
                        acked -= lost
                for uid in acked:
                    delivered_round.setdefault(uid, t)
                active = [uid for uid in active if uid not in acked]
                if acked:
                    acked_total += len(acked)
                    for uid in sorted(acked):
                        latency = t - admitted_round[uid] + 1
                        latencies.append(latency)
                        if tracker is not None:
                            tracker.observe_latency(latency)
                        if observe:
                            metrics.observe(
                                "scenario_admission_latency_rounds", latency
                            )
                    if streaming:
                        with prof.span("scenario.retire"):
                            engine.retire_worms(sorted(acked))
                            for uid in acked:
                                live.remove(uid)

                duration = delta + 2 * dl
                total_time += duration
                record = StreamingRoundRecord(
                    index=t,
                    delay_range=delta,
                    offered=round_offered,
                    admitted=round_admitted,
                    rejected=round_rejected,
                    expired=round_expired,
                    active_before=result.n_launched,
                    delivered=len(delivered),
                    acked=len(acked),
                    duration=duration,
                )
                records.append(record)
                if observe:
                    metrics.inc("scenario_rounds_total")
                    metrics.inc("scenario_acked_total", len(acked))
                    metrics.gauge("scenario_active_worms", len(active))
                if self._trace is not None:
                    self._trace.write(
                        "scenario_round",
                        trial=self._trace_trial,
                        **dataclasses.asdict(record),
                    )
                if tracker is not None:
                    tracker.observe_round(record)
                    if tracker.due:
                        self._emit_window(
                            tracker.flush(t, len(active)), metrics, observe
                        )
                stall.observe_round(len(acked))

            if not streaming and not active:
                completed = True
                break

        if tracker is not None and tracker.rounds:
            # Partial trailing window (horizon or drain not divisible by
            # snapshot_every): flush it so the series covers every round.
            self._emit_window(
                tracker.flush(rounds_used, len(active)), metrics, observe
            )
        if streaming:
            completed = not active

        out = StreamingResult(
            completed=completed,
            rounds=rounds_used,
            total_time=total_time,
            offered=offered,
            admitted=admitted,
            acked=acked_total,
            rejected=rejected,
            expired=expired,
            records=tuple(records),
            delivered_round=delivered_round,
            admitted_round=admitted_round,
            latencies=tuple(latencies),
        )
        if observe:
            metrics.inc("scenario_runs_total")
            if completed:
                metrics.inc("scenario_drained_total")
        if self._trace is not None:
            self._trace.write(
                "scenario", trial=self._trace_trial, **out.snapshot()
            )
        return out
