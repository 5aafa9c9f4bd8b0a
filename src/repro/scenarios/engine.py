"""Streaming traffic engine: the trial-and-failure protocol as an open system.

The paper's protocol routes a *fixed* batch of worms until the last ack
arrives. This module runs it as an open system: worm requests arrive
continuously from a seed-deterministic
:class:`~repro.scenarios.arrivals.ArrivalProcess`, are admitted between
rounds (bounded by ``max_active``), and are retired on ack or on
``patience`` expiry. Each routed round is the protocol's own round
stepper (:mod:`repro.core.protocol`) over a
:class:`~repro.core.engine.RoutingEngine` that admissions grow; this
module keeps only admission, expiry, retirement and the ``scenario_*``
observables. Steady-state behaviour -- throughput, admission latency,
drop rate -- replaces makespan as the headline observable.

Determinism contract: routing randomness comes from the caller's
generator through the stepper, so in the static protocol's per-round
order, and all arrival randomness from one private generator spawned
once up front. Two consequences, both pinned by tests:

* with ``arrivals=None`` (drain mode) the engine steps a
  :class:`~repro.core.protocol.TrialAndFailureProtocol` trial of the
  backlog and reproduces its per-round records bit for bit;
* a fixed (scenario, seed) pair yields an identical
  :meth:`StreamingResult.snapshot` on every run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro._util import spawn_generator
from repro.core.engine import RoutingEngine
from repro.core.protocol import (
    ProtocolConfig,
    TrialAndFailureProtocol,
    _round_congestion,
    _RoundStepper,
    _TrialState,
)
from repro.core.schedule import ScheduleContext
from repro.errors import ScenarioError
from repro.network.topology import Topology
from repro.observability.groupstats import Reservoir
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import get_profiler
from repro.paths.collection import LivePathSet, PathCollection
from repro.paths.layout import LinkLayout, topology_universe
from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.traffic import TrafficPattern
from repro.worms.worm import Worm

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
#: this report reservoir-estimated (still deterministic) quantiles.
WINDOW_RESERVOIR_CAP = 256

#: The round-record fields a window sums.
_WINDOW_SUMS = (
    "offered", "admitted", "rejected", "expired", "acked", "delivered", "duration"
)


class _WindowTracker:
    """Bounded-memory accumulator behind ``snapshot_every`` (internal).

    Sums per-round deltas and samples ack latencies into a
    :class:`~repro.observability.groupstats.Reservoir` until ``every``
    rounds have elapsed, then :meth:`flush` produces one JSON-ready
    window dict and resets. The reservoir keys each latency by its
    worm's uid and draws no randomness, so windowed and unwindowed runs
    are bit-identical; quantiles are exact up to ``cap`` acks per
    window.
    """

    def __init__(self, every: int, cap: int = WINDOW_RESERVOIR_CAP) -> None:
        self.every = every
        self.cap = cap
        self.index = 0
        self.start = 1
        self._reset()

    def _reset(self) -> None:
        self.rounds = 0
        self.sums = dict.fromkeys(_WINDOW_SUMS, 0)
        self.latency = Reservoir(self.cap)

    def observe_latency(self, latency: int, uid: int | None = None) -> None:
        """Sample one ack latency, keyed by its worm's uid (else its index)."""
        self.latency.observe(latency, self.latency.count if uid is None else uid)

    def observe_round(self, record: StreamingRoundRecord) -> None:
        """Fold one round's deltas into the open window."""
        for key in _WINDOW_SUMS:
            self.sums[key] += getattr(record, key)
        self.rounds += 1

    def flush(self, end_round: int, active: int) -> dict:
        """Close the window ending at ``end_round`` and reset for the next."""
        sums = self.sums
        offered, duration = sums["offered"], sums["duration"]
        window = {
            "window": self.index,
            "start_round": self.start,
            "end_round": end_round,
            "rounds": self.rounds,
            **sums,
            "active": active,
            "throughput": sums["acked"] / duration if duration else 0.0,
            "drop_rate": (
                (sums["rejected"] + sums["expired"]) / offered if offered else 0.0
            ),
            "latency_p50": self.latency.quantile(0.50),
            "latency_p95": self.latency.quantile(0.95),
            "latency_p99": self.latency.quantile(0.99),
            "latency_samples": self.latency.count,
        }
        self.index += 1
        self.start = end_round + 1
        self._reset()
        return window


class _OpenStepper(_RoundStepper):
    """The protocol's round stepper over an open worm population.

    Between rounds :meth:`admit` expires the impatient and admits the
    round's arrivals; after each round the acked worms retire. Owns the
    private arrivals generator, the live path set and the routing
    engine, which the first admission builds over the topology's links,
    so no later admission meets a link it lacks.
    """

    def __init__(self, owner: "StreamingEngine") -> None:
        super().__init__(owner.config.protocol, metrics=owner._metrics)
        self.streaming = owner.config
        self.network = owner.network

    def _start_trial(self, rng=None) -> _TrialState:
        """An empty system: faults start first, then the arrivals stream."""
        topology = self.network.topology
        st = self._open_trial(rng, topology.directed_links)
        self.rng = spawn_generator(st.rng)
        self.arrivals = self.streaming.arrivals.start()
        self.traffic = self.streaming.traffic.start(self.network.nodes)
        self.live = LivePathSet(topology)
        self.engine: RoutingEngine | None = None
        self.admitted_round: dict[int, int] = {}
        return st

    def _retire(self, uids: list[int]) -> None:
        """Drop acked or expired worms from the engine and the live set."""
        self.engine.retire_worms(uids)
        for uid in uids:
            self.live.remove(uid)

    def _absorb_round(self, st: _TrialState, result) -> set[int]:
        """The round body, then the acked worms' retirement."""
        acked = super()._absorb_round(st, result)
        if acked:
            self._retire(sorted(acked))
        return acked

    def admit(self, t: int, st: _TrialState, metrics, observe: bool) -> tuple:
        """Round ``t``'s admission phase, "between rounds".

        Expires the impatient, then draws and admits this round's
        arrivals into ``st``, re-anchoring its schedule envelope on the
        enlarged system. Returns the round's ``(offered, admitted,
        rejected, expired)`` counts.
        """
        cfg = self.streaming
        proto = self.config
        born = self.admitted_round
        expired = 0
        if cfg.patience is not None and st.active:
            stale = [uid for uid in st.active if t - born[uid] >= cfg.patience]
            if stale:
                self._retire(stale)
                stale_set = set(stale)
                st.active = [uid for uid in st.active if uid not in stale_set]
                expired = len(stale)
                if observe:
                    metrics.inc("scenario_dropped_total", expired, reason="expired")
        offered = self.arrivals.count(t, self.rng, cfg.rate_multiplier(t))
        if observe and offered:
            metrics.inc("scenario_offered_total", offered)
        admitted = min(offered, max(0, cfg.max_active - len(st.active)))
        rejected = offered - admitted
        if rejected and observe:
            metrics.inc("scenario_dropped_total", rejected, reason="rejected")
        if not admitted:
            return offered, admitted, rejected, expired
        worms = []
        for src, dst in self.traffic.pairs(admitted, self.rng):
            uid = len(born)  # uids number admissions from 0
            path = tuple(self.network.path_fn(src, dst))
            # Validates the path, before the engine sees any worm of
            # this admission.
            self.live.add(uid, path)
            worms.append(Worm(uid=uid, path=path, length=proto.worm_length))
            born[uid] = t
            st.active.append(uid)
        if self.engine is None:
            universe = topology_universe(self.network.topology)
            self.engine = RoutingEngine(
                worms,
                proto.rule,
                proto.tie_rule,
                metrics=self._metrics,
                layout=LinkLayout.compile([w.path for w in worms], universe),
            )
        else:
            self.engine.add_worms(worms)
        if observe:
            metrics.inc("scenario_admitted_total", admitted)
        # Re-anchor the schedule envelope on the enlarged system
        # (congestion/dilation can only be refreshed when membership
        # changes).
        live = self.live
        st.base_ctx = ScheduleContext(
            n=live.n,
            bandwidth=proto.bandwidth,
            worm_length=proto.worm_length,
            dilation=live.dilation,
            congestion=live.path_congestion,
        )
        st.dl = live.dilation + proto.worm_length
        return offered, admitted, rejected, expired


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

    def run(self, rng=None) -> StreamingResult:
        """Execute the run; each call restarts from a fresh system state."""
        cfg = self.config
        proto = cfg.protocol
        metrics = self._metrics if self._metrics is not None else get_metrics()
        observe = metrics.enabled
        prof = get_profiler()
        streaming = cfg.arrivals is not None
        every = cfg.snapshot_every
        tracker = None if every is None else _WindowTracker(every)

        # The trial state first: its fault model starts there (stateful
        # models consume one spawn), exactly as in a static run. Only
        # then the private arrivals stream, so drain mode never perturbs
        # the sequence.
        if streaming:
            stepper = _OpenStepper(self)
            st = stepper._start_trial(rng)
            admitted_round = stepper.admitted_round
            horizon = cfg.rounds
        else:
            stepper = TrialAndFailureProtocol(
                self.collection, proto, metrics=self._metrics
            )
            st = stepper._start_trial(rng)
            admitted_round = dict.fromkeys(st.active, 1)
            horizon = proto.max_rounds
        # The scenario_* family below stands in for the protocol's.
        st.observe = False
        backlog = len(st.active)
        latencies: list[int] = []
        records: list[StreamingRoundRecord] = []

        for t in range(1, horizon + 1):
            counts = (0, 0, 0, 0)
            if streaming:
                with prof.span("scenario.admission"):
                    counts = stepper.admit(t, st, metrics, observe)
            if st.active:
                with prof.span("protocol.round"):
                    if not proto.track_congestion:
                        congestion = None
                    elif streaming:
                        congestion = stepper.live.path_congestion
                    else:
                        (congestion,) = _round_congestion([(stepper, st)])
                    launches, dead_links = stepper._prepare_round(st, congestion)
                    result = stepper.engine.run_round(
                        launches, collect_collisions=False, dead_links=dead_links
                    )
                    acked = sorted(stepper._absorb_round(st, result))
                done = st.records[-1]
                record = StreamingRoundRecord(
                    t, done.delay_range, *counts, done.active_before,
                    done.delivered, done.acked, done.duration,
                )
                if observe:  # idle rounds are not counted
                    metrics.inc("scenario_rounds_total")
                    metrics.inc("scenario_acked_total", done.acked)
            else:
                # Idle round: nothing to launch, so no generator is
                # spawned, no fault is drawn (the fault models evolve
                # lazily, so skipping rounds is safe) and the stall
                # detector sees no round.
                st.t = t
                acked = []
                record = StreamingRoundRecord(t, 1, *counts, 0, 0, 0, 1 + 2 * st.dl)
                st.total_time += record.duration

            for uid in acked:
                latency = t - admitted_round[uid] + 1
                latencies.append(latency)
                if tracker is not None:
                    tracker.observe_latency(latency, uid)
                if observe:
                    metrics.observe("scenario_admission_latency_rounds", latency)
            records.append(record)
            if observe:
                metrics.gauge("scenario_active_worms", len(st.active))
            if self._trace is not None:
                fields = dataclasses.asdict(record)
                self._trace.write("scenario_round", trial=self._trace_trial, **fields)
            # Drain mode ends once the backlog is acked.
            last = t == horizon or not (streaming or st.active)
            if tracker is not None:
                tracker.observe_round(record)
                # The last window may be partial, so the series covers
                # every round.
                if last or tracker.rounds >= tracker.every:
                    window = tracker.flush(t, len(st.active))
                    self._emit_window(window, metrics, observe)
            if last:
                break
        completed = not st.active
        out = StreamingResult(
            completed=completed,
            rounds=st.t,
            total_time=st.total_time,
            offered=backlog + sum(r.offered for r in records),
            admitted=backlog + sum(r.admitted for r in records),
            acked=len(st.delivered_round),
            rejected=sum(r.rejected for r in records),
            expired=sum(r.expired for r in records),
            records=tuple(records),
            delivered_round=st.delivered_round,
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
