"""Named, composable, JSON-configurable streaming scenarios.

A :class:`ScenarioSpec` is a declarative description of one streaming
experiment -- workload network, offered load, scheduled events -- that
compiles down to a :class:`~repro.scenarios.engine.StreamingConfig` plus
a :class:`~repro.scenarios.engine.StreamingNetwork`. Specs round-trip
through plain dicts (:meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict`) and JSON text, so scenarios live equally
well in the built-in :data:`SCENARIO_REGISTRY`, on the command line
(``repro scenario run``), or in a checked-in ``.json`` file. See
docs/SCENARIOS.md for the schema.

Events are schedule windows layered on the baseline load:

* ``flash_crowd`` -- multiply the arrival rate by ``rate_multiplier``
  during ``[start_round, start_round + duration)``;
* ``link_flap`` -- a :class:`~repro.faults.models.GilbertElliott` storm
  windowed to the same kind of interval via
  :class:`~repro.faults.models.WindowedFaults` (several storms compose
  through :class:`~repro.faults.models.ComposedFaults`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

from repro._util import as_generator, spawn_generator
from repro.core.protocol import ProtocolConfig
from repro.errors import ScenarioError
from repro.faults.models import ComposedFaults, GilbertElliott, WindowedFaults
from repro.network.butterfly import Butterfly
from repro.network.hypercube import Hypercube
from repro.network.mesh import Mesh, Torus
from repro.observability.metrics import MetricsRegistry
from repro.paths.collection import PathCollection
from repro.paths.selection import dimension_order_path, torus_dimension_order_path
from repro.scenarios.arrivals import arrival_from_dict
from repro.scenarios.engine import StreamingConfig, StreamingEngine, StreamingNetwork
from repro.scenarios.traffic import traffic_from_dict

__all__ = [
    "ScenarioSpec",
    "SCENARIO_REGISTRY",
    "build_network",
    "get_scenario",
    "scenario_names",
    "run_scenario",
]

EVENT_KINDS = ("flash_crowd", "link_flap")


def build_network(workload: dict) -> StreamingNetwork:
    """Compile a workload dict into a topology plus deterministic router.

    Kinds: ``mesh``/``torus`` (params ``side``, ``d``; dimension-order
    routing), ``hypercube`` (param ``dim``; bit-fixing routing) and
    ``butterfly`` (param ``dim``; traffic runs between the level-0
    inputs, a destination ``(0, r)`` meaning output row ``r``).
    """
    if not isinstance(workload, dict) or "kind" not in workload:
        raise ScenarioError(
            f"a workload spec needs a 'kind' key, got {workload!r}"
        )
    kind = workload["kind"]
    params = {k: v for k, v in workload.items() if k != "kind"}
    try:
        if kind == "mesh":
            side = int(params.pop("side", 4))
            d = int(params.pop("d", 2))
            if params:
                raise ScenarioError(f"unknown mesh params: {sorted(params)}")
            m = Mesh((side,) * d)
            return StreamingNetwork(m, dimension_order_path)
        if kind == "torus":
            side = int(params.pop("side", 4))
            d = int(params.pop("d", 2))
            if params:
                raise ScenarioError(f"unknown torus params: {sorted(params)}")
            t = Torus((side,) * d)
            return StreamingNetwork(
                t, lambda s, v: torus_dimension_order_path(t, s, v)
            )
        if kind == "hypercube":
            dim = int(params.pop("dim", 4))
            if params:
                raise ScenarioError(
                    f"unknown hypercube params: {sorted(params)}"
                )
            h = Hypercube(dim)
            return StreamingNetwork(h, h.bit_fixing_path)
        if kind == "butterfly":
            dim = int(params.pop("dim", 3))
            if params:
                raise ScenarioError(
                    f"unknown butterfly params: {sorted(params)}"
                )
            bf = Butterfly(dim)
            return StreamingNetwork(
                bf,
                lambda s, v: bf.route(s[1], v[1]),
                endpoints=tuple(bf.inputs),
            )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {kind} workload params: {exc}") from exc
    raise ScenarioError(
        f"unknown workload kind {kind!r}; expected one of "
        "['butterfly', 'hypercube', 'mesh', 'torus']"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named streaming scenario, JSON-serializable.

    ``arrival=None`` selects drain mode: ``backlog`` worms are drawn up
    front from ``traffic`` and routed to completion (the static
    protocol, reached through the streaming machinery). ``backoff``
    optionally enables the stall backoff as a dict with keys ``after``,
    ``cap`` and ``cooldown``. ``snapshot_every`` opts the run into
    time-resolved window snapshots (see
    :class:`~repro.scenarios.engine.StreamingConfig`).
    """

    name: str
    description: str = ""
    workload: dict = field(default_factory=lambda: {"kind": "mesh", "side": 4})
    bandwidth: int = 4
    worm_length: int = 4
    rounds: int = 128
    max_active: int = 256
    patience: int | None = None
    backlog: int = 32
    arrival: dict | None = None
    traffic: dict = field(default_factory=lambda: {"kind": "uniform"})
    events: tuple = ()
    backoff: dict | None = None
    snapshot_every: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("a scenario needs a non-empty name")
        if self.backlog < 1:
            raise ScenarioError(f"backlog must be >= 1, got {self.backlog}")
        events = []
        for ev in self.events:
            if not isinstance(ev, dict) or "kind" not in ev:
                raise ScenarioError(
                    f"an event needs a 'kind' key, got {ev!r}"
                )
            if ev["kind"] not in EVENT_KINDS:
                raise ScenarioError(
                    f"unknown event kind {ev['kind']!r}; expected one of "
                    f"{list(EVENT_KINDS)}"
                )
            for key in ("start_round", "duration"):
                if key not in ev:
                    raise ScenarioError(
                        f"{ev['kind']} event needs {key!r}: {ev!r}"
                    )
            events.append(dict(ev))
        object.__setattr__(self, "events", tuple(events))
        # Fail configuration errors at spec time, not run time.
        if self.arrival is not None:
            arrival_from_dict(self.arrival)
        traffic_from_dict(self.traffic)
        self.to_config()

    # -- compilation ---------------------------------------------------------

    def to_config(self, rounds: int | None = None) -> StreamingConfig:
        """Compile to a StreamingConfig (``rounds`` overrides the horizon)."""
        horizon = int(rounds) if rounds is not None else self.rounds
        windows = []
        storms = []
        for ev in self.events:
            start = int(ev["start_round"])
            duration = int(ev["duration"])
            if ev["kind"] == "flash_crowd":
                windows.append(
                    (start, duration, float(ev.get("rate_multiplier", 4.0)))
                )
            else:  # link_flap
                storms.append(
                    WindowedFaults(
                        GilbertElliott(
                            p01=float(ev.get("p01", 0.2)),
                            p10=float(ev.get("p10", 0.3)),
                        ),
                        start_round=start,
                        duration=duration,
                    )
                )
        faults = None
        if len(storms) == 1:
            faults = storms[0]
        elif storms:
            faults = ComposedFaults(storms)
        backoff = self.backoff or {}
        unknown = set(backoff) - {"after", "cap", "cooldown"}
        if unknown:
            raise ScenarioError(f"unknown backoff keys: {sorted(unknown)}")
        protocol = ProtocolConfig(
            bandwidth=self.bandwidth,
            worm_length=self.worm_length,
            max_rounds=horizon,
            faults=faults,
            backoff_after=int(backoff.get("after", 0)),
            backoff_cap=float(backoff.get("cap", 8.0)),
            backoff_cooldown=int(backoff.get("cooldown", 0)),
        )
        arrivals = (
            arrival_from_dict(self.arrival) if self.arrival is not None else None
        )
        traffic = traffic_from_dict(self.traffic) if arrivals is not None else None
        return StreamingConfig(
            protocol=protocol,
            arrivals=arrivals,
            traffic=traffic,
            rounds=horizon,
            max_active=self.max_active,
            patience=self.patience,
            rate_windows=tuple(windows),
            snapshot_every=self.snapshot_every,
        )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form, JSON-ready; from_dict round-trips it."""
        return {
            "name": self.name,
            "description": self.description,
            "workload": dict(self.workload),
            "bandwidth": self.bandwidth,
            "worm_length": self.worm_length,
            "rounds": self.rounds,
            "max_active": self.max_active,
            "patience": self.patience,
            "backlog": self.backlog,
            "arrival": dict(self.arrival) if self.arrival is not None else None,
            "traffic": dict(self.traffic),
            "events": [dict(ev) for ev in self.events],
            "backoff": dict(self.backoff) if self.backoff is not None else None,
            "snapshot_every": self.snapshot_every,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Build and validate a spec from a plain dict (e.g. parsed JSON)."""
        if not isinstance(data, dict):
            raise ScenarioError(
                f"a scenario spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {
            "name", "description", "workload", "bandwidth", "worm_length",
            "rounds", "max_active", "patience", "backlog", "arrival",
            "traffic", "events", "backoff", "snapshot_every",
        }
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(
                f"unknown scenario keys: {sorted(unknown)}"
            )
        if "name" not in data:
            raise ScenarioError("a scenario spec needs a 'name'")
        kwargs = dict(data)
        if "events" in kwargs:
            kwargs["events"] = tuple(kwargs["events"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ScenarioError(f"bad scenario spec: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON document into a validated spec."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario JSON is unreadable: {exc}") from exc
        return cls.from_dict(data)


def _registry() -> dict[str, ScenarioSpec]:
    baseline = ScenarioSpec(
        name="baseline",
        description="steady Poisson load on a 4x4 mesh, dimension-order routes",
        workload={"kind": "mesh", "side": 4, "d": 2},
        rounds=96,
        max_active=64,
        arrival={"kind": "poisson", "rate": 2.0},
    )
    specs = [
        baseline,
        replace(
            baseline,
            name="flash-crowd",
            description="baseline load with a mid-run 6x arrival surge",
            events=(
                {
                    "kind": "flash_crowd",
                    "start_round": 33,
                    "duration": 16,
                    "rate_multiplier": 6.0,
                },
            ),
        ),
        replace(
            baseline,
            name="link-flap-storm",
            description="baseline load through a windowed Gilbert-Elliott "
            "link-flap storm, with stall backoff enabled",
            events=(
                {
                    "kind": "link_flap",
                    "start_round": 25,
                    "duration": 24,
                    "p01": 0.25,
                    "p10": 0.25,
                },
            ),
            backoff={"after": 4, "cap": 8.0, "cooldown": 3},
            patience=64,
        ),
        replace(
            baseline,
            name="bursty",
            description="MMPP on/off load: quiet rounds punctuated by bursts",
            arrival={
                "kind": "bursty",
                "base_rate": 1.0,
                "burst_rate": 8.0,
                "p_enter": 0.08,
                "p_exit": 0.25,
            },
        ),
        replace(
            baseline,
            name="diurnal",
            description="sinusoidal day/night load curve over a 48-round period",
            arrival={
                "kind": "diurnal",
                "rate": 2.5,
                "amplitude": 0.8,
                "period": 48,
            },
        ),
        replace(
            baseline,
            name="hotspot",
            description="Poisson load with 60% of destinations on two hot nodes",
            arrival={"kind": "poisson", "rate": 1.5},
            traffic={"kind": "hotspot", "hot_count": 2, "hot_weight": 0.6},
        ),
        ScenarioSpec(
            name="static-drain",
            description="no arrivals: drain a 32-worm backlog on the 4x4 "
            "mesh, bit-identical to the static protocol",
            workload={"kind": "mesh", "side": 4, "d": 2},
            rounds=200,
            backlog=32,
        ),
    ]
    return {s.name: s for s in specs}


#: The built-in named scenarios; ``repro scenario list`` renders this.
SCENARIO_REGISTRY: dict[str, ScenarioSpec] = _registry()


def scenario_names() -> list[str]:
    """Registry names in deterministic (sorted) order."""
    return sorted(SCENARIO_REGISTRY)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a built-in scenario; unknown names list the catalogue."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        ) from None


def run_scenario(
    spec: "ScenarioSpec | str",
    seed=0,
    *,
    metrics: MetricsRegistry | None = None,
    trace=None,
    rounds: int | None = None,
    snapshot_every: int | None = None,
    on_window=None,
    ledger=None,
):
    """Run a scenario (by spec or registry name) and return its result.

    One root generator, seeded by ``seed``, drives the whole run; a
    drain-mode backlog consumes one spawned child before the engine
    starts, mirroring the streaming engine's private arrivals stream, so
    the two modes stay independently deterministic. ``snapshot_every``
    overrides the spec's window size; ``on_window`` is called with every
    emitted window dict (both observability-only -- results stay
    bit-identical either way). ``ledger`` (a
    :class:`~repro.observability.ledger.RunLedger`) records the finished
    run as one ``kind="scenario"`` row -- fingerprint, scenario and
    workload labels, wall time, metric/span snapshots, and grouped
    latency / drop-rate / throughput reservoirs -- without perturbing
    the run.
    """
    if isinstance(spec, str):
        spec = get_scenario(spec)
    rng = as_generator(seed)
    network = build_network(spec.workload)
    config = spec.to_config(rounds=rounds)
    if snapshot_every is not None:
        config = replace(config, snapshot_every=snapshot_every)
    collection = None
    if config.arrivals is None:
        backlog_rng = spawn_generator(rng)
        stream = traffic_from_dict(spec.traffic).start(network.nodes)
        pairs = stream.pairs(spec.backlog, backlog_rng)
        paths = [tuple(network.path_fn(s, d)) for s, d in pairs]
        collection = PathCollection(
            paths, topology=network.topology, require_simple=False
        )
    engine = StreamingEngine(
        config,
        collection=collection,
        network=network,
        metrics=metrics,
        trace=trace,
        on_window=on_window,
    )
    started = time.time()
    result = engine.run(rng)
    if ledger is not None:
        _record_scenario_run(
            ledger,
            spec=spec,
            config=config,
            seed=seed,
            result=result,
            started=started,
            wall=time.time() - started,
            metrics=metrics,
        )
    return result


def _record_scenario_run(
    ledger, *, spec, config, seed, result, started, wall, metrics
) -> str:
    """One ``kind="scenario"`` ledger row for a finished run."""
    from repro.core.engine import get_default_backend
    from repro.observability.groupstats import GroupedStats
    from repro.observability.ledger import RunRecord, fingerprint_of, stable_repr
    from repro.observability.spans import get_profiler
    from repro.runners.protocol_trials import fault_label

    backend = config.protocol.backend or get_default_backend()
    labels = {
        "workload": json.dumps(spec.workload, sort_keys=True),
        "backend": backend,
        "fault_model": fault_label(config.protocol),
        "scenario": spec.name,
    }
    groups = GroupedStats()
    # Latencies arrive in deterministic ack order, so (scenario, index)
    # uniquely and reproducibly identifies each observation.
    for index, latency in enumerate(result.latencies):
        groups.observe(labels, ("latency", index), latency=latency)
    groups.observe(
        labels,
        ("run", stable_repr(seed)),
        rounds=result.rounds,
        drop_rate=result.drop_rate,
        throughput=result.throughput,
    )
    profiler = get_profiler()
    record = RunRecord(
        kind="scenario",
        started_unix=started,
        wall_seconds=wall,
        workload=labels["workload"],
        backend=backend,
        fault_model=labels["fault_model"],
        scenario=spec.name,
        seed=seed if isinstance(seed, int) else None,
        trials=None,
        fingerprint=fingerprint_of(spec, backend, seed),
        summary={
            "completed": result.completed,
            "rounds": result.rounds,
            "offered": result.offered,
            "acked": result.acked,
            "rejected": result.rejected,
            "expired": result.expired,
            "drop_rate": result.drop_rate,
            "throughput": result.throughput,
            "seed": seed if isinstance(seed, int) else stable_repr(seed),
        },
        metrics=metrics.snapshot() if metrics is not None else None,
        spans=profiler.snapshot() if profiler.enabled else None,
        groups=groups.snapshot(),
    )
    return ledger.record(record)
