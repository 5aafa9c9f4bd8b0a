"""Streaming engine: drain-mode equivalence, determinism, admission control."""

import dataclasses
import itertools
import re

import pytest

from repro._util import as_generator, spawn_generator
from repro.core.engine import RoutingEngine, set_default_backend
from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.errors import ScenarioError, TopologyError
from repro.faults.models import TransientLinkFaults
from repro.observability.metrics import MetricsRegistry
from repro.paths.collection import PathCollection
from repro.scenarios import (
    PoissonArrivals,
    StreamingConfig,
    StreamingEngine,
    StreamingNetwork,
    StreamingResult,
    UniformTraffic,
    build_network,
    run_scenario,
)
from repro.scenarios.traffic import traffic_from_dict


def _backlog_collection(n_worms=24, seed=123, side=4):
    """A drain-mode backlog drawn the way run_scenario draws it."""
    net = build_network({"kind": "mesh", "side": side})
    rng = as_generator(seed)
    stream = traffic_from_dict({"kind": "uniform"}).start(net.nodes)
    pairs = stream.pairs(n_worms, spawn_generator(rng))
    paths = [tuple(net.path_fn(s, d)) for s, d in pairs]
    coll = PathCollection(paths, topology=net.topology, require_simple=False)
    return net, coll, rng


def _assert_drain_matches_static(proto, coll, seed=77):
    """Drain-mode run must replay the static protocol bit-for-bit."""
    static = TrialAndFailureProtocol(coll, proto).run(as_generator(seed))
    stream = StreamingEngine(
        StreamingConfig(protocol=proto), collection=coll
    ).run(as_generator(seed))
    assert stream.completed == static.completed
    assert stream.rounds == static.rounds
    assert stream.total_time == static.total_time
    assert dict(stream.delivered_round) == dict(static.delivered_round)
    assert len(stream.records) == len(static.records)
    for a, b in zip(static.records, stream.records):
        assert (
            a.index, a.delay_range, a.active_before,
            a.delivered, a.acked, a.duration,
        ) == (
            b.index, b.delay_range, b.active_before,
            b.delivered, b.acked, b.duration,
        )


class TestDrainModeEquivalence:
    @pytest.mark.parametrize("backend", ["python", "vectorized", "batched"])
    def test_bit_identical_to_static_protocol(self, backend):
        _, coll, _ = _backlog_collection(n_worms=28)
        proto = ProtocolConfig(
            bandwidth=2, max_rounds=200, backend=backend
        )
        _assert_drain_matches_static(proto, coll)

    @pytest.mark.parametrize("backend", ["python", "vectorized", "batched"])
    def test_bit_identical_under_faults_and_backoff(self, backend):
        _, coll, _ = _backlog_collection(n_worms=20)
        proto = ProtocolConfig(
            bandwidth=2,
            max_rounds=300,
            faults=TransientLinkFaults(0.05),
            backoff_after=3,
            backoff_cooldown=2,
            backend=backend,
        )
        _assert_drain_matches_static(proto, coll)

    def test_static_drain_scenario_matches_static_protocol(self):
        # The registry's drain scenario, end to end: same seed, same
        # backlog draw, then the static protocol on that collection.
        result = run_scenario("static-drain", seed=42)
        net, coll, rng = _backlog_collection(n_worms=32, seed=42)
        proto = ProtocolConfig(bandwidth=4, max_rounds=200)
        static = TrialAndFailureProtocol(coll, proto).run(rng)
        assert result.completed == static.completed
        assert result.rounds == static.rounds
        assert result.total_time == static.total_time
        assert dict(result.delivered_round) == dict(static.delivered_round)


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", ["baseline", "flash-crowd", "link-flap-storm", "hotspot"]
    )
    def test_same_seed_same_snapshot(self, name):
        assert (
            run_scenario(name, seed=5).snapshot()
            == run_scenario(name, seed=5).snapshot()
        )

    def test_full_records_identical(self):
        a = run_scenario("bursty", seed=9)
        b = run_scenario("bursty", seed=9)
        assert a.records == b.records
        assert a.latencies == b.latencies
        assert dict(a.admitted_round) == dict(b.admitted_round)

    def test_backends_agree_on_streaming_runs(self):
        try:
            set_default_backend("vectorized")
            vec = run_scenario("baseline", seed=3).snapshot()
        finally:
            set_default_backend("python")
        assert vec == run_scenario("baseline", seed=3).snapshot()

    def test_different_seeds_differ(self):
        a = run_scenario("baseline", seed=1).snapshot()
        b = run_scenario("baseline", seed=2).snapshot()
        assert a != b


def _streaming_config(**kwargs):
    defaults = dict(
        protocol=ProtocolConfig(bandwidth=4),
        arrivals=PoissonArrivals(rate=2.0),
        traffic=UniformTraffic(),
        rounds=40,
    )
    defaults.update(kwargs)
    return StreamingConfig(**defaults)


class TestAdmissionControl:
    def test_accounting_identity(self):
        net = build_network({"kind": "mesh", "side": 4})
        result = StreamingEngine(
            _streaming_config(rounds=60), network=net
        ).run(as_generator(8))
        assert result.offered == result.admitted + result.rejected
        still_active = result.admitted - result.acked - result.expired
        assert still_active >= 0
        assert result.completed == (still_active == 0)
        assert len(result.latencies) == result.acked
        assert sum(r.offered for r in result.records) == result.offered

    def test_max_active_rejects_overflow(self):
        net = build_network({"kind": "mesh", "side": 4})
        config = _streaming_config(
            arrivals=PoissonArrivals(rate=8.0), max_active=4, rounds=50
        )
        result = StreamingEngine(config, network=net).run(as_generator(3))
        assert result.rejected > 0
        assert result.drop_rate > 0.0
        assert max(r.active_before for r in result.records) <= 4

    def test_patience_expires_stuck_worms(self):
        # Heavy transient faults keep re-striking worms; patience sheds
        # the ones that never get through.
        net = build_network({"kind": "mesh", "side": 3})
        config = _streaming_config(
            protocol=ProtocolConfig(
                bandwidth=1, faults=TransientLinkFaults(0.4)
            ),
            arrivals=PoissonArrivals(rate=6.0),
            max_active=48,
            patience=3,
            rounds=60,
        )
        result = StreamingEngine(config, network=net).run(as_generator(4))
        assert result.expired > 0
        # No acked worm may have waited out its patience.
        assert all(lat <= 3 for lat in result.latencies)

    def test_zero_rate_runs_idle(self):
        net = build_network({"kind": "mesh", "side": 4})
        config = _streaming_config(
            arrivals=PoissonArrivals(rate=0.0), rounds=12
        )
        result = StreamingEngine(config, network=net).run(as_generator(1))
        assert result.offered == 0
        assert result.acked == 0
        assert result.completed
        assert result.rounds == 12
        assert result.drop_rate == 0.0
        assert result.throughput == 0.0

    def test_rate_window_surges_offered_load(self):
        net = build_network({"kind": "mesh", "side": 4})
        quiet = StreamingEngine(
            _streaming_config(rounds=60), network=net
        ).run(as_generator(6))
        surged = StreamingEngine(
            _streaming_config(rounds=60, rate_windows=((1, 60, 5.0),)),
            network=net,
        ).run(as_generator(6))
        assert surged.offered > 2 * quiet.offered


class TestMetricsAndTrace:
    def test_scenario_metrics_emitted(self):
        registry = MetricsRegistry()
        result = run_scenario("baseline", seed=2, metrics=registry)
        snap = registry.snapshot()
        assert registry.value("scenario_offered_total") == result.offered
        assert registry.value("scenario_admitted_total") == result.admitted
        assert registry.value("scenario_acked_total") == result.acked
        hist = snap["scenario_admission_latency_rounds"]
        assert hist["kind"] == "histogram"
        (series,) = hist["values"].values()
        assert series["count"] == result.acked
        for key in ("p50", "p95", "p99"):
            assert key in series
        # One count per routed round; idle rounds launch nothing. The
        # protocol_* family is a static run's, never a scenario's.
        routed = sum(1 for record in result.records if record.active_before)
        assert routed < result.rounds
        assert registry.value("scenario_rounds_total") == routed
        assert not [name for name in snap if name.startswith("protocol_")]

    def test_trace_records_written(self, tmp_path):
        from repro.observability import TraceWriter, read_trace

        path = tmp_path / "scenario.jsonl"
        writer = TraceWriter(path)
        result = run_scenario("baseline", seed=2, trace=writer)
        writer.close()
        trace = read_trace(path)
        rounds = trace.of_kind("scenario_round")
        summaries = trace.of_kind("scenario")
        assert len(rounds) == result.rounds
        assert len(summaries) == 1
        assert summaries[0]["acked"] == result.acked
        assert not trace.of_kind("round")


class TestValidation:
    def test_drain_mode_needs_collection(self):
        with pytest.raises(ScenarioError, match="collection"):
            StreamingEngine(StreamingConfig(protocol=ProtocolConfig(bandwidth=4)))

    def test_streaming_mode_needs_network(self):
        with pytest.raises(ScenarioError, match="network"):
            StreamingEngine(_streaming_config())

    def test_arrivals_require_traffic(self):
        with pytest.raises(ScenarioError, match="together"):
            StreamingConfig(
                protocol=ProtocolConfig(bandwidth=4),
                arrivals=PoissonArrivals(),
            )

    def test_simulated_acks_rejected(self):
        with pytest.raises(ScenarioError, match="ideal"):
            _streaming_config(
                protocol=ProtocolConfig(bandwidth=4, ack_mode="simulated")
            )

    def test_reroute_repair_rejected(self):
        with pytest.raises(ScenarioError, match="repair"):
            _streaming_config(
                protocol=ProtocolConfig(bandwidth=4, repair="reroute")
            )

    def test_bad_route_fails_before_the_engine_sees_its_admission(
        self, monkeypatch
    ):
        net = build_network({"kind": "mesh", "side": 4})
        config = _streaming_config(rounds=30)
        clean = StreamingEngine(config, network=net).run(as_generator(5))
        # The first uid of every admission, in admission order.
        ends = list(itertools.accumulate(r.admitted for r in clean.records))
        starts = [end - r.admitted for end, r in zip(ends, clean.records)]
        first = next(
            start
            for start, r in zip(starts, clean.records)
            if start > 0 and r.admitted >= 2
        )
        calls = []

        def path_fn(src, dst):
            calls.append((src, dst))
            if len(calls) == first + 2:  # the admission's second worm
                return ((0, 0), (1, 1))
            return net.path_fn(src, dst)

        registered = []
        init, add = RoutingEngine.__init__, RoutingEngine.add_worms

        def spy_init(engine, worms, *args, **kwargs):
            registered.extend(w.uid for w in worms)
            init(engine, worms, *args, **kwargs)

        def spy_add(engine, worms):
            registered.extend(w.uid for w in worms)
            add(engine, worms)

        monkeypatch.setattr(RoutingEngine, "__init__", spy_init)
        monkeypatch.setattr(RoutingEngine, "add_worms", spy_add)
        bad = StreamingNetwork(net.topology, path_fn)
        with pytest.raises(
            TopologyError,
            match=re.escape("path step (0, 0) -> (1, 1) is not a link"),
        ):
            StreamingEngine(config, network=bad).run(as_generator(5))
        assert registered == list(range(first))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"max_active": 0},
            {"patience": 0},
            {"rate_windows": ((0, 5, 2.0),)},
            {"rate_windows": ((1, 0, 2.0),)},
            {"rate_windows": ((1, 5, -1.0),)},
            {"rate_windows": ((1, 5),)},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ScenarioError):
            _streaming_config(**kwargs)


class TestResultQuantiles:
    def test_exact_order_statistics(self):
        result = dataclasses.replace(
            StreamingResult(
                completed=True, rounds=1, total_time=10, offered=4,
                admitted=4, acked=4, rejected=0, expired=0, records=(),
                latencies=(4, 1, 3, 2),
            )
        )
        assert result.latency_quantile(0.5) == 2.0
        assert result.latency_quantile(0.0) == 1.0
        assert result.latency_quantile(1.0) == 4.0

    def test_empty_latencies_yield_none(self):
        result = StreamingResult(
            completed=True, rounds=0, total_time=0, offered=0, admitted=0,
            acked=0, rejected=0, expired=0, records=(),
        )
        assert result.latency_quantile(0.5) is None
        assert result.snapshot()["latency_p99"] is None

    def test_bad_quantile_rejected(self):
        result = StreamingResult(
            completed=True, rounds=0, total_time=0, offered=0, admitted=0,
            acked=0, rejected=0, expired=0, records=(),
        )
        with pytest.raises(ScenarioError, match="quantile"):
            result.latency_quantile(1.5)
