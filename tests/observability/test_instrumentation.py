"""Instrumentation tests: engine/protocol/runner metrics and overhead.

These pin down the observability contract: instrumented runs produce the
same results as uninstrumented ones, counters agree with the returned
records, pooled aggregation is bit-identical to serial, and the disabled
(no-op) path stays within noise of an enabled round.
"""

import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.engine import BACKENDS, RoundCall, RoutingEngine, run_round_batch
from repro.core.protocol import route_collection
from repro.observability.metrics import (
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
)
from repro.experiments.workloads import mesh_random_function
from repro.optics.coupler import CollisionRule, TieRule
from repro.paths.gadgets import type2_bundle
from repro.runners import route_collection_trials
from repro.worms.worm import FailureKind, Launch, Worm, make_worms


def _two_worm_setup():
    """The golden two-worm collision: worm 1 delivered, worm 2 eliminated."""
    worms = [
        Worm(uid=1, path=("a", "b", "c"), length=3),
        Worm(uid=2, path=("d", "b", "c"), length=3),
    ]
    launches = [
        Launch(worm=1, delay=0, wavelength=0),
        Launch(worm=2, delay=1, wavelength=0),
    ]
    return worms, launches


class TestEngineMetrics:
    def test_round_counters_match_known_scenario(self):
        worms, launches = _two_worm_setup()
        reg = MetricsRegistry()
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST, metrics=reg)
        engine.run_round(launches)
        rule = {"rule": "serve_first"}
        assert reg.value("engine_rounds_total", **rule) == 1
        # All head-arrival events are built upfront: one per worm link.
        assert reg.value("engine_events_total", **rule) == sum(
            w.n_links for w in worms
        )
        assert reg.value("engine_worms_launched_total", **rule) == 2
        assert reg.value("engine_delivered_total", **rule) == 1
        assert reg.value("engine_eliminated_total", **rule) == 1
        assert reg.value("engine_truncated_total", **rule) == 0
        assert reg.value("engine_faulted_total", **rule) == 0
        # Worm 2's head meets worm 1's occupancy on (b, c): one contended
        # coupler group went through the slow path.
        assert reg.value("engine_contended_couplers_total", **rule) >= 1

    def test_stage_timings_one_per_round(self):
        worms, launches = _two_worm_setup()
        reg = MetricsRegistry()
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST, metrics=reg)
        engine.run_round(launches)
        engine.run_round(launches)
        for stage in ("build_events", "resolve", "finalise"):
            hist = reg.value("engine_stage_seconds", stage=stage)
            assert hist["count"] == 2
        assert reg.value("engine_round_seconds", rule="serve_first")["count"] == 2

    @pytest.mark.parametrize("n_calls", [1, 3])
    def test_stage_timings_of_a_pass(self, n_calls, monkeypatch):
        # A clock that ticks once per read makes every timed interval
        # one tick. In a 3-call pass each call's build_events holds its
        # own launch check only, and the shared event writing and
        # partition are observed once per pass, never split across
        # calls; a one-call pass folds them into its own stages.
        ticks = itertools.count()
        monkeypatch.setattr(
            engine_module, "time",
            SimpleNamespace(perf_counter=lambda: float(next(ticks))),
        )
        worms, launches = _two_worm_setup()
        reg = MetricsRegistry()
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST, metrics=reg)
        calls = [RoundCall(engine.fork(), launches) for _ in range(n_calls)]
        try:
            batch = enable_metrics()
            run_round_batch(calls)
        finally:
            disable_metrics()
        own = {"build_events": 1.0, "resolve": 1.0, "finalise": 1.0}
        if n_calls == 1:
            own.update(build_events=2.0, resolve=2.0)
        for stage, ticks_per_call in own.items():
            hist = reg.value("engine_stage_seconds", stage=stage)
            assert hist["count"] == n_calls
            assert hist["sum"] == ticks_per_call * n_calls
        for stage in ("build_events", "resolve", "finalise"):
            hist = batch.value("engine_batch_stage_seconds", stage=stage)
            if n_calls == 1 or stage == "finalise":
                assert hist is None
            else:
                assert (hist["count"], hist["sum"]) == (1, 1.0)

    def test_counters_accumulate_across_rounds(self):
        worms, launches = _two_worm_setup()
        reg = MetricsRegistry()
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST, metrics=reg)
        for _ in range(3):
            engine.run_round(launches)
        assert reg.value("engine_rounds_total", rule="serve_first") == 3
        assert reg.value("engine_worms_launched_total", rule="serve_first") == 6


#: Engine counters of one instrumented 6x6-mesh round (see
#: ``_mesh_round``), recorded when the tallies were still taken from a
#: ``Counter`` over the built outcome dict; the columnar tallies must
#: reproduce them.
_MESH_COUNTERS = {
    CollisionRule.SERVE_FIRST: {
        "engine_contended_couplers_total": 13,
        "engine_delivered_total": 19,
        "engine_eliminated_total": 16,
        "engine_events_total": 136,
        "engine_faulted_total": 1,
        "engine_free_events_total": 111,
        "engine_rounds_total": 1,
        "engine_truncated_total": 0,
        "engine_worms_launched_total": 36,
    },
    CollisionRule.PRIORITY: {
        "engine_contended_couplers_total": 16,
        "engine_delivered_total": 20,
        "engine_eliminated_total": 10,
        "engine_events_total": 136,
        "engine_faulted_total": 1,
        "engine_free_events_total": 83,
        "engine_rounds_total": 1,
        "engine_truncated_total": 5,
        "engine_worms_launched_total": 36,
    },
}


def _mesh_round(rule, registry):
    """One round of a 6x6-mesh random function on one wavelength, one link down."""
    worms = make_worms(mesh_random_function(6, 2, rng=3).paths, 4)
    rng = np.random.default_rng(7)
    delays = rng.integers(0, 6, size=len(worms))
    priorities = rng.permutation(len(worms))
    launches = [
        Launch(worm=w.uid, delay=int(delays[w.uid]), wavelength=0,
               priority=int(priorities[w.uid]))
        for w in worms
    ]
    engine = RoutingEngine(worms, rule, TieRule.ALL_LOSE, metrics=registry)
    return engine.run_round(launches, dead_links=[worms[0].links()[1]])


class TestColumnarTallies:
    """Instrumented rounds tally outcomes from the engine's columns."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("rule", list(CollisionRule))
    @pytest.mark.usefixtures("backend_default")
    def test_mesh_round_snapshot_unchanged(self, rule):
        # One set of counters holds whichever backend name is the
        # process default: the engine reads none.
        reg = MetricsRegistry()
        result = _mesh_round(rule, reg)
        want = _MESH_COUNTERS[rule]
        snapshot = reg.snapshot(kinds=("counter",))
        got = {
            name: entry["values"]["rule=" + rule.name.lower()]
            for name, entry in snapshot.items()
        }
        assert got == want
        # The same tallies taken the old way, from the outcome dict.
        outcomes = result.outcomes.values()
        assert got["engine_delivered_total"] == sum(o.delivered for o in outcomes)
        for kind in FailureKind:
            assert got[f"engine_{kind.value}_total"] == sum(
                o.failure is kind for o in outcomes
            )


class TestProtocolMetrics:
    def test_counters_agree_with_result(self):
        coll = type2_bundle(congestion=6, D=5).collection
        reg = MetricsRegistry()
        result = route_collection(coll, bandwidth=2, rng=0, metrics=reg)
        assert reg.value("protocol_runs_total") == 1
        assert reg.value("protocol_rounds_total") == result.rounds
        assert reg.value("protocol_delivered_total") == len(result.delivered_round)
        assert reg.value("protocol_completed_total") == (
            1 if result.completed else None
        )
        assert reg.value("protocol_run_seconds")["count"] == 1
        if result.completed:
            assert reg.value("protocol_active_worms") == 0

    def test_instrumentation_does_not_change_results(self):
        coll = type2_bundle(congestion=6, D=5).collection
        plain = route_collection(coll, bandwidth=2, rng=4)
        traced = route_collection(
            coll, bandwidth=2, rng=4, metrics=MetricsRegistry()
        )
        assert traced.records == plain.records
        assert traced.delivered_round == plain.delivered_round
        assert traced.total_time == plain.total_time


def _deterministic_subset(registry):
    """Counters and gauges except the runner's own (mode-labelled) series.

    The runner's batch metrics legitimately differ between serial and
    pooled execution (``mode=serial`` vs ``mode=pool`` labels); everything
    the trials themselves emit must be bit-identical.
    """
    snap = registry.snapshot(kinds=("counter", "gauge"))
    return {k: v for k, v in snap.items() if not k.startswith("runner_")}


class TestPooledAggregation:
    def test_jobs2_counters_bit_identical_to_serial(self):
        coll = type2_bundle(congestion=6, D=5).collection
        reg_serial, reg_pool = MetricsRegistry(), MetricsRegistry()
        serial = route_collection_trials(
            coll, bandwidth=2, trials=4, seed=0, jobs=1, metrics=reg_serial
        )
        pooled = route_collection_trials(
            coll, bandwidth=2, trials=4, seed=0, jobs=2, metrics=reg_pool
        )
        assert [r.records for r in serial] == [r.records for r in pooled]
        assert _deterministic_subset(reg_serial) == _deterministic_subset(reg_pool)

    def test_trial_metrics_cover_all_trials(self):
        coll = type2_bundle(congestion=4, D=5).collection
        reg = MetricsRegistry()
        results = route_collection_trials(
            coll, bandwidth=2, trials=3, seed=1, metrics=reg
        )
        assert reg.value("protocol_runs_total") == 3
        assert reg.value("protocol_rounds_total") == sum(r.rounds for r in results)
        assert reg.value("runner_trials_total", mode="serial") == 3


class TestNoOpOverhead:
    def test_disabled_metrics_under_five_percent(self):
        """The no-op path must not slow an engine round by more than 5%.

        Compares best-of-N round timings with the default (disabled)
        registry against an enabled one. Wall-clock comparisons are
        noisy, so the check retries a few times and only fails when the
        disabled path is consistently slower than enabled + 5% -- a
        regression tripwire for accidental work on the disabled path.
        """
        coll = type2_bundle(congestion=16, D=12).collection
        from repro.worms.worm import make_worms

        worms = make_worms(coll.paths, 4)
        launches = [
            Launch(worm=i, delay=i % 7, wavelength=i % 2) for i in range(coll.n)
        ]

        def best_round_time(engine, repeats=30):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                engine.run_round(launches)
                best = min(best, time.perf_counter() - t0)
            return best

        disabled_engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        enabled_engine = RoutingEngine(
            worms, CollisionRule.SERVE_FIRST, metrics=MetricsRegistry()
        )
        best_round_time(disabled_engine, repeats=5)  # warm-up
        best_round_time(enabled_engine, repeats=5)
        for attempt in range(5):
            t_disabled = best_round_time(disabled_engine)
            t_enabled = best_round_time(enabled_engine)
            if t_disabled <= t_enabled * 1.05:
                return
        pytest.fail(
            f"disabled-metrics round consistently slower than enabled + 5%: "
            f"{t_disabled:.6f}s vs {t_enabled:.6f}s"
        )
