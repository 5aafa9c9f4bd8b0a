"""Span profiler tests: nesting, aggregation, no-op default, overhead.

Pins the tracing contract: paths build parent/child chains per thread,
self time is wall minus child wall, snapshots are deterministic and
mergeable like metrics snapshots, the process default is a free no-op
until :func:`enable_profiling`, and the disabled path stays within the
same <5% tripwire as disabled metrics.
"""

import threading
import time

import pytest

from repro.core.engine import BACKENDS, RoutingEngine
from repro.core.protocol import (
    ProtocolConfig,
    TrialAndFailureProtocol,
    route_collection,
    run_protocol_batch,
)
from repro.observability.spans import (
    NULL_PROFILER,
    NullProfiler,
    SpanProfile,
    SpanProfiler,
    disable_profiling,
    enable_profiling,
    get_profiler,
    write_profile,
)
from repro.optics.coupler import CollisionRule
from repro.paths.gadgets import type2_bundle
from repro.scenarios import StreamingConfig, StreamingEngine
from repro.worms.worm import Launch, Worm, make_worms


class TestSpanPaths:
    def test_nested_spans_build_slash_paths(self):
        prof = SpanProfiler()
        with prof.span("outer"):
            with prof.span("inner"):
                pass
            with prof.span("inner"):
                pass
        snap = prof.snapshot()
        assert set(snap) == {"outer", "outer/inner"}
        assert snap["outer"]["count"] == 1
        assert snap["outer/inner"]["count"] == 2

    def test_self_time_excludes_children(self):
        prof = SpanProfiler()
        with prof.span("outer"):
            with prof.span("inner"):
                time.sleep(0.02)
        snap = prof.snapshot()
        outer, inner = snap["outer"], snap["outer/inner"]
        assert outer["total"] >= inner["total"]
        # outer's self time is its wall minus inner's wall: near zero.
        assert outer["self"] == pytest.approx(
            outer["total"] - inner["total"], abs=1e-9
        )
        assert inner["self"] == inner["total"]

    def test_snapshot_sorted_parents_before_children(self):
        prof = SpanProfiler()
        with prof.span("b"):
            with prof.span("a"):
                pass
        with prof.span("a"):
            pass
        assert list(prof.snapshot()) == ["a", "b", "b/a"]

    def test_exception_still_records_span(self):
        prof = SpanProfiler()
        with pytest.raises(RuntimeError):
            with prof.span("boom"):
                raise RuntimeError("x")
        snap = prof.snapshot()
        assert snap["boom"]["count"] == 1
        # The stack unwound: the next span is a root again.
        with prof.span("after"):
            pass
        assert "after" in prof.snapshot()

    def test_threads_keep_separate_stacks(self):
        prof = SpanProfiler()
        ready = threading.Barrier(2)

        def worker(name):
            with prof.span(name):
                ready.wait(timeout=5)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Both overlapped in time, yet neither nested under the other.
        assert set(prof.snapshot()) == {"t0", "t1"}


class TestProfileAggregation:
    def test_merge_adds_counts_and_combines_minmax(self):
        a, b = SpanProfile(), SpanProfile()
        a.record("s", 1.0, 1.0)
        b.record("s", 3.0, 2.0)
        b.record("t", 0.5, 0.5)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["s"] == {
            "count": 2, "total": 4.0, "self": 3.0, "min": 1.0, "max": 3.0,
        }
        assert snap["t"]["count"] == 1

    def test_merge_round_trips_through_json_types(self):
        import json

        prof = SpanProfiler()
        with prof.span("a"):
            pass
        rebuilt = SpanProfile()
        rebuilt.merge(json.loads(json.dumps(prof.snapshot())))
        assert rebuilt.snapshot() == prof.snapshot()

    def test_reset_clears_spans(self):
        prof = SpanProfiler()
        with prof.span("a"):
            pass
        prof.reset()
        assert prof.snapshot() == {}

    def test_write_profile_emits_one_trace_record(self, tmp_path):
        from repro.observability.trace import TraceWriter, read_trace

        prof = SpanProfiler()
        with prof.span("a"):
            pass
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as writer:
            write_profile(writer, prof, trial=3)
        records = read_trace(path).of_kind("span_profile")
        assert len(records) == 1
        assert records[0]["trial"] == 3
        assert set(records[0]["spans"]) == {"a"}


class TestProcessDefault:
    def test_default_is_shared_noop(self):
        assert get_profiler() is NULL_PROFILER
        assert not NULL_PROFILER.enabled
        # The no-op span is one shared context manager: nothing recorded.
        cm = NULL_PROFILER.span("x")
        assert cm is NULL_PROFILER.span("y")
        with cm:
            pass
        assert NULL_PROFILER.snapshot() == {}

    def test_enable_disable_round_trip(self):
        prof = enable_profiling()
        try:
            assert get_profiler() is prof
            assert prof.enabled
            with get_profiler().span("a"):
                pass
            assert "a" in prof.snapshot()
        finally:
            disable_profiling()
        assert get_profiler() is NULL_PROFILER

    def test_enable_accepts_existing_profiler(self):
        mine = SpanProfiler()
        try:
            assert enable_profiling(mine) is mine
            assert get_profiler() is mine
        finally:
            disable_profiling()

    def test_null_profiler_is_a_span_profiler(self):
        assert isinstance(NullProfiler(), SpanProfiler)


class TestEngineInstrumentation:
    def _setup(self):
        worms = [
            Worm(uid=1, path=("a", "b", "c"), length=3),
            Worm(uid=2, path=("d", "b", "c"), length=3),
        ]
        launches = [
            Launch(worm=1, delay=0, wavelength=0),
            Launch(worm=2, delay=1, wavelength=0),
        ]
        return worms, launches

    def test_engine_spans_per_round(self):
        worms, launches = self._setup()
        prof = SpanProfiler()
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST, profiler=prof)
        engine.run_round(launches)
        engine.run_round(launches)
        snap = prof.snapshot()
        assert snap["engine.round"]["count"] == 2
        for stage in ("build_events", "resolve", "finalise"):
            assert snap[f"engine.round/engine.{stage}"]["count"] == 2

    def test_protocol_rounds_nest_engine_spans(self):
        coll = type2_bundle(congestion=4, D=6).collection
        prof = enable_profiling()
        try:
            result = route_collection(coll, bandwidth=2, rng=7)
        finally:
            disable_profiling()
        snap = prof.snapshot()
        assert snap["protocol.round"]["count"] == result.rounds
        assert (
            snap["protocol.round/engine.round/engine.resolve"]["count"]
            == result.rounds
        )

    def test_same_span_paths_for_every_backend_and_driver(self):
        """A profile's shape names the layers, not the backend or driver."""
        coll = type2_bundle(congestion=4, D=6).collection
        shapes = {}
        for backend in BACKENDS:
            config = ProtocolConfig(bandwidth=2, backend=backend)
            drivers = {
                "serial": lambda: TrialAndFailureProtocol(coll, config).run(7),
                "batch": lambda: run_protocol_batch(coll, config, [7, 8]),
                "drain": lambda: StreamingEngine(
                    StreamingConfig(protocol=config), collection=coll
                ).run(7),
            }
            for driver, run in drivers.items():
                prof = enable_profiling()
                try:
                    run()
                finally:
                    disable_profiling()
                shapes[backend, driver] = set(prof.snapshot())
        engine = "protocol.round/engine.round"
        expected = {"protocol.round", engine} | {
            f"{engine}/engine.{stage}"
            for stage in ("build_events", "resolve", "finalise")
        }
        for key, paths in shapes.items():
            assert paths == expected, key

    def test_profiled_run_matches_unprofiled(self):
        coll = type2_bundle(congestion=4, D=6).collection
        plain = route_collection(coll, bandwidth=2, rng=3)
        enable_profiling()
        try:
            profiled = route_collection(coll, bandwidth=2, rng=3)
        finally:
            disable_profiling()
        assert profiled.rounds == plain.rounds
        assert profiled.delivered_round == plain.delivered_round


class TestRenderSpans:
    def test_render_flame_and_topn(self):
        from repro.observability.analysis import render_spans

        prof = SpanProfiler()
        with prof.span("outer"):
            with prof.span("inner"):
                pass
        out = render_spans(prof.snapshot(), top=2)
        assert "outer" in out and "inner" in out
        assert "top 2 by self time" in out
        # Children indent under parents in the flame section.
        flame_lines = out.splitlines()
        assert any(line.startswith("  inner") for line in flame_lines)

    def test_render_empty_snapshot(self):
        from repro.observability.analysis import render_spans

        assert render_spans({}) == "no spans recorded"


class TestNoOpOverhead:
    def test_disabled_profiler_under_five_percent(self):
        """The no-op span path must not slow an engine round by >5%.

        Same shape as the disabled-metrics tripwire: best-of-N timings,
        retried, comparing the default (null) profiler against an
        explicitly enabled one.
        """
        coll = type2_bundle(congestion=16, D=12).collection
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
            worms, CollisionRule.SERVE_FIRST, profiler=SpanProfiler()
        )
        best_round_time(disabled_engine, repeats=5)  # warm-up
        best_round_time(enabled_engine, repeats=5)
        for _attempt in range(5):
            t_disabled = best_round_time(disabled_engine)
            t_enabled = best_round_time(enabled_engine)
            if t_disabled <= t_enabled * 1.05:
                return
        pytest.fail(
            f"disabled-profiler round consistently slower than enabled + 5%: "
            f"{t_disabled:.6f}s vs {t_enabled:.6f}s"
        )
