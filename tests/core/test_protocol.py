"""Tests for the trial-and-failure protocol driver."""

import pytest

import repro.worms.worm as worm_module
from repro.core.protocol import (
    ProtocolConfig,
    route_collection,
)
from repro.core.schedule import FixedSchedule, GeometricSchedule
from repro.errors import ProtocolError
from repro.experiments.workloads import mesh_random_function
from repro.optics.coupler import CollisionRule
from repro.paths.collection import PathCollection
from repro.paths.gadgets import type2_bundle


class TestConfigValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig(bandwidth=0)

    def test_bad_length(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig(bandwidth=1, worm_length=0)

    def test_bad_max_rounds(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig(bandwidth=1, max_rounds=0)

    def test_bad_ack_mode(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig(bandwidth=1, ack_mode="magic")

    def test_bad_ack_length(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig(bandwidth=1, ack_mode="simulated", ack_length=0)

    def test_bad_priority_mode(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig(bandwidth=1, priority_mode="chaos")


class TestBasicRuns:
    def test_disjoint_paths_one_round(self, two_disjoint_paths):
        result = route_collection(two_disjoint_paths, bandwidth=2, rng=0)
        assert result.completed
        assert result.rounds == 1
        assert result.delivered_round == {0: 1, 1: 1}

    def test_bundle_completes(self, bundle8):
        result = route_collection(bundle8.collection, bandwidth=2, rng=1)
        assert result.completed
        assert set(result.delivered_round) == set(range(8))

    def test_priority_rule_runs(self, bundle8):
        result = route_collection(
            bundle8.collection, bandwidth=2, rule=CollisionRule.PRIORITY, rng=1
        )
        assert result.completed

    def test_deterministic_given_seed(self, bundle8):
        r1 = route_collection(bundle8.collection, bandwidth=2, rng=42)
        r2 = route_collection(bundle8.collection, bandwidth=2, rng=42)
        assert r1.rounds == r2.rounds
        assert r1.delivered_round == r2.delivered_round
        assert r1.total_time == r2.total_time

    def test_different_seeds_can_differ(self):
        coll = type2_bundle(congestion=32, D=8).collection
        results = {route_collection(coll, bandwidth=1, rng=s).rounds for s in range(6)}
        assert len(results) > 1

    def test_max_rounds_truncates(self):
        # Delta=1 and one wavelength on a bundle: everyone collides forever
        # except the unique survivor per round.
        coll = type2_bundle(congestion=50, D=8).collection
        result = route_collection(
            coll,
            bandwidth=1,
            max_rounds=2,
            schedule=FixedSchedule(delta=1),
            rng=0,
        )
        assert not result.completed
        assert result.rounds == 2
        assert len(result.delivered_round) < 50


class TestRoundAccounting:
    def test_durations_follow_paper_formula(self, bundle8):
        result = route_collection(
            bundle8.collection,
            bandwidth=2,
            worm_length=4,
            schedule=FixedSchedule(delta=7),
            rng=0,
        )
        dl = bundle8.collection.dilation + 4
        for rec in result.records:
            assert rec.duration == 7 + 2 * dl
        assert result.total_time == sum(r.duration for r in result.records)

    def test_active_counts_decrease(self, bundle8):
        result = route_collection(bundle8.collection, bandwidth=1, rng=3)
        counts = [r.active_before for r in result.records]
        assert counts[0] == 8
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_congestion_tracked(self, bundle8):
        result = route_collection(bundle8.collection, bandwidth=1, rng=3)
        assert result.records[0].active_congestion == 8
        later = [r.active_congestion for r in result.records[1:]]
        assert all(c is not None and c <= 8 for c in later)

    def test_congestion_tracking_disabled(self, bundle8):
        result = route_collection(
            bundle8.collection, bandwidth=1, track_congestion=False, rng=3
        )
        assert all(r.active_congestion is None for r in result.records)

    def test_rounds_histogram(self, bundle8):
        result = route_collection(bundle8.collection, bandwidth=2, rng=1)
        hist = result.rounds_histogram()
        assert sum(hist.values()) == 8
        assert all(1 <= r <= result.rounds for r in hist)

    def test_observed_time_positive(self, bundle8):
        result = route_collection(bundle8.collection, bandwidth=2, rng=1)
        assert 0 < result.observed_time <= result.total_time


class TestCollisionCollection:
    def test_logs_kept_when_requested(self):
        coll = type2_bundle(congestion=16, D=6).collection
        result = route_collection(
            coll, bandwidth=1, collect_collisions=True, rng=0
        )
        assert len(result.collisions_per_round) == result.rounds
        assert any(events for events in result.collisions_per_round)

    def test_logs_absent_by_default(self, bundle8):
        result = route_collection(bundle8.collection, bandwidth=1, rng=0)
        assert result.collisions_per_round == ()


class TestPriorityModes:
    def test_uid_mode_deterministic_ranks(self):
        coll = type2_bundle(congestion=8, D=6).collection
        result = route_collection(
            coll,
            bandwidth=1,
            rule=CollisionRule.PRIORITY,
            priority_mode="uid",
            rng=0,
        )
        assert result.completed

    def test_reverse_uid_mode(self):
        coll = type2_bundle(congestion=8, D=6).collection
        result = route_collection(
            coll,
            bandwidth=1,
            rule=CollisionRule.PRIORITY,
            priority_mode="reverse_uid",
            rng=0,
        )
        assert result.completed


class TestSimulatedAcks:
    def test_simulated_acks_complete(self, bundle8):
        result = route_collection(
            bundle8.collection, bandwidth=2, ack_mode="simulated", rng=5
        )
        assert result.completed
        assert set(result.delivered_round) == set(range(8))

    def test_lost_acks_cause_duplicates(self):
        # Short worms spaced just far enough to deliver, long acks that
        # overlap on the reversed chain: acks get lost, worms are re-sent,
        # and the destination sees duplicates.
        coll = type2_bundle(congestion=40, D=6).collection
        result = route_collection(
            coll,
            bandwidth=1,
            worm_length=2,
            ack_mode="simulated",
            ack_length=8,
            schedule=GeometricSchedule(c_congestion=2.0),
            max_rounds=400,
            rng=2,
        )
        assert result.duplicate_deliveries > 0
        assert result.completed

    @pytest.mark.parametrize("backend", ["python", "vectorized", "batched"])
    def test_simulated_acks_build_no_outcome_records(self, backend, monkeypatch):
        # Acks read the forward round's completion column, not its
        # per-worm WormOutcome records.
        built = []
        post_init = worm_module.WormOutcome.__post_init__

        def counting(outcome):
            built.append(outcome.worm)
            post_init(outcome)

        monkeypatch.setattr(worm_module.WormOutcome, "__post_init__", counting)
        result = route_collection(
            mesh_random_function(8, 2, rng=3), bandwidth=2,
            ack_mode="simulated", rng=4, backend=backend,
        )
        assert result.completed and result.rounds > 1
        assert built == []

    def test_ideal_acks_never_duplicate(self, bundle8):
        result = route_collection(bundle8.collection, bandwidth=1, rng=7)
        assert result.duplicate_deliveries == 0


class TestSingleWormCollection:
    def test_single_path(self):
        coll = PathCollection([["a", "b", "c"]])
        result = route_collection(coll, bandwidth=1, rng=0)
        assert result.completed and result.rounds == 1
