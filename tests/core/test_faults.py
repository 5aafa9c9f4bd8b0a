"""Tests for link-fault injection."""

from repro.core.engine import run_round
from repro.core.protocol import route_collection
from repro.core.schedule import GeometricSchedule
from repro.core.stats import failure_breakdown
from repro.faults import TransientLinkFaults
from repro.optics.coupler import CollisionRule
from repro.paths.collection import PathCollection
from repro.paths.gadgets import type2_bundle
from repro.worms.worm import FailureKind, Launch, Worm


class TestEngineDeadLinks:
    def test_head_lost_at_dead_link(self):
        w = Worm(uid=0, path=("a", "b", "c", "d"), length=3)
        res = run_round(
            [w],
            [Launch(worm=0, delay=0, wavelength=0)],
            CollisionRule.SERVE_FIRST,
            dead_links=[("b", "c")],
        )
        o = res.outcomes[0]
        assert o.failure is FailureKind.FAULTED
        assert o.failed_at_link == 1
        assert o.blockers == ()

    def test_unrelated_dead_link_harmless(self):
        w = Worm(uid=0, path=("a", "b"), length=2)
        res = run_round(
            [w],
            [Launch(worm=0, delay=0, wavelength=0)],
            CollisionRule.SERVE_FIRST,
            dead_links=[("x", "y"), ("b", "a")],  # reverse direction too
        )
        assert res.outcomes[0].delivered

    def test_dead_link_is_directional(self):
        worms = [
            Worm(uid=0, path=("a", "b", "c"), length=2),
            Worm(uid=1, path=("c", "b", "a"), length=2),
        ]
        res = run_round(
            worms,
            [Launch(worm=i, delay=0, wavelength=0) for i in range(2)],
            CollisionRule.SERVE_FIRST,
            dead_links=[("a", "b")],
        )
        assert res.outcomes[0].failure is FailureKind.FAULTED
        assert res.outcomes[1].delivered

    def test_faulted_worm_drains_upstream(self):
        # Worm 0 dies at the dead second link but its flits still occupy
        # the first link; a follower there must still collide with it.
        worms = [
            Worm(uid=0, path=("a", "b", "c"), length=4),
            Worm(uid=1, path=("x", "a", "b"), length=4),
        ]
        res = run_round(
            worms,
            [
                Launch(worm=0, delay=0, wavelength=0),
                Launch(worm=1, delay=1, wavelength=0),  # hits (a,b) at t=2
            ],
            CollisionRule.SERVE_FIRST,
            dead_links=[("b", "c")],
        )
        assert res.outcomes[0].failure is FailureKind.FAULTED
        assert res.outcomes[1].failure is FailureKind.ELIMINATED
        assert res.outcomes[1].blockers == (0,)

    def test_dead_link_frees_downstream(self):
        # A competitor on the link beyond the fault faces no contention.
        worms = [
            Worm(uid=0, path=("a", "b", "c"), length=4),
            Worm(uid=1, path=("z", "b", "c"), length=4),
        ]
        res = run_round(
            worms,
            [
                Launch(worm=0, delay=0, wavelength=0),
                Launch(worm=1, delay=1, wavelength=0),
            ],
            CollisionRule.SERVE_FIRST,
            dead_links=[("a", "b")],
        )
        assert res.outcomes[0].failure is FailureKind.FAULTED
        assert res.outcomes[1].delivered


class TestProtocolFaults:
    def test_transient_faults_retried_to_completion(self):
        coll = type2_bundle(congestion=12, D=6).collection
        result = route_collection(
            coll,
            bandwidth=2,
            faults=TransientLinkFaults(0.15),
            schedule=GeometricSchedule(c_congestion=2.0),
            max_rounds=500,
            rng=0,
        )
        assert result.completed
        assert failure_breakdown(result)["faulted"] > 0

    def test_zero_fault_rate_default(self):
        coll = PathCollection([["a", "b"]])
        result = route_collection(coll, bandwidth=1, rng=0)
        assert failure_breakdown(result)["faulted"] == 0

    def test_higher_fault_rate_more_rounds(self):
        from repro.experiments.runner import trial_mean

        coll = type2_bundle(congestion=16, D=8).collection

        def rounds(rate):
            return trial_mean(
                lambda s: route_collection(
                    coll,
                    bandwidth=2,
                    faults=TransientLinkFaults(rate),
                    schedule=GeometricSchedule(c_congestion=2.0),
                    max_rounds=1000,
                    rng=s,
                ).rounds,
                trials=5,
                seed=0,
            )

        assert rounds(0.3) > rounds(0.0)

    def test_fault_counts_in_records(self):
        coll = type2_bundle(congestion=8, D=10).collection
        result = route_collection(
            coll,
            bandwidth=2,
            faults=TransientLinkFaults(0.25),
            max_rounds=500,
            rng=1,
        )
        assert result.completed
        assert sum(r.faulted for r in result.records) > 0
