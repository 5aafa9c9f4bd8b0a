"""Engine mechanics: timing, delivery, bookkeeping, validation."""

import numpy as np
import pytest

from repro.core.engine import BACKENDS, RoutingEngine, run_round
from repro.errors import ProtocolError
from repro.optics.coupler import CollisionRule, TieRule
from repro.worms import worm as worm_module
from repro.worms.worm import FailureKind, Launch, Launches, Worm


def chain_worm(uid=0, n=4, L=3, tag="a"):
    return Worm(uid=uid, path=tuple((tag, i) for i in range(n + 1)), length=L)


class TestConstruction:
    def test_needs_worms(self):
        with pytest.raises(ProtocolError):
            RoutingEngine([], CollisionRule.SERVE_FIRST)

    def test_duplicate_uid_rejected(self):
        worms = [chain_worm(uid=1), chain_worm(uid=1, tag="b")]
        with pytest.raises(ProtocolError):
            RoutingEngine(worms, CollisionRule.SERVE_FIRST)

    def test_worms_property(self):
        w = chain_worm(uid=3)
        eng = RoutingEngine([w], CollisionRule.SERVE_FIRST)
        assert eng.worms == {3: w}


class TestLaunchValidation:
    def test_unknown_worm_rejected(self):
        eng = RoutingEngine([chain_worm(uid=0)], CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError):
            eng.run_round([Launch(worm=5, delay=0, wavelength=0)])

    def test_double_launch_rejected(self):
        eng = RoutingEngine([chain_worm(uid=0)], CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError):
            eng.run_round(
                [
                    Launch(worm=0, delay=0, wavelength=0),
                    Launch(worm=0, delay=1, wavelength=0),
                ]
            )

    def test_per_link_wavelength_length_checked(self):
        eng = RoutingEngine([chain_worm(uid=0, n=4)], CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError):
            eng.run_round([Launch(worm=0, delay=0, wavelength=(0, 1))])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.usefixtures("backend_default")
    def test_launch_after_every_worm_retired_rejected(self):
        eng = RoutingEngine([chain_worm(uid=0)], CollisionRule.SERVE_FIRST)
        eng.retire_worms([0])
        with pytest.raises(ProtocolError, match="unknown worm uid 0"):
            eng.run_round([Launch(worm=0, delay=0, wavelength=0)])


class TestSoloDelivery:
    def test_unobstructed_worm_delivers(self):
        res = run_round(
            [chain_worm(uid=0, n=5, L=3)],
            [Launch(worm=0, delay=2, wavelength=0)],
            CollisionRule.SERVE_FIRST,
        )
        o = res.outcomes[0]
        assert o.delivered
        assert o.delivered_flits == 3
        # Head enters last link (pos 4) at 2+4; last flit crosses at 2+4+2.
        assert o.completion_time == 2 + 4 + 2
        assert res.makespan == o.completion_time

    def test_single_link_single_flit(self):
        w = Worm(uid=0, path=("a", "b"), length=1)
        res = run_round(
            [w], [Launch(worm=0, delay=0, wavelength=0)], CollisionRule.SERVE_FIRST
        )
        assert res.outcomes[0].delivered
        assert res.outcomes[0].completion_time == 0

    def test_subset_launch(self):
        worms = [chain_worm(uid=0), chain_worm(uid=1, tag="b")]
        eng = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        res = eng.run_round([Launch(worm=1, delay=0, wavelength=0)])
        assert set(res.outcomes) == {1}

    def test_engine_reusable_across_rounds(self):
        eng = RoutingEngine([chain_worm(uid=0)], CollisionRule.SERVE_FIRST)
        r1 = eng.run_round([Launch(worm=0, delay=0, wavelength=0)])
        r2 = eng.run_round([Launch(worm=0, delay=5, wavelength=1)])
        assert r1.outcomes[0].delivered and r2.outcomes[0].delivered
        assert r2.outcomes[0].completion_time == r1.outcomes[0].completion_time + 5


class TestWavelengthSeparation:
    def test_different_wavelengths_never_collide(self):
        paths = [("x", "y", "z")] * 2
        worms = [Worm(uid=i, path=paths[i], length=4) for i in range(2)]
        res = run_round(
            worms,
            [
                Launch(worm=0, delay=0, wavelength=0),
                Launch(worm=1, delay=0, wavelength=1),
            ],
            CollisionRule.SERVE_FIRST,
        )
        assert res.n_delivered == 2

    def test_same_wavelength_same_link_collides(self):
        paths = [("x", "y", "z")] * 2
        worms = [Worm(uid=i, path=paths[i], length=4) for i in range(2)]
        res = run_round(
            worms,
            [
                Launch(worm=0, delay=0, wavelength=0),
                Launch(worm=1, delay=1, wavelength=0),
            ],
            CollisionRule.SERVE_FIRST,
        )
        assert res.outcomes[0].delivered
        assert res.outcomes[1].failure is FailureKind.ELIMINATED

    def test_opposite_directions_never_collide(self):
        worms = [
            Worm(uid=0, path=("a", "b", "c"), length=4),
            Worm(uid=1, path=("c", "b", "a"), length=4),
        ]
        res = run_round(
            worms,
            [Launch(worm=i, delay=0, wavelength=0) for i in range(2)],
            CollisionRule.SERVE_FIRST,
        )
        assert res.n_delivered == 2


class TestOccupancyWindows:
    def test_arrival_during_tail_is_blocked(self):
        # Worm 0 occupies ("s","t") during [0, 3]; arrivals at 1..3 die,
        # an arrival at 4 sails through.
        worms = [
            Worm(uid=0, path=("s", "t", "u"), length=4),
            Worm(uid=1, path=("r", "s", "t"), length=4),
        ]
        # uid 1 arrives at link ("s","t") at delay+1.
        for delay, expect_delivered in [(0, False), (2, False), (3, True)]:
            res = run_round(
                worms,
                [
                    Launch(worm=0, delay=0, wavelength=0),
                    Launch(worm=1, delay=delay, wavelength=0),
                ],
                CollisionRule.SERVE_FIRST,
            )
            assert res.outcomes[1].delivered == expect_delivered, delay

    def test_back_to_back_reuse(self):
        # Second worm enters exactly as the first tail clears: no loss.
        worms = [Worm(uid=i, path=("x", "y"), length=3) for i in range(2)]
        res = run_round(
            worms,
            [
                Launch(worm=0, delay=0, wavelength=0),
                Launch(worm=1, delay=3, wavelength=0),
            ],
            CollisionRule.SERVE_FIRST,
        )
        assert res.n_delivered == 2


class TestCollisionLogs:
    def test_collision_event_recorded(self):
        worms = [Worm(uid=i, path=("x", "y", "z"), length=4) for i in range(2)]
        res = run_round(
            worms,
            [
                Launch(worm=0, delay=0, wavelength=0),
                Launch(worm=1, delay=1, wavelength=0),
            ],
            CollisionRule.SERVE_FIRST,
        )
        assert len(res.collisions) == 1
        ev = res.collisions[0]
        assert ev.blocked == 1 and ev.blocker == 0
        assert ev.link == ("x", "y")
        assert ev.time == 1 and ev.link_pos == 0

    def test_collect_collisions_off(self):
        worms = [Worm(uid=i, path=("x", "y"), length=4) for i in range(2)]
        res = run_round(
            worms,
            [Launch(worm=i, delay=0, wavelength=0) for i in range(2)],
            CollisionRule.SERVE_FIRST,
            collect_collisions=False,
        )
        assert res.collisions == ()
        assert res.n_failed == 2  # outcome bookkeeping unaffected

    def test_blockers_recorded_in_outcome(self):
        worms = [Worm(uid=i, path=("x", "y", "z"), length=4) for i in range(2)]
        res = run_round(
            worms,
            [
                Launch(worm=0, delay=0, wavelength=0),
                Launch(worm=1, delay=1, wavelength=0),
            ],
            CollisionRule.SERVE_FIRST,
        )
        assert res.outcomes[1].blockers == (0,)


class TestTies:
    def test_simultaneous_all_lose(self):
        worms = [Worm(uid=i, path=("x", "y"), length=2) for i in range(3)]
        res = run_round(
            worms,
            [Launch(worm=i, delay=0, wavelength=0) for i in range(3)],
            CollisionRule.SERVE_FIRST,
        )
        assert res.n_failed == 3
        # Mutual witnessing: each blocked worm cites some other participant.
        for uid, o in res.outcomes.items():
            assert o.blockers and o.blockers[0] != uid

    def test_simultaneous_lowest_id_wins(self):
        worms = [Worm(uid=i, path=("x", "y"), length=2) for i in (5, 2, 9)]
        res = run_round(
            worms,
            [Launch(worm=i, delay=0, wavelength=0) for i in (5, 2, 9)],
            CollisionRule.SERVE_FIRST,
            tie_rule=TieRule.LOWEST_ID_WINS,
        )
        assert res.outcomes[2].delivered
        assert not res.outcomes[5].delivered and not res.outcomes[9].delivered


class TestRoundResultViews:
    def test_delivered_failed_lists(self):
        worms = [Worm(uid=i, path=("x", "y"), length=2) for i in range(2)]
        res = run_round(
            worms,
            [
                Launch(worm=0, delay=0, wavelength=0),
                Launch(worm=1, delay=1, wavelength=0),
            ],
            CollisionRule.SERVE_FIRST,
        )
        assert res.delivered == [0]
        assert res.failed == [1]
        assert res.n_delivered == 1 and res.n_failed == 1


class TestLazyOutcomes:
    """A round's outcome records are built only when ``outcomes`` is read."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.usefixtures("backend_default")
    def test_clash_free_round_builds_no_outcome_until_read(self, monkeypatch):
        # Eight worms on disjoint chains: no event shares a channel.
        worms = [chain_worm(uid=i, n=3, tag=i) for i in range(8)]
        built = []
        post_init = worm_module.WormOutcome.__post_init__

        def counting(outcome):
            built.append(outcome.worm)
            post_init(outcome)

        monkeypatch.setattr(worm_module.WormOutcome, "__post_init__", counting)
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        result = engine.run_round(
            Launches(worm=np.arange(8), delay=np.arange(8) % 3,
                     wavelength=np.zeros(8))
        )
        assert result.delivered == list(range(8))
        assert result.n_delivered == 8 and result.n_failed == 0
        assert set(result.failure_counts.values()) == {0}
        assert result.makespan == 2 + 2 + 3 - 1
        assert built == []
        assert list(result.outcomes) == list(range(8))
        assert built == list(range(8))
        result.outcomes
        assert len(built) == 8
