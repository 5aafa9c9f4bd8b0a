"""Direct tests of the result record types."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.records import (
    CollisionEvent,
    CollisionKind,
    OutcomeColumns,
    ProtocolResult,
    RoundRecord,
    RoundResult,
)
from repro.worms.worm import FailureKind, Launch, Launches, WormOutcome


def _outcome(uid, delivered, flits=4):
    if delivered:
        return WormOutcome(
            worm=uid, delivered=True, delivered_flits=flits, completion_time=9
        )
    return WormOutcome(
        worm=uid,
        delivered=False,
        delivered_flits=0,
        failure=FailureKind.ELIMINATED,
        failed_at_link=0,
        blockers=(99,),
    )


class TestRoundResult:
    def test_views(self):
        rr = RoundResult(
            outcomes={0: _outcome(0, True), 1: _outcome(1, False), 2: _outcome(2, True)},
            collisions=(),
            makespan=9,
        )
        assert sorted(rr.delivered) == [0, 2]
        assert rr.failed == [1]
        assert rr.n_delivered == 2 and rr.n_failed == 1

    def test_empty_failures(self):
        rr = RoundResult(outcomes={0: _outcome(0, True)}, collisions=(), makespan=9)
        assert rr.failed == [] and rr.n_failed == 0


def _columns():
    """Uids 7, 3, 5: delivered, eliminated at link 2 by 7, truncated to 2 flits."""
    return OutcomeColumns(
        worm=np.array([7, 3, 5]),
        code=np.array([0, 1, 2], dtype=np.int8),
        flits=np.array([4, 0, 2]),
        completion=np.array([9, -1, 6]),
        failed_at=np.array([-1, 2, -1]),
        blockers={1: (7,), 2: (7,)},
    )


def _columns_as_dict():
    return {
        7: WormOutcome(worm=7, delivered=True, delivered_flits=4, completion_time=9),
        3: WormOutcome(
            worm=3, delivered=False, delivered_flits=0,
            failure=FailureKind.ELIMINATED, failed_at_link=2, blockers=(7,),
        ),
        5: WormOutcome(
            worm=5, delivered=False, delivered_flits=2,
            failure=FailureKind.TRUNCATED, completion_time=6, blockers=(7,),
        ),
    }


class TestColumnarRoundResult:
    def test_outcomes_built_from_columns_in_row_order(self):
        rr = RoundResult(_columns(), collisions=(), makespan=9)
        assert rr.outcomes == _columns_as_dict()
        assert list(rr.outcomes) == [7, 3, 5]
        assert type(rr.outcomes) is dict
        assert rr.outcomes is rr.outcomes

    def test_tallies_agree_with_dict_form(self):
        cols = RoundResult(_columns(), collisions=(), makespan=9)
        plain = RoundResult(_columns_as_dict(), collisions=(), makespan=9)
        for rr in (cols, plain):
            assert rr.delivered == [7]
            assert rr.failed == [3, 5]
            assert rr.n_launched == 3
            assert rr.n_delivered == 1 and rr.n_failed == 2
            assert rr.failure_counts == {
                FailureKind.ELIMINATED: 1,
                FailureKind.TRUNCATED: 1,
                FailureKind.FAULTED: 0,
            }
        assert cols == plain

    def test_pickles_and_stays_frozen(self):
        rr = RoundResult(_columns(), collisions=(), makespan=9,
                         faulted_links=(("a", "b"),))
        back = pickle.loads(pickle.dumps(rr))
        assert back == rr
        assert back.faulted_links == (("a", "b"),)
        assert pickle.loads(pickle.dumps(back.outcomes)) == _columns_as_dict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            rr.makespan = 3

    def test_unequal_makespan_compares_unequal(self):
        a = RoundResult(_columns(), collisions=(), makespan=9)
        b = RoundResult(_columns(), collisions=(), makespan=8)
        assert a != b


class TestLaunches:
    def test_rows_read_as_launch_objects(self):
        launches = Launches(
            worm=[4, 2], delay=[1, 0], wavelength=[0, 3], priority=[5, 6],
            per_link=[(1, 0), None],
        )
        assert len(launches) == 2
        assert list(launches) == [
            Launch(worm=4, delay=1, wavelength=(1, 0), priority=5),
            Launch(worm=2, delay=0, wavelength=3, priority=6),
        ]
        assert launches[-1] == Launch(worm=2, delay=0, wavelength=3, priority=6)
        assert launches.wavelengths(np.array([1])) == [3]
        with pytest.raises(IndexError):
            launches[2]

    def test_of_round_trips_objects_and_keeps_columns(self):
        objects = [
            Launch(worm=0, delay=2, wavelength=1),
            Launch(worm=1, delay=0, wavelength=(0, 1, 1), priority=3),
        ]
        cols = Launches.of(objects)
        assert list(cols) == objects
        assert Launches.of(cols) is cols
        assert cols.priority.tolist() == [0, 3]

    def test_scalar_columns_have_no_per_link_entry(self):
        cols = Launches.of([Launch(worm=0, delay=0, wavelength=1)])
        assert cols.per_link is None
        assert cols.wavelength.dtype == np.int64

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            Launches(worm=[0, 1], delay=[0], wavelength=[0, 0])


class TestRoundRecord:
    def test_defaults(self):
        rec = RoundRecord(
            index=1,
            delay_range=8,
            active_before=10,
            delivered=4,
            eliminated=5,
            truncated=1,
            acked=4,
            duration=30,
            observed_span=25,
        )
        assert rec.active_congestion is None
        assert rec.faulted == 0


class TestProtocolResult:
    def _result(self):
        recs = (
            RoundRecord(1, 8, 3, 2, 1, 0, 2, 30, 25),
            RoundRecord(2, 4, 1, 1, 0, 0, 1, 26, 12),
        )
        return ProtocolResult(
            completed=True,
            rounds=2,
            total_time=56,
            observed_time=37,
            records=recs,
            delivered_round={0: 1, 1: 1, 2: 2},
        )

    def test_histogram(self):
        assert self._result().rounds_histogram() == {1: 2, 2: 1}

    def test_histogram_sorted(self):
        r = ProtocolResult(
            completed=True,
            rounds=3,
            total_time=1,
            observed_time=1,
            records=(),
            delivered_round={0: 3, 1: 1, 2: 3},
        )
        assert list(r.rounds_histogram()) == [1, 3]

    def test_n_worms_delivered(self):
        assert self._result().n_worms_delivered == 3

    def test_default_collision_logs_empty(self):
        assert self._result().collisions_per_round == ()


class TestCollisionEvent:
    def test_fields(self):
        ev = CollisionEvent(
            time=5,
            link=("a", "b"),
            wavelength=2,
            blocked=1,
            blocker=0,
            link_pos=3,
            kind=CollisionKind.TRUNCATED,
        )
        assert ev.kind is CollisionKind.TRUNCATED
        assert ev.link == ("a", "b")

    def test_frozen(self):
        ev = CollisionEvent(
            time=5, link=("a", "b"), wavelength=0, blocked=1, blocker=0,
            link_pos=0, kind=CollisionKind.ELIMINATED,
        )
        with pytest.raises(AttributeError):
            ev.time = 6
