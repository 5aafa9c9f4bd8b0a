"""One-pass worm registration in ``RoutingEngine``.

The engine registers a whole construction (or ``add_worms`` call) in one
pass. It must lay links out exactly as registering the worms one by one
does -- link ids by first appearance in uid order, which fixes the
within-step event order and so the order of collisions, faulted links
and recorder events -- and it must refuse a duplicate uid before
registering any worm of the call. Retirement likewise checks every uid
before dropping any worm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import RoundCall, RoutingEngine, run_round_batch
from repro.errors import ProtocolError
from repro.experiments.workloads import torus_random_function
from repro.optics.coupler import CollisionRule
from repro.worms.worm import Launch, Worm, make_worms


@pytest.fixture(scope="module")
def worms():
    return make_worms(torus_random_function(6, 2, rng=11).paths, 3)


def _reference_layout(worms):
    """Per-worm registration: link ids by first appearance, worm by worm."""
    index: dict[tuple, int] = {}
    per_worm: dict[int, list[int]] = {}
    for w in worms:
        ids = []
        for link in zip(w.path, w.path[1:]):
            ids.append(index.setdefault(link, len(index)))
        per_worm[w.uid] = ids
    return list(index), per_worm


def _one_by_one(worms, backend):
    engine = RoutingEngine(worms[:1], CollisionRule.SERVE_FIRST, backend=backend)
    for w in worms[1:]:
        engine.add_worms([w])
    return engine


def _assert_same_layout(got, want):
    assert got._links == want._links
    assert got._link_index == want._link_index
    assert got._max_links == want._max_links
    assert list(got._lid_arrays) == list(want._lid_arrays)
    for uid, lids in want._lid_arrays.items():
        np.testing.assert_array_equal(got._lid_arrays[uid], lids)
    for col_got, col_want in zip(got._event_table()[:2], want._event_table()[:2]):
        np.testing.assert_array_equal(col_got, col_want)
    assert got._event_table()[2] == want._event_table()[2]


def test_layout_matches_per_worm_registration(worms):
    engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
    links, per_worm = _reference_layout(worms)
    assert engine._links == links
    for w in worms:
        assert engine._lid_arrays[w.uid].tolist() == per_worm[w.uid]
    table_lids, table_pos, starts = engine._event_table()
    assert table_lids.tolist() == [lid for w in worms for lid in per_worm[w.uid]]
    assert table_pos.tolist() == [p for w in worms for p in range(w.n_links)]
    assert starts == {
        w.uid: sum(v.n_links for v in worms[: w.uid]) for w in worms
    }
    _assert_same_layout(engine, _one_by_one(worms, "python"))


def test_add_worms_in_one_call_matches_one_by_one(worms):
    half = len(worms) // 2
    engine = RoutingEngine(worms[:half], CollisionRule.SERVE_FIRST)
    engine._event_table()
    engine.add_worms(worms[half:])
    _assert_same_layout(engine, _one_by_one(worms, "python"))


@pytest.mark.parametrize("backend", ["python", "vectorized", "batched"])
def test_round_matches_per_worm_registration(worms, backend):
    rng = np.random.default_rng(5)
    launches = [
        Launch(
            worm=w.uid,
            delay=int(rng.integers(0, 4)),
            wavelength=int(rng.integers(0, 2)),
        )
        for w in worms
    ]
    dead = [(worms[0].path[1], worms[0].path[2])] if worms[0].n_links > 1 else []
    one_pass = RoutingEngine(worms, CollisionRule.SERVE_FIRST, backend=backend)
    want = _one_by_one(worms, backend).run_round(launches, dead_links=dead)
    if backend == "batched":
        (got,) = run_round_batch(
            [RoundCall(engine=one_pass, launches=launches, dead_links=dead)]
        )
    else:
        got = one_pass.run_round(launches, dead_links=dead)
    assert got == want
    assert got.collisions


def _state(engine):
    return (
        dict(engine._worms),
        list(engine._links),
        dict(engine._link_index),
        {uid: lids.tolist() for uid, lids in engine._lid_arrays.items()},
        engine._max_links,
    )


@pytest.mark.parametrize("where", ["inside the call", "already registered"])
def test_duplicate_uid_rejected_before_any_registration(worms, where):
    engine = RoutingEngine(worms[:3], CollisionRule.SERVE_FIRST)
    before = _state(engine)
    fresh = Worm(uid=100, path=((5, 5), (5, 4), (5, 3)), length=2)
    dup = (
        Worm(uid=100, path=((0, 0), (0, 1)), length=2)
        if where == "inside the call"
        else Worm(uid=2, path=((0, 0), (0, 1)), length=2)
    )
    with pytest.raises(ProtocolError, match=f"duplicate worm uid {dup.uid}"):
        engine.add_worms([fresh, dup])
    assert _state(engine) == before
    assert 100 not in engine.worms


def test_construction_rejects_duplicate_uid():
    path = ((0, 0), (0, 1))
    with pytest.raises(ProtocolError, match="duplicate worm uid 4"):
        RoutingEngine(
            [Worm(uid=4, path=path, length=1), Worm(uid=4, path=path, length=1)],
            CollisionRule.SERVE_FIRST,
        )


@pytest.mark.parametrize(
    "uids, message",
    [
        ([0, 7], "cannot retire unknown worm uid 7"),
        ([0, 0], "worm uid 0 retired twice in one call"),
    ],
)
def test_retire_checks_every_uid_before_dropping_any(worms, uids, message):
    engine = RoutingEngine(worms[:3], CollisionRule.SERVE_FIRST)
    engine._event_table()
    before = _state(engine)
    with pytest.raises(ProtocolError, match=message):
        engine.retire_worms(uids)
    assert _state(engine) == before
    assert engine._ev_table is not None


def test_retire_drops_only_the_named_worms(worms):
    engine = RoutingEngine(worms[:3], CollisionRule.SERVE_FIRST)
    engine.retire_worms([2, 0])
    assert list(engine.worms) == [1]
    assert list(engine._lid_arrays) == [1]
