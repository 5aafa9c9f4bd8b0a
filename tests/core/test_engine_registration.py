"""One-pass worm registration in ``RoutingEngine``.

The engine registers a whole construction (or ``add_worms`` call) in one
pass. It must lay links out exactly as registering the worms one by one
does -- link ids by first appearance in uid order, which fixes the
within-step event order and so the order of collisions, faulted links
and recorder events -- and it must refuse a duplicate uid before
registering any worm of the call. Retirement likewise checks every uid
before dropping any worm. Engines built from a collection's compiled
link layout (pristine, rerouted, or run backwards for acks) and engines
grown by ``add_worms``/``retire_worms`` must lay links out exactly as
``_reference_layout`` does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import RoutingEngine
from repro.errors import ProtocolError
from repro.experiments.workloads import torus_random_function
from repro.faults.repair import collection_links, reroute_path, surviving_graph
from repro.network.mesh import Mesh, Torus
from repro.optics.coupler import CollisionRule
from repro.paths.collection import PathCollection
from repro.worms.ack import ack_worms
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


def _one_by_one(worms):
    engine = RoutingEngine(worms[:1], CollisionRule.SERVE_FIRST)
    for w in worms[1:]:
        engine.add_worms([w])
    return engine


def _per_worm(engine):
    """Registered uid -> its link ids, in registration order."""
    lids = engine._ev_table
    cols = engine._ev_worms
    return [
        (uid, lids[start : start + count].tolist())
        for uid, start, count in zip(
            cols.uid.tolist(), cols.start.tolist(), cols.count.tolist()
        )
    ]


def _assert_same_layout(got, want):
    assert got._links == want._links
    assert got._max_links == want._max_links
    assert _per_worm(got) == _per_worm(want)
    np.testing.assert_array_equal(got._ev_table, want._ev_table)
    for name in ("uid", "start", "count", "length"):
        np.testing.assert_array_equal(
            getattr(got._ev_worms, name), getattr(want._ev_worms, name)
        )


def test_layout_matches_per_worm_registration(worms):
    engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
    links, per_worm = _reference_layout(worms)
    assert engine._links == links
    assert _per_worm(engine) == list(per_worm.items())
    assert engine._ev_table.tolist() == [
        lid for w in worms for lid in per_worm[w.uid]
    ]
    assert engine._ev_worms.start.tolist() == [
        sum(v.n_links for v in worms[: w.uid]) for w in worms
    ]
    _assert_same_layout(engine, _one_by_one(worms))


def test_add_worms_in_one_call_matches_one_by_one(worms):
    half = len(worms) // 2
    engine = RoutingEngine(worms[:half], CollisionRule.SERVE_FIRST)
    engine.add_worms(worms[half:])
    _assert_same_layout(engine, _one_by_one(worms))


@pytest.mark.parametrize("backend", ["python", "vectorized", "batched"])
@pytest.mark.usefixtures("backend_default")
def test_round_matches_per_worm_registration(worms):
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
    one_pass = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
    want = _one_by_one(worms).run_round(launches, dead_links=dead)
    got = one_pass.run_round(launches, dead_links=dead)
    assert got == want
    assert got.collisions


def _state(engine):
    return (
        dict(engine._worms),
        list(engine._links),
        _per_worm(engine),
        engine._ev_table.tolist(),
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
    before = _state(engine)
    with pytest.raises(ProtocolError, match=message):
        engine.retire_worms(uids)
    assert _state(engine) == before


def test_retire_drops_only_the_named_worms(worms):
    engine = RoutingEngine(worms[:3], CollisionRule.SERVE_FIRST)
    engine.retire_worms([2, 0])
    assert list(engine.worms) == [1]
    assert engine._ev_worms.uid.tolist() == [1]
    _, per_worm = _reference_layout(worms[:3])
    assert _per_worm(engine) == [(1, per_worm[1])]
    assert engine._ev_table.tolist() == per_worm[1]


# -- engines built from compiled layouts -------------------------------------

_TOPOLOGIES = {"mesh": Mesh((3, 4)), "torus": Torus((3, 3))}


def _assert_matches_reference(engine, registered, live=None):
    """``engine`` lays out exactly as ``_reference_layout`` says.

    ``registered`` are every worm the engine ever registered, in order;
    ``live`` those not retired (default: all of them).
    """
    live = registered if live is None else live
    links, per_worm = _reference_layout(registered)
    assert engine._links == links
    assert _per_worm(engine) == [(w.uid, per_worm[w.uid]) for w in live]
    assert engine._ev_table.tolist() == [
        lid for w in live for lid in per_worm[w.uid]
    ]
    assert engine._ev_worms.count.tolist() == [w.n_links for w in live]
    assert engine._ev_worms.length.tolist() == [w.length for w in live]
    assert engine._max_links == max(1, *(w.n_links for w in registered))


def _assert_layout_spells(layout, paths):
    """``layout``'s ids name exactly the links of ``paths``, row by row."""
    assert layout.count.tolist() == [len(p) - 1 for p in paths]
    named = layout.universe.of(layout.flat)
    assert named == [link for p in paths for link in zip(p, p[1:])]


@st.composite
def _walks(draw, topology, min_size=1, max_size=10):
    """Random walks on ``topology`` (repeated nodes and links allowed)."""
    nodes = sorted(topology.nodes)
    walks = []
    for _ in range(draw(st.integers(min_size, max_size))):
        walk = [draw(st.sampled_from(nodes))]
        for _ in range(draw(st.integers(1, 6))):
            walk.append(draw(st.sampled_from(sorted(topology.neighbors(walk[-1])))))
        walks.append(tuple(walk))
    return walks


@st.composite
def _collections(draw):
    topology = _TOPOLOGIES[draw(st.sampled_from(sorted(_TOPOLOGIES)))]
    paths = draw(_walks(topology))
    # Identical paths share every link: the type-2 gadget shape.
    paths += paths[: draw(st.integers(0, 2))]
    on_topology = draw(st.booleans())
    coll = PathCollection(
        paths, topology=topology if on_topology else None, require_simple=False
    )
    return coll, topology


def _check_collection_engines(coll, length=3):
    worms = make_worms(coll.paths, length)
    engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST, layout=coll.layout)
    _assert_matches_reference(engine, worms)
    acks = ack_worms(worms, ack_length=1)
    ack_engine = RoutingEngine(
        acks, CollisionRule.SERVE_FIRST, layout=coll.layout.reversed()
    )
    _assert_matches_reference(ack_engine, acks)
    _assert_layout_spells(coll.layout, coll.paths)


@given(_collections())
@settings(max_examples=60, deadline=None)
def test_pristine_layout_engines_match_reference(case):
    coll, _ = case
    _check_collection_engines(coll)


@given(_collections(), st.data())
@settings(max_examples=40, deadline=None)
def test_rerouted_layout_engines_match_reference(case, data):
    coll, topology = case
    coll.layout  # compiled once, so every reroute below splices
    universe = collection_links(coll.paths, coll.topology)
    suspected: set[tuple] = set()
    for _ in range(data.draw(st.integers(1, 4))):
        suspected |= set(
            data.draw(st.lists(st.sampled_from(universe), max_size=3))
        )
        adj = surviving_graph(universe, suspected)
        changes = {}
        for pid, path in enumerate(coll.paths):
            if any(link in suspected for link in zip(path, path[1:])):
                new = reroute_path(adj, path[0], path[-1])
                if new is not None and new != path:
                    changes[pid] = new
        if coll.topology is None and data.draw(st.booleans()):
            # A topology-less collection takes any path, including one
            # over links it never used.
            (walk,) = data.draw(_walks(topology, max_size=1))
            changes[data.draw(st.integers(0, coll.n - 1))] = walk
        child = coll.rerouted(changes)
        assert (child is coll) == (not changes)
        assert "layout" in child.__dict__
        coll = child
        _check_collection_engines(coll)


@given(_collections(), st.data())
@settings(max_examples=40, deadline=None)
def test_grown_engine_matches_reference(case, data):
    coll, topology = case
    length = 2
    registered = make_worms(coll.paths, length)
    if data.draw(st.booleans()):
        engine = RoutingEngine(
            registered, CollisionRule.SERVE_FIRST, layout=coll.layout
        )
    else:
        engine = RoutingEngine(registered, CollisionRule.SERVE_FIRST)
    registered = list(registered)
    live = list(registered)
    for _ in range(data.draw(st.integers(1, 5))):
        if live and data.draw(st.booleans()):
            gone = data.draw(
                st.lists(st.sampled_from(live), min_size=1, unique=True)
            )
            engine.retire_worms([w.uid for w in gone])
            live = [w for w in live if w not in gone]
        else:
            uid = registered[-1].uid + 1
            fresh = [
                Worm(uid=uid + k, path=path, length=length)
                for k, path in enumerate(data.draw(_walks(topology, max_size=4)))
            ]
            engine.add_worms(fresh)
            registered += fresh
            live += fresh
        _assert_matches_reference(engine, registered, live)
