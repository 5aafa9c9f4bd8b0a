"""The reroute repair's compiled surviving graph and per-trial cut mask.

A lockstep family compiles the collection's pristine directed graph
once (:func:`~repro.faults.repair.surviving_graph`) and each trial marks
its convictions in a cut mask over the graph's link ids
(:meth:`~repro.faults.repair.SurvivingGraph.cut`). After every
conviction the mask must equal the ``dead`` mask of a fresh
``surviving_graph`` over the collection's link universe minus the
suspected set, and route every worm exactly as the fresh graph does.
The compiled BFS itself is checked against a plain dict-adjacency BFS
kept only here, and a repair attempt must not rescan the worms while no
new link is convicted.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.protocol as protocol_module
from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.core.records import DIAG_STRANDED
from repro.experiments.workloads import torus_random_function
from repro.faults import ScriptedFaults, parse_fault_spec
from repro.faults.repair import (
    SurvivingGraph,
    collection_links,
    reroute_path,
    surviving_graph,
)
from repro.network.mesh import Mesh, Torus
from repro.paths.collection import PathCollection


def _reference_route(links, dead, source, destination):
    """Shortest path over a dict adjacency of ``links`` minus ``dead``."""
    dead = set(dead)
    adj: dict = {}
    for u, v in links:
        if (u, v) not in dead:
            adj.setdefault(u, []).append(v)
    if source == destination:
        return None
    parent = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in adj.get(node, ()):
            if nxt in parent:
                continue
            parent[nxt] = node
            if nxt == destination:
                path = [nxt]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            queue.append(nxt)
    return None


def _same_graph(a: SurvivingGraph, b: SurvivingGraph) -> bool:
    return (a.nodes, a.link_ids, a.out, a.dead) == (b.nodes, b.link_ids, b.out, b.dead)


def test_cut_mask_equals_fresh_build():
    links = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "b")]
    graph = surviving_graph(links, {("b", "c")})
    assert graph.nodes == ["a", "b", "c", "d"]
    assert graph.link_ids == {link: i for i, link in enumerate(links)}
    assert graph.out[0] == [(1, 0), (2, 1), (3, 4)]
    mask = bytearray(graph.dead)
    graph.cut(mask, [("a", "c"), ("d", "b"), ("x", "y")])
    fresh = surviving_graph(links, {("b", "c"), ("a", "c"), ("d", "b")})
    assert mask == fresh.dead
    # Cutting writes only the mask: the compiled graph is untouched.
    assert graph.dead == bytearray([0, 0, 1, 0, 0, 0])
    assert graph.out[0] == [(1, 0), (2, 1), (3, 4)]
    assert reroute_path(graph, "a", "c", mask) is None
    assert reroute_path(graph, "a", "c") == ("a", "c")
    assert reroute_path(graph, "d", "c") is None
    assert reroute_path(graph, "c", "d", mask) == ("c", "a", "d")


def test_topology_link_ids_are_its_link_index():
    torus = Torus((3, 3))
    graph = surviving_graph(collection_links([], torus))
    assert graph.link_ids == torus.link_index
    assert graph.nodes == list(dict.fromkeys(
        node for link in torus.directed_links for node in link
    ))


_NODES = st.integers(0, 7)
_LINKS = st.tuples(_NODES, _NODES)


@given(
    links=st.lists(_LINKS, max_size=30),
    cuts=st.lists(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_compiled_bfs_matches_reference_on_random_digraphs(links, cuts):
    graph = surviving_graph(links)
    mask = bytearray(graph.dead)
    dead: set = set()
    for batch in [[]] + cuts:
        graph.cut(mask, batch)
        dead |= set(batch)
        for source in range(9):
            for destination in range(9):
                assert reroute_path(graph, source, destination, mask) == (
                    _reference_route(links, dead, source, destination)
                )


def _walk(topology, data, length):
    nodes = topology.nodes
    path = [data.draw(st.sampled_from(nodes))]
    for _ in range(length):
        path.append(data.draw(st.sampled_from(topology.neighbors(path[-1]))))
    return tuple(path)


@given(
    on_topology=st.booleans(),
    torus=st.booleans(),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_compiled_bfs_matches_reference_on_link_universes(on_topology, torus, data):
    topology = Torus((3, 3)) if torus else Mesh((3, 4))
    paths = [
        _walk(topology, data, data.draw(st.integers(1, 5)))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    links = collection_links(paths, topology if on_topology else None)
    graph = surviving_graph(links)
    mask = bytearray(graph.dead)
    everywhere = topology.directed_links
    dead: set = set()
    for _ in range(data.draw(st.integers(1, 4))):
        # Cuts may name links outside a topology-less universe.
        batch = data.draw(st.lists(st.sampled_from(everywhere), max_size=4))
        graph.cut(mask, batch)
        dead |= set(batch)
        assert mask == surviving_graph(links, dead).dead
        for path in paths:
            for source, destination in ((path[0], path[-1]), (path[-1], path[0])):
                assert reroute_path(graph, source, destination, mask) == (
                    _reference_route(links, dead, source, destination)
                )


@pytest.mark.parametrize("on_topology", [True, False])
@pytest.mark.parametrize("seed", [8, 15])
def test_trial_adjacency_tracks_convictions(seed, on_topology, monkeypatch):
    collection = torus_random_function(12, 2, rng=seed)
    if not on_topology:
        collection = PathCollection(collection.paths, require_simple=False)
    config = ProtocolConfig(
        bandwidth=2,
        worm_length=4,
        max_rounds=64,
        faults=parse_fault_spec("persistent:rate=0.01"),
        repair="reroute",
    )
    convictions = []
    attempt = TrialAndFailureProtocol._attempt_repairs

    def checked(self, st):
        changes = attempt(self, st)
        if st.cut_mask is not None:
            links = collection_links(self.collection.paths, self.collection.topology)
            fresh = surviving_graph(links, st.monitor.suspected)
            assert st.cut == st.monitor.suspected
            assert st.cut_mask == fresh.dead
            graph = self._pristine_graph()
            for uid in st.active:
                path = st.live_paths[uid]
                assert reroute_path(graph, path[0], path[-1], st.cut_mask) == (
                    _reference_route(links, st.cut, path[0], path[-1])
                )
            convictions.append(len(st.monitor.suspected))
        return changes

    monkeypatch.setattr(TrialAndFailureProtocol, "_attempt_repairs", checked)
    result = TrialAndFailureProtocol(collection, config).run(seed)
    # The mask was checked under at least two different suspected sets,
    # and the repairs it drove happened.
    assert len(set(convictions)) >= 2
    assert result.repairs


def test_pristine_graph_is_shared_and_never_cut():
    collection = torus_random_function(12, 2, rng=8)
    config = ProtocolConfig(
        bandwidth=2,
        worm_length=4,
        max_rounds=64,
        faults=parse_fault_spec("persistent:rate=0.01"),
        repair="reroute",
    )
    donor = TrialAndFailureProtocol(collection, config)
    sibling = TrialAndFailureProtocol(collection, config, _share_from=donor)
    # Nothing is built before a repair is attempted.
    assert donor._repair_graph is None and sibling._repair_graph is None
    pristine = surviving_graph(collection_links(collection.paths, collection.topology))
    # The sibling repairs first and builds the graph on the donor.
    assert sibling.run(9).repairs
    graph = donor._repair_graph
    assert _same_graph(graph, pristine) and sibling._repair_graph is None
    assert donor.run(8).repairs
    assert donor._repair_graph is graph and _same_graph(graph, pristine)
    # A run that never repairs never builds it.
    clean = TrialAndFailureProtocol(collection, ProtocolConfig(bandwidth=2))
    clean.run(8)
    assert clean._repair_graph is None


def test_stranded_worm_is_searched_once_per_conviction(monkeypatch):
    # Both in-links of the corner (0, 0) die in round 1: worm 0 is
    # rerouted once, then cut off, and stays stranded to max_rounds.
    mesh = Mesh((3, 3))
    collection = PathCollection(
        [((0, 2), (0, 1), (0, 0)), ((2, 2), (2, 1)), ((1, 2), (1, 1))],
        topology=mesh,
    )
    config = ProtocolConfig(
        bandwidth=2,
        worm_length=2,
        max_rounds=20,
        faults=ScriptedFaults({1: [((0, 1), (0, 0)), ((1, 0), (0, 0))]}, persistent=True),
        repair="reroute",
        suspect_after=1,
    )
    searches = []
    route = protocol_module.reroute_path

    def counted(*args):
        searches.append(args[1:3])
        return route(*args)

    monkeypatch.setattr(protocol_module, "reroute_path", counted)
    result = TrialAndFailureProtocol(collection, config).run(3)
    assert not result.completed and result.rounds == config.max_rounds
    assert [r.worm for r in result.repairs] == [0]
    assert result.diagnosis == {0: DIAG_STRANDED}
    # One search per conviction, not one per round.
    assert searches == [((0, 2), (0, 0))] * 2

    # Forgetting the last attempt's suspected set forces the old
    # every-round rescan; the result must not change.
    attempt = TrialAndFailureProtocol._attempt_repairs

    def rescanning(self, st):
        st.cut = frozenset()
        return attempt(self, st)

    monkeypatch.setattr(TrialAndFailureProtocol, "_attempt_repairs", rescanning)
    searches.clear()
    assert TrialAndFailureProtocol(collection, config).run(3) == result
    assert len(searches) > 2
