"""The reroute repair's per-trial surviving adjacency.

A trial copies the collection's pristine directed graph at its first
repair attempt and from then on deletes each newly convicted link from
its copy (:func:`~repro.faults.repair.cut_links`). After every
conviction it must equal a fresh
:func:`~repro.faults.repair.surviving_graph` over the collection's link
universe minus the suspected set -- neighbour order included, since
that fixes BFS tie breaking -- and so route every worm exactly as the
fresh graph does.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.experiments.workloads import torus_random_function
from repro.faults import parse_fault_spec
from repro.faults.repair import (
    collection_links,
    cut_links,
    reroute_path,
    surviving_graph,
)
from repro.paths.collection import PathCollection


def test_cut_links_equals_fresh_build():
    links = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "b")]
    adj = surviving_graph(links, {("b", "c")})
    cut_links(adj, [("a", "c"), ("d", "b"), ("x", "y")])
    fresh = surviving_graph(links, {("b", "c"), ("a", "c"), ("d", "b")})
    assert adj == fresh
    assert adj["a"] == ["b", "d"]
    assert "d" not in adj


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
        if st.surviving is not None:
            fresh = surviving_graph(
                collection_links(self.collection.paths, self.collection.topology),
                st.monitor.suspected,
            )
            assert st.surviving == fresh
            for uid in st.active:
                path = st.live_paths[uid]
                assert reroute_path(st.surviving, path[0], path[-1]) == (
                    reroute_path(fresh, path[0], path[-1])
                )
            convictions.append(len(st.monitor.suspected))
        return changes

    monkeypatch.setattr(TrialAndFailureProtocol, "_attempt_repairs", checked)
    result = TrialAndFailureProtocol(collection, config).run(seed)
    # The graph was checked under at least two different suspected sets,
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
    pristine = surviving_graph(
        collection_links(collection.paths, collection.topology), ()
    )
    # The sibling repairs first and builds the graph on the donor.
    assert sibling.run(9).repairs
    graph = donor._repair_graph
    assert graph == pristine and sibling._repair_graph is None
    assert donor.run(8).repairs
    assert donor._repair_graph is graph and graph == pristine
    # A run that never repairs never builds it.
    clean = TrialAndFailureProtocol(collection, ProtocolConfig(bandwidth=2))
    clean.run(8)
    assert clean._repair_graph is None
