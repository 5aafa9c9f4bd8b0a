"""The reroute repair's per-trial surviving adjacency.

A trial builds the surviving directed graph at its first repair attempt
and from then on deletes each newly convicted link from it
(:func:`~repro.faults.repair.cut_links`). After every conviction it must
equal a fresh :func:`~repro.faults.repair.surviving_graph` over the
collection's link universe minus the suspected set -- neighbour order
included, since that fixes BFS tie breaking -- and so route every worm
exactly as the fresh graph does.
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
