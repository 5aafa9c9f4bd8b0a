"""Tests for the base Topology wrapper."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.network.topology import Topology


def triangle():
    g = nx.Graph()
    g.add_edges_from([("a", "b"), ("b", "c"), ("c", "a")])
    return Topology(g, name="tri")


class TestConstruction:
    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            Topology(nx.Graph())

    def test_self_loop_rejected(self):
        g = nx.Graph()
        g.add_edge("a", "a")
        with pytest.raises(TopologyError):
            Topology(g)

    def test_graph_is_frozen_copy(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        topo = Topology(g)
        g.add_edge("b", "c")  # mutating the original must not leak in
        assert topo.n == 2
        with pytest.raises(nx.NetworkXError):
            topo.graph.add_edge("x", "y")


class TestAccessors:
    def test_counts(self):
        t = triangle()
        assert t.n == 3
        assert t.n_edges == 3

    def test_degree(self):
        assert triangle().degree("a") == 2

    def test_max_degree(self):
        g = nx.star_graph(4)  # hub 0 with 4 leaves
        assert Topology(g).max_degree == 4

    def test_neighbors(self):
        assert set(triangle().neighbors("a")) == {"b", "c"}

    def test_has_node(self):
        t = triangle()
        assert t.has_node("a") and not t.has_node("z")


class TestDirectedLinks:
    def test_both_directions_present(self):
        t = triangle()
        links = set(t.directed_links)
        assert ("a", "b") in links and ("b", "a") in links
        assert len(links) == 6

    def test_link_index_is_dense(self):
        t = triangle()
        idx = t.link_index
        assert sorted(idx.values()) == list(range(6))

    def test_has_link(self):
        t = triangle()
        assert t.has_link("a", "b") and t.has_link("b", "a")
        assert not t.has_link("a", "z")


class TestMetrics:
    def test_diameter(self):
        assert triangle().diameter == 1

    def test_single_node_diameter(self):
        g = nx.Graph()
        g.add_node("x")
        assert Topology(g).diameter == 0

    def test_disconnected_diameter_raises(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        g.add_edge("x", "y")
        with pytest.raises(TopologyError):
            _ = Topology(g).diameter

    def test_distance_and_path(self):
        g = nx.path_graph(5)
        t = Topology(g)
        assert t.distance(0, 4) == 4
        assert t.shortest_path(0, 4) == [0, 1, 2, 3, 4]


class TestValidation:
    def test_valid_path_passes(self):
        triangle().validate_path(["a", "b", "c"])

    def test_empty_path_rejected(self):
        with pytest.raises(TopologyError):
            triangle().validate_path([])

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            triangle().validate_path(["a", "z"])

    def test_missing_edge_rejected(self):
        g = nx.path_graph(4)
        with pytest.raises(TopologyError):
            Topology(g).validate_path([0, 2])

    @pytest.mark.parametrize(
        "path, message",
        [
            ([], "empty path"),
            ([0, 9], "path node 9 is not in line"),
            ([9], "path node 9 is not in line"),
            ([0, [1]], "path node [1] is not in line"),
            ([[0]], "path node [0] is not in line"),
            ([0, 2], "path step 0 -> 2 is not a link of line"),
            ([0, 1, 3], "path step 1 -> 3 is not a link of line"),
            # The first unknown node is named before any non-link step.
            ([0, 2, 9], "path node 9 is not in line"),
        ],
    )
    def test_rejection_messages(self, path, message):
        with pytest.raises(TopologyError) as info:
            Topology(nx.path_graph(4), name="line").validate_path(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("path", [[2], (0, 1, 0), [3, 2, 1]])
    def test_single_nodes_and_walks_pass(self, path):
        Topology(nx.path_graph(4), name="line").validate_path(path)

    def test_validate_paths_iterates(self):
        with pytest.raises(TopologyError):
            triangle().validate_paths([["a", "b"], ["a", "z"]])
