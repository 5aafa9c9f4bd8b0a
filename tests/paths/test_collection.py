"""Tests for PathCollection and the paper's congestion measures."""

import re

import numpy as np
import pytest

from repro.errors import PathError
from repro.network.ring import Chain
from repro.paths.collection import PathCollection


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(PathError):
            PathCollection([])

    def test_single_node_path_rejected(self):
        with pytest.raises(PathError):
            PathCollection([["a"]])

    def test_non_simple_path_rejected_by_default(self):
        with pytest.raises(PathError):
            PathCollection([["a", "b", "a"]])

    def test_non_simple_allowed_when_requested(self):
        pc = PathCollection([["a", "b", "a"]], require_simple=False)
        assert pc.n == 1

    def test_topology_validation(self):
        c = Chain(5)
        PathCollection([[0, 1, 2]], topology=c)
        with pytest.raises(Exception):
            PathCollection([[0, 2]], topology=c)

    def test_container_protocol(self):
        pc = PathCollection([["a", "b"], ["b", "c"]])
        assert len(pc) == 2
        assert pc[0] == ("a", "b")
        assert list(pc) == [("a", "b"), ("b", "c")]


class TestTopologyValidation:
    """Construction validates and compiles the layout in one link walk.

    A path that leaves the topology fails with the error
    ``Topology.validate_path`` gives it, and only that path is handed
    to ``validate_path``.
    """

    @staticmethod
    def _line():
        import networkx as nx

        from repro.network.topology import Topology

        return Topology(nx.path_graph(4), name="line")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((0, 9), "path node 9 is not in line"),
            ((0, 2), "path step 0 -> 2 is not a link of line"),
            ((0, 1, 3), "path step 1 -> 3 is not a link of line"),
            ((0, 2, 9), "path node 9 is not in line"),
            ((0, [1]), "path node [1] is not in line"),
        ],
    )
    def test_bad_path_message(self, bad, message, monkeypatch):
        from repro.errors import TopologyError

        line = self._line()
        checked = []
        validate = type(line).validate_path

        def spy(self, path):
            checked.append(path)
            return validate(self, path)

        monkeypatch.setattr(type(line), "validate_path", spy)
        # The first path off the topology is named, not a later one.
        paths = [(0, 1, 2), (3, 2), bad, (0, 3)]
        with pytest.raises(TopologyError) as info:
            PathCollection(paths, topology=line, require_simple=False)
        assert str(info.value) == message
        assert checked == [bad]

    def test_layout_uses_the_link_index(self):
        line = self._line()
        pc = PathCollection([(0, 1, 2), (3, 2, 1)], topology=line)
        index = line.link_index
        assert pc.layout.flat.tolist() == [
            index[(0, 1)], index[(1, 2)], index[(3, 2)], index[(2, 1)]
        ]
        assert pc.layout.count.tolist() == [2, 2]
        assert pc.layout.universe.links == line.directed_links


class TestMeasures:
    def test_dilation(self):
        pc = PathCollection([["a", "b"], ["x", "y", "z", "w"]])
        assert pc.dilation == 3
        assert pc.min_length == 1

    def test_edge_congestion_directed(self):
        # Opposite directions do not stack.
        pc = PathCollection([["a", "b", "c"], ["c", "b", "a"]])
        assert pc.edge_congestion == 1

    def test_edge_congestion_counts_multiset(self):
        pc = PathCollection([["a", "b"], ["a", "b"], ["a", "b"]])
        assert pc.edge_congestion == 3

    def test_path_congestion_includes_self(self):
        # The type-2 convention: C identical paths have C~ = C.
        pc = PathCollection([["a", "b", "c"]] * 5)
        assert pc.path_congestion == 5

    def test_path_congestion_disjoint_paths(self):
        pc = PathCollection([["a", "b"], ["x", "y"]])
        assert pc.path_congestion == 1

    def test_path_congestion_star(self):
        # A hub path shared with several spokes: hub sees them all.
        hub = ["h0", "h1", "h2", "h3"]
        spokes = [["h0", "h1", f"s{i}"] for i in range(3)]
        pc = PathCollection([hub] + spokes)
        # Hub shares (h0,h1) with all 3 spokes; spokes share with hub+each other.
        assert pc.path_congestion == 4

    def test_per_path_congestion_vector(self):
        pc = PathCollection([["a", "b", "c"], ["a", "b"], ["x", "y"]])
        assert pc.per_path_congestion.tolist() == [2, 2, 1]

    def test_mean_path_congestion(self):
        pc = PathCollection([["a", "b"], ["a", "b"], ["x", "y"]])
        assert pc.mean_path_congestion == pytest.approx((2 + 2 + 1) / 3)

    def test_node_sharing_without_links_no_congestion(self):
        # Crossing at a node only is free: contention is per directed link.
        pc = PathCollection([["a", "m", "b"], ["c", "m", "d"]])
        assert pc.path_congestion == 1


class TestLinkIndex:
    def test_link_paths(self):
        pc = PathCollection([["a", "b", "c"], ["b", "c", "d"]])
        assert pc.paths_on_link(("b", "c")) == [0, 1]
        assert pc.paths_on_link(("a", "b")) == [0]
        assert pc.paths_on_link(("z", "q")) == []

    def test_links_cover_all(self):
        pc = PathCollection([["a", "b", "c"]])
        assert set(pc.links) == {("a", "b"), ("b", "c")}

    def test_sources_destinations(self):
        pc = PathCollection([["a", "b"], ["x", "y", "z"]])
        assert pc.sources() == ["a", "x"]
        assert pc.destinations() == ["b", "z"]


class TestSubsetMerge:
    def test_subset_preserves_order(self):
        pc = PathCollection([["a", "b"], ["b", "c"], ["c", "d"]])
        sub = pc.subset([2, 0])
        assert sub.paths == (("c", "d"), ("a", "b"))

    def test_subset_empty_rejected(self):
        pc = PathCollection([["a", "b"]])
        with pytest.raises(PathError):
            pc.subset([])

    @pytest.mark.parametrize("pid", [-1, 3, 10_000])
    def test_subset_out_of_range_id_is_named(self, pid):
        pc = PathCollection([["a", "b"], ["b", "c"], ["c", "d"]])
        with pytest.raises(PathError, match=f"path {pid}:"):
            pc.subset([0, pid])

    @pytest.mark.parametrize(
        "shape", [(3,), (1, 2), (1, 4), (2, 65), (1, 3, 1), ()]
    )
    def test_congestion_mask_shape_is_named(self, shape):
        pc = PathCollection([["a", "b"], ["b", "c"], ["c", "d"]])
        with pytest.raises(PathError, match=re.escape(str(shape))):
            pc.subset_congestion_batch(np.ones(shape, dtype=bool))

    def test_subset_recomputes_congestion(self):
        pc = PathCollection([["a", "b"]] * 4)
        assert pc.subset([0, 1]).path_congestion == 2

    def test_merged_with(self):
        a = PathCollection([["a", "b"]])
        b = PathCollection([["x", "y"]])
        merged = a.merged_with(b)
        assert merged.n == 2
        assert merged.topology is None
