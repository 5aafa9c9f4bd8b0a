"""The base :class:`Topology` wrapper.

A topology is an undirected graph where every edge stands for two directed
optical links, one per direction (paper, Section 1.1). Contention happens
per *directed* link: two worms crossing the same undirected edge in
opposite directions never collide. The wrapper therefore exposes the
directed-link space alongside the undirected graph, caches the expensive
graph invariants, and validates paths for the routing layer.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Sequence

import networkx as nx

from repro.errors import TopologyError

__all__ = ["Topology"]


class Topology:
    """An undirected router graph with a directed-link view.

    Nodes may be any hashable objects (coordinate tuples for meshes,
    (level, row) pairs for butterflies, ...). The class is immutable after
    construction: builders assemble the ``networkx`` graph first and hand
    it over.
    """

    def __init__(self, graph: nx.Graph, name: str = "topology") -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("a topology needs at least one node")
        if any(u == v for u, v in graph.edges):
            raise TopologyError("self-loop edges are not allowed")
        self._graph = nx.freeze(graph.copy())
        self.name = name

    # -- basic accessors ---------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The underlying frozen undirected graph."""
        return self._graph

    @property
    def n(self) -> int:
        """Number of router nodes."""
        return self._graph.number_of_nodes()

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (fiber pairs)."""
        return self._graph.number_of_edges()

    @property
    def nodes(self) -> list:
        """Nodes in insertion order."""
        return list(self._graph.nodes)

    def degree(self, node: Hashable) -> int:
        """Number of neighbours of ``node``."""
        return self._graph.degree[node]

    @cached_property
    def max_degree(self) -> int:
        """Maximum node degree."""
        return max(d for _, d in self._graph.degree)

    def has_node(self, node: Hashable) -> bool:
        """Whether ``node`` is a router of this topology."""
        return self._graph.has_node(node)

    def neighbors(self, node: Hashable) -> list:
        """Neighbours of ``node``."""
        return list(self._graph.neighbors(node))

    # -- directed link space -----------------------------------------------

    @cached_property
    def directed_links(self) -> list[tuple]:
        """All directed links: each undirected edge in both directions."""
        links: list[tuple] = []
        for u, v in self._graph.edges:
            links.append((u, v))
            links.append((v, u))
        return links

    @cached_property
    def link_index(self) -> dict[tuple, int]:
        """Dense integer ids for directed links (engine-internal handles)."""
        return {link: i for i, link in enumerate(self.directed_links)}

    def has_link(self, u: Hashable, v: Hashable) -> bool:
        """Whether the directed link ``u -> v`` exists."""
        return self._graph.has_edge(u, v)

    # -- metrics -----------------------------------------------------------

    @cached_property
    def diameter(self) -> int:
        """Graph diameter (0 for a single node)."""
        if self.n == 1:
            return 0
        if not nx.is_connected(self._graph):
            raise TopologyError(f"{self.name} is disconnected; diameter undefined")
        return nx.diameter(self._graph)

    def distance(self, u: Hashable, v: Hashable) -> int:
        """Shortest-path hop distance."""
        return nx.shortest_path_length(self._graph, u, v)

    def shortest_path(self, u: Hashable, v: Hashable) -> list:
        """One shortest path as a node list."""
        return nx.shortest_path(self._graph, u, v)

    # -- validation ----------------------------------------------------------

    @cached_property
    def _node_set(self) -> frozenset:
        """The nodes, for membership tests."""
        return frozenset(self._graph.nodes)

    def validate_path(self, path: Sequence[Hashable]) -> None:
        """Raise :class:`TopologyError` unless ``path`` walks real links.

        Paths must be non-empty node sequences whose consecutive pairs are
        edges of the graph. Repeated nodes are allowed here (walks); the
        path-collection layer enforces simplicity where required. The
        first unknown node is reported before the first non-link step.
        """
        if len(path) == 0:
            raise TopologyError("empty path")
        links = self.link_index
        steps = zip(path, path[1:])
        try:
            # Every link's ends are nodes, so a walk over real links
            # passes both checks below.
            if len(path) > 1:
                if all(map(links.__contains__, steps)):
                    return
            elif path[0] in self._node_set:
                return
        except TypeError:  # an unhashable node
            pass
        nodes = self._node_set
        for node in path:
            try:
                known = node in nodes
            except TypeError:
                known = False
            if not known:
                raise TopologyError(f"path node {node!r} is not in {self.name}")
        for a, b in zip(path, path[1:]):
            if (a, b) not in links:
                raise TopologyError(
                    f"path step {a!r} -> {b!r} is not a link of {self.name}"
                )

    def validate_paths(self, paths: Iterable[Sequence[Hashable]]) -> None:
        """Validate every path of an iterable."""
        for p in paths:
            self.validate_path(p)

    # -- dunder ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}: n={self.n}, edges={self.n_edges}>"
