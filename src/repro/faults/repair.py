"""Rerouting stranded worms around suspected-dead links.

Multi-path RWA and adaptive optical-routing protocols treat rerouting
around failed resources as the core robustness mechanism; this module is
that mechanism for the reproduction. Given the original path collection
and the monitor's suspected-dead link set, :func:`reroute_path` computes
a replacement path on the *surviving* directed graph -- the topology's
links when the collection carries a topology, otherwise the union of the
collection's own links -- via breadth-first shortest path. The
protocol compiles the pristine graph once per collection
(:func:`surviving_graph`) into integer node and link ids; each trial
keeps its convictions as a cut mask over those link ids
(:meth:`SurvivingGraph.cut`), and the BFS skips masked links.

Repaired paths are shortest on the surviving graph, but the repaired
collection is **not** guaranteed to preserve the structural invariants
the original was built with (leveled, short-cut-free, dimension-order):
the protocol marks repaired executions via ``ProtocolResult.repairs``
and re-derives its schedule context from the repaired collection's
measured dilation/congestion instead of assuming the invariants.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

__all__ = ["SurvivingGraph", "surviving_graph", "reroute_path", "collection_links"]


class SurvivingGraph:
    """A directed link list compiled to integers, with a default cut mask.

    Nodes are numbered in order of first appearance (``nodes[i]`` is node
    ``i``, ``node_ids`` the inverse) and links in list order, a repeated
    link keeping its first id (``link_ids``); over a topology's
    ``directed_links`` the link ids are its ``link_index``. ``out[i]``
    lists node ``i``'s out-links as ``(head node id, link id)`` pairs in
    list order, which fixes BFS tie breaking. A *cut mask* is a
    ``bytearray`` over the link ids, nonzero for a dead link; ``dead``
    is the one :func:`surviving_graph` was built with.
    """

    __slots__ = ("nodes", "node_ids", "link_ids", "out", "dead")

    def __init__(self, links: Iterable[tuple]) -> None:
        node_ids: dict[Hashable, int] = {}
        link_ids: dict[tuple, int] = {}
        out: list[list[tuple[int, int]]] = []
        for u, v in links:
            link = (u, v)
            if link in link_ids:
                continue
            link_ids[link] = len(link_ids)
            for node in link:
                if node not in node_ids:
                    node_ids[node] = len(node_ids)
                    out.append([])
            out[node_ids[u]].append((node_ids[v], link_ids[link]))
        self.nodes = list(node_ids)
        self.node_ids = node_ids
        self.link_ids = link_ids
        self.out = out
        self.dead = bytearray(len(link_ids))

    def cut(self, mask: bytearray, dead: Iterable[tuple]) -> None:
        """Mark the ``dead`` links cut in ``mask``; links the graph lacks are ignored."""
        ids = self.link_ids
        for link in dead:
            lid = ids.get(tuple(link))
            if lid is not None:
                mask[lid] = 1


def surviving_graph(
    links: Iterable[tuple], dead: Iterable[tuple] = ()
) -> SurvivingGraph:
    """``links`` compiled to a :class:`SurvivingGraph` whose ``dead`` mask cuts ``dead``."""
    graph = SurvivingGraph(links)
    graph.cut(graph.dead, dead)
    return graph


def reroute_path(
    graph: SurvivingGraph,
    source: Hashable,
    destination: Hashable,
    cut: bytearray | None = None,
) -> tuple | None:
    """Shortest path ``source -> destination`` avoiding the ``cut`` links, or None.

    Plain FIFO BFS over the compiled graph (all links cost 1, matching
    the paper's hop-count dilation measure); ``cut`` defaults to the
    graph's ``dead`` mask. Returns the node sequence as a tuple, or None
    when the destination is unreachable -- the worm is then permanently
    stranded and diagnosed as such.
    """
    if source == destination:
        return None
    ids = graph.node_ids
    s = ids.get(source)
    d = ids.get(destination)
    if s is None or d is None:
        return None
    if cut is None:
        cut = graph.dead
    out = graph.out
    parent = [-1] * len(out)
    parent[s] = s
    # The loop reads the nodes appended while it runs: a FIFO queue.
    queue = [s]
    for u in queue:
        for v, lid in out[u]:
            if parent[v] >= 0 or cut[lid]:
                continue
            parent[v] = u
            if v == d:
                nodes = graph.nodes
                path = [nodes[v]]
                while v != s:
                    v = parent[v]
                    path.append(nodes[v])
                path.reverse()
                return tuple(path)
            queue.append(v)
    return None


def collection_links(
    paths: Sequence[Sequence], topology=None
) -> list[tuple]:
    """The directed-link universe repairs may route over.

    With a topology, every directed link of the network is available
    (that is what a real deployment reroutes over); topology-less
    collections fall back to the union of their own paths' links, which
    still heals scenarios where a surviving sibling path covers the gap.
    """
    if topology is not None:
        return list(topology.directed_links)
    seen: dict[tuple, None] = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            seen.setdefault((a, b), None)
    return list(seen)
