"""Rerouting stranded worms around suspected-dead links.

Multi-path RWA and adaptive optical-routing protocols treat rerouting
around failed resources as the core robustness mechanism; this module is
that mechanism for the reproduction. Given the original path collection
and the monitor's suspected-dead link set, :func:`reroute_path` computes
a replacement path on the *surviving* directed graph -- the topology's
links when the collection carries a topology, otherwise the union of the
collection's own links -- via breadth-first shortest path. The
protocol builds the pristine graph once per collection
(:func:`surviving_graph`); each trial copies it and deletes links from
the copy as they are convicted (:func:`cut_links`).

Repaired paths are shortest on the surviving graph, but the repaired
collection is **not** guaranteed to preserve the structural invariants
the original was built with (leveled, short-cut-free, dimension-order):
the protocol marks repaired executions via ``ProtocolResult.repairs``
and re-derives its schedule context from the repaired collection's
measured dilation/congestion instead of assuming the invariants.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Sequence

__all__ = ["surviving_graph", "cut_links", "reroute_path", "collection_links"]


def surviving_graph(
    links: Iterable[tuple], dead: Iterable[tuple]
) -> dict[Hashable, list]:
    """Directed adjacency of ``links`` minus the ``dead`` links.

    Insertion order of ``links`` fixes the neighbour order, so BFS tie
    breaking -- and therefore every repaired path -- is deterministic.
    """
    dead_set = {tuple(lk) for lk in dead}
    adj: dict[Hashable, list] = {}
    for u, v in links:
        if (u, v) in dead_set:
            continue
        adj.setdefault(u, []).append(v)
    return adj


def cut_links(adj: dict[Hashable, list], dead: Iterable[tuple]) -> None:
    """Delete the ``dead`` links from the adjacency ``adj``, in place.

    The other neighbours keep their order, and a node left without one
    is dropped, so ``cut_links(surviving_graph(links, a), b)`` equals
    ``surviving_graph(links, a | b)``, neighbour order included, for
    links without repeats. Links ``adj`` lacks are ignored.
    """
    for u, v in dead:
        nbrs = adj.get(u)
        if nbrs is not None and v in nbrs:
            nbrs.remove(v)
            if not nbrs:
                del adj[u]


def reroute_path(
    adj: dict[Hashable, list], source: Hashable, destination: Hashable
) -> tuple | None:
    """Shortest surviving path ``source -> destination``, or None.

    Plain BFS over the directed adjacency (all links cost 1, matching
    the paper's hop-count dilation measure). Returns the node sequence
    as a tuple, or None when the destination is unreachable -- the worm
    is then permanently stranded and diagnosed as such.
    """
    if source == destination:
        return None
    parent: dict[Hashable, Hashable] = {source: source}
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
                path.reverse()
                return tuple(path)
            queue.append(nxt)
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
