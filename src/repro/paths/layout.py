"""Compiled link layouts: a path list's directed links as numpy ids.

A :class:`LinkUniverse` numbers directed links ``0 .. U-1`` (the *global*
ids): a topology's ``link_index``, or the links a path list uses, in
order of first appearance. A :class:`LinkLayout` holds every path's
global link ids in one flat ``int64`` array, path after path, with each
path's ``start`` offset and link ``count``. A
:class:`~repro.paths.collection.PathCollection` compiles its layout once
(:attr:`~repro.paths.collection.PathCollection.layout`), and a reroute
derives the repaired collection's layout by splicing only the rerouted
rows (:meth:`LinkLayout.spliced`).

The routing engine numbers links by first appearance in registration
order (its *local* ids), which fixes the within-step event order and so
the order of collisions, faulted links and recorder events.
:func:`assign_link_ids` turns global ids into local ones with array
operations; engine construction and ``add_worms`` both go through it.
"""

from __future__ import annotations

from itertools import chain, pairwise
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.topology import Topology

__all__ = ["LinkUniverse", "LinkLayout", "assign_link_ids", "topology_universe"]


class LinkUniverse:
    """Directed links under dense global ids; never changed once built.

    ``links[g]`` is the link with id ``g`` and ``index`` its inverse
    (built on first use when not given). :meth:`ids` returns a larger
    universe, not a changed one, when paths bring unseen links, so every
    holder of a universe keeps valid ids.
    """

    __slots__ = ("links", "_index", "_reversed")

    def __init__(self, links: list[tuple], index: dict[tuple, int] | None = None):
        self.links = links
        self._index = index
        self._reversed: LinkUniverse | None = None

    @property
    def index(self) -> dict[tuple, int]:
        """Directed link -> global id."""
        if self._index is None:
            self._index = {link: g for g, link in enumerate(self.links)}
        return self._index

    def lookup(self, paths: Sequence[Sequence]) -> tuple[np.ndarray, np.ndarray]:
        """``(flat ids, per-path link counts)`` of ``paths`` in this universe.

        Raises KeyError when a path uses a link this universe lacks (and
        TypeError when a node is unhashable).
        """
        count = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths)) - 1
        steps = chain.from_iterable(map(pairwise, paths))
        flat = np.fromiter(
            map(self.index.__getitem__, steps), dtype=np.int64, count=int(count.sum())
        )
        return flat, count

    def ids(
        self, paths: Sequence[Sequence]
    ) -> tuple[np.ndarray, np.ndarray, "LinkUniverse"]:
        """``(flat ids, per-path link counts, universe)`` of ``paths``.

        The universe is this one unless a path uses a link it lacks; new
        links then get ids after the existing ones, in order of first
        appearance, in a new universe.
        """
        if self.links:
            try:
                return (*self.lookup(paths), self)
            except KeyError:
                pass
        count = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths)) - 1
        total = int(count.sum())
        index = dict(self.index)
        flat = np.fromiter(
            (index.setdefault(link, len(index))
             for link in chain.from_iterable(map(pairwise, paths))),
            dtype=np.int64,
            count=total,
        )
        return flat, count, LinkUniverse(list(index), index)

    def of(self, gids: np.ndarray) -> list[tuple]:
        """The links with global ids ``gids``, in order."""
        return list(map(self.links.__getitem__, gids.tolist()))

    def reversed(self) -> "LinkUniverse":
        """The universe whose id ``g`` is link ``g`` run backwards."""
        if self._reversed is None:
            self._reversed = LinkUniverse([(b, a) for a, b in self.links])
        return self._reversed


def topology_universe(topology: "Topology") -> LinkUniverse:
    """Every directed link of ``topology`` under its ``link_index`` ids."""
    return LinkUniverse(topology.directed_links, topology.link_index)


class LinkLayout:
    """A path list compiled to global link ids over a :class:`LinkUniverse`.

    Path ``k`` crosses links ``flat[start[k] : start[k] + count[k]]``, in
    traversal order. Arrays are shared read-only between layouts and the
    engines built from them.
    """

    __slots__ = ("universe", "flat", "start", "count", "_numbered", "_reversed")

    def __init__(
        self, universe: LinkUniverse, flat: np.ndarray, count: np.ndarray
    ) -> None:
        self.universe = universe
        self.flat = flat
        self.count = count
        self.start = np.cumsum(count) - count
        self._numbered: tuple[np.ndarray, np.ndarray] | None = None
        self._reversed: LinkLayout | None = None

    @classmethod
    def compile(
        cls, paths: Sequence[Sequence], universe: LinkUniverse | None = None
    ) -> "LinkLayout":
        """Lay ``paths`` out over ``universe`` (default: their own links)."""
        if universe is None:
            universe = LinkUniverse([])
        flat, count, universe = universe.ids(paths)
        return cls(universe, flat, count)

    def __len__(self) -> int:
        return self.count.shape[0]

    def numbered(self) -> tuple[np.ndarray, np.ndarray]:
        """The first-appearance numbering of these paths' links.

        ``(local, gids)`` of :func:`assign_link_ids` with no id yet
        taken: global -> local id, and the global ids in local-id order.
        The local ids an engine built from this layout alone gives its
        links (``local[flat]`` per entry); computed once and shared
        read-only.
        """
        if self._numbered is None:
            # Sized to the universe, so an engine that later admits
            # worms over it never has to grow the map.
            unset = np.full(len(self.universe.links), -1, dtype=np.int64)
            self._numbered = assign_link_ids(self.flat, unset, 0)[1:]
        return self._numbered

    def spliced(self, changes: Mapping[int, Sequence]) -> "LinkLayout":
        """This layout with path ``k`` replaced by ``changes[k]``.

        Only the replaced paths' links are looked up; every other row is
        gathered from this layout's arrays.
        """
        rows = np.fromiter(changes, dtype=np.int64, count=len(changes))
        flat, count, universe = self.universe.ids(list(changes.values()))
        counts = self.count.copy()
        counts[rows] = count
        source = self.start.copy()
        source[rows] = self.flat.shape[0] + np.cumsum(count) - count
        spliced = np.concatenate([self.flat, flat])
        return LinkLayout(universe, spliced[_segment_index(source, counts)], counts)

    def reversed(self) -> "LinkLayout":
        """Every path run backwards, over :meth:`LinkUniverse.reversed`."""
        if self._reversed is None:
            total = self.flat.shape[0]
            back = self.flat[::-1][
                _segment_index(total - self.start - self.count, self.count)
            ]
            self._reversed = LinkLayout(self.universe.reversed(), back, self.count)
        return self._reversed


def _segment_index(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[start[k], start[k] + count[k])``, concatenated."""
    idx = np.arange(int(count.sum()), dtype=np.int64)
    idx += np.repeat(start - (np.cumsum(count) - count), count)
    return idx


def assign_link_ids(
    flat: np.ndarray, local: np.ndarray, assigned: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local ids for the global link ids ``flat``, numbering new links.

    ``local`` maps each global id to its local id (-1, or past its end:
    none yet) and ``assigned`` local ids are taken (with none taken, only
    the length of ``local`` is read). Links of ``flat`` without a local
    id get the next ones in order of first appearance in ``flat``.
    Returns the local ids of ``flat``, the updated map (a new array when
    anything was numbered) and the newly numbered global ids in
    local-id order. No array passed in is written to.
    """
    m = flat.shape[0]
    size = max(local.shape[0], int(flat.max()) + 1 if m else 0)
    if assigned:
        grown = local
        if size > local.shape[0]:
            grown = np.full(size, -1, dtype=np.int64)
            grown[: local.shape[0]] = local
        lids = grown[flat]
        at = (lids < 0).nonzero()[0]
        if not at.shape[0]:
            return lids, grown, at
        fresh = flat[at]
    else:
        grown = np.full(size, -1, dtype=np.int64)
        at = np.arange(m, dtype=np.int64)
        fresh = flat
    # Each new id's first position in flat; the positions holding their
    # own id's first position list the new ids in order of appearance.
    first = np.full(size, m, dtype=np.int64)
    np.minimum.at(first, fresh, at)
    new = fresh[first[fresh] == at]
    local = grown.copy() if grown is local else grown
    local[new] = np.arange(assigned, assigned + new.shape[0], dtype=np.int64)
    return local[flat], local, new
