"""Path collections and the paper's congestion measures.

A :class:`PathCollection` is a *multiset* of directed paths (node
sequences). Its three performance measures (Section 1.1):

* ``n`` -- the number of paths (one worm each);
* ``dilation`` ``D`` -- the length (in links) of the longest path;
* ``path_congestion`` ``C̃`` -- the maximum over paths ``p`` of the number
  of collection paths sharing a directed link with ``p``. Following the
  paper's type-2 gadget ("structures each consisting of C̃ identical
  paths"), a path counts itself, so ``C̃ >= 1`` always.

``edge_congestion`` is the conventional congestion (max paths over one
directed link), included because the related work (Section 1.2) is stated
in terms of it. Note collisions happen per *directed* link: opposite
traversals of one fiber pair never contend.

Every path-congestion read goes through one exact cached structure:
per-path sharing bitsets, ``n**2 / 8`` bytes. ``per_path_congestion`` is
their row popcounts, :meth:`PathCollection.subset_congestion_batch` reads
the protocol's per-round ``C̃_t`` for many survivor masks at once, and
:meth:`PathCollection.rerouted` patches a copy.

A :class:`LivePathSet` is the mutable counterpart the streaming engine
keeps: paths enter and leave one at a time, and ``n``, ``D`` and ``C̃``
are read off incrementally kept link and sharing indexes.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import pairwise
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PathError
from repro.network.topology import Topology
from repro.paths.layout import LinkLayout, topology_universe

__all__ = ["PathCollection", "LivePathSet"]


class PathCollection:
    """An immutable multiset of directed paths with cached metrics."""

    def __init__(
        self,
        paths: Iterable[Sequence],
        topology: Topology | None = None,
        require_simple: bool = True,
    ) -> None:
        self._paths: tuple[tuple, ...] = tuple(tuple(p) for p in paths)
        if not self._paths:
            raise PathError("a path collection needs at least one path")
        _check_paths(enumerate(self._paths), require_simple)
        self.topology = topology
        if topology is not None:
            # Validating and compiling the layout is one walk of the links.
            self.__dict__["layout"] = _validated_layout(self._paths, topology)

    # -- container protocol ------------------------------------------------

    @property
    def paths(self) -> tuple[tuple, ...]:
        """The paths, in collection order (worm ``uid`` order)."""
        return self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self):
        return iter(self._paths)

    def __getitem__(self, i: int) -> tuple:
        return self._paths[i]

    @property
    def n(self) -> int:
        """Collection size ``n`` (number of paths/worms)."""
        return len(self._paths)

    # -- link bookkeeping ----------------------------------------------------

    @cached_property
    def link_paths(self) -> dict[tuple, list[int]]:
        """Directed link -> sorted list of path ids using it, once per use."""
        index: dict[tuple, list[int]] = {}
        for pid, path in enumerate(self._paths):
            for link in zip(path, path[1:]):
                index.setdefault(link, []).append(pid)
        return index

    @cached_property
    def links(self) -> list[tuple]:
        """All directed links used by at least one path, by first use."""
        layout = self.layout
        return layout.universe.of(layout.numbered()[1])

    def paths_on_link(self, link: tuple) -> list[int]:
        """Path ids crossing the directed link (empty if unused)."""
        return list(self.link_paths.get(link, ()))

    @cached_property
    def layout(self) -> LinkLayout:
        """The paths compiled to numpy link ids, in uid order.

        Ids are the topology's ``link_index`` when the collection has a
        topology (compiled while the constructor validates the paths),
        else the collection's own links in order of first appearance.
        Routing engines build their link ids and event
        tables from it (see :mod:`repro.paths.layout`), and
        :meth:`rerouted` splices it instead of compiling again.
        """
        return LinkLayout.compile(self._paths)

    # -- the paper's measures -----------------------------------------------

    @cached_property
    def dilation(self) -> int:
        """``D``: the number of links of the longest path."""
        return max(len(p) - 1 for p in self._paths)

    @cached_property
    def min_length(self) -> int:
        """Number of links of the shortest path."""
        return min(len(p) - 1 for p in self._paths)

    @cached_property
    def edge_congestion(self) -> int:
        """Conventional congestion: max paths over one directed link."""
        layout = self.layout
        return int(np.bincount(layout.numbered()[0][layout.flat]).max())

    @cached_property
    def per_path_congestion(self) -> np.ndarray:
        """For each path, the number of paths sharing a link with it.

        A path counts itself (see module docstring): these are the row
        popcounts of the sharing bitsets.
        """
        return np.bitwise_count(self._share_bits).sum(axis=1, dtype=np.int64)

    @cached_property
    def path_congestion(self) -> int:
        """``C̃``: the paper's path congestion (max of per-path values)."""
        return int(self.per_path_congestion.max())

    @cached_property
    def mean_path_congestion(self) -> float:
        """Average per-path congestion (used by the application theorems)."""
        return float(self.per_path_congestion.mean())

    # -- derived views ---------------------------------------------------------

    def sources(self) -> list:
        """Per-path injection nodes."""
        return [p[0] for p in self._paths]

    def destinations(self) -> list:
        """Per-path delivery nodes."""
        return [p[-1] for p in self._paths]

    def subset(self, path_ids: Sequence[int]) -> "PathCollection":
        """A new collection containing only ``path_ids`` (order preserved).

        Ids must lie in ``[0, n)``. The protocol reads the surviving
        worms' congestion (Lemma 2.4's quantity) without building
        subsets, through :meth:`subset_congestion_batch`.
        """
        ids = list(path_ids)
        if not ids:
            raise PathError("subset of a path collection cannot be empty")
        n = self.n
        for pid in ids:
            if not 0 <= pid < n:
                raise PathError(
                    f"cannot take path {pid}: the collection has {n} paths"
                )
        return PathCollection(
            [self._paths[i] for i in ids],
            topology=self.topology,
            require_simple=False,
        )

    def rerouted(self, changes: Mapping[int, Sequence]) -> "PathCollection":
        """This collection with path ``pid`` replaced by ``changes[pid]``.

        Indistinguishable through the public API from
        ``PathCollection(paths with changes, topology=self.topology,
        require_simple=False)``, including the errors it raises. Only
        the replaced paths are checked and validated against the
        topology. A compiled :attr:`layout` is spliced: only the replaced
        rows' links are looked up, and the result's :attr:`dilation` is
        read off the spliced link counts. When this collection's sharing
        bitsets are cached, the result gets a copy with every replaced row
        and column recomputed in one array step: a ``replaced x links``
        hit mask of the new paths' links, gathered over the spliced
        layout, OR-reduced per path and packed. Everything else the
        result computes lazily, as a fresh build would. Empty ``changes``
        return this collection itself. Used by the protocol's reroute
        repair.
        """
        if not changes:
            return self
        n = self.n
        new: dict[int, tuple] = {}
        for pid in sorted(changes):
            if not 0 <= pid < n:
                raise PathError(
                    f"cannot reroute path {pid}: the collection has {n} paths"
                )
            new[pid] = tuple(changes[pid])
        _check_paths(new.items(), require_simple=False)
        if self.topology is not None:
            for path in new.values():
                self.topology.validate_path(path)
        paths = list(self._paths)
        for pid, path in new.items():
            paths[pid] = path
        child = PathCollection.__new__(PathCollection)
        child._paths = tuple(paths)
        child.topology = self.topology
        layout = self.__dict__.get("layout")
        if layout is not None:
            layout = child.__dict__["layout"] = layout.spliced(new)
            child.__dict__["dilation"] = int(layout.count.max())
        bits = self.__dict__.get("_share_bits")
        if bits is not None:
            layout = child.layout
            rows = np.fromiter(new, dtype=np.int64, count=len(new))
            slot = np.full(n, -1, dtype=np.int64)
            slot[rows] = np.arange(rows.shape[0])
            entry = np.repeat(slot, layout.count)
            own = entry >= 0
            # hit[r, g]: replaced path rows[r] crosses global link g.
            hit = np.zeros((rows.shape[0], len(layout.universe.links)), dtype=bool)
            hit[entry[own], layout.flat[own]] = True
            # Gather the hits over every path's links, OR them per path.
            sharing = np.logical_or.reduceat(hit[:, layout.flat], layout.start, axis=1)
            # Clear the replaced columns, set their new bits, then the rows.
            column = _bit(rows)
            bits = bits.copy()
            np.bitwise_and.at(bits, (slice(None), rows >> 6), ~column)
            r, j = sharing.nonzero()
            np.bitwise_or.at(bits, (j, rows[r] >> 6), column[r])
            bits[rows] = _packed(sharing)
            child.__dict__["_share_bits"] = bits
        return child

    @cached_property
    def _share_bits(self) -> np.ndarray:
        """Per-path sharing bitsets, ``n x ceil(n / 64)`` ``uint64``.

        Bit ``j`` of row ``i`` (bit ``j % 64`` of word ``j // 64``) is set
        iff paths ``i`` and ``j`` share a directed link, so the diagonal
        is set. Built from the compiled :attr:`layout`: one member bitset
        per used link, OR-reduced over each path's links a chunk of paths
        at a time.
        """
        n = self.n
        width = -(-n // 64)
        layout = self.layout
        local, gids = layout.numbered()
        lids = local[layout.flat]
        owner = np.repeat(np.arange(n), layout.count)
        members = np.zeros(gids.shape[0] * width, dtype=np.uint64)
        np.bitwise_or.at(members, lids * width + (owner >> 6), _bit(owner))
        members = members.reshape(-1, width)
        # Chunks gather about 2**16 words (512 KiB) each, which stays in
        # cache; a chunk ends at the first path starting past its share.
        start = layout.start
        chunk = start * width >> 16
        cuts = [0, *(np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist(), n]
        bits = np.empty((n, width), dtype=np.uint64)
        for p0, p1 in pairwise(cuts):
            e0, e1 = start[p0], start[p1 - 1] + layout.count[p1 - 1]
            bits[p0:p1] = np.bitwise_or.reduceat(
                members[lids[e0:e1]], start[p0:p1] - e0, axis=0
            )
        return bits

    def subset_congestion_batch(self, active: "np.ndarray") -> np.ndarray:
        """``subset(mask).path_congestion`` for many masks at once.

        ``active`` is a ``(K, n)`` boolean matrix of per-trial survivor
        masks over *this* collection's paths. Returns the ``K`` exact
        congestion values (``int64``): an active path's count is the
        popcount of its sharing row AND the packed mask, and a mask's
        value is the largest such count. Rows with no active path yield 0
        (``subset`` itself would refuse an empty selection). Any other
        mask shape raises :class:`~repro.errors.PathError`. The protocol
        reads every round's congestion here, one row per trial.
        """
        mask = np.asarray(active, dtype=bool)
        if mask.ndim != 2 or mask.shape[1] != self.n:
            raise PathError(
                f"congestion masks must have shape (K, {self.n}), "
                f"got {mask.shape}"
            )
        if mask.all():  # every path of every row: the whole collection
            return np.full(mask.shape[0], self.path_congestion, dtype=np.int64)
        bits = self._share_bits
        trial, path = np.divmod(np.flatnonzero(mask), self.n)
        shared = np.take(bits, path, axis=0)
        shared &= np.take(_packed(mask), trial, axis=0)
        # Row sums by a float32 matrix-vector product, exact because every
        # partial sum is an integer of at most n (far below 2**24).
        ones = np.ones(bits.shape[1], dtype=np.float32)
        counts = np.bitwise_count(shared).astype(np.float32) @ ones
        out = np.zeros(mask.shape[0], dtype=np.int64)
        np.maximum.at(out, trial, counts.astype(np.int64))
        return out

    def merged_with(self, other: "PathCollection") -> "PathCollection":
        """Concatenate two collections (topology kept only if shared)."""
        topo = self.topology if self.topology is other.topology else None
        return PathCollection(
            self._paths + other.paths, topology=topo, require_simple=False
        )

    def __repr__(self) -> str:
        return (
            f"<PathCollection n={self.n} D={self.dilation} "
            f"C~={self.path_congestion} C_edge={self.edge_congestion}>"
        )


class LivePathSet:
    """A mutable multiset of paths keyed by uid, with live ``n``, ``D``, ``C̃``.

    After every :meth:`add` and :meth:`remove`, :attr:`n`,
    :attr:`dilation` and :attr:`path_congestion` equal those of
    ``PathCollection(live paths, topology, require_simple=False)`` (all
    0 while the set is empty). The set keeps directed link -> member
    uids and uid -> the uids sharing a link with it (itself included;
    identical paths under two uids share), so a change costs O(its
    links x their members) instead of a rebuild. :meth:`add` runs that
    constructor's checks on the one path it adds, with the same
    exception types and messages (the uid stands for the path index).
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._paths: dict[int, tuple] = {}
        # A link keeps its member set once used, even when it empties:
        # dropping and recreating sets costs more per change than the at
        # most one set per directed link of the network this holds.
        self._members: defaultdict[tuple, set[int]] = defaultdict(set)
        self._sharing: dict[int, set[int]] = {}

    def add(self, uid: int, path: Sequence) -> None:
        """Validate ``path`` and make it live under ``uid``."""
        if uid in self._paths:
            raise PathError(f"path {uid} is already live")
        path = tuple(path)
        _check_paths([(uid, path)], require_simple=False)
        self.topology.validate_path(path)
        sharing = {uid}
        members = self._members
        for link in zip(path, path[1:]):
            users = members[link]
            sharing |= users
            users.add(uid)
        shares = self._sharing
        shares[uid] = sharing
        for other in sharing:
            shares[other].add(uid)
        self._paths[uid] = path

    def remove(self, uid: int) -> None:
        """Drop the live path ``uid``."""
        path = self._paths.pop(uid, None)
        if path is None:
            raise PathError(f"path {uid} is not live")
        members = self._members
        for link in zip(path, path[1:]):
            members[link].discard(uid)
        shares = self._sharing
        sharing = shares.pop(uid)
        sharing.discard(uid)
        for other in sharing:
            shares[other].discard(uid)

    @property
    def n(self) -> int:
        """Number of live paths."""
        return len(self._paths)

    @property
    def dilation(self) -> int:
        """``D``: links of the longest live path (0 when empty)."""
        return max(map(len, self._paths.values()), default=1) - 1

    @property
    def path_congestion(self) -> int:
        """``C̃``: the largest live sharing set (0 when empty)."""
        return max(map(len, self._sharing.values()), default=0)


def _bit(ids: np.ndarray) -> np.ndarray:
    """Each id's bit within its ``uint64`` word of a bitset."""
    return np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))


def _packed(mask: np.ndarray) -> np.ndarray:
    """The rows of a 2-D boolean array as bitsets of ``uint64`` words."""
    rows, n = mask.shape
    out = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
    out[:, : -(-n // 8)] = np.packbits(mask, axis=1, bitorder="little")
    return out.view("<u8")


def _validated_layout(paths: Sequence[tuple], topology: Topology) -> LinkLayout:
    """``paths`` compiled over ``topology``'s links, which they must walk.

    A path that leaves the topology is handed to
    :meth:`~repro.network.topology.Topology.validate_path`, which raises
    the error naming its first unknown node or non-link step.
    """
    universe = topology_universe(topology)
    try:
        return LinkLayout(universe, *universe.lookup(paths))
    except (KeyError, TypeError):
        index = universe.index
        for path in paths:
            try:
                walks = all(map(index.__contains__, pairwise(path)))
            except TypeError:  # an unhashable node
                walks = False
            if not walks:
                topology.validate_path(path)
        raise


def _check_paths(numbered: Iterable[tuple[int, tuple]], require_simple: bool) -> None:
    """Raise :class:`PathError` for the first malformed ``(id, path)``."""
    for i, p in numbered:
        if len(p) < 2:
            raise PathError(f"path {i} has fewer than two nodes: {p!r}")
        if require_simple and len(set(p)) != len(p):
            raise PathError(f"path {i} repeats a node: {p!r}")
