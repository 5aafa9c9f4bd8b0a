"""Worm records: routing requests, per-round launches, and outcomes."""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Worm", "Launch", "Launches", "WormOutcome", "FailureKind", "make_worms"]


class FailureKind(enum.Enum):
    """Why a worm failed to be delivered in a round.

    ``ELIMINATED`` -- the head was cut at some coupler (serve-first loss,
    or losing an arrival-side priority conflict). ``TRUNCATED`` -- the head
    fragment reached the destination but some tail flits were dumped at a
    coupler along the way (priority rule only), so delivery is incomplete.
    ``FAULTED`` -- the head reached a link that is down this round (fault
    injection; not part of the paper's model, always retried).
    """

    ELIMINATED = "eliminated"
    TRUNCATED = "truncated"
    FAULTED = "faulted"


@dataclass(frozen=True)
class Worm:
    """One routing request: send ``length`` flits along ``path``.

    ``path`` is the node sequence; the worm traverses the directed links
    ``(path[i], path[i+1])``. ``uid`` indexes the worm inside its path
    collection and doubles as the engine's worm handle.
    """

    uid: int
    path: tuple
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"worm length must be positive, got {self.length}")
        if len(self.path) < 2:
            raise ValueError("a worm path needs at least two nodes (one link)")
        object.__setattr__(self, "path", tuple(self.path))

    @property
    def source(self):
        """The injection node."""
        return self.path[0]

    @property
    def destination(self):
        """The delivery node."""
        return self.path[-1]

    @property
    def n_links(self) -> int:
        """Number of directed links the worm must traverse."""
        return len(self.path) - 1

    def links(self) -> list[tuple]:
        """The directed links of the path, in traversal order."""
        return [(self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1)]


@dataclass(frozen=True)
class Launch:
    """The randomness a worm draws for one round of trial-and-failure.

    The head enters link ``i`` (0-based) of the path at time
    ``delay + i``; flit ``j`` crosses link ``i`` during step
    ``delay + i + j``.

    ``wavelength`` is a single channel index in the paper's model (no
    wavelength conversion). A tuple of per-link channel indices models
    conversion-capable routers -- the Cypher-et-al.-style baseline the
    paper compares against.
    """

    worm: int
    delay: int
    wavelength: int | tuple[int, ...]
    priority: int = 0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if isinstance(self.wavelength, tuple):
            if not self.wavelength or any(w < 0 for w in self.wavelength):
                raise ValueError(
                    f"per-link wavelengths must be non-empty and >= 0, got {self.wavelength}"
                )
        elif self.wavelength < 0:
            raise ValueError(f"wavelength must be >= 0, got {self.wavelength}")

    def wavelength_at(self, pos: int) -> int:
        """The channel used on path link ``pos``."""
        if isinstance(self.wavelength, tuple):
            return self.wavelength[pos]
        return self.wavelength


class Launches(Sequence):
    """One round's launches as columns, one row per launched worm.

    ``worm``, ``delay``, ``wavelength`` and ``priority`` are int64
    arrays of one length: the fields of :class:`Launch`, row by row.
    ``per_link`` is None, or one entry per row: a tuple of per-link
    channels (conversion-capable routers, the row's ``wavelength`` entry
    then unused) or None for a row on its one ``wavelength``. The
    protocol draws a round straight into these columns and the engine
    reads them; indexing and iteration give :class:`Launch` objects for
    readers that want objects. Values are checked where they are used
    (by :class:`Launch` on indexing, by the engine on a round), not
    here.
    """

    __slots__ = ("worm", "delay", "wavelength", "priority", "per_link")

    def __init__(self, worm, delay, wavelength, priority=None, per_link=None) -> None:
        self.worm = np.asarray(worm, dtype=np.int64)
        k = self.worm.shape[0]
        self.delay = np.asarray(delay, dtype=np.int64)
        self.wavelength = np.asarray(wavelength, dtype=np.int64)
        self.priority = (
            np.zeros(k, dtype=np.int64)
            if priority is None
            else np.asarray(priority, dtype=np.int64)
        )
        self.per_link = None if per_link is None else list(per_link)
        if self.worm.shape != (k,) or any(
            col.shape != (k,) for col in (self.delay, self.wavelength, self.priority)
        ) or (self.per_link is not None and len(self.per_link) != k):
            raise ValueError("launch columns must be one-dimensional and of one length")

    @classmethod
    def of(cls, launches: "Sequence[Launch]") -> "Launches":
        """``launches`` as columns; columns come back unchanged.

        Reads ``worm``, ``delay``, ``wavelength`` and ``priority`` off
        each launch-shaped object without re-checking them.
        """
        if isinstance(launches, cls):
            return launches
        k = len(launches)
        wls = [launch.wavelength for launch in launches]
        per_link = None
        if any(isinstance(wl, tuple) for wl in wls):
            per_link = [wl if isinstance(wl, tuple) else None for wl in wls]
            wls = [0 if isinstance(wl, tuple) else wl for wl in wls]
        return cls(
            np.fromiter((launch.worm for launch in launches), np.int64, count=k),
            np.fromiter((launch.delay for launch in launches), np.int64, count=k),
            np.asarray(wls, dtype=np.int64).reshape(k),
            np.fromiter((launch.priority for launch in launches), np.int64, count=k),
            per_link,
        )

    def wavelengths(self, rows: "np.ndarray | None" = None) -> list:
        """Each row's :attr:`Launch.wavelength`: an int, or a per-link tuple.

        ``rows`` restricts the list to those rows, in their order.
        """
        if rows is None:
            wls, own = self.wavelength.tolist(), self.per_link
        else:
            wls = self.wavelength[rows].tolist()
            own = (
                None
                if self.per_link is None
                else [self.per_link[i] for i in rows.tolist()]
            )
        if own is not None:
            wls = [wl if link is None else link for wl, link in zip(wls, own)]
        return wls

    def __len__(self) -> int:
        return self.worm.shape[0]

    def __getitem__(self, i: int) -> Launch:
        i = range(len(self))[i]
        own = None if self.per_link is None else self.per_link[i]
        return Launch(
            worm=int(self.worm[i]),
            delay=int(self.delay[i]),
            wavelength=int(self.wavelength[i]) if own is None else own,
            priority=int(self.priority[i]),
        )

    def __iter__(self):
        return map(
            Launch, self.worm.tolist(), self.delay.tolist(), self.wavelengths(),
            self.priority.tolist(),
        )


@dataclass(frozen=True)
class WormOutcome:
    """What happened to one worm in one round.

    ``delivered_flits`` counts the flits that reached the destination
    (equals the worm length iff ``delivered``). ``failed_at_link`` is the
    0-based path-link index where the head was cut (``None`` unless the
    failure kind is ``ELIMINATED``). ``blockers`` lists the uids of worms
    whose transmissions caused this worm's failure events, in event order
    -- this is the raw material for witness-tree extraction (Section 2.1).
    ``completion_time`` is the step during which the last delivered flit
    arrived (``None`` if nothing arrived).
    """

    worm: int
    delivered: bool
    delivered_flits: int
    failure: FailureKind | None = None
    failed_at_link: int | None = None
    completion_time: int | None = None
    blockers: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.delivered and self.failure is not None:
            raise ValueError("a delivered worm cannot carry a failure kind")
        if not self.delivered and self.failure is None:
            raise ValueError("a failed worm must carry a failure kind")
        if self.delivered_flits < 0:
            raise ValueError("delivered_flits cannot be negative")


def make_worms(paths: Sequence[Sequence], length: int) -> list[Worm]:
    """Build one worm of ``length`` flits per path, uids in path order."""
    return [Worm(uid=i, path=tuple(p), length=length) for i, p in enumerate(paths)]
