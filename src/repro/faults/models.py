"""Pluggable fault models for the trial-and-failure protocol.

The paper's protocol is *implicitly* fault-tolerant: a worm lost to a
dark fiber is indistinguishable from a collision loss, so the retry loop
heals transient faults for free (experiment E-FAULT). This module
provides a family of adversaries:

* :class:`TransientLinkFaults` -- per-round i.i.d. dark links;
* :class:`GilbertElliott` -- bursty fades: each link runs a two-state
  (good/bad) Markov chain, so fault streaks are temporally correlated;
* :class:`PersistentLinkFailures` -- links die at sampled rounds and
  stay dark for the rest of the execution;
* :class:`NodeFailures` -- routers crash at sampled rounds; a crashed
  router darkens every directed link incident to it;
* :class:`AckLoss` -- acknowledgements are dropped with probability
  ``p`` (meaningful mainly under ``ack_mode="simulated"``, where the
  reserved ack band is a real, lossy channel);
* :class:`ScriptedFaults` -- an explicit ``{round: [links]}`` schedule,
  loadable from JSON, for regression repro and adversarial scenarios;
* :class:`WindowedFaults` -- any model restricted to a round window
  (the building block for scenario events such as link-flap storms);
* :class:`ComposedFaults` -- the union of several models, letting a
  scenario layer independent adversaries on a baseline.

A model is a *stateless, picklable specification*; the per-execution
state (Markov chain positions, accumulated dead sets, private RNG
streams) lives in the :class:`FaultRun` returned by
:meth:`FaultModel.start`. Determinism contract: for a fixed protocol
seed, a fixed model produces the identical fault realization -- models
draw either from the protocol's per-round generator at a fixed point in
the stream (``TransientLinkFaults``, matching the legacy draw order
exactly) or from a private stream spawned once in ``start()``
(the stateful models), never from global state.
"""

from __future__ import annotations

import json
import pathlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro._util import spawn_generator
from repro.errors import FaultError

__all__ = [
    "FaultModel",
    "FaultRun",
    "NoFaults",
    "TransientLinkFaults",
    "GilbertElliott",
    "PersistentLinkFailures",
    "NodeFailures",
    "AckLoss",
    "ScriptedFaults",
    "WindowedFaults",
    "ComposedFaults",
]


def _check_probability(name: str, value: float, allow_one: bool = True) -> None:
    hi_ok = value <= 1.0 if allow_one else value < 1.0
    if not (0.0 <= value and hi_ok):
        bound = "[0, 1]" if allow_one else "[0, 1)"
        raise FaultError(f"{name} must be in {bound}, got {value}")


class FaultRun:
    """Per-execution fault state; one instance per protocol run.

    ``dead_links(t, rng)`` returns the directed links dark during round
    ``t`` (or None for "none"), called once per round with strictly
    increasing ``t`` and the protocol's per-round generator.
    ``lost_acks(t, acked, rng)`` returns the subset of ``acked`` worm
    uids whose acknowledgement is dropped this round (``acked`` arrives
    sorted, so draws are order-deterministic).
    """

    def dead_links(
        self, t: int, rng: np.random.Generator
    ) -> Sequence[tuple] | None:
        """Directed links dark during round ``t`` (None = none)."""
        return None

    def lost_acks(
        self, t: int, acked: Sequence[int], rng: np.random.Generator
    ) -> set[int]:
        """Subset of ``acked`` worm uids whose ack is dropped this round."""
        return set()


class FaultModel(ABC):
    """A fault adversary: a picklable spec that spawns per-run state.

    ``start`` receives the directed links of the collection being routed
    (in deterministic collection order) and the protocol's root
    generator. A model needing its own randomness must consume *exactly
    one* ``spawn_generator(rng)`` draw there and nothing else, so that
    models which consume nothing (``NoFaults``, ``TransientLinkFaults``,
    ``ScriptedFaults``) leave the protocol's stream byte-identical to a
    fault-free run.
    """

    @abstractmethod
    def start(
        self, links: Sequence[tuple], rng: np.random.Generator
    ) -> FaultRun:
        """Bind the model to one execution's link set."""


@dataclass(frozen=True)
class NoFaults(FaultModel):
    """The explicit no-op model (equivalent to ``faults=None``)."""

    def start(self, links, rng) -> FaultRun:
        """A no-op run: no dark links, no lost acks, no draws."""
        return FaultRun()


class _TransientRun(FaultRun):
    def __init__(self, rate: float, links: Sequence[tuple]) -> None:
        self.rate = rate
        self.links = links

    def dead_links(self, t, rng):
        if self.rate <= 0.0:
            return None
        # One uniform per link from the round generator, after the
        # launch draws.
        mask = rng.random(len(self.links)) < self.rate
        return [lk for lk, dead in zip(self.links, mask) if dead]


@dataclass(frozen=True)
class TransientLinkFaults(FaultModel):
    """I.i.d. per-round link faults.

    Each directed link in use is independently dark each round with
    probability ``rate``. Draws come from the protocol's round
    generator, after the launch draws; ``rate=0`` consumes nothing and
    equals a fault-free run bit-for-bit.
    """

    rate: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("rate", self.rate, allow_one=False)

    def start(self, links, rng) -> FaultRun:
        """Bind to the link set; draws stay on the round generator."""
        return _TransientRun(self.rate, links)


class _GilbertElliottRun(FaultRun):
    def __init__(self, model: "GilbertElliott", links, rng) -> None:
        self.model = model
        self.links = links
        self._rng = spawn_generator(rng)
        self._bad = np.zeros(len(links), dtype=bool)
        self._t = 0

    def dead_links(self, t, rng):
        while self._t < t:  # evolve lazily, one Markov step per round
            u = self._rng.random(len(self.links))
            self._bad = np.where(
                self._bad, u >= self.model.p10, u < self.model.p01
            )
            self._t += 1
        if not self._bad.any():
            return None
        return [lk for lk, bad in zip(self.links, self._bad) if bad]


@dataclass(frozen=True)
class GilbertElliott(FaultModel):
    """Bursty link fades: a two-state Markov chain per directed link.

    Every link starts *good*; each round it transitions good->bad with
    probability ``p01`` and bad->good with probability ``p10``. Bad
    links are dark for the whole round. Expected burst length is
    ``1/p10`` rounds and the stationary bad fraction
    ``p01 / (p01 + p10)``, so small ``p10`` models long fades that
    defeat blind retrying.
    """

    p01: float = 0.05
    p10: float = 0.5

    def __post_init__(self) -> None:
        _check_probability("p01", self.p01)
        _check_probability("p10", self.p10)
        if self.p01 == 0.0 and self.p10 == 0.0:
            # Degenerate but harmless: all links stay good forever.
            pass

    def start(self, links, rng) -> FaultRun:
        """Spawn one private stream driving every link's Markov chain."""
        return _GilbertElliottRun(self, links, rng)


class _PersistentRun(FaultRun):
    def __init__(self, rate: float, links, rng) -> None:
        self.rate = rate
        self.links = links
        self._rng = spawn_generator(rng)
        self._dead = np.zeros(len(links), dtype=bool)
        # The dead links in link order; rebuilt only when one dies.
        self._listed: list = []
        self._t = 0

    def dead_links(self, t, rng):
        died = False
        while self._t < t:
            alive = ~self._dead
            if alive.any():
                u = self._rng.random(len(self.links))
                fresh = alive & (u < self.rate)
                if fresh.any():
                    self._dead |= fresh
                    died = True
            self._t += 1
        if died:
            links = self.links
            self._listed = [links[k] for k in np.flatnonzero(self._dead).tolist()]
        return list(self._listed) or None


@dataclass(frozen=True)
class PersistentLinkFailures(FaultModel):
    """Links die at sampled rounds and stay dark forever.

    Each surviving directed link independently dies with per-round
    hazard ``rate`` (its death round is geometric); once dark it never
    recovers, so stranded worms can only complete under
    ``repair="reroute"``.
    """

    rate: float = 0.01

    def __post_init__(self) -> None:
        _check_probability("rate", self.rate, allow_one=False)

    def start(self, links, rng) -> FaultRun:
        """Spawn one private stream sampling each link's death round."""
        return _PersistentRun(self.rate, links, rng)


class _NodeFailuresRun(FaultRun):
    def __init__(self, rate: float, links, rng) -> None:
        self.links = links
        self.rate = rate
        self._rng = spawn_generator(rng)
        # Nodes in deterministic first-seen order over the link list.
        seen: dict = {}
        for u, v in links:
            seen.setdefault(u, None)
            seen.setdefault(v, None)
        self.nodes = list(seen)
        self._crashed: set = set()
        self._alive = list(self.nodes)
        self._t = 0

    def dead_links(self, t, rng):
        while self._t < t:
            if self._alive:
                u = self._rng.random(len(self._alive))
                survivors = []
                for node, x in zip(self._alive, u):
                    if x < self.rate:
                        self._crashed.add(node)
                    else:
                        survivors.append(node)
                self._alive = survivors
            self._t += 1
        if not self._crashed:
            return None
        crashed = self._crashed
        return [lk for lk in self.links if lk[0] in crashed or lk[1] in crashed]


@dataclass(frozen=True)
class NodeFailures(FaultModel):
    """Router crashes: a crashed node darkens all incident directed links.

    Each running router independently crashes with per-round hazard
    ``rate`` and stays down; every directed link entering or leaving a
    crashed router is dark from that round on.
    """

    rate: float = 0.01

    def __post_init__(self) -> None:
        _check_probability("rate", self.rate, allow_one=False)

    def start(self, links, rng) -> FaultRun:
        """Spawn one private stream sampling each router's crash round."""
        return _NodeFailuresRun(self.rate, links, rng)


class _AckLossRun(FaultRun):
    def __init__(self, p: float, rng) -> None:
        self.p = p
        self._rng = spawn_generator(rng)

    def lost_acks(self, t, acked, rng):
        if self.p <= 0.0 or not acked:
            return set()
        u = self._rng.random(len(acked))
        return {uid for uid, x in zip(acked, u) if x < self.p}


@dataclass(frozen=True)
class AckLoss(FaultModel):
    """Acknowledgements dropped independently with probability ``p``.

    Models a lossy reserved ack band: a delivered worm whose ack is
    dropped stays active and relaunches, producing a duplicate delivery.
    Meaningful mainly under ``ack_mode="simulated"`` (the paper's
    ``ideal`` mode assumes the ack band is reserved and perfect), but
    applied in either mode.
    """

    p: float = 0.1

    def __post_init__(self) -> None:
        _check_probability("p", self.p, allow_one=False)

    def start(self, links, rng) -> FaultRun:
        """Spawn one private stream for the per-ack drop draws."""
        return _AckLossRun(self.p, rng)


class _ScriptedRun(FaultRun):
    def __init__(self, schedule: Mapping[int, tuple], persistent: bool) -> None:
        self.schedule = schedule
        self.persistent = persistent
        self._accumulated: list[tuple] = []
        self._t = 0

    def dead_links(self, t, rng):
        if not self.persistent:
            dead = self.schedule.get(t)
            return list(dead) if dead else None
        while self._t < t:
            self._t += 1
            for lk in self.schedule.get(self._t, ()):
                if lk not in self._accumulated:
                    self._accumulated.append(lk)
        return list(self._accumulated) or None


@dataclass(frozen=True)
class ScriptedFaults(FaultModel):
    """An explicit fault schedule: round index -> dark directed links.

    ``schedule`` maps a 1-based round index to the links dark that
    round; with ``persistent=True`` a scheduled link stays dark from its
    round on (the "link dies at round t" adversary). Consumes no
    randomness, so a scripted scenario composes with any seed without
    perturbing the protocol's draws. Build from a JSON file of the shape
    ``{"3": [["a","b"], ["b","c"]]}`` with :meth:`from_json`.
    """

    schedule: tuple[tuple[int, tuple[tuple, ...]], ...] = ()
    persistent: bool = False

    def __init__(
        self,
        schedule: Mapping[int, Sequence] | Sequence = (),
        persistent: bool = False,
    ) -> None:
        # Normalise to a hashable, picklable, frozen representation.
        if isinstance(schedule, Mapping):
            items = schedule.items()
        else:
            items = schedule
        def freeze(node):
            # JSON has no tuples: a mesh node arrives as [0, 1] and must
            # match the topology's (0, 1). Deep-convert lists to tuples.
            if isinstance(node, list):
                return tuple(freeze(x) for x in node)
            return node

        norm = []
        for rnd, links in sorted((int(r), ls) for r, ls in items):
            if rnd < 1:
                raise FaultError(f"scripted round indices are 1-based, got {rnd}")
            norm.append(
                (rnd, tuple(tuple(freeze(n) for n in lk) for lk in links))
            )
        object.__setattr__(self, "schedule", tuple(norm))
        object.__setattr__(self, "persistent", bool(persistent))

    @classmethod
    def from_json(
        cls, path: str | pathlib.Path, persistent: bool | None = None
    ) -> "ScriptedFaults":
        """Load a ``{round: [[u, v], ...]}`` schedule from a JSON file.

        A top-level ``{"persistent": bool, "schedule": {...}}`` wrapper
        is also accepted; ``persistent`` passed here wins over the file.
        """
        p = pathlib.Path(path)
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultError(f"cannot load fault schedule {p}: {exc}") from exc
        file_persistent = False
        if isinstance(data, dict) and "schedule" in data:
            file_persistent = bool(data.get("persistent", False))
            data = data["schedule"]
        if not isinstance(data, dict):
            raise FaultError(
                f"fault schedule {p} must be a JSON object mapping round "
                "indices to link lists"
            )
        try:
            schedule = {int(r): links for r, links in data.items()}
        except (TypeError, ValueError) as exc:
            raise FaultError(
                f"fault schedule {p} has a non-integer round key: {exc}"
            ) from exc
        return cls(
            schedule,
            persistent=file_persistent if persistent is None else persistent,
        )

    def to_schedule(self) -> dict[int, list[tuple]]:
        """The schedule as a plain ``{round: [links]}`` dict."""
        return {rnd: [tuple(lk) for lk in links] for rnd, links in self.schedule}

    def start(self, links, rng) -> FaultRun:
        """Bind the (randomness-free) schedule to one execution."""
        return _ScriptedRun(dict(self.schedule), self.persistent)


class _WindowedRun(FaultRun):
    def __init__(self, inner: FaultRun, first: int, duration: int) -> None:
        self.inner = inner
        self.first = first
        self.end = first + duration  # exclusive

    def dead_links(self, t, rng):
        if not (self.first <= t < self.end):
            return None
        return self.inner.dead_links(t - self.first + 1, rng)

    def lost_acks(self, t, acked, rng):
        if not (self.first <= t < self.end):
            return set()
        return self.inner.lost_acks(t - self.first + 1, acked, rng)


@dataclass(frozen=True)
class WindowedFaults(FaultModel):
    """An inner fault model active only inside a round window.

    The inner model applies during rounds ``[start_round, start_round +
    duration)`` and is a no-op outside; it sees *window-relative* round
    indices (the window's first round is its round 1), so a bursty model
    starts its chain fresh when the window opens regardless of where the
    window sits. This is the scenario orchestrator's building block for
    scheduled events -- a link-flap storm is a windowed
    :class:`GilbertElliott`. Randomness delegation: ``start`` passes the
    protocol's root generator straight to the inner model, so the draw
    count (zero or one) is exactly the inner's.
    """

    model: FaultModel = NoFaults()
    start_round: int = 1
    duration: int = 1

    def __post_init__(self) -> None:
        if self.start_round < 1:
            raise FaultError(
                f"start_round must be >= 1, got {self.start_round}"
            )
        if self.duration < 1:
            raise FaultError(f"duration must be >= 1, got {self.duration}")

    def start(self, links, rng) -> FaultRun:
        """Bind the inner model; it draws as if the window were round 1."""
        inner = self.model.start(links, rng)
        return _WindowedRun(inner, self.start_round, self.duration)


class _ComposedRun(FaultRun):
    def __init__(self, inners: Sequence[FaultRun]) -> None:
        self.inners = list(inners)

    def dead_links(self, t, rng):
        dead: list[tuple] = []
        seen: set[tuple] = set()
        for run in self.inners:
            links = run.dead_links(t, rng)
            if not links:
                continue
            for lk in links:
                lk = tuple(lk)
                if lk not in seen:
                    seen.add(lk)
                    dead.append(lk)
        return dead or None

    def lost_acks(self, t, acked, rng):
        lost: set[int] = set()
        for run in self.inners:
            lost |= run.lost_acks(t, acked, rng)
        return lost


@dataclass(frozen=True)
class ComposedFaults(FaultModel):
    """The union of several fault models, applied in spec order.

    Each round's dark links are the deduplicated union of every member's
    (first-appearance order, so composition is deterministic), and an
    ack is lost when any member loses it. ``start`` binds members in
    spec order, so each stateful member consumes its one private
    ``spawn_generator`` draw at a fixed position in the root stream --
    a scenario layering a storm on a baseline adversary stays
    bit-reproducible.
    """

    models: tuple[FaultModel, ...] = ()

    def __init__(self, models: Sequence[FaultModel] = ()) -> None:
        object.__setattr__(self, "models", tuple(models))

    def start(self, links, rng) -> FaultRun:
        """Bind every member model, in spec order."""
        return _ComposedRun([m.start(links, rng) for m in self.models])
