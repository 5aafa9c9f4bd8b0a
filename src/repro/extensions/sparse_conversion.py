"""Sparse wavelength conversion (Section 4, citing Lee & Li [23]).

All-optical wavelength converters are expensive, so realistic networks
equip only a few routers with them. This extension interpolates between
the paper's no-conversion model and the full-conversion baseline: a worm's
channel is piecewise constant along its path and may be re-drawn exactly
when the worm passes a *converter* node.

Implementation-wise this is a per-link wavelength tuple (the engine
already supports those) that changes value only at converter boundaries.
The experiment sweep (E-EXT1) measures routing time as the converter
density goes 0% -> 100%, connecting Main Theorem 1.3's regime to the
Cypher-et-al.-style full-conversion regime.
"""

from __future__ import annotations

from typing import Collection, Hashable

import numpy as np

from repro._util import as_generator
from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.core.records import ProtocolResult
from repro.errors import ProtocolError
from repro.optics.coupler import CollisionRule
from repro.paths.collection import PathCollection
from repro.worms.worm import Launch

__all__ = [
    "SparseConversionProtocol",
    "route_with_sparse_conversion",
    "converter_nodes_every",
    "random_converter_nodes",
]


def converter_nodes_every(collection: PathCollection, stride: int) -> set:
    """Designate every ``stride``-th node along each path as a converter.

    A simple deterministic placement: path positions ``stride, 2*stride,
    ...`` (never the source -- the initial draw already randomises the
    first segment). ``stride`` larger than every path disables conversion.
    """
    if stride <= 0:
        raise ProtocolError(f"stride must be positive, got {stride}")
    nodes: set = set()
    for path in collection:
        nodes.update(path[stride:-1:stride] if len(path) > stride else ())
    return nodes


def random_converter_nodes(
    collection: PathCollection, fraction: float, rng=None
) -> set:
    """Equip a uniform random fraction of the used routers with converters."""
    if not 0.0 <= fraction <= 1.0:
        raise ProtocolError(f"fraction must be in [0, 1], got {fraction}")
    rng = as_generator(rng)
    nodes = sorted({node for path in collection for node in path}, key=repr)
    k = int(round(fraction * len(nodes)))
    if k == 0:
        return set()
    picks = rng.choice(len(nodes), size=k, replace=False)
    return {nodes[int(i)] for i in picks}


class SparseConversionProtocol(TrialAndFailureProtocol):
    """Trial-and-failure where channels re-randomise at converter nodes."""

    def __init__(
        self,
        collection: PathCollection,
        config: ProtocolConfig,
        converters: Collection[Hashable],
    ) -> None:
        super().__init__(collection, config)
        self.converters = set(converters)
        # Per worm: the path positions (link indices) where a new channel
        # segment starts. Position 0 always starts a segment.
        self._segment_starts: dict[int, list[int]] = {}
        for worm in self.worms:
            starts = [0]
            # Link i leaves path node i; a converter at node i (0 < i <
            # n_links) re-draws the channel for links i, i+1, ...
            for i in range(1, worm.n_links):
                if worm.path[i] in self.converters:
                    starts.append(i)
            self._segment_starts[worm.uid] = starts

    def _draw_launches(self, active, delta, rng: np.random.Generator) -> list[Launch]:
        base = super()._draw_launches(active, delta, rng)
        # The protocol's own worm list, indexed by uid: no per-round copy.
        worms = self.worms
        out: list[Launch] = []
        B = self.config.bandwidth
        for launch in base:
            starts = self._segment_starts[launch.worm]
            if len(starts) == 1:
                out.append(launch)  # no converter on this path
                continue
            n_links = worms[launch.worm].n_links
            seg_channels = rng.integers(0, B, size=len(starts))
            per_link = np.empty(n_links, dtype=np.int64)
            bounds = starts + [n_links]
            for k in range(len(starts)):
                per_link[bounds[k] : bounds[k + 1]] = seg_channels[k]
            out.append(
                Launch(
                    worm=launch.worm,
                    delay=launch.delay,
                    wavelength=tuple(per_link.tolist()),
                    priority=launch.priority,
                )
            )
        return out


def route_with_sparse_conversion(
    collection: PathCollection,
    bandwidth: int,
    converters: Collection[Hashable],
    rule: CollisionRule = CollisionRule.SERVE_FIRST,
    worm_length: int = 4,
    rng=None,
    **config_kwargs,
) -> ProtocolResult:
    """Route with converters at the given nodes (one execution)."""
    config = ProtocolConfig(
        bandwidth=bandwidth, rule=rule, worm_length=worm_length, **config_kwargs
    )
    return SparseConversionProtocol(collection, config, converters).run(rng)
