"""Trial-and-failure with per-hop wavelength conversion ([11] proxy).

Cypher et al. [11] route along arbitrary simple path collections in time
``O((L*C*D^(1/B) + (D+L) log n)/B)`` w.h.p. *when every router can convert
wavelengths*. The relevant capability is that a worm's channel is not one
global choice but can be re-randomised at every hop.

:class:`ConversionProtocol` is the paper's protocol with exactly that one
change: each worm draws an independent uniform channel per link of its
path (everything else -- delays, rounds, acknowledgements, collision
rules -- is identical), so comparisons isolate the value of conversion.

Empirical caveat (experiment E-CMP): under *trial-and-failure* semantics,
per-hop re-randomisation does not help on long-overlap workloads -- every
shared link becomes an independent collision opportunity, whereas a single
static channel clears a whole shared stretch at once. [11]'s improvements
from conversion rely on buffered store-and-forward machinery that the
paper's bufferless model forgoes; this baseline quantifies exactly that
gap.
"""

from __future__ import annotations

import numpy as np

from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.core.records import ProtocolResult
from repro.optics.coupler import CollisionRule
from repro.paths.collection import PathCollection
from repro.worms.worm import Launch

__all__ = ["ConversionProtocol", "route_with_conversion"]


class ConversionProtocol(TrialAndFailureProtocol):
    """The trial-and-failure loop with per-hop channel re-randomisation."""

    def _draw_launches(self, active, delta, rng: np.random.Generator) -> list[Launch]:
        base = super()._draw_launches(active, delta, rng)
        # The protocol's own worm list, indexed by uid: no per-round copy.
        worms = self.worms
        out: list[Launch] = []
        for launch in base:
            n_links = worms[launch.worm].n_links
            per_link = tuple(
                rng.integers(0, self.config.bandwidth, size=n_links).tolist()
            )
            out.append(
                Launch(
                    worm=launch.worm,
                    delay=launch.delay,
                    wavelength=per_link,
                    priority=launch.priority,
                )
            )
        return out


def route_with_conversion(
    collection: PathCollection,
    bandwidth: int,
    rule: CollisionRule = CollisionRule.SERVE_FIRST,
    worm_length: int = 4,
    rng=None,
    **config_kwargs,
) -> ProtocolResult:
    """Route a collection with conversion-capable routers (one execution)."""
    config = ProtocolConfig(
        bandwidth=bandwidth, rule=rule, worm_length=worm_length, **config_kwargs
    )
    return ConversionProtocol(collection, config).run(rng)
