"""Worm (wormhole message) model.

Messages are *worms*: sequences of ``L`` flits that traverse their fixed
path one link per time step, occupying a contiguous window of links, and
that can never be buffered in flight (paper, Section 1.1). This subpackage
defines the immutable routing request (:class:`Worm`), the per-round launch
randomness (:class:`Launch`, or a whole round's as columns:
:class:`Launches`) and the per-round outcome record
(:class:`WormOutcome`), plus acknowledgement-worm construction.
"""

from repro.worms.worm import (
    Worm,
    Launch,
    Launches,
    WormOutcome,
    FailureKind,
    make_worms,
)
from repro.worms.ack import ack_worm, ack_worms

__all__ = [
    "Worm",
    "Launch",
    "Launches",
    "WormOutcome",
    "FailureKind",
    "make_worms",
    "ack_worm",
    "ack_worms",
]
