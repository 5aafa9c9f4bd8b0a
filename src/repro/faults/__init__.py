"""Fault injection and fault-aware protocol adaptation.

The pluggable fault subsystem: seed-deterministic :class:`FaultModel`
implementations (transient, Gilbert-Elliott bursty, persistent link,
node crash, ack loss, scripted), the :class:`LinkHealthMonitor` that
accumulates dead-link evidence across rounds, the :class:`StallDetector`
backoff, and the reroute machinery ``repair="reroute"`` uses to route
stranded worms around suspected-dead links. See docs/FAULTS.md for the
catalog and semantics.

:class:`ChaosPolicy` is the infrastructure-level sibling: instead of
faulting the simulated network it kills/hangs sweep workers, drops or
delays shard results, and truncates the sweep journal -- the chaos
harness the sharded sweep service (:mod:`repro.sweep`, docs/SWEEPS.md)
certifies its crash tolerance against.
"""

from repro.faults.chaos import (
    CHAOS_ENV_VAR,
    ChaosPolicy,
    chaos_from_env,
    parse_chaos_spec,
)
from repro.faults.health import LinkHealthMonitor, StallDetector
from repro.faults.models import (
    AckLoss,
    ComposedFaults,
    FaultModel,
    FaultRun,
    GilbertElliott,
    NodeFailures,
    NoFaults,
    PersistentLinkFailures,
    ScriptedFaults,
    TransientLinkFaults,
    WindowedFaults,
)
from repro.faults.repair import (
    SurvivingGraph,
    collection_links,
    reroute_path,
    surviving_graph,
)
from repro.faults.spec import FAULT_SPEC_NAMES, parse_fault_spec

__all__ = [
    "AckLoss",
    "CHAOS_ENV_VAR",
    "ChaosPolicy",
    "chaos_from_env",
    "parse_chaos_spec",
    "ComposedFaults",
    "FaultModel",
    "FaultRun",
    "GilbertElliott",
    "LinkHealthMonitor",
    "NodeFailures",
    "NoFaults",
    "PersistentLinkFailures",
    "ScriptedFaults",
    "StallDetector",
    "TransientLinkFaults",
    "WindowedFaults",
    "FAULT_SPEC_NAMES",
    "parse_fault_spec",
    "SurvivingGraph",
    "collection_links",
    "reroute_path",
    "surviving_graph",
]
