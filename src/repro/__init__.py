"""repro: trial-and-failure routing for all-optical networks.

A full reproduction of Flammini & Scheideler, *Simple, Efficient Routing
Schemes for All-Optical Networks* (SPAA 1997): a flit-exact simulator of
wormhole routing in WDM networks without buffering or wavelength
conversion, the paper's trial-and-failure protocol under both serve-first
and priority contention rules, its witness-tree analysis machinery, the
adversarial lower-bound gadgets, the application path systems (meshes,
tori, butterflies, hypercubes, node-symmetric networks), baselines, and an
experiment harness regenerating every theorem's predicted behaviour.

Quickstart::

    from repro import (
        Butterfly, butterfly_path_collection, random_permutation,
        route_collection,
    )

    bf = Butterfly(6)
    pairs = random_permutation(range(bf.rows), rng=0)
    paths = butterfly_path_collection(bf, pairs)
    result = route_collection(paths, bandwidth=4, worm_length=4, rng=0)
    print(result.rounds, result.total_time)
"""

import logging as _logging

# Library-standard logging: a silent root handler, so applications that
# never configure logging see nothing, and `configure_logging` (or the
# CLI's --log-level) is the single opt-in.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from repro.errors import (
    ReproError,
    TopologyError,
    PathError,
    ProtocolError,
    ScheduleError,
    FaultError,
    WitnessError,
    ExperimentError,
    TrialError,
)
from repro.optics import (
    Band,
    WavelengthAllocation,
    split_band,
    CollisionRule,
    TieRule,
    Router,
)
from repro.worms import Worm, Launch, Launches, WormOutcome, FailureKind, make_worms
from repro.network import (
    Topology,
    Mesh,
    Torus,
    mesh,
    torus,
    Butterfly,
    WrapButterfly,
    butterfly,
    wrap_butterfly,
    Hypercube,
    hypercube,
    DeBruijn,
    debruijn,
    ShuffleExchange,
    shuffle_exchange,
    Ring,
    Chain,
    ring,
    chain,
    is_node_symmetric,
)
from repro.paths import (
    PathCollection,
    compute_leveling,
    is_leveled,
    is_short_cut_free,
    dimension_order_path,
    torus_dimension_order_path,
    mesh_path_collection,
    torus_path_collection,
    butterfly_path_collection,
    hypercube_path_collection,
    random_function,
    random_q_function,
    random_permutation,
    type1_staircase,
    type1_triangle,
    type2_bundle,
    leveled_lower_bound_instance,
    shortcut_lower_bound_instance,
)
from repro.core import (
    RoutingEngine,
    run_round,
    set_default_backend,
    get_default_backend,
    ProtocolConfig,
    TrialAndFailureProtocol,
    route_collection,
    PaperSchedule,
    PaperShortcutSchedule,
    GeometricSchedule,
    FixedSchedule,
    ZeroDelaySchedule,
    build_witness_tree,
    bounds,
)
from repro.baselines import (
    ConversionProtocol,
    route_with_conversion,
    tdm_schedule,
    one_shot_delivery,
)
from repro.network.ccc import CubeConnectedCycles, ccc
from repro.analysis import (
    pair_collision_probability,
    pair_blocking_probability,
    predict_rounds,
    survival_trajectory,
)
from repro.extensions import (
    route_with_sparse_conversion,
    route_multihop,
    random_simple_collection,
    detour_collection,
)
from repro.runners import (
    TrialProgress,
    TrialRunner,
    route_collection_trials,
)
from repro.faults import (
    AckLoss,
    FaultModel,
    GilbertElliott,
    LinkHealthMonitor,
    NodeFailures,
    NoFaults,
    PersistentLinkFailures,
    ScriptedFaults,
    StallDetector,
    TransientLinkFaults,
    parse_fault_spec,
)
from repro.observability import (
    MetricsRegistry,
    TraceWriter,
    configure_logging,
    disable_metrics,
    enable_metrics,
    get_metrics,
    read_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "TopologyError",
    "PathError",
    "ProtocolError",
    "ScheduleError",
    "FaultError",
    "WitnessError",
    "ExperimentError",
    "TrialError",
    "Band",
    "WavelengthAllocation",
    "split_band",
    "CollisionRule",
    "TieRule",
    "Router",
    "Worm",
    "Launch",
    "Launches",
    "WormOutcome",
    "FailureKind",
    "make_worms",
    "Topology",
    "Mesh",
    "Torus",
    "mesh",
    "torus",
    "Butterfly",
    "WrapButterfly",
    "butterfly",
    "wrap_butterfly",
    "Hypercube",
    "hypercube",
    "DeBruijn",
    "debruijn",
    "ShuffleExchange",
    "shuffle_exchange",
    "Ring",
    "Chain",
    "ring",
    "chain",
    "is_node_symmetric",
    "PathCollection",
    "compute_leveling",
    "is_leveled",
    "is_short_cut_free",
    "dimension_order_path",
    "torus_dimension_order_path",
    "mesh_path_collection",
    "torus_path_collection",
    "butterfly_path_collection",
    "hypercube_path_collection",
    "random_function",
    "random_q_function",
    "random_permutation",
    "type1_staircase",
    "type1_triangle",
    "type2_bundle",
    "leveled_lower_bound_instance",
    "shortcut_lower_bound_instance",
    "RoutingEngine",
    "run_round",
    "set_default_backend",
    "get_default_backend",
    "ProtocolConfig",
    "TrialAndFailureProtocol",
    "route_collection",
    "PaperSchedule",
    "PaperShortcutSchedule",
    "GeometricSchedule",
    "FixedSchedule",
    "ZeroDelaySchedule",
    "build_witness_tree",
    "bounds",
    "ConversionProtocol",
    "route_with_conversion",
    "tdm_schedule",
    "one_shot_delivery",
    "CubeConnectedCycles",
    "ccc",
    "pair_collision_probability",
    "pair_blocking_probability",
    "predict_rounds",
    "survival_trajectory",
    "route_with_sparse_conversion",
    "route_multihop",
    "random_simple_collection",
    "detour_collection",
    "TrialProgress",
    "TrialRunner",
    "route_collection_trials",
    "AckLoss",
    "FaultModel",
    "GilbertElliott",
    "LinkHealthMonitor",
    "NodeFailures",
    "NoFaults",
    "PersistentLinkFailures",
    "ScriptedFaults",
    "StallDetector",
    "TransientLinkFaults",
    "parse_fault_spec",
    "MetricsRegistry",
    "TraceWriter",
    "configure_logging",
    "disable_metrics",
    "enable_metrics",
    "get_metrics",
    "read_trace",
    "__version__",
]
