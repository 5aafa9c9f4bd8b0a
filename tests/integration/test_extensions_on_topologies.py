"""Cross-cutting integration: the extensions on real topologies."""

from repro.core.schedule import GeometricSchedule
from repro.extensions.multihop import route_multihop
from repro.extensions.simple_collections import random_simple_collection
from repro.extensions.sparse_conversion import (
    converter_nodes_every,
    route_with_sparse_conversion,
)
from repro.core.protocol import route_collection
from repro.experiments.workloads import (
    butterfly_permutation,
    mesh_random_function,
    torus_random_function,
)
from repro.faults import TransientLinkFaults
from repro.network.hypercube import Hypercube
from repro.optics.coupler import CollisionRule

SCHED = GeometricSchedule(c_congestion=2.0, c_floor=0.5)


class TestSparseConversionOnTopologies:
    def test_on_butterfly(self):
        coll = butterfly_permutation(5, rng=0)
        converters = converter_nodes_every(coll, stride=2)
        res = route_with_sparse_conversion(
            coll, bandwidth=2, converters=converters, schedule=SCHED, rng=0
        )
        assert res.completed

    def test_on_torus_priority(self):
        coll = torus_random_function(5, 2, rng=1)
        converters = converter_nodes_every(coll, stride=3)
        res = route_with_sparse_conversion(
            coll,
            bandwidth=2,
            converters=converters,
            rule=CollisionRule.PRIORITY,
            schedule=SCHED,
            rng=1,
        )
        assert res.completed


class TestMultihopOnTopologies:
    def test_on_mesh(self):
        coll = mesh_random_function(6, 2, rng=2)
        res = route_multihop(
            coll, bandwidth=2, hops=1, worm_length=4, schedule=SCHED, rng=2
        )
        assert res.completed
        assert res.segment_dilation <= (coll.dilation + 1) // 2 + 1

    def test_on_butterfly_zero_hops(self):
        coll = butterfly_permutation(4, rng=3)
        res = route_multihop(
            coll, bandwidth=2, hops=0, worm_length=4, schedule=SCHED, rng=3
        )
        assert res.completed
        assert len(res.phase_results) == 1


class TestSimpleWalksRouteEverywhere:
    def test_hypercube_walk_collection(self):
        h = Hypercube(4)
        coll = random_simple_collection(h, n_paths=12, max_length=6, rng=4)
        res = route_collection(
            coll, bandwidth=4, worm_length=3, schedule=SCHED, max_rounds=500,
            rng=4,
        )
        assert res.completed

    def test_faults_plus_walks(self):
        h = Hypercube(4)
        coll = random_simple_collection(h, n_paths=10, max_length=5, rng=5)
        res = route_collection(
            coll,
            bandwidth=4,
            worm_length=3,
            faults=TransientLinkFaults(0.1),
            schedule=SCHED,
            max_rounds=500,
            rng=5,
        )
        assert res.completed
