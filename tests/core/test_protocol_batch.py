"""Lockstep protocol batching: ``run_protocol_batch`` vs serial trials.

The batched backend runs many seeds' trials in lockstep -- one
``run_round_batch`` call per round across all live trials, and a bulk
congestion oracle between rounds -- but every per-trial observable must
be bit-identical to ``route_collection(collection, config, seed)`` run
alone: the full ``ProtocolResult`` (records, collision counts, repairs),
per-trial metric counters and gauges, and the flight-recorder trace.
"""

from dataclasses import replace

import pytest

from repro.core.protocol import (
    ProtocolConfig,
    TrialAndFailureProtocol,
    run_protocol_batch,
)
from repro.errors import ProtocolError
from repro.experiments.workloads import mesh_random_function
from repro.faults.models import TransientLinkFaults
from repro.observability.metrics import MetricsRegistry
from repro.optics.coupler import CollisionRule


@pytest.fixture(scope="module")
def collection():
    return mesh_random_function(4, 2, rng=0)


SEEDS = [11, 12, 13, 14]

CONFIGS = [
    ProtocolConfig(bandwidth=2, worm_length=4),
    ProtocolConfig(bandwidth=2, worm_length=4, rule=CollisionRule.PRIORITY),
    ProtocolConfig(bandwidth=2, worm_length=4, collect_collisions=True),
    ProtocolConfig(bandwidth=1, worm_length=3, ack_mode="simulated"),
    ProtocolConfig(
        bandwidth=2,
        worm_length=4,
        faults=TransientLinkFaults(0.05),
        repair="reroute",
    ),
]


def _strip(snapshot):
    """Comparable metrics view: histogram wall-time values are
    run-dependent by contract, so keep only their counts."""
    out = {}
    for name, metric in snapshot.items():
        if metric.get("kind") == "histogram":
            out[name] = {k: v.get("count") for k, v in metric["values"].items()}
        else:
            out[name] = metric["values"]
    return out


class TestBitIdentity:
    @pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
    def test_matches_serial_runs(self, collection, config):
        serial = [
            TrialAndFailureProtocol(collection, config).run(s) for s in SEEDS
        ]
        batch = run_protocol_batch(collection, config, SEEDS)
        assert batch == serial

    def test_single_seed_batch_matches_solo(self, collection):
        config = CONFIGS[0]
        assert run_protocol_batch(collection, config, [42]) == [
            TrialAndFailureProtocol(collection, config).run(42)
        ]

    def test_empty_seed_list(self, collection):
        assert run_protocol_batch(collection, CONFIGS[0], []) == []

    def test_per_trial_metrics_match_serial(self, collection):
        # Both sides run vectorized: engine_free_events_total depends on
        # the replay policy, not on the driver.
        config = replace(CONFIGS[-1], backend="vectorized")
        serial_snaps = []
        for s in SEEDS:
            reg = MetricsRegistry()
            TrialAndFailureProtocol(collection, config, metrics=reg).run(s)
            serial_snaps.append(_strip(reg.snapshot()))
        registries = [MetricsRegistry() for _ in SEEDS]
        run_protocol_batch(collection, config, SEEDS, metrics=registries)
        batch_snaps = [_strip(r.snapshot()) for r in registries]
        assert batch_snaps == serial_snaps

    def test_shared_registry_equals_merged_serial(self, collection):
        config = replace(CONFIGS[0], backend="vectorized")
        merged = MetricsRegistry()
        for s in SEEDS:
            reg = MetricsRegistry()
            TrialAndFailureProtocol(collection, config, metrics=reg).run(s)
            merged.merge(reg.snapshot())
        shared = MetricsRegistry()
        run_protocol_batch(collection, config, SEEDS, metrics=shared)
        assert _strip(shared.snapshot()) == _strip(merged.snapshot())

    def test_metrics_sequence_length_mismatch_raises(self, collection):
        with pytest.raises(ProtocolError, match="metrics"):
            run_protocol_batch(
                collection, CONFIGS[0], SEEDS, metrics=[MetricsRegistry()]
            )


class TestCongestionOracle:
    def test_bulk_subset_congestion_is_exact(self, collection):
        import numpy as np

        rng = np.random.default_rng(0)
        n = collection.n
        masks = rng.random((40, n)) < rng.uniform(0.1, 0.9, size=(40, 1))
        masks[0] = False  # all-dead row: documented to yield 0
        masks[1] = True
        got = collection.subset_congestion_batch(masks)
        for row, mask in zip(got, masks):
            ids = [i for i in range(n) if mask[i]]
            expected = (
                collection.subset(ids).path_congestion if ids else 0
            )
            assert row == expected
