"""Parallel protocol trials must be bit-identical to serial execution."""

import pytest

from repro.experiments.workloads import mesh_random_function
from repro.faults import TransientLinkFaults
from repro.optics.coupler import CollisionRule
from repro.runners import protocol_trial, route_collection_trials, spawn_seeds


def _fingerprint(result):
    """Everything observable about one ProtocolResult, ordered."""
    return (
        result.completed,
        result.rounds,
        result.total_time,
        tuple(
            (r.index, r.delay_range, r.active_before, r.delivered,
             r.observed_span)
            for r in result.records
        ),
    )


@pytest.fixture(scope="module")
def collection():
    return mesh_random_function(4, 2, rng=0)


class TestSeedForSeedDeterminism:
    def test_pool_matches_serial_fingerprints(self, collection):
        serial = route_collection_trials(
            collection, bandwidth=2, trials=4, seed=11, jobs=1
        )
        pooled = route_collection_trials(
            collection, bandwidth=2, trials=4, seed=11, jobs=2
        )
        assert [_fingerprint(r) for r in serial] == [
            _fingerprint(r) for r in pooled
        ]

    def test_matches_direct_protocol_runs(self, collection):
        from repro.core.protocol import ProtocolConfig

        config = ProtocolConfig(bandwidth=2, worm_length=4)
        seeds = spawn_seeds(11, 3)
        direct = [
            _fingerprint(protocol_trial(s, collection, config)) for s in seeds
        ]
        batched = [
            _fingerprint(r)
            for r in route_collection_trials(
                collection, bandwidth=2, trials=3, seed=11, jobs=2
            )
        ]
        assert direct == batched

    def test_priority_rule_passthrough(self, collection):
        serial = route_collection_trials(
            collection, bandwidth=2, trials=2, seed=3,
            rule=CollisionRule.PRIORITY, jobs=1,
        )
        pooled = route_collection_trials(
            collection, bandwidth=2, trials=2, seed=3,
            rule=CollisionRule.PRIORITY, jobs=2,
        )
        assert [_fingerprint(r) for r in serial] == [
            _fingerprint(r) for r in pooled
        ]


class TestBatchedBackendDispatch:
    """backend="batched" switches the runner to seed-slice dispatch.

    The results, the merged metrics (modulo run-dependent wall-clock
    histogram values and runner-internal counters) and the checkpoint
    journal must be bit-identical to the other backends / to serial
    execution for any ``jobs``.
    """

    @staticmethod
    def _strip(snapshot):
        out = {}
        for name, metric in snapshot.items():
            if name.startswith("runner_"):
                continue
            if metric.get("kind") == "histogram":
                out[name] = {
                    k: v.get("count") for k, v in metric["values"].items()
                }
            else:
                out[name] = metric["values"]
        return out

    def test_results_match_vectorized_for_any_jobs(self, collection):
        base = route_collection_trials(
            collection, bandwidth=2, trials=6, seed=11, jobs=1,
            backend="vectorized",
        )
        for jobs in (1, 2, 3):
            got = route_collection_trials(
                collection, bandwidth=2, trials=6, seed=11, jobs=jobs,
                backend="batched",
            )
            assert got == base, jobs

    def test_merged_metrics_match_serial(self, collection):
        from repro.observability.metrics import MetricsRegistry

        serial = MetricsRegistry()
        route_collection_trials(
            collection, bandwidth=2, trials=6, seed=11, jobs=1,
            backend="batched", metrics=serial,
        )
        pooled = MetricsRegistry()
        route_collection_trials(
            collection, bandwidth=2, trials=6, seed=11, jobs=2,
            backend="batched", metrics=pooled,
        )
        assert self._strip(pooled.snapshot()) == self._strip(serial.snapshot())

    def test_checkpoint_bytes_match_across_jobs(self, collection, tmp_path):
        a, b = tmp_path / "serial.json", tmp_path / "pooled.json"
        serial = route_collection_trials(
            collection, bandwidth=2, trials=5, seed=4, jobs=1,
            backend="batched", checkpoint=a,
        )
        pooled = route_collection_trials(
            collection, bandwidth=2, trials=5, seed=4, jobs=2,
            backend="batched", checkpoint=b,
        )
        assert serial == pooled
        assert a.read_bytes() == b.read_bytes()

    def test_faulty_config_still_bit_identical(self, collection):
        kwargs = dict(
            bandwidth=2, trials=4, seed=17, faults=TransientLinkFaults(0.05),
            repair="reroute",
        )
        base = route_collection_trials(
            collection, jobs=1, backend="vectorized", **kwargs
        )
        got = route_collection_trials(
            collection, jobs=2, backend="batched", **kwargs
        )
        assert got == base


class TestProtocolDispatch:
    """``protocol_dispatch`` is the one place the slice width is chosen.

    Every backend name gets the lockstep slice function and the same
    width: ``ceil(trials / jobs)``, capped by the slice's event budget.
    """

    @pytest.fixture
    def batched_default(self):
        from repro.core.engine import get_default_backend, set_default_backend

        original = get_default_backend()
        set_default_backend("batched")
        yield
        set_default_backend(original)

    def test_process_default_batched_gives_one_slice_per_job(
        self, collection, batched_default
    ):
        from repro.core.protocol import ProtocolConfig
        from repro.runners.protocol_trials import (
            protocol_dispatch,
            protocol_trial_batch,
        )

        backend, fn, batch_size = protocol_dispatch(
            collection, ProtocolConfig(bandwidth=2), trials=7, jobs=2
        )
        assert (backend, batch_size) == ("batched", 4)
        assert fn.func is protocol_trial_batch

    def test_config_backend_overrides_default(self, collection, batched_default):
        from repro.core.protocol import ProtocolConfig
        from repro.runners.protocol_trials import (
            protocol_dispatch,
            protocol_trial_batch,
        )

        backend, fn, batch_size = protocol_dispatch(
            collection,
            ProtocolConfig(bandwidth=2, backend="vectorized"),
            trials=7,
            jobs=2,
        )
        assert (backend, batch_size) == ("vectorized", 4)
        assert fn.func is protocol_trial_batch

    @pytest.mark.parametrize("name", ["python", "vectorized", "batched"])
    @pytest.mark.parametrize("instrumented", [False, True])
    def test_every_name_runs_lockstep_slices(self, collection, name, instrumented):
        from repro.core.protocol import ProtocolConfig
        from repro.runners.protocol_trials import (
            instrumented_protocol_trial_batch,
            protocol_dispatch,
            protocol_trial_batch,
        )

        config = ProtocolConfig(bandwidth=2, backend=name)
        for trials, jobs, width in [(7, 2, 4), (16, 1, 16), (3, 3, 1), (1, 4, 1)]:
            backend, fn, batch_size = protocol_dispatch(
                collection, config, trials=trials, jobs=jobs,
                instrumented=instrumented,
            )
            assert (backend, batch_size) == (name, width)
            assert fn.func is (
                instrumented_protocol_trial_batch if instrumented
                else protocol_trial_batch
            )
            assert fn.keywords == {"collection": collection, "config": config}

    def test_event_budget_caps_the_slice(self, collection, monkeypatch):
        from repro.core.protocol import ProtocolConfig
        from repro.runners import protocol_trials

        links = int(collection.layout.count.sum())
        config = ProtocolConfig(bandwidth=2)
        monkeypatch.setattr(protocol_trials, "_LOCKSTEP_EVENTS", 3 * links + 1)
        assert protocol_trials.protocol_dispatch(
            collection, config, trials=16
        )[2] == 3
        # A collection past the budget runs one trial per slice.
        monkeypatch.setattr(protocol_trials, "_LOCKSTEP_EVENTS", links - 1)
        assert protocol_trials.protocol_dispatch(
            collection, config, trials=16, jobs=2
        )[2] == 1

    def test_budget_leaves_benchmark_widths(self):
        # The 32x32 mesh's lockstep batch of 16 and an 8-seed sweep
        # shard of the 16x16 mesh fit the budget, so their widths are
        # unchanged; 50 serial trials of a 96x96 collection (593,094
        # links each) run one trial per slice.
        from repro.core.protocol import ProtocolConfig
        from repro.runners.protocol_trials import protocol_dispatch

        config = ProtocolConfig(bandwidth=2)
        for side, trials, width in [(32, 16, 16), (16, 8, 8), (96, 50, 1)]:
            coll = mesh_random_function(side, 2, rng=1)
            assert protocol_dispatch(coll, config, trials=trials)[2] == width


class TestBackendNamesAreAliases:
    """Every name, and any ``jobs``, gives the same repaired results."""

    def test_torus_reroute_repair(self):
        from repro.experiments.workloads import torus_random_function
        from repro.faults import parse_fault_spec

        coll = torus_random_function(6, 2, rng=3)
        kwargs = dict(
            bandwidth=2, trials=5, seed=8, max_rounds=40,
            faults=parse_fault_spec("persistent:rate=0.05"),
            repair="reroute",
        )
        runs = {
            (name, jobs): route_collection_trials(
                coll, jobs=jobs, backend=name, **kwargs
            )
            for name in ("python", "vectorized", "batched")
            for jobs in (1, 2)
        }
        base = runs["python", 1]
        assert any(r.repairs for r in base)
        for key, results in runs.items():
            assert results == base, key
