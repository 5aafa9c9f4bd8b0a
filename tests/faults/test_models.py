"""Fault models: seed determinism, legacy equivalence, spec parsing."""

import json
import pickle

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.errors import FaultError, ProtocolError
from repro.experiments.workloads import mesh_random_function
from repro.faults import (
    AckLoss,
    FaultModel,
    GilbertElliott,
    NodeFailures,
    NoFaults,
    PersistentLinkFailures,
    ScriptedFaults,
    TransientLinkFaults,
    parse_fault_spec,
)

ALL_MODELS = [
    NoFaults(),
    TransientLinkFaults(0.05),
    GilbertElliott(0.1, 0.4),
    PersistentLinkFailures(0.02),
    NodeFailures(0.02),
    AckLoss(0.3),
    ScriptedFaults({2: [(("a",), ("b",))]}, persistent=True),
]


@pytest.fixture(scope="module")
def collection():
    return mesh_random_function(4, 2, rng=7)


def _run(collection, seed=123, **cfg_kwargs):
    cfg = ProtocolConfig(
        bandwidth=2, worm_length=3, max_rounds=150, **cfg_kwargs
    )
    return TrialAndFailureProtocol(collection, cfg).run(
        np.random.default_rng(seed)
    )


class TestSeedDeterminism:
    @pytest.mark.parametrize(
        "model", ALL_MODELS, ids=lambda m: type(m).__name__
    )
    def test_same_seed_same_result(self, collection, model):
        kwargs = {"faults": model}
        if isinstance(model, AckLoss):
            kwargs["ack_mode"] = "simulated"
        assert _run(collection, **kwargs) == _run(collection, **kwargs)

    @pytest.mark.parametrize(
        "model", ALL_MODELS, ids=lambda m: type(m).__name__
    )
    def test_models_are_picklable(self, model):
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model

    def test_dead_links_streams_identical(self, collection):
        """The per-round dead set itself is a pure function of the seed."""
        links = collection.links
        for model in ALL_MODELS:
            seqs = []
            for _ in range(2):
                rng = np.random.default_rng(99)
                run = model.start(links, rng)
                seqs.append(
                    [run.dead_links(t, np.random.default_rng(t)) for t in
                     range(1, 8)]
                )
            assert seqs[0] == seqs[1], type(model).__name__


class TestLegacyEquivalence:
    def test_rate_zero_is_no_fault_run(self, collection):
        plain = _run(collection)
        assert plain == _run(collection, faults=TransientLinkFaults(0.0))
        assert plain == _run(collection, faults=NoFaults())


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: TransientLinkFaults(-0.1),
            lambda: TransientLinkFaults(1.0),
            lambda: GilbertElliott(p01=1.5),
            lambda: GilbertElliott(p10=-1),
            lambda: PersistentLinkFailures(2.0),
            lambda: NodeFailures(-0.5),
            lambda: AckLoss(1.0),
        ],
    )
    def test_probabilities_rejected(self, build):
        with pytest.raises(FaultError):
            build()

    def test_scripted_rounds_one_based(self):
        with pytest.raises(FaultError, match="1-based"):
            ScriptedFaults({0: [("a", "b")]})

    def test_config_rejects_non_model(self):
        with pytest.raises(ProtocolError, match="FaultModel"):
            ProtocolConfig(bandwidth=2, faults="transient")


class TestScripted:
    def test_json_round_trip_deep_freezes_nodes(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(
            json.dumps(
                {
                    "persistent": True,
                    "schedule": {"2": [[[0, 0], [0, 1]]]},
                }
            )
        )
        model = ScriptedFaults.from_json(path)
        assert model.persistent
        assert model.to_schedule() == {2: [((0, 0), (0, 1))]}

    def test_persistent_accumulates(self):
        model = ScriptedFaults(
            {1: [("a", "b")], 3: [("b", "c")]}, persistent=True
        )
        run = model.start([("a", "b"), ("b", "c")], np.random.default_rng(0))
        assert run.dead_links(1, None) == [("a", "b")]
        assert run.dead_links(2, None) == [("a", "b")]
        assert set(run.dead_links(3, None)) == {("a", "b"), ("b", "c")}

    def test_transient_schedule_forgets(self):
        model = ScriptedFaults({1: [("a", "b")]})
        run = model.start([("a", "b")], np.random.default_rng(0))
        assert run.dead_links(1, None) == [("a", "b")]
        assert not run.dead_links(2, None)


class TestParseFaultSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("none", NoFaults()),
            ("transient:rate=0.05", TransientLinkFaults(0.05)),
            ("gilbert:p01=0.05,p10=0.5", GilbertElliott(0.05, 0.5)),
            ("persistent:rate=0.01", PersistentLinkFailures(0.01)),
            ("node:rate=0.01", NodeFailures(0.01)),
            ("ackloss:p=0.1", AckLoss(0.1)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_fault_spec(spec) == expected

    def test_scripted_spec(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"3": [["a", "b"]]}')
        model = parse_fault_spec(f"scripted:path={path},persistent=1")
        assert isinstance(model, ScriptedFaults)
        assert model.persistent

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",
            "transient:rte=0.1",
            "gilbert:p01=abc",
            "none:rate=0.1",
            "scripted",
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(FaultError):
            parse_fault_spec(spec)

    def test_every_model_is_a_fault_model(self):
        for model in ALL_MODELS:
            assert isinstance(model, FaultModel)


class TestPersistentDeadList:
    """The persistent model's cached dead-link list, round by round."""

    @pytest.mark.parametrize("rate", [0.005, 0.05, 0.3])
    @pytest.mark.parametrize("seed", range(4))
    def test_cached_list_equals_a_fresh_walk(self, collection, rate, seed):
        run = PersistentLinkFailures(rate).start(
            collection.links, np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed + 100)
        steps = np.random.default_rng(seed).integers(1, 3, size=60)
        t = 0
        for step in steps.tolist():
            t += step  # some rounds catch up two Markov steps at once
            got = run.dead_links(t, rng)
            fresh = [lk for lk, dead in zip(run.links, run._dead) if dead]
            assert got == (fresh or None), t
            if got:
                got.clear()  # the caller's copy: the cache stays intact
        assert run._dead.any()
