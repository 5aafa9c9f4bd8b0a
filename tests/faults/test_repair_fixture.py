"""Committed digests of reroute-repair runs on the 12x12 torus.

Every seed below repairs in at least two rounds, so the pinned results
cover chained repairs: each reroute patches the live collection's congestion
oracle and rebuilds the engines mid-run. The digests cover the whole
:class:`~repro.core.records.ProtocolResult` (round records, repairs,
diagnosis, per-round collision logs, delivery rounds) and are the same
on every backend; the batched backend runs the seeds in one lockstep
batch, which also pins the per-collection oracle grouping of
:func:`~repro.core.protocol.run_protocol_batch`.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/faults/test_repair_fixture.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache

import pytest

from repro.core.protocol import (
    ProtocolConfig,
    TrialAndFailureProtocol,
    run_protocol_batch,
)
from repro.experiments.workloads import torus_random_function
from repro.faults import parse_fault_spec
from repro.paths.collection import PathCollection

#: Input seed -> digest of the ProtocolResult of trial seed ``seed``.
EXPECTED = {
    8: "77ab2ae529f6ee34",  # 12 rerouted worms over 5 repair rounds
    15: "2f0d69046ac40f42",  # 15 rerouted worms over 6 repair rounds
    52: "2f872fa54a8f20d6",  # 12 rerouted worms over 6 repair rounds
}

SEEDS = tuple(EXPECTED)


def result_digest(result) -> str:
    """SHA-256 (first 16 hex digits) of a canonical form of ``result``."""
    payload = {
        "completed": result.completed,
        "rounds": result.rounds,
        "total_time": result.total_time,
        "observed_time": result.observed_time,
        "records": [dataclasses.astuple(r) for r in result.records],
        "delivered_round": sorted(result.delivered_round.items()),
        "collisions_per_round": [
            [repr(event) for event in events]
            for events in result.collisions_per_round
        ],
        "duplicate_deliveries": result.duplicate_deliveries,
        "diagnosis": sorted(result.diagnosis.items()),
        "stall_reason": result.stall_reason,
        "repairs": [dataclasses.astuple(r) for r in result.repairs],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _collection(seed: int):
    return torus_random_function(12, 2, rng=seed)


def _config(backend: str) -> ProtocolConfig:
    return ProtocolConfig(
        bandwidth=2,
        worm_length=4,
        max_rounds=64,
        faults=parse_fault_spec("persistent:rate=0.01"),
        repair="reroute",
        collect_collisions=True,
        backend=backend,
    )


def _run(seed: int, backend: str, trial_seed: int | None = None):
    protocol = TrialAndFailureProtocol(_collection(seed), _config(backend))
    return protocol.run(seed if trial_seed is None else trial_seed)


@pytest.mark.parametrize("backend", ["python", "vectorized"])
@pytest.mark.parametrize("seed", SEEDS)
def test_serial_repair_digest(seed, backend):
    result = _run(seed, backend)
    assert len({event.round for event in result.repairs}) >= 2
    assert result_digest(result) == EXPECTED[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_repair_digest(seed):
    # Three trials of one collection in lockstep: they repair at
    # different rounds, so the oracle sees several live collections.
    results = run_protocol_batch(
        _collection(seed), _config("batched"), [seed, seed + 1, seed + 2]
    )
    assert result_digest(results[0]) == EXPECTED[seed]
    for offset, result in enumerate(results[1:], start=1):
        assert result == _run(seed, "vectorized", trial_seed=seed + offset)


@pytest.mark.parametrize("backend", ["python", "batched"])
def test_repairs_past_the_patch_gate(backend, monkeypatch):
    # Every repaired collection, whatever its size, carries a patched
    # copy of its parent's sharing bitsets, and the results are the
    # pinned ones.
    children = []
    rerouted = PathCollection.rerouted

    def spy(self, changes):
        children.append(rerouted(self, changes))
        return children[-1]

    monkeypatch.setattr(PathCollection, "rerouted", spy)
    seed = SEEDS[0]
    if backend == "python":
        results = [_run(seed, backend)]
    else:
        results = run_protocol_batch(
            _collection(seed), _config(backend), [seed, seed + 1]
        )
    assert result_digest(results[0]) == EXPECTED[seed]
    assert len(children) >= 2
    assert all("_share_bits" in child.__dict__ for child in children)


if __name__ == "__main__":  # pragma: no cover - fixture recording helper
    for seed in SEEDS:
        result = _run(seed, "python")
        rounds = len({event.round for event in result.repairs})
        print(f"    {seed}: {result_digest(result)!r},  # "
              f"{len(result.repairs)} rerouted worms over {rounds} repair rounds")
