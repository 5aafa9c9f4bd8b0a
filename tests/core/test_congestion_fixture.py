"""Committed per-round congestion of two runs over larger collections.

The protocol re-measures the surviving worms' path congestion ``C̃_t``
(Lemma 2.4's quantity) every round and sizes ``Δ_t`` from it, so any
wrong count moves every draw after it. These runs pin that measure on
collections larger than the small fixtures elsewhere:

* ``mesh48``: one random-function trial on a 48x48 mesh (2,304 paths);
* ``torus18-reroute``: a 3-trial :func:`~repro.core.protocol.run_protocol_batch`
  on an 18x18 torus (324 paths) under ``persistent:rate=0.01`` with
  ``repair="reroute"``, so the oracle is read on chained repaired
  collections while other trials still share the pristine one.

Each case pins the whole result's digest (as the repair fixture takes
it) and every round's ``active_congestion``.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/core/test_congestion_fixture.py
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.protocol import (
    ProtocolConfig,
    TrialAndFailureProtocol,
    run_protocol_batch,
)
from repro.experiments.workloads import mesh_random_function, torus_random_function
from repro.faults import parse_fault_spec
from tests.faults.test_repair_fixture import result_digest

#: Case -> per-trial (digest, per-round active_congestion).
EXPECTED = {
    "mesh48": [
        ("921d2793403b47b3", (55, 13, 3)),
    ],
    "torus18-reroute": [
        ("69d2df1c914356cb", (15, 10, 10, 10, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                              1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
        ("e788fd49c89cf901", (15, 5, 4, 7, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
        ("3b7039a228152145", (15, 7, 6, 5, 4, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1,
                              1, 1, 1)),
    ],
}


@lru_cache(maxsize=None)
def _results(case: str):
    if case == "mesh48":
        collection = mesh_random_function(48, 2, rng=3)
        config = ProtocolConfig(bandwidth=2, worm_length=4)
        return [TrialAndFailureProtocol(collection, config).run(3)]
    collection = torus_random_function(18, 2, rng=5)
    config = ProtocolConfig(
        bandwidth=2,
        worm_length=4,
        max_rounds=64,
        faults=parse_fault_spec("persistent:rate=0.01"),
        repair="reroute",
    )
    return run_protocol_batch(collection, config, [5, 6, 7])


def _observed(case: str):
    return [
        (result_digest(r), tuple(rec.active_congestion for rec in r.records))
        for r in _results(case)
    ]


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_congestion_fixture(case):
    assert _observed(case) == EXPECTED[case]


def test_reroute_case_repairs_in_several_rounds():
    results = _results("torus18-reroute")
    assert all(r.repairs for r in results)
    assert any(len({e.round for e in r.repairs}) >= 2 for r in results)


if __name__ == "__main__":  # pragma: no cover - fixture recording helper
    print("EXPECTED = {")
    for case in ("mesh48", "torus18-reroute"):
        print(f"    {case!r}: [")
        for digest, congestion in _observed(case):
            print(f"        ({digest!r}, {congestion!r}),")
        print("    ],")
    print("}")
