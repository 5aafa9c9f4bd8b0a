"""Committed per-round records of streaming runs.

The first spec is the registry's ``flash-crowd`` scenario recast onto the
16x16 mesh at a Poisson rate of 8 worms per round (the surge takes it to
48), the load of the ``stream-mesh16-flash`` benchmark workload. Each
round's ``delay_range`` is sized from the live worms' path congestion and
dilation, so the pinned ``delay_range`` / ``active_before`` / ``acked``
series cover the streaming engine's congestion bookkeeping as worms are
admitted, acked and retired. The series are the same on every backend.

The faulted and expiring runs on the 4x4 mesh pin what the flash-crowd
runs never reach: the registry's ``link-flap-storm`` (a Gilbert-Elliott
link storm with stall backoff and ``patience=64``), and an overloaded
spec whose one-round patience expires worms and whose admission window
rejects some. Each pins the per-round ``delay_range`` /
``active_before`` / ``acked`` / ``expired`` series, the run's
``offered`` / ``rejected`` totals and a digest of its latencies.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/scenarios/test_streaming_fixture.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache

import pytest

from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.engine import StreamingEngine
from repro.scenarios.spec import build_network

#: Seed -> per-round ``delay_range``, ``active_before`` and ``acked``.
EXPECTED = {
    1: {
        "delay_range": [
            14, 15, 12, 15, 13, 7, 13, 10, 13, 12, 8, 12, 12, 12, 12, 12,
            8, 14, 11, 12, 14, 12, 11, 13, 13, 13, 8, 10, 14, 16, 15, 10,
            24, 24, 28, 24, 22, 24, 28, 21, 24, 24, 32, 32, 28, 28, 24, 23,
            16, 12, 13, 8, 14, 7, 13, 12, 12, 14, 12, 14, 14, 15, 16, 12,
            14, 13, 14, 12, 14, 12, 10, 14, 8, 12, 14, 4, 7, 12, 14, 8,
            15, 14, 12, 11, 8, 11, 12, 14, 12, 12, 12, 11, 14, 4, 10, 15,
        ],
        "active_before": [
            10, 12, 8, 12, 9, 3, 9, 5, 9, 7, 4, 7, 8, 8, 7, 8,
            4, 10, 6, 7, 10, 8, 6, 9, 9, 9, 4, 5, 10, 15, 12, 5,
            63, 55, 51, 46, 43, 55, 53, 38, 54, 53, 64, 60, 56, 58, 55, 49,
            15, 7, 9, 4, 10, 3, 9, 7, 6, 10, 8, 10, 10, 12, 14, 7,
            11, 9, 10, 7, 10, 6, 5, 11, 4, 8, 11, 2, 3, 8, 10, 4,
            12, 11, 8, 6, 4, 6, 8, 10, 8, 8, 7, 6, 10, 2, 5, 12,
        ],
        "acked": [
            10, 12, 8, 12, 9, 3, 9, 5, 9, 7, 4, 7, 8, 8, 7, 8,
            4, 10, 6, 7, 10, 8, 6, 9, 9, 9, 4, 5, 8, 15, 11, 5,
            57, 53, 50, 42, 41, 48, 51, 38, 53, 51, 55, 57, 50, 58, 50, 43,
            15, 7, 9, 4, 10, 3, 9, 7, 6, 10, 8, 10, 10, 12, 14, 7,
            11, 9, 10, 7, 10, 5, 5, 11, 4, 8, 11, 2, 3, 8, 10, 2,
            12, 11, 7, 6, 4, 6, 8, 10, 8, 8, 7, 6, 10, 2, 5, 12,
        ],
    },
    2: {
        "delay_range": [
            13, 13, 8, 12, 20, 12, 8, 16, 16, 12, 14, 13, 14, 12, 16, 15,
            14, 13, 12, 12, 12, 12, 10, 12, 13, 7, 10, 15, 12, 14, 10, 12,
            28, 23, 22, 24, 28, 28, 28, 24, 24, 24, 22, 22, 32, 28, 28, 22,
            14, 13, 12, 11, 12, 12, 10, 12, 16, 7, 14, 8, 7, 10, 11, 12,
            11, 15, 10, 4, 8, 16, 14, 12, 14, 12, 10, 10, 10, 12, 12, 14,
            14, 12, 14, 12, 14, 12, 14, 15, 14, 12, 12, 14, 12, 10, 13, 12,
        ],
        "active_before": [
            9, 9, 2, 7, 13, 7, 4, 15, 12, 7, 10, 9, 11, 7, 14, 13,
            10, 9, 7, 8, 8, 8, 5, 7, 9, 3, 5, 13, 7, 10, 5, 7,
            57, 49, 41, 46, 40, 56, 45, 50, 46, 58, 39, 45, 55, 64, 54, 40,
            10, 9, 8, 6, 7, 8, 5, 7, 14, 3, 11, 4, 3, 5, 6, 8,
            6, 13, 5, 2, 4, 12, 10, 7, 11, 7, 5, 5, 5, 7, 7, 10,
            11, 8, 10, 8, 11, 8, 10, 12, 10, 8, 8, 10, 8, 5, 9, 8,
        ],
        "acked": [
            7, 9, 2, 7, 13, 7, 4, 15, 11, 7, 10, 9, 11, 7, 14, 13,
            10, 8, 7, 8, 7, 7, 5, 7, 9, 3, 5, 13, 7, 10, 5, 7,
            54, 47, 36, 42, 35, 52, 44, 47, 42, 57, 37, 40, 48, 61, 50, 39,
            10, 9, 8, 6, 7, 8, 5, 7, 14, 3, 11, 4, 3, 5, 6, 8,
            6, 13, 5, 2, 4, 12, 10, 7, 10, 7, 5, 5, 5, 7, 7, 10,
            10, 8, 10, 8, 11, 6, 10, 12, 10, 8, 8, 10, 8, 5, 9, 8,
        ],
    },
    3: {
        "delay_range": [
            14, 11, 12, 13, 12, 12, 15, 14, 13, 14, 15, 12, 12, 11, 11, 11,
            12, 14, 14, 14, 11, 13, 10, 14, 7, 13, 20, 12, 13, 15, 14, 14,
            24, 24, 24, 20, 28, 24, 24, 24, 40, 22, 24, 23, 28, 23, 24, 28,
            12, 16, 11, 10, 12, 11, 8, 14, 8, 14, 14, 14, 14, 12, 12, 15,
            12, 10, 14, 8, 12, 14, 15, 14, 8, 12, 11, 15, 10, 7, 8, 8,
            12, 12, 10, 12, 8, 11, 12, 10, 16, 12, 14, 10, 13, 14, 12, 14,
        ],
        "active_before": [
            10, 6, 8, 9, 7, 8, 12, 10, 9, 10, 12, 7, 7, 6, 6, 6,
            7, 10, 10, 11, 6, 9, 5, 10, 3, 9, 12, 8, 9, 12, 10, 11,
            50, 49, 56, 32, 51, 45, 43, 52, 63, 40, 54, 48, 46, 52, 56, 50,
            7, 14, 6, 5, 7, 6, 4, 11, 4, 10, 11, 10, 11, 7, 8, 13,
            8, 5, 11, 4, 7, 11, 13, 10, 4, 8, 6, 12, 5, 3, 4, 4,
            8, 8, 5, 7, 4, 6, 7, 5, 11, 7, 10, 5, 9, 10, 7, 10,
        ],
        "acked": [
            10, 6, 7, 9, 7, 8, 12, 8, 9, 10, 12, 7, 7, 6, 6, 6,
            7, 10, 10, 11, 6, 9, 5, 10, 3, 7, 12, 8, 7, 12, 10, 11,
            48, 44, 53, 32, 50, 44, 41, 45, 58, 38, 53, 47, 43, 49, 54, 48,
            6, 12, 6, 5, 7, 6, 4, 11, 4, 10, 11, 10, 11, 7, 7, 13,
            8, 4, 10, 4, 7, 8, 13, 10, 4, 8, 6, 12, 5, 3, 4, 4,
            8, 8, 5, 7, 4, 6, 7, 5, 9, 7, 10, 5, 7, 9, 7, 10,
        ],
    },
}

SEEDS = tuple(EXPECTED)


@lru_cache(maxsize=None)
def _spec():
    return dataclasses.replace(
        get_scenario("flash-crowd"),
        name="flash-crowd-mesh16",
        workload={"kind": "mesh", "side": 16, "d": 2},
        arrival={"kind": "poisson", "rate": 8.0},
    )


def _run(spec, seed: int, backend: str = "python"):
    config = spec.to_config()
    config = dataclasses.replace(
        config, protocol=dataclasses.replace(config.protocol, backend=backend)
    )
    engine = StreamingEngine(config, network=build_network(spec.workload))
    return engine.run(seed)


def _series(result) -> dict[str, list[int]]:
    return {
        key: [getattr(record, key) for record in result.records]
        for key in ("delay_range", "active_before", "acked")
    }


@pytest.mark.parametrize("backend", ["python", "vectorized"])
@pytest.mark.parametrize("seed", SEEDS)
def test_streaming_round_series(seed, backend):
    result = _run(_spec(), seed, backend)
    assert _series(result) == EXPECTED[seed]


#: An overloaded 4x4 mesh whose one-round patience expires worms.
IMPATIENT = ScenarioSpec(
    name="impatient",
    workload={"kind": "mesh", "side": 4, "d": 2},
    bandwidth=2,
    rounds=48,
    max_active=12,
    patience=1,
    arrival={"kind": "poisson", "rate": 8.0},
)

#: (scenario, seed) -> per-round series, run totals and latency digest.
PINNED = {
    ("link-flap-storm", 1): {
        "delay_range": [
            10, 7, 8, 8, 4, 7, 8, 4, 4, 4, 4, 4, 8, 11, 8, 4,
            4, 4, 4, 7, 10, 4, 4, 8, 1, 1, 4, 7, 4, 8, 7, 8,
            10, 10, 12, 11, 13, 16, 16, 12, 12, 14, 16, 16, 20, 20, 20, 20,
            20, 8, 4, 4, 8, 4, 10, 4, 10, 4, 7, 4, 8, 4, 10, 7,
            1, 4, 1, 4, 4, 4, 4, 4, 4, 1, 4, 4, 1, 8, 12, 1,
            4, 4, 7, 8, 4, 8, 4, 11, 4, 4, 4, 4, 4, 1, 10, 4,
        ],
        "active_before": [
            5, 3, 4, 4, 2, 3, 4, 2, 1, 1, 1, 2, 3, 6, 3, 1,
            2, 1, 1, 3, 5, 2, 1, 4, 0, 0, 1, 3, 2, 4, 3, 3,
            5, 5, 7, 6, 9, 10, 10, 8, 7, 10, 10, 12, 17, 18, 18, 20,
            18, 4, 2, 2, 4, 2, 5, 1, 5, 2, 3, 2, 4, 2, 5, 3,
            0, 2, 0, 1, 2, 2, 2, 1, 2, 0, 1, 2, 0, 3, 5, 0,
            2, 2, 3, 3, 1, 4, 2, 6, 1, 1, 1, 1, 2, 0, 5, 1,
        ],
        "acked": [
            5, 3, 4, 3, 2, 3, 4, 2, 1, 1, 1, 2, 3, 6, 3, 1,
            2, 1, 1, 3, 5, 2, 1, 4, 0, 0, 0, 2, 1, 3, 1, 1,
            1, 0, 3, 0, 1, 1, 3, 1, 0, 2, 0, 0, 0, 3, 1, 3,
            16, 4, 2, 2, 4, 2, 5, 1, 5, 2, 3, 2, 4, 2, 5, 3,
            0, 2, 0, 1, 2, 2, 2, 1, 2, 0, 1, 2, 0, 2, 5, 0,
            2, 2, 3, 3, 1, 4, 2, 6, 1, 1, 1, 1, 2, 0, 5, 1,
        ],
        "expired": [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
        "offered": 209,
        "rejected": 0,
        "latencies": "857aa4691826aca5",
    },
    ("link-flap-storm", 2): {
        "delay_range": [
            1, 1, 4, 4, 4, 4, 7, 7, 4, 7, 1, 4, 1, 4, 8, 8,
            4, 4, 1, 1, 4, 4, 4, 12, 4, 4, 7, 8, 12, 12, 12, 11,
            14, 14, 13, 13, 12, 12, 12, 14, 14, 14, 15, 14, 14, 14, 13, 13,
            13, 4, 12, 7, 12, 8, 8, 8, 10, 1, 4, 4, 8, 4, 4, 8,
            8, 7, 4, 4, 4, 1, 7, 10, 8, 4, 4, 4, 4, 4, 8, 10,
            12, 4, 11, 8, 4, 1, 4, 4, 4, 4, 4, 4, 7, 8, 4, 7,
        ],
        "active_before": [
            0, 0, 2, 1, 1, 2, 3, 3, 1, 3, 0, 2, 0, 2, 4, 4,
            2, 1, 0, 0, 1, 1, 1, 6, 1, 2, 3, 4, 8, 8, 8, 6,
            11, 10, 9, 7, 7, 8, 8, 11, 10, 10, 12, 11, 10, 11, 9, 9,
            9, 2, 7, 3, 7, 3, 3, 3, 5, 0, 2, 1, 4, 1, 2, 4,
            1, 3, 2, 1, 2, 0, 3, 5, 4, 2, 1, 1, 1, 2, 2, 5,
            5, 2, 6, 4, 1, 0, 2, 1, 1, 2, 1, 2, 3, 3, 1, 3,
        ],
        "acked": [
            0, 0, 2, 1, 1, 2, 3, 3, 1, 3, 0, 2, 0, 2, 4, 3,
            2, 1, 0, 0, 1, 1, 1, 6, 0, 0, 1, 0, 0, 0, 3, 0,
            4, 3, 2, 3, 0, 2, 1, 1, 0, 1, 2, 2, 0, 3, 2, 1,
            9, 2, 7, 3, 5, 3, 1, 3, 5, 0, 2, 1, 4, 1, 2, 3,
            1, 3, 2, 1, 2, 0, 3, 5, 4, 2, 1, 1, 1, 2, 1, 5,
            4, 2, 6, 4, 1, 0, 2, 1, 1, 2, 1, 2, 3, 3, 1, 3,
        ],
        "expired": [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
        "offered": 191,
        "rejected": 0,
        "latencies": "902a574986815aa4",
    },
    ("impatient", 1): {
        "delay_range": [
            27, 29, 24, 29, 24, 8, 24, 24, 26, 24, 16, 23, 24, 26, 21, 24,
            16, 32, 21, 23, 32, 24, 21, 24, 24, 32, 24, 40, 40, 32, 19, 24,
            40, 28, 32, 27, 29, 13, 23, 24, 24, 32, 21, 27, 27, 27, 16, 27,
        ],
        "active_before": [
            10, 12, 8, 12, 8, 2, 8, 7, 9, 7, 4, 7, 7, 9, 6, 8,
            4, 10, 6, 7, 10, 8, 6, 8, 8, 12, 7, 11, 12, 12, 5, 7,
            12, 11, 8, 10, 12, 3, 7, 8, 7, 12, 6, 10, 10, 10, 4, 10,
        ],
        "acked": [
            10, 12, 8, 12, 7, 2, 8, 5, 8, 5, 4, 7, 6, 9, 5, 8,
            4, 7, 6, 7, 10, 8, 6, 8, 8, 11, 7, 11, 12, 12, 5, 6,
            12, 11, 7, 10, 12, 3, 7, 7, 7, 12, 6, 10, 10, 6, 4, 8,
        ],
        "expired": [
            0, 0, 0, 0, 0, 1, 0, 0, 2, 1, 2, 0, 0, 1, 0, 1,
            0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
            1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 4, 0,
        ],
        "offered": 401,
        "rejected": 4,
        "latencies": "18c1937555772e5c",
    },
}

PINNED_SPECS = {
    "link-flap-storm": get_scenario("link-flap-storm"),
    "impatient": IMPATIENT,
}


def _pinned(result) -> dict:
    out = {
        key: [getattr(record, key) for record in result.records]
        for key in ("delay_range", "active_before", "acked", "expired")
    }
    out["offered"] = result.offered
    out["rejected"] = result.rejected
    text = ",".join(map(str, result.latencies)).encode()
    out["latencies"] = hashlib.sha256(text).hexdigest()[:16]
    return out


@pytest.mark.parametrize("backend", ["python", "vectorized"])
@pytest.mark.parametrize("case", sorted(PINNED))
def test_faulted_and_expiring_runs(case, backend):
    name, seed = case
    assert _pinned(_run(PINNED_SPECS[name], seed, backend)) == PINNED[case]


def test_pinned_runs_expire_and_reject():
    """The pinned cases reach the paths they are there to cover."""
    assert any(sum(c["expired"]) for c in PINNED.values())
    assert any(c["rejected"] for c in PINNED.values())


def _print_series(values, indent):
    for start in range(0, len(values), 16):
        row = ", ".join(str(v) for v in values[start:start + 16])
        print(f"{indent}{row},")


if __name__ == "__main__":  # pragma: no cover - fixture recording helper
    for seed in (1, 2, 3):
        print(f"    {seed}: {{")
        for key, values in _series(_run(_spec(), seed)).items():
            print(f'        "{key}": [')
            _print_series(values, " " * 12)
            print("        ],")
        print("    },")
    for name, seed in (("link-flap-storm", 1), ("link-flap-storm", 2),
                       ("impatient", 1)):
        print(f'    ("{name}", {seed}): {{')
        for key, value in _pinned(_run(PINNED_SPECS[name], seed)).items():
            if isinstance(value, list):
                print(f'        "{key}": [')
                _print_series(value, " " * 12)
                print("        ],")
            else:
                print(f'        "{key}": {json.dumps(value)},')
        print("    },")
