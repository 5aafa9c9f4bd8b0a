"""Checkpoint journal bytes pinned against committed fixtures.

The files under ``fixtures/checkpoint_bytes/`` were recorded once and
are compared byte for byte: a per-seed ``_double`` batch under
``jobs=1`` and ``jobs=2``, the journal a killed run leaves behind and
the final journal of its resume, and a ``route_collection_trials``
batch on a 4x4 mesh. Any change to how the runner dispatches, slices or
journals trials that alters a single byte of a checkpoint fails here.

The checkpoint context hashes the trial function's module-qualified
name, so the fixtures hold for this module imported under its plain
name (pytest's default import mode). To re-record them::

    PYTHONPATH=src:tests/runners python -c \\
        "import test_checkpoint_bytes as m; m.record()"
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.engine import get_default_backend, set_default_backend
from repro.experiments.workloads import mesh_random_function
from repro.runners import TrialRunner, route_collection_trials, spawn_seeds

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "checkpoint_bytes"

SEEDS = spawn_seeds(11, 8)


def _double(seed):
    return seed * 2


class _Abort(RuntimeError):
    """Raised from a progress callback to simulate a mid-batch kill."""


def _abort_after(n):
    seen = []

    def progress(event):
        seen.append(event)
        if len(seen) >= n:
            raise _Abort(f"killed after {n} trial(s)")

    return progress


def _double_batch(path: pathlib.Path, jobs: int) -> dict[str, bytes]:
    TrialRunner(_double, jobs=jobs, checkpoint=path).run_seeds(SEEDS)
    return {"double.json": path.read_bytes()}


def _double_killed(path: pathlib.Path, jobs: int) -> dict[str, bytes]:
    with pytest.raises(_Abort):
        TrialRunner(
            _double, jobs=jobs, checkpoint=path, progress=_abort_after(3)
        ).run_seeds(SEEDS)
    killed = path.read_bytes()
    assert TrialRunner(_double, jobs=jobs, checkpoint=path).run_seeds(
        SEEDS
    ) == [s * 2 for s in SEEDS]
    return {"double-killed.json": killed, "double.json": path.read_bytes()}


def _protocol(path: pathlib.Path, jobs: int) -> dict[str, bytes]:
    route_collection_trials(
        mesh_random_function(4, 2, rng=7),
        2,
        4,
        worm_length=3,
        seed=9,
        jobs=jobs,
        backend="vectorized",
        checkpoint=path,
    )
    return {"protocol-vectorized.json": path.read_bytes()}


CASES = {
    "double": _double_batch,
    "double-killed": _double_killed,
    "protocol": _protocol,
}


def _produce(case: str, jobs: int, tmp: pathlib.Path) -> dict[str, bytes]:
    original = get_default_backend()
    set_default_backend("python")
    try:
        return CASES[case](tmp / f"{case}-{jobs}.json", jobs)
    finally:
        set_default_backend(original)


def record() -> None:
    """Re-record every fixture from the jobs=1 runs."""
    import tempfile

    FIXTURES.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for name, data in _produce(case, 1, pathlib.Path(tmp)).items():
                (FIXTURES / name).write_bytes(data)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_checkpoint_bytes_match_fixture(case, jobs, tmp_path):
    for name, data in _produce(case, jobs, tmp_path).items():
        assert data == (FIXTURES / name).read_bytes(), name
