"""BrokenProcessPool recovery: rebuild the pool, resubmit, bounded cap."""

import os
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

import repro.runners.trial as trial_module
from repro.errors import TrialError
from repro.observability import MetricsRegistry
from repro.runners import TrialRunner, spawn_seeds


def _crash_once(seed, marker):
    """Hard-kill the first worker to claim the marker file, then behave.

    ``os._exit`` bypasses every Python-level except clause, so the parent
    sees a BrokenProcessPool -- the same signature as an OOM kill or a
    segfaulting extension -- rather than a catchable trial exception.
    """
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        return seed * 2
    os._exit(1)


def _always_crashes(seed):
    os._exit(1)


class TestPoolRebuild:
    def test_one_crash_is_absorbed(self, tmp_path):
        marker = str(tmp_path / "crashed.marker")
        seeds = spawn_seeds(3, 5)
        reg = MetricsRegistry()
        runner = TrialRunner(
            partial(_crash_once, marker=marker),
            jobs=2,
            retries=0,  # rebuilds must not consume per-trial retries
            metrics=reg,
        )
        assert runner.run_seeds(seeds) == [s * 2 for s in seeds]
        assert reg.value("runner_pool_rebuilds_total") >= 1

    def test_rebuild_logs_resubmission(self, tmp_path, caplog):
        marker = str(tmp_path / "crashed.marker")
        with caplog.at_level("WARNING", logger="repro.runners.trial"):
            TrialRunner(
                partial(_crash_once, marker=marker), jobs=2
            ).run_seeds(spawn_seeds(1, 4))
        assert any(
            "worker pool broke" in r.getMessage() for r in caplog.records
        )

    def test_persistent_breakage_hits_cap(self):
        reg = MetricsRegistry()
        runner = TrialRunner(_always_crashes, jobs=2, metrics=reg)
        with pytest.raises(TrialError, match="pool broke"):
            runner.run_seeds(spawn_seeds(0, 4))
        # The cap is separate from retries: 3 rebuilds + the final one.
        assert reg.value("runner_pool_rebuilds_total") == 4

    def test_rebuild_preserves_checkpoint_flow(self, tmp_path):
        """A crash mid-batch still journals every settled trial."""
        marker = str(tmp_path / "crashed.marker")
        ckpt = tmp_path / "batch.json"
        seeds = spawn_seeds(8, 5)
        out = TrialRunner(
            partial(_crash_once, marker=marker),
            jobs=2,
            checkpoint=ckpt,
        ).run_seeds(seeds)
        assert out == [s * 2 for s in seeds]
        # A rerun resumes entirely from the journal (fn would crash no
        # worker this time anyway, but nothing should even be submitted).
        reg = MetricsRegistry()
        again = TrialRunner(
            partial(_crash_once, marker=marker),
            jobs=2,
            checkpoint=ckpt,
            metrics=reg,
        ).run_seeds(seeds)
        assert again == out
        assert reg.value("runner_checkpoint_loaded_total") == len(seeds)


class _RefusingPool:
    """A process pool that is already broken when work is submitted.

    The real race: a worker dies while later trials are still being
    submitted, and the pool refuses the rest with BrokenProcessPool.
    """

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args):
        raise BrokenProcessPool("a worker died during submission")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBreakDuringSubmission:
    """A pool broken under the submit loop counts as a rebuild, not a crash."""

    @pytest.fixture(autouse=True)
    def _refusing_pool(self, monkeypatch):
        monkeypatch.setattr(trial_module, "ProcessPoolExecutor", _RefusingPool)

    @pytest.mark.parametrize("batch_size", [None, 2], ids=["per-seed", "batch"])
    def test_pool_hits_cap(self, batch_size):
        reg = MetricsRegistry()
        runner = TrialRunner(
            _always_crashes, jobs=2, batch_size=batch_size, metrics=reg
        )
        with pytest.raises(TrialError, match="pool broke"):
            runner.run_seeds(spawn_seeds(0, 4))
        assert reg.value("runner_pool_rebuilds_total") == 4
