"""Unit tests for the TrialRunner execution substrate."""

import os
import time
from functools import partial

import pytest

from repro.errors import TrialError
from repro.runners import TrialProgress, TrialRunner, spawn_seeds

_FAIL_UNTIL = {}


def _double(seed):
    """Picklable trial: a pure function of the seed."""
    return seed * 2


def _sleepy(seed):
    """Picklable trial that outlives any reasonable per-trial timeout."""
    time.sleep(2.0)
    return seed


def _always_raises(seed):
    raise RuntimeError(f"boom for {seed}")


def _flaky(seed):
    """Fails once per seed, then succeeds (in-process state: serial only)."""
    if _FAIL_UNTIL.get(seed, 0) < 1:
        _FAIL_UNTIL[seed] = _FAIL_UNTIL.get(seed, 0) + 1
        raise RuntimeError("transient")
    return seed


def _fail_once(seed, marker):
    """Raise in the first call to claim the marker file, then behave.

    The marker lives on disk, so the one failure is shared by every
    worker process: the pooled counterpart of :func:`_flaky`.
    """
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        return seed * 2
    raise RuntimeError("transient")


def _each(fn, seeds):
    """A batch trial function: the one-seed ``fn`` over a seed slice."""
    return [fn(seed) for seed in seeds]


class _PerSeed:
    """Builds a class's runners over one-seed trial functions.

    A ``...Slices`` subclass reruns every test of the class with the
    same trial function dispatched as 2-seed units.
    """

    batch_size = None

    @property
    def width(self) -> int:
        return self.batch_size or 1

    def runner(self, fn, **kwargs) -> TrialRunner:
        if self.batch_size is None:
            return TrialRunner(fn, **kwargs)
        return TrialRunner(
            partial(_each, fn), batch_size=self.batch_size, **kwargs
        )


class _Slices(_PerSeed):
    batch_size = 2


class TestSpawnSeeds:
    def test_prefix_stable(self):
        assert spawn_seeds(7, 3) == spawn_seeds(7, 10)[:3]

    def test_distinct_roots_distinct_streams(self):
        assert spawn_seeds(0, 4) != spawn_seeds(1, 4)


class TestValidation:
    def test_bad_jobs(self):
        with pytest.raises(TrialError):
            TrialRunner(_double, jobs=0)

    def test_bad_timeout(self):
        with pytest.raises(TrialError):
            TrialRunner(_double, timeout=0)

    def test_bad_retries(self):
        with pytest.raises(TrialError):
            TrialRunner(_double, retries=-1)

    def test_bad_trials_is_also_value_error(self):
        with pytest.raises(ValueError):
            TrialRunner(_double).run(0)

    def test_empty_seed_list(self):
        assert TrialRunner(_double).run_seeds([]) == []


class TestDeterminism:
    def test_pool_matches_serial(self):
        serial = TrialRunner(_double, jobs=1).run(6, seed=3)
        pooled = TrialRunner(_double, jobs=3).run(6, seed=3)
        assert serial == pooled == [s * 2 for s in spawn_seeds(3, 6)]

    def test_results_in_seed_order(self):
        seeds = [9, 1, 5, 5, 2]
        assert TrialRunner(_double, jobs=2).run_seeds(seeds) == [
            s * 2 for s in seeds
        ]


class TestFallbacks:
    def test_unpicklable_fn_falls_back_to_serial(self, caplog):
        captured = []
        fn = lambda s: captured.append(s) or s  # noqa: E731 - deliberately unpicklable
        with caplog.at_level("WARNING", logger="repro.runners.trial"):
            out = TrialRunner(fn, jobs=4).run(3, seed=0)
        assert out == spawn_seeds(0, 3)
        assert captured == spawn_seeds(0, 3)  # ran in this process
        record = next(
            r for r in caplog.records if "not picklable" in r.getMessage()
        )
        # Structured context: how many trials, and the jobs requested.
        assert "3 trial(s)" in record.getMessage()
        assert "jobs=4" in record.getMessage()

    def test_fallback_counted_in_metrics(self):
        from repro.observability import MetricsRegistry

        reg = MetricsRegistry()
        fn = lambda s: s  # noqa: E731 - deliberately unpicklable
        TrialRunner(fn, jobs=4, metrics=reg).run(2, seed=0)
        assert reg.value("runner_serial_fallbacks_total") == 1
        assert reg.value("runner_trials_total", mode="serial") == 2


class TestFailureHandling(_PerSeed):
    def test_serial_retry_then_success(self):
        _FAIL_UNTIL.clear()
        # Each seed of a unit fails once: one retry per seed of the unit.
        out = self.runner(_flaky, retries=self.width).run(3, seed=5)
        assert out == spawn_seeds(5, 3)

    def test_serial_exhausted_retries_raise(self):
        with pytest.raises(TrialError, match="failed after 2 attempt"):
            self.runner(_always_raises, retries=1).run(2, seed=0)

    def test_pool_exception_raises_trial_error(self):
        with pytest.raises(TrialError, match="failed after 1 attempt"):
            self.runner(_always_raises, jobs=2).run(2 * self.width, seed=0)

    def test_pool_timeout_raises_trial_error(self):
        runner = self.runner(_sleepy, jobs=2, timeout=0.2)
        with pytest.raises(TrialError, match="timed out"):
            runner.run(2 * self.width, seed=0)

    def test_pool_retry_then_success(self, tmp_path):
        from repro.observability import MetricsRegistry

        reg = MetricsRegistry()
        seeds = spawn_seeds(6, 2 * self.width)
        runner = self.runner(
            partial(_fail_once, marker=str(tmp_path / "failed.marker")),
            jobs=2,
            retries=1,
            metrics=reg,
        )
        assert runner.run_seeds(seeds) == [s * 2 for s in seeds]
        assert reg.value("runner_retries_total", mode="pool") == 1
        assert reg.value("runner_trials_total", mode="pool") == len(seeds)

    def test_single_trial_failure_names_trial_and_seed(self):
        seed = spawn_seeds(0, 1)[0]
        with pytest.raises(
            TrialError, match=rf"^trial 0 \(seed {seed}\) failed after 1"
        ):
            self.runner(_always_raises).run(1, seed=0)


class TestFailureHandlingSlices(_Slices, TestFailureHandling):
    pass


class TestProgress:
    def test_progress_stream(self):
        events: list[TrialProgress] = []
        out = TrialRunner(_double, progress=events.append).run(3, seed=1)
        assert len(out) == 3
        assert [e.index for e in events] == [0, 1, 2]
        assert [e.done for e in events] == [1, 2, 3]
        assert all(e.total == 3 and e.error is None for e in events)
        assert events[0].seed == spawn_seeds(1, 3)[0]

    def test_progress_reports_final_failure(self):
        events: list[TrialProgress] = []
        with pytest.raises(TrialError):
            TrialRunner(_always_raises, progress=events.append).run(1, seed=0)
        assert events and events[-1].error is not None


class TestPoolRebuildCap:
    def test_negative_cap_rejected(self):
        with pytest.raises(TrialError, match="pool_rebuilds"):
            TrialRunner(_double, pool_rebuilds=-1)

    def test_cap_is_recorded(self):
        assert TrialRunner(_double).pool_rebuilds == 3
        assert TrialRunner(_double, pool_rebuilds=0).pool_rebuilds == 0


class TestSerialTimeoutWarning(_PerSeed):
    def test_serial_timeout_warns_and_counts(self, caplog):
        from repro.observability import MetricsRegistry

        reg = MetricsRegistry()
        with caplog.at_level("WARNING", logger="repro.runners.trial"):
            out = self.runner(
                _double, timeout=5.0, metrics=reg
            ).run_seeds([1, 2])
        assert out == [2, 4]
        assert any(
            "cannot be" in r.getMessage() and "enforced" in r.getMessage()
            for r in caplog.records
        )
        assert reg.value("runner_timeout_unenforced_total") == 1

    def test_no_timeout_no_warning(self, caplog):
        from repro.observability import MetricsRegistry

        reg = MetricsRegistry()
        with caplog.at_level("WARNING", logger="repro.runners.trial"):
            self.runner(_double, metrics=reg).run_seeds([1, 2])
        assert not [
            r for r in caplog.records if "enforced" in r.getMessage()
        ]
        assert not reg.value("runner_timeout_unenforced_total")


class TestSerialTimeoutWarningSlices(_Slices, TestSerialTimeoutWarning):
    pass
