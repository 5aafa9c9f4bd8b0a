"""Crash-safe checkpointing: kill/resume round-trips, fingerprint guard."""

import json

import pytest

from repro.core.protocol import ProtocolConfig
from repro.errors import TrialError
from repro.experiments.workloads import mesh_random_function
from repro.observability import MetricsRegistry
from repro.runners import TrialRunner, route_collection_trials, spawn_seeds
from repro.runners.protocol_trials import protocol_trial


def _double(seed):
    return seed * 2


class _Abort(RuntimeError):
    """Raised from a progress callback to simulate a mid-batch kill."""


def _abort_after(n):
    events = []

    def progress(event):
        events.append(event)
        if len(events) >= n:
            raise _Abort(f"killed after {n} trial(s)")

    return progress


class TestSerialResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        seeds = spawn_seeds(7, 8)
        fresh = TrialRunner(_double).run_seeds(seeds)

        with pytest.raises(_Abort):
            TrialRunner(
                _double, checkpoint=ckpt, progress=_abort_after(4)
            ).run_seeds(seeds)
        assert ckpt.exists()

        reg = MetricsRegistry()
        resumed = TrialRunner(_double, checkpoint=ckpt, metrics=reg)
        assert resumed.run_seeds(seeds) == fresh
        # Exactly the 4 survivors were loaded, 4 trials actually ran.
        assert reg.value("runner_checkpoint_loaded_total") == 4
        assert reg.value("runner_trials_total", mode="serial") == 4

    def test_completed_checkpoint_runs_nothing(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        seeds = spawn_seeds(3, 4)
        TrialRunner(_double, checkpoint=ckpt).run_seeds(seeds)

        reg = MetricsRegistry()
        out = TrialRunner(
            _double, checkpoint=ckpt, metrics=reg
        ).run_seeds(seeds)
        # Every result is preloaded; zero trials actually execute.
        assert out == [s * 2 for s in seeds]
        assert reg.value("runner_checkpoint_loaded_total") == 4
        assert reg.value("runner_trials_total", mode="serial") == 0

    def test_checkpoint_written_per_trial(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        seeds = spawn_seeds(0, 3)
        reg = MetricsRegistry()
        TrialRunner(_double, checkpoint=ckpt, metrics=reg).run_seeds(seeds)
        assert reg.value("runner_checkpoint_writes_total") == 3
        data = json.loads(ckpt.read_text())
        assert sorted(data["completed"]) == ["0", "1", "2"]


def _always_raises(seed):
    raise RuntimeError("should never run")


def _scaled(seed, factor=1):
    return seed * factor


class TestCheckpointGuards:
    def test_fingerprint_mismatch_refused(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        TrialRunner(_double, checkpoint=ckpt).run_seeds([1, 2, 3])
        with pytest.raises(TrialError, match="different seed batch"):
            TrialRunner(_double, checkpoint=ckpt).run_seeds([4, 5, 6])

    def test_corrupt_file_refused(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        ckpt.write_text("{not json")
        with pytest.raises(TrialError, match="unreadable"):
            TrialRunner(_double, checkpoint=ckpt).run_seeds([1, 2])

    def test_wrong_schema_version_refused(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        ckpt.write_text(json.dumps({"version": 99, "completed": {}}))
        with pytest.raises(TrialError, match="schema version"):
            TrialRunner(_double, checkpoint=ckpt).run_seeds([1, 2])

    def test_different_trial_fn_refused(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        TrialRunner(_double, checkpoint=ckpt).run_seeds([1, 2, 3])
        with pytest.raises(TrialError, match="context mismatch"):
            TrialRunner(_always_raises, checkpoint=ckpt).run_seeds([1, 2, 3])

    def test_different_partial_config_refused(self, tmp_path):
        from functools import partial

        ckpt = tmp_path / "batch.json"
        TrialRunner(partial(_scaled, factor=2), checkpoint=ckpt).run_seeds(
            [1, 2]
        )
        # Same fn re-bound with identical arguments resumes fine...
        TrialRunner(partial(_scaled, factor=2), checkpoint=ckpt).run_seeds(
            [1, 2]
        )
        # ...but a changed bound config is refused.
        with pytest.raises(TrialError, match="context mismatch"):
            TrialRunner(
                partial(_scaled, factor=3), checkpoint=ckpt
            ).run_seeds([1, 2])

    def test_backend_switch_refused_after_kill(self, tmp_path):
        """Kill mid-batch, flip the engine backend, attempt resume: refused."""
        from repro.core.engine import get_default_backend, set_default_backend

        ckpt = tmp_path / "batch.json"
        seeds = spawn_seeds(21, 6)
        original = get_default_backend()
        try:
            set_default_backend("python")
            with pytest.raises(_Abort):
                TrialRunner(
                    _double, checkpoint=ckpt, progress=_abort_after(3)
                ).run_seeds(seeds)
            assert ckpt.exists()

            set_default_backend("vectorized")
            with pytest.raises(TrialError, match="context mismatch"):
                TrialRunner(_double, checkpoint=ckpt).run_seeds(seeds)

            # Back on the original backend the resume is bit-identical.
            set_default_backend("python")
            resumed = TrialRunner(_double, checkpoint=ckpt).run_seeds(seeds)
            assert resumed == [s * 2 for s in seeds]
        finally:
            set_default_backend(original)


class TestPoolResume:
    def test_pool_kill_and_resume_is_bit_identical(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        seeds = spawn_seeds(11, 6)
        fresh = TrialRunner(_double, jobs=2).run_seeds(seeds)

        with pytest.raises(_Abort):
            TrialRunner(
                _double, jobs=2, checkpoint=ckpt, progress=_abort_after(3)
            ).run_seeds(seeds)

        resumed = TrialRunner(_double, jobs=2, checkpoint=ckpt)
        assert resumed.run_seeds(seeds) == fresh


class TestProtocolResultRoundTrip:
    def test_resumed_protocol_results_identical(self, tmp_path):
        """Real ProtocolResults survive pickling and resume bit-identically."""
        collection = mesh_random_function(4, 2, rng=7)
        cfg = ProtocolConfig(bandwidth=2, worm_length=3, max_rounds=200)
        seeds = spawn_seeds(5, 4)
        runner_kwargs = dict(collection=collection, config=cfg)

        from functools import partial

        fn = partial(protocol_trial, **runner_kwargs)
        fresh = TrialRunner(fn).run_seeds(seeds)

        ckpt = tmp_path / "proto.json"
        with pytest.raises(_Abort):
            TrialRunner(
                fn, checkpoint=ckpt, progress=_abort_after(2)
            ).run_seeds(seeds)
        resumed = TrialRunner(fn, checkpoint=ckpt).run_seeds(seeds)
        assert resumed == fresh
        assert all(r.completed for r in resumed)

    def test_route_collection_trials_checkpoint_passthrough(self, tmp_path):
        collection = mesh_random_function(4, 2, rng=7)
        ckpt = tmp_path / "rct.json"
        first = route_collection_trials(
            collection, 2, 3, worm_length=3, seed=9, checkpoint=ckpt
        )
        assert ckpt.exists()
        again = route_collection_trials(
            collection, 2, 3, worm_length=3, seed=9, checkpoint=ckpt
        )
        assert first == again

    def test_route_collection_trials_journals_whole_slices(
        self, tmp_path, monkeypatch
    ):
        """The journal of a default-name run advances a lockstep slice at a time."""
        from repro.runners import protocol_trials

        collection = mesh_random_function(4, 2, rng=7)
        kwargs = dict(worm_length=3, seed=9)
        fresh = route_collection_trials(collection, 2, 6, **kwargs)

        # At jobs=1 the six trials are one slice: a kill before it
        # settles journals nothing, and settling it is one write.
        def killed(*args, **kw):
            raise _Abort("killed inside the slice")

        ckpt = tmp_path / "one.json"
        with monkeypatch.context() as m:
            m.setattr(protocol_trials, "run_protocol_batch", killed)
            with pytest.raises(TrialError):
                route_collection_trials(collection, 2, 6, checkpoint=ckpt, **kwargs)
        assert not ckpt.exists() or json.loads(ckpt.read_text())["completed"] == {}
        reg = MetricsRegistry()
        route_collection_trials(
            collection, 2, 6, checkpoint=tmp_path / "m.json", metrics=reg, **kwargs
        )
        assert reg.value("runner_checkpoint_writes_total") == 1

        # Two trials a slice: killed while the second slice reports, the
        # journal keeps both settled slices and the rerun runs the rest.
        links = int(collection.layout.count.sum())
        monkeypatch.setattr(protocol_trials, "_LOCKSTEP_EVENTS", 2 * links)
        ckpt = tmp_path / "two.json"
        with pytest.raises(_Abort):
            route_collection_trials(
                collection, 2, 6, checkpoint=ckpt, progress=_abort_after(3),
                **kwargs,
            )
        completed = json.loads(ckpt.read_text())["completed"]
        assert sorted(completed, key=int) == ["0", "1", "2", "3"]
        assert route_collection_trials(
            collection, 2, 6, checkpoint=ckpt, **kwargs
        ) == fresh


class TestDurableRewrite:
    def test_torn_write_leaves_previous_state(self, tmp_path):
        """A crash between temp write and rename never tears the journal."""
        from unittest.mock import patch

        import repro._util as util

        ckpt = tmp_path / "batch.json"
        seeds = spawn_seeds(3, 4)
        with pytest.raises(_Abort):
            TrialRunner(
                _double, checkpoint=ckpt, progress=_abort_after(2)
            ).run_seeds(seeds)
        before = ckpt.read_text()

        with patch.object(
            util.os, "replace", side_effect=OSError("simulated crash")
        ):
            with pytest.raises(OSError):
                TrialRunner(_double, checkpoint=ckpt).run_seeds(seeds)

        # The previous consistent state is exactly what survives...
        assert ckpt.read_text() == before
        assert json.loads(before)["completed"]  # ...and it parses.
        # ...and the resume from it is bit-identical.
        assert TrialRunner(_double, checkpoint=ckpt).run_seeds(seeds) == [
            s * 2 for s in seeds
        ]

    def test_pool_rebuild_cap_in_context_digest(self, tmp_path):
        """A changed pool_rebuilds cap is a context mismatch on resume."""
        ckpt = tmp_path / "batch.json"
        TrialRunner(_double, checkpoint=ckpt, pool_rebuilds=3).run_seeds(
            [1, 2]
        )
        # Same cap resumes fine...
        TrialRunner(_double, checkpoint=ckpt, pool_rebuilds=3).run_seeds(
            [1, 2]
        )
        # ...a different cap is refused.
        with pytest.raises(TrialError, match="context mismatch"):
            TrialRunner(
                _double, checkpoint=ckpt, pool_rebuilds=5
            ).run_seeds([1, 2])
