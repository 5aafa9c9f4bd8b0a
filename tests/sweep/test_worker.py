"""Shard execution: how a shard dispatches its trials, and how it resumes.

``execute_shard`` resolves the shard's effective backend (the plan's,
else the process default) once, through ``protocol_dispatch``, and runs
its checkpointed ``TrialRunner`` under that backend -- so the dispatch
shape follows the effective backend, and a resume under a different
process default still accepts the shard's own checkpoint.
"""

import pytest

from repro.core.engine import get_default_backend, set_default_backend
from repro.runners import protocol_trials
from repro.sweep.plan import default_plan
from repro.sweep.worker import checkpoint_path, execute_shard


class _Abort(RuntimeError):
    """Raised from a progress callback to simulate a mid-shard kill."""


def _abort_after(n):
    seen = []

    def progress(event):
        seen.append(event)
        if len(seen) >= n:
            raise _Abort(f"killed after {n} trial(s)")

    return progress


@pytest.fixture
def default_backend():
    """Set the process-default backend for one test, restoring it after."""
    original = get_default_backend()
    yield set_default_backend
    set_default_backend(original)


class TestDispatch:
    def test_process_default_batched_runs_one_lockstep_slice(
        self, default_backend, tmp_path, monkeypatch
    ):
        slices = []
        real = protocol_trials.run_protocol_batch

        def recording(collection, config, seeds, **kwargs):
            slices.append(list(seeds))
            return real(collection, config, seeds, **kwargs)

        monkeypatch.setattr(protocol_trials, "run_protocol_batch", recording)
        default_backend("batched")
        plan = default_plan(side=3, trials=4, shard_size=4, faults=(None,))
        assert plan.configs[0].backend is None

        payload = execute_shard(plan, 0, tmp_path)

        assert slices == [list(plan.shards()[0].seeds)]
        assert payload["trials"] == 4
        assert get_default_backend() == "batched"


class TestResumeAcrossDefaults:
    def test_resume_under_other_default_accepts_own_checkpoint(
        self, default_backend, tmp_path
    ):
        plan = default_plan(
            side=3, trials=4, shard_size=4, faults=(None,),
            backend="vectorized",
        )
        default_backend("vectorized")
        reference = execute_shard(plan, 0, tmp_path / "reference")

        killed = tmp_path / "killed"
        with pytest.raises(_Abort):
            execute_shard(plan, 0, killed, progress=_abort_after(2))
        assert checkpoint_path(killed, 0).exists()

        # What `repro sweep resume` without --backend does.
        default_backend("python")
        resumed = execute_shard(plan, 0, killed)

        assert resumed == reference
        assert get_default_backend() == "python"
