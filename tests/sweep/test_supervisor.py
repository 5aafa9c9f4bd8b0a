"""Supervision under chaos: bit-identical merges, quarantine, recovery.

The determinism certificate at the heart of the sweep service: no
matter what the chaos harness does to workers or the journal, a sweep
that reaches completion merges to *bytes* equal to the serial
no-chaos reference. Multiprocess cases use tiny plans so each test
stays in the low seconds.
"""

import json

import pytest

from repro.faults import ChaosPolicy, parse_chaos_spec
from repro.sweep import SweepOptions, SweepSupervisor, default_plan


@pytest.fixture(scope="module")
def plan():
    return default_plan(trials=4, shard_size=2, side=3)  # 4 shards, 8 trials


@pytest.fixture(scope="module")
def serial_merged(plan, tmp_path_factory):
    """The no-chaos serial reference every case compares against."""
    base = tmp_path_factory.mktemp("serial")
    SweepSupervisor(base, options=SweepOptions(workers=0)).start(plan)
    return (base / "merged.json").read_bytes()


def _run(tmp_path, plan, **options) -> tuple:
    supervisor = SweepSupervisor(tmp_path, options=SweepOptions(**options))
    report = supervisor.start(plan)
    merged = tmp_path / "merged.json"
    return report, merged.read_bytes() if merged.exists() else None


class TestBitIdentity:
    def test_two_workers_match_serial(self, tmp_path, plan, serial_merged):
        report, merged = _run(tmp_path, plan, workers=2)
        assert report.counts["done"] == 4
        assert merged == serial_merged

    def test_chaos_worker_kills_match_serial(
        self, tmp_path, plan, serial_merged
    ):
        """Every shard's worker is SIGKILLed mid-batch, twice."""
        report, merged = _run(
            tmp_path,
            plan,
            workers=2,
            max_attempts=6,
            chaos=parse_chaos_spec("kill_after=1,attempts=2"),
        )
        assert report.counts["done"] == 4
        assert merged == serial_merged

    def test_chaos_dropped_results_match_serial(
        self, tmp_path, plan, serial_merged
    ):
        """Workers finish but withhold results on the first attempt."""
        report, merged = _run(
            tmp_path,
            plan,
            workers=2,
            max_attempts=4,
            chaos=ChaosPolicy(drop=True),
        )
        assert report.counts["done"] == 4
        assert merged == serial_merged

    def test_serial_mode_absorbs_drop_chaos_too(
        self, tmp_path, plan, serial_merged
    ):
        report, merged = _run(
            tmp_path,
            plan,
            workers=0,
            max_attempts=4,
            chaos=ChaosPolicy(drop=True, delay=0.01),
        )
        assert report.counts["done"] == 4
        assert merged == serial_merged


class TestQuarantine:
    def test_poisoned_shard_quarantined_rest_completes(
        self, tmp_path, plan, serial_merged
    ):
        report, merged = _run(
            tmp_path,
            plan,
            workers=2,
            max_attempts=2,
            chaos=ChaosPolicy(poison=(1,)),
        )
        assert report.counts == {
            "pending": 0,
            "leased": 0,
            "done": 3,
            "failed": 0,
            "quarantined": 1,
        }
        assert report.quarantined == [1]
        assert not report.ok
        # Degraded but useful: the partial merge exists and says so.
        partial = json.loads(merged)
        assert partial["quarantined"] == [1]

        # A fresh attempt budget with the poison gone completes the sweep
        # and the merge snaps to the full serial reference.
        retried = SweepSupervisor(
            tmp_path, options=SweepOptions(workers=2)
        ).retry_quarantined()
        assert retried.counts["done"] == 4
        assert (tmp_path / "merged.json").read_bytes() == serial_merged

    def test_poison_quarantines_in_serial_mode(self, tmp_path, plan):
        report, _ = _run(
            tmp_path,
            plan,
            workers=0,
            max_attempts=2,
            backoff_base=0.001,
            backoff_cap=0.002,
            chaos=ChaosPolicy(poison=(0,)),
        )
        assert report.quarantined == [0]
        assert report.counts["done"] == 3


class TestLeaseExpiry:
    def test_hung_worker_is_killed_and_shard_retried(
        self, tmp_path, plan, serial_merged
    ):
        """hang_after stops the heartbeat; the lease must expire."""
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        supervisor = SweepSupervisor(
            tmp_path,
            options=SweepOptions(
                workers=2,
                lease_timeout=0.6,
                heartbeat_interval=0.1,
                max_attempts=4,
                chaos=ChaosPolicy(hang_after=1),
            ),
            metrics=registry,
        )
        report = supervisor.start(plan)
        assert report.counts["done"] == 4
        assert registry.value("sweep_leases_expired_total") >= 1
        assert (tmp_path / "merged.json").read_bytes() == serial_merged


class TestResume:
    def test_resume_after_torn_journal(self, tmp_path, plan, serial_merged):
        """truncate_journal chaos tears the primary; resume recovers via .bak."""
        report, merged = _run(
            tmp_path,
            plan,
            workers=0,
            chaos=ChaosPolicy(truncate_journal=True),
        )
        assert report.counts["done"] == 4
        assert merged == serial_merged
        # The primary journal really is torn...
        with pytest.raises(ValueError):
            json.loads((tmp_path / "journal.json").read_text())
        # ...yet a resume loads fine and reports the settled sweep.
        resumed = SweepSupervisor(
            tmp_path, options=SweepOptions(workers=0)
        ).resume()
        assert resumed.counts["done"] == 4
        assert (tmp_path / "merged.json").read_bytes() == serial_merged

    def test_resume_releases_orphaned_leases(self, tmp_path, plan):
        from repro.sweep import SweepJournal
        from repro.sweep.journal import commit_json
        from repro.sweep.supervisor import PLAN_FILENAME

        # Fake a dead supervisor: journal with a stuck lease, no workers.
        commit_json(tmp_path / PLAN_FILENAME, plan.to_dict())
        journal = SweepJournal.create(tmp_path / "journal.json", plan)
        journal.lease(0, owner="dead-supervisor", pid=4242, now=0.0)

        report = SweepSupervisor(
            tmp_path, options=SweepOptions(workers=0)
        ).resume()
        assert report.counts["done"] == 4
        assert report.counts["leased"] == 0


class TestEventLoop:
    def test_wakes_on_worker_exit(self, tmp_path, plan, serial_merged):
        """A slow heartbeat and a long lease never pace the loop.

        Two waves of workers that each waited out one heartbeat period
        would take at least 4 s; waking on worker exit takes a fraction.
        """
        report, merged = _run(
            tmp_path,
            plan,
            workers=2,
            heartbeat_interval=2.0,
            lease_timeout=30,
        )
        assert report.counts["done"] == 4
        assert merged == serial_merged
        assert report.wall_seconds < 1.5

    def test_lease_is_durable_before_spawn(
        self, tmp_path, plan, serial_merged, monkeypatch
    ):
        """Every worker starts only after its lease is on disk."""
        seen = []
        spawn = SweepSupervisor._spawn

        def checked_spawn(self, plan, index, attempt, chaos):
            rows = json.loads((self.dir / "journal.json").read_text())
            row = rows["shards"][str(index)]
            seen.append((index, attempt, row["state"], row["attempts"]))
            return spawn(self, plan, index, attempt, chaos)

        monkeypatch.setattr(SweepSupervisor, "_spawn", checked_spawn)
        # Each first attempt SIGKILLs itself, so retries are spawned too.
        report, merged = _run(
            tmp_path,
            plan,
            workers=2,
            max_attempts=3,
            chaos=parse_chaos_spec("kill_after=1,attempts=1"),
        )
        assert report.counts["done"] == 4
        assert merged == serial_merged
        assert sorted(index for index, *_ in seen) == [0, 0, 1, 1, 2, 2, 3, 3]
        for index, attempt, state, attempts in seen:
            assert (state, attempts) == ("leased", attempt), index

    def test_each_shard_completes_exactly_once(
        self, tmp_path, plan, monkeypatch
    ):
        """No double completion, and one journal commit per step."""
        from repro.observability import MetricsRegistry
        from repro.sweep import journal as journal_mod

        commits = []
        commit_json = journal_mod.commit_json

        def counting_commit(path, payload, **kwargs):
            commits.append(str(path))
            commit_json(path, payload, **kwargs)

        monkeypatch.setattr(journal_mod, "commit_json", counting_commit)
        registry = MetricsRegistry()
        report = SweepSupervisor(
            tmp_path, options=SweepOptions(workers=2), metrics=registry
        ).start(plan)
        assert report.counts["done"] == 4
        assert (registry.value("sweep_results_adopted_total") or 0) == 0
        assert registry.value("sweep_shards_done_total") == 4
        assert registry.value("sweep_workers_spawned_total") == 4
        # A lease and a completion per shard: 8 transitions, fewer commits
        # (creation included).
        journal_commits = commits.count(str(tmp_path / "journal.json"))
        assert 0 < journal_commits < 2 * 4

    def test_span_profile_splits_supervisor_time(self, tmp_path, plan):
        from repro.observability import disable_profiling, enable_profiling

        profiler = enable_profiling()
        try:
            _run(tmp_path, plan, workers=2)
        finally:
            disable_profiling()
        paths = set(profiler.snapshot())
        for child in ("wait", "spawn", "commit", "merge"):
            assert f"sweep.run/sweep.{child}" in paths
