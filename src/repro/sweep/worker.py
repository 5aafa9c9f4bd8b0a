"""Shard execution: the code that runs inside (and as) sweep workers.

:func:`execute_shard` is the pure core -- route one shard's seeds
through a checkpointed :class:`~repro.runners.trial.TrialRunner` and
fold the per-trial observations into a
:class:`~repro.observability.groupstats.GroupedStats` payload.
:func:`run_shard_worker` wraps it as a supervised process entry point:
it heartbeats to a liveness file, publishes its result durably, and --
when a :class:`~repro.faults.ChaosPolicy` says so -- kills, hangs,
delays or silences itself to exercise the supervisor's recovery paths.

Determinism contract: a shard's result payload depends only on the plan
(workload, config, child seeds). Checkpoints make the trial loop
idempotent across kills, the GroupedStats uid is the trial's child seed,
and result files are only ever replaced by identical bytes' worth of
data -- so no amount of chaos, retries, or reordering can change what a
completed sweep merges to.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import signal
import threading
import time
from typing import Mapping

from repro.errors import SweepError
from repro.faults.chaos import ChaosPolicy, parse_chaos_spec
from repro.observability.groupstats import GroupedStats
from repro.sweep.journal import commit_json, load_json
from repro.sweep.plan import SweepPlan, build_collection

__all__ = [
    "execute_shard",
    "run_shard_worker",
    "load_result",
    "result_path",
    "heartbeat_path",
    "error_path",
    "checkpoint_path",
    "read_heartbeat",
]

_log = logging.getLogger(__name__)

RESULT_VERSION = 1

#: How long a hung worker sleeps per poll while waiting for the
#: supervisor's lease timeout to notice the stopped heartbeat.
_HANG_NAP = 0.25


# -- sweep directory layout ---------------------------------------------------

def result_path(sweep_dir: pathlib.Path, index: int) -> pathlib.Path:
    """Where shard ``index`` publishes its result payload."""
    return pathlib.Path(sweep_dir) / "results" / f"shard-{index}.json"


def heartbeat_path(sweep_dir: pathlib.Path, index: int) -> pathlib.Path:
    """Where shard ``index``'s worker writes liveness heartbeats."""
    return pathlib.Path(sweep_dir) / "hb" / f"shard-{index}.json"


def error_path(sweep_dir: pathlib.Path, index: int) -> pathlib.Path:
    """Where shard ``index``'s worker records its last failure message."""
    return pathlib.Path(sweep_dir) / "hb" / f"shard-{index}.err"


def checkpoint_path(sweep_dir: pathlib.Path, index: int) -> pathlib.Path:
    """Where shard ``index``'s ``TrialRunner`` checkpoint journal lives."""
    return pathlib.Path(sweep_dir) / "checkpoints" / f"shard-{index}.json"


# -- the pure core ------------------------------------------------------------

def execute_shard(
    plan: SweepPlan,
    shard_index: int,
    sweep_dir: "str | pathlib.Path",
    *,
    progress=None,
) -> dict:
    """Run one shard's trials (checkpointed, resumable) and build its result.

    Returns the JSON-ready result payload; does *not* publish it (the
    caller decides, because chaos may drop or delay publication). The
    per-shard checkpoint under ``checkpoints/`` makes re-execution after
    a kill resume mid-shard instead of starting over.
    """
    from repro.core.engine import get_default_backend, set_default_backend
    from repro.runners import TrialRunner
    from repro.runners.protocol_trials import fault_label, protocol_dispatch

    shards = plan.shards()
    if not 0 <= shard_index < len(shards):
        raise SweepError(
            f"plan has {len(shards)} shard(s); no shard {shard_index}"
        )
    shard = shards[shard_index]
    config = plan.configs[shard.config]
    collection = build_collection(config.workload)
    pconfig = config.protocol_config()

    sweep_dir = pathlib.Path(sweep_dir)
    ckpt = checkpoint_path(sweep_dir, shard_index)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    # With jobs=1 a shard is one lockstep slice (unless its collection
    # is past the slice's event budget): each engine pass amortises
    # across every seed while each trial stays bit-identical to a
    # per-seed run (checkpoint resume included).
    backend, trial_fn, batch_size = protocol_dispatch(
        collection, pconfig, trials=len(shard.seeds)
    )
    runner = TrialRunner(
        trial_fn,
        jobs=1,
        progress=progress,
        checkpoint=ckpt,
        batch_size=batch_size,
    )
    # The checkpoint context records the process-default backend; pin
    # it to the backend the shard actually runs, so a resume under a
    # different default accepts the shard's own checkpoint.
    previous = get_default_backend()
    set_default_backend(backend)
    try:
        results = runner.run_seeds(list(shard.seeds))
    finally:
        set_default_backend(previous)

    labels = {
        "workload": repr(collection),
        "backend": backend,
        "fault_model": fault_label(pconfig),
        "scenario": "",
    }
    groups = GroupedStats()
    for child_seed, result in zip(shard.seeds, results):
        groups.observe(
            labels,
            child_seed,
            rounds=result.rounds,
            makespan=result.total_time,
        )
    return {
        "version": RESULT_VERSION,
        "plan": plan.digest(),
        "shard": shard_index,
        "config": shard.config,
        "trials": len(shard.seeds),
        "completed": sum(1 for r in results if r.completed),
        "groups": groups.snapshot(),
    }


def load_result(
    sweep_dir: "str | pathlib.Path", index: int, plan_digest: str
) -> dict | None:
    """A shard's published result, or None when absent or not usable.

    Validation is strict -- wrong plan digest, wrong shard index, or a
    torn file all count as "no result", so the supervisor simply re-runs
    the shard instead of merging garbage.
    """
    path = result_path(pathlib.Path(sweep_dir), index)
    if not path.exists():
        return None
    try:
        payload = load_json(path, backup=False)
    except SweepError:
        return None
    if (
        not isinstance(payload, Mapping)
        or payload.get("version") != RESULT_VERSION
        or payload.get("plan") != plan_digest
        or payload.get("shard") != index
    ):
        return None
    return dict(payload)


# -- the supervised process entry point ---------------------------------------

def _write_heartbeat(path: pathlib.Path, index: int) -> None:
    # Liveness only -- atomic so readers never see a torn file, but not
    # fsynced: a heartbeat lost to a crash is indistinguishable from the
    # crash itself, which is exactly the signal the supervisor wants.
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps({"shard": index, "pid": os.getpid(), "time": time.time()}),
        encoding="utf-8",
    )
    os.replace(tmp, path)


def read_heartbeat(sweep_dir: "str | pathlib.Path", index: int) -> dict | None:
    """The most recent heartbeat of a shard's worker, or None."""
    path = heartbeat_path(pathlib.Path(sweep_dir), index)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def run_shard_worker(
    plan_path: str,
    shard_index: int,
    sweep_dir: str,
    *,
    attempt: int = 1,
    chaos_spec: str = "",
    heartbeat_interval: float = 0.2,
) -> None:
    """Process entry point: execute one leased shard under supervision.

    Heartbeats every ``heartbeat_interval`` seconds to ``hb/``; on
    success publishes the result durably to ``results/`` and exits 0; on
    failure records the error text to ``hb/shard-N.err`` and exits 1.
    The chaos knobs (parsed from ``chaos_spec``) deliberately violate
    this contract -- self-SIGKILL mid-batch, stop heartbeating and hang,
    delay or drop the publication, or fail a poisoned shard outright --
    which is how tests and CI drive the supervisor's kill/retry/
    quarantine machinery.
    """
    base = pathlib.Path(sweep_dir)
    hb = heartbeat_path(base, shard_index)
    err = error_path(base, shard_index)
    hb.parent.mkdir(parents=True, exist_ok=True)
    chaos = parse_chaos_spec(chaos_spec) if chaos_spec else ChaosPolicy()
    striking = chaos.active() and chaos.applies(attempt)

    stop_heartbeat = threading.Event()

    def beat() -> None:
        while not stop_heartbeat.is_set():
            try:
                _write_heartbeat(hb, shard_index)
            except OSError:  # pragma: no cover - disk full etc.
                pass
            stop_heartbeat.wait(heartbeat_interval)

    _write_heartbeat(hb, shard_index)
    thread = threading.Thread(target=beat, name="sweep-heartbeat", daemon=True)
    thread.start()

    try:
        if chaos.is_poisoned(shard_index):
            # Poison ignores the attempt budget: this shard never works,
            # so the supervisor must eventually quarantine it.
            raise SweepError(
                f"chaos poison: shard {shard_index} fails unconditionally"
            )

        settled = 0

        def on_progress(event) -> None:
            nonlocal settled
            settled += 1
            if not striking:
                return
            if chaos.kill_after is not None and settled >= chaos.kill_after:
                # Die the hard way: no cleanup, no exit handlers -- the
                # checkpoint just written is all that survives.
                os.kill(os.getpid(), signal.SIGKILL)
            if chaos.hang_after is not None and settled >= chaos.hang_after:
                # Stop heartbeating but stay alive: the supervisor must
                # detect staleness and SIGKILL us itself.
                stop_heartbeat.set()
                while True:
                    time.sleep(_HANG_NAP)

        plan = SweepPlan.load(plan_path)
        payload = execute_shard(
            plan, shard_index, base, progress=on_progress
        )

        if striking and chaos.delay > 0:
            time.sleep(chaos.delay)
        if striking and chaos.drop:
            # Finish the work but never publish: the lease expires with
            # no result, and the retry re-runs from the checkpoint.
            return
        out = result_path(base, shard_index)
        out.parent.mkdir(parents=True, exist_ok=True)
        commit_json(out, payload)
    except BaseException as exc:  # noqa: BLE001 - boundary of a process
        try:
            err.write_text(
                f"{type(exc).__name__}: {exc}", encoding="utf-8"
            )
        except OSError:  # pragma: no cover
            pass
        raise SystemExit(1) from exc
    finally:
        stop_heartbeat.set()
