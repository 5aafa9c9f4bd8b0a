"""The benchmark's workloads: inputs from a seed, one timed unit, a digest.

Every workload builds its inputs from the run's ``--seed`` alone, and a
*unit* is one call into the simulator's top-level public function for
that workload. Units of one run repeat the same inputs (the streaming
workload cycles through a fixed list of child seeds), so the per-unit
wall time measures the program and the host, not a changing input.

Each unit's simulated outputs are reduced to a digest (the first 64
bits of a SHA-256). Digests depend only on the seed and on the program's
semantics, never on wall time or on the interpreter's hash seed, so a
change that only makes the simulator faster leaves every one of them
unchanged.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Bandwidth and worm length of the static trial workloads.
BANDWIDTH = 2
WORM_LENGTH = 4


def ensure_repro_importable() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises ``FileNotFoundError`` when the checkout holds no ``repro``
    sources, so the benchmark never measures some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest_of(payload) -> str:
    """First 16 hex digits of the SHA-256 of ``payload``'s canonical JSON
    (or of raw bytes)."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class UnitResult:
    """What one unit produced: its digest and its worm tally."""

    digest: str
    acked: int
    attempted: int


def trials_digest(results) -> str:
    """Digest of per-trial ``rounds``, ``completed``, ``total_time`` and
    ``delivered_round``."""
    return digest_of(
        [
            [r.rounds, r.completed, r.total_time, sorted(r.delivered_round.items())]
            for r in results
        ]
    )


def stream_digest(result) -> str:
    """Digest of a streaming run's offered/acked/dropped counts and latencies."""
    return digest_of(
        {
            "offered": result.offered,
            "acked": result.acked,
            "rejected": result.rejected,
            "expired": result.expired,
            "latencies": list(result.latencies),
        }
    )


class Workload:
    """One named workload; subclasses fill in the four hooks.

    ``setup`` builds the inputs (not timed as a unit), ``unit`` makes
    the timed call and returns its raw output, ``summarise`` turns that
    output into a :class:`UnitResult` outside the timed region, and
    ``reference_digests`` recomputes the digest of every input variant
    through the configuration named by ``REFERENCE``.
    """

    name = ""
    backend = ""
    #: How many distinct unit inputs a run cycles through.
    VARIANTS = 1
    #: The configuration ``reference_digests`` runs, for messages.
    REFERENCE = ""
    #: Whether end-to-end times are scaled to the host's speed.
    SCALE_TIMES = True

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, variant: int):
        raise NotImplementedError

    def summarise(self, output, variant: int) -> UnitResult:
        raise NotImplementedError

    def reference_digests(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release anything the workload keeps on disk."""


class TrialsWorkload(Workload):
    """``route_collection_trials`` over one seed batch of a random function.

    The run cycles through ``VARIANTS`` inputs, each a collection and a
    trial seed batch drawn from one child seed of ``--seed``: inputs of
    one seed differ in congestion and in fault draws, and averaging a few
    of them per run keeps per-run figures close from seed to seed.
    """

    VARIANTS = 4
    trials = 16
    side = 0
    faults: str | None = None
    repair = "none"
    max_rounds = 500
    reference_backend = ""

    def _build_collection(self, rng: int):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.faults import parse_fault_spec
        from repro.runners import spawn_seeds

        self.child_seeds = spawn_seeds(self.seed, self.VARIANTS)
        self.collections = [self._build_collection(s) for s in self.child_seeds]
        for collection in self.collections:
            # Fill the collections' lazy caches now rather than in the
            # first timed unit of each variant.
            collection.path_congestion
            if self.backend == "batched":
                collection.subset_congestion_batch(np.ones((1, collection.n), dtype=bool))
        self.config = {"repair": self.repair, "max_rounds": self.max_rounds}
        if self.faults is not None:
            self.config["faults"] = parse_fault_spec(self.faults)

    def _route(self, variant: int, backend: str):
        # Looked up at call time so the traced run's wrapper applies.
        from repro.runners import protocol_trials

        return protocol_trials.route_collection_trials(
            self.collections[variant],
            BANDWIDTH,
            self.trials,
            worm_length=WORM_LENGTH,
            seed=self.child_seeds[variant],
            jobs=1,
            backend=backend,
            **self.config,
        )

    def unit(self, variant: int):
        return self._route(variant, self.backend)

    def summarise(self, output, variant: int) -> UnitResult:
        return UnitResult(
            digest=trials_digest(output),
            acked=sum(len(r.delivered_round) for r in output),
            attempted=self.trials * self.collections[variant].n,
        )

    def reference_digests(self) -> list[str]:
        return [
            trials_digest(self._route(v, self.reference_backend))
            for v in range(self.VARIANTS)
        ]


class TrialsMesh32(TrialsWorkload):
    """A random function on the 32x32 mesh, one lockstep batch of 16 seeds."""

    name = "trials-mesh32"
    backend = "batched"
    reference_backend = "vectorized"
    REFERENCE = "the vectorized backend"
    side = 32

    def _build_collection(self, rng: int):
        from repro.experiments.workloads import mesh_random_function

        return mesh_random_function(self.side, 2, rng=rng)


class TrialsTorus12Repair(TrialsWorkload):
    """A random function on the 12x12 torus under persistent link failures,
    with reroute repair.

    A trial whose faults cut a destination off runs until ``max_rounds``;
    the cap of 64 (other trials finish within about 20 rounds) keeps such
    a rare trial from multiplying the cost of its whole run. Repairs make
    the cost of a batch vary by input, so a run cycles through 32 inputs.
    """

    name = "trials-torus12-repair"
    backend = "vectorized"
    reference_backend = "python"
    REFERENCE = "the python backend"
    side = 12
    VARIANTS = 32
    faults = "persistent:rate=0.01"
    repair = "reroute"
    max_rounds = 64

    def _build_collection(self, rng: int):
        from repro.experiments.workloads import torus_random_function

        return torus_random_function(self.side, 2, rng=rng)


class StreamMesh16Flash(Workload):
    """The ``flash-crowd`` scenario recast onto the 16x16 mesh.

    Poisson arrivals at ``RATE`` worms per round, with the registry
    entry's 6x surge, admission window (64 worms) and horizon (96 rounds)
    unchanged. The run cycles through ``VARIANTS`` child seeds of
    ``--seed``; it uses the process-default engine backend, as
    ``repro scenario run`` does.

    The rate is measured, not scaled from the 4x4 registry entry. At 8
    worms per round (48 in the surge) 0.1% of offered worms are rejected
    and none expire, so the window does not saturate and does not need to
    grow with the mesh; in a traced run ``paths`` takes 20% of wall,
    ``network`` 12% and ``add_worms``/``retire_worms`` 6%. At the
    registry's rate of 2 a unit lasts only 0.05 s; at 16 and 32 the
    layer split stays the same while units grow to 0.3 and 0.7 s.
    """

    name = "stream-mesh16-flash"
    RATE = 8.0
    REFERENCE = "the other of the python and vectorized backends"
    # Runs of different child seeds differ in size; 32 of them make the
    # per-run mix, and so the median unit, nearly the same for every seed.
    VARIANTS = 32

    def setup(self) -> None:
        from repro.core.engine import get_default_backend
        from repro.runners import spawn_seeds
        from repro.scenarios import get_scenario

        self.backend = get_default_backend()
        self.spec = replace(
            get_scenario("flash-crowd"),
            name="flash-crowd-mesh16",
            workload={"kind": "mesh", "side": 16, "d": 2},
            arrival={"kind": "poisson", "rate": self.RATE},
        )
        self.child_seeds = spawn_seeds(self.seed, self.VARIANTS)

    def unit(self, variant: int):
        from repro.scenarios import spec as spec_mod

        return spec_mod.run_scenario(self.spec, seed=self.child_seeds[variant])

    def summarise(self, output, variant: int) -> UnitResult:
        return UnitResult(
            digest=stream_digest(output),
            acked=output.acked,
            attempted=output.offered,
        )

    def reference_digests(self) -> list[str]:
        from repro.core.engine import get_default_backend, set_default_backend

        previous = get_default_backend()
        set_default_backend("vectorized" if previous == "python" else "python")
        try:
            return [stream_digest(self.unit(v)) for v in range(self.VARIANTS)]
        finally:
            set_default_backend(previous)


class SweepMesh16W2(Workload):
    """``default_plan`` on the 16x16 mesh, supervised by two fork workers.

    One unit is one whole sweep in a fresh directory, from
    ``SweepSupervisor.start`` until ``merged.json`` is written. The
    reference is the same plan run in-process (``workers=0``), whose
    ``merged.json`` is byte-identical by the sweep's contract. Its times
    are host wall time, unscaled: much of a sweep is the supervisor's
    50 ms poll sleeps and forks, which do not follow the processor's
    speed, and scaling them moved medians taken minutes apart by 15%.
    """

    name = "sweep-mesh16-w2"
    REFERENCE = "the same plan run in process (workers=0)"
    SCALE_TIMES = False
    backend = "batched"
    side = 16
    trials = 32
    shard_size = 8
    workers = 2

    def __init__(self, seed: int, *, scratch: Path, chaos=None) -> None:
        super().__init__(seed)
        self.scratch = Path(scratch)
        self.chaos = chaos

    def setup(self) -> None:
        from repro.sweep import default_plan
        from repro.sweep.plan import build_collection

        self.plan = default_plan(
            name="perfbench-sweep",
            side=self.side,
            trials=self.trials,
            shard_size=self.shard_size,
            seed=self.seed,
            backend=self.backend,
        )
        self.worms_per_trial = build_collection(self.plan.configs[0].workload).n
        self.scratch.mkdir(parents=True, exist_ok=True)

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))

    def run_sweep(self, workers: int) -> Path:
        """Run the whole plan in a fresh directory; returns the directory."""
        from repro.sweep import SweepOptions, SweepSupervisor

        sweep_dir = self.fresh_dir()
        SweepSupervisor(
            sweep_dir, options=SweepOptions(workers=workers, chaos=self.chaos)
        ).start(self.plan)
        return sweep_dir

    def unit(self, variant: int):
        return self.run_sweep(self.workers)

    def _merged(self, sweep_dir: Path) -> bytes:
        merged = sweep_dir / "merged.json"
        data = merged.read_bytes() if merged.is_file() else b""
        shutil.rmtree(sweep_dir, ignore_errors=True)
        return data

    def summarise(self, output, variant: int) -> UnitResult:
        data = self._merged(output)
        completed = json.loads(data)["completed"] if data else 0
        return UnitResult(
            digest=digest_of(data),
            acked=completed * self.worms_per_trial,
            attempted=self.plan.total_trials() * self.worms_per_trial,
        )

    def reference_digests(self) -> list[str]:
        return [digest_of(self._merged(self.run_sweep(0)))]

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (TrialsMesh32, TrialsTorus12Repair, StreamMesh16Flash, SweepMesh16W2)
}


def make_workload(name: str, seed: int, scratch: Path) -> Workload:
    """Instantiate the named workload for ``seed`` (``scratch`` holds sweeps)."""
    cls = WORKLOADS[name]
    if cls is SweepMesh16W2:
        return cls(seed, scratch=scratch)
    return cls(seed)
