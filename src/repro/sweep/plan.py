"""Sweep plans: a (config x seed-range) grid partitioned into shards.

A :class:`SweepPlan` is the declarative, JSON-serialisable unit of work
the sharded sweep service executes: a list of :class:`SweepConfig`
entries (workload + protocol knobs + trial budget + root seed), cut into
:class:`Shard` slices of at most ``shard_size`` trials each.

Two determinism invariants make sharded execution safe to retry, kill,
and resume:

* **Prefix-stable child seeds.** Each config's trial seeds come from
  :func:`repro.runners.spawn_seeds`, so growing the trial budget never
  changes earlier seeds, and the shard boundaries are pure arithmetic --
  shard *k* always holds the same seeds no matter how many workers run
  or in which order shards finish.
* **Content-addressed identity.** :meth:`SweepPlan.digest` hashes the
  canonical JSON form; the journal and every shard result embed it, so
  a resume against an edited plan is refused instead of silently mixing
  incomparable results.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Mapping

from repro.errors import SweepError

__all__ = [
    "SweepConfig",
    "Shard",
    "SweepPlan",
    "build_collection",
    "default_plan",
]

#: Workload kinds a plan entry may name, mirrored on the CLI.
WORKLOAD_KINDS = ("mesh", "torus", "hypercube", "butterfly")


def build_collection(workload: Mapping):
    """Compile a workload dict into the static path collection it names.

    Kinds (all seed-deterministic via their ``rng`` key, default 0):
    ``mesh``/``torus`` (params ``side``, ``d``; random-function pairs),
    ``hypercube`` (param ``dim``) and ``butterfly`` (param ``dim``;
    a random permutation of the input rows).
    """
    from repro.experiments import workloads

    if not isinstance(workload, Mapping) or "kind" not in workload:
        raise SweepError(
            f"a sweep workload needs a 'kind' key, got {workload!r}"
        )
    kind = workload["kind"]
    if kind not in WORKLOAD_KINDS:
        raise SweepError(
            f"unknown workload kind {kind!r}; expected one of "
            f"{sorted(WORKLOAD_KINDS)}"
        )
    params = {k: v for k, v in workload.items() if k != "kind"}
    rng = int(params.pop("rng", 0))
    try:
        if kind == "mesh":
            builder = workloads.mesh_random_function
            args = (int(params.pop("side", 4)), int(params.pop("d", 2)))
        elif kind == "torus":
            builder = workloads.torus_random_function
            args = (int(params.pop("side", 4)), int(params.pop("d", 2)))
        elif kind == "hypercube":
            builder = workloads.hypercube_random_function
            args = (int(params.pop("dim", 4)),)
        else:  # butterfly
            builder = workloads.butterfly_permutation
            args = (int(params.pop("dim", 3)),)
        if params:
            raise SweepError(f"unknown {kind} params: {sorted(params)}")
        return builder(*args, rng=rng)
    except SweepError:
        raise
    except (TypeError, ValueError) as exc:
        raise SweepError(f"bad {kind} workload params: {exc}") from exc


@dataclass(frozen=True)
class SweepConfig:
    """One cell of the sweep grid: a workload routed under one config.

    ``faults`` uses the :func:`repro.faults.parse_fault_spec` grammar
    (None or ``"none"`` = fault-free); ``backend`` pins the backend
    name inside worker processes (None = process default). ``trials``
    and ``seed`` define the child-seed range this config owns.
    """

    workload: dict = field(default_factory=lambda: {"kind": "mesh", "side": 4, "d": 2})
    trials: int = 8
    seed: int = 0
    bandwidth: int = 2
    worm_length: int = 4
    max_rounds: int = 400
    faults: str | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SweepError(f"trials must be >= 1, got {self.trials}")
        if self.bandwidth < 1:
            raise SweepError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if self.worm_length < 1:
            raise SweepError(
                f"worm_length must be >= 1, got {self.worm_length}"
            )
        if self.max_rounds < 1:
            raise SweepError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.backend is not None:
            from repro.core.engine import BACKENDS

            if self.backend not in BACKENDS:
                raise SweepError(
                    f"unknown backend {self.backend!r}; "
                    f"expected one of {BACKENDS}"
                )

    def fault_model(self):
        """The parsed fault model (None when fault-free)."""
        if self.faults is None or self.faults == "none":
            return None
        from repro.faults import parse_fault_spec

        return parse_fault_spec(self.faults)

    def protocol_config(self):
        """The :class:`~repro.core.protocol.ProtocolConfig` this cell runs."""
        from repro.core.protocol import ProtocolConfig

        return ProtocolConfig(
            bandwidth=self.bandwidth,
            worm_length=self.worm_length,
            max_rounds=self.max_rounds,
            faults=self.fault_model(),
            backend=self.backend,
        )

    def child_seeds(self) -> list[int]:
        """The config's prefix-stable per-trial seeds, in trial order."""
        from repro.runners import spawn_seeds

        return spawn_seeds(self.seed, self.trials)


@dataclass(frozen=True)
class Shard:
    """One leasable unit of work: a contiguous seed slice of one config.

    ``index`` is the global shard id (the journal key), ``config`` the
    owning config's position in the plan, ``start`` the first trial
    index within that config, and ``seeds`` the child seeds themselves
    -- carried inline so a worker needs only the plan file and a shard
    index to reproduce its work exactly.
    """

    index: int
    config: int
    start: int
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class SweepPlan:
    """The full sweep: named, sharded, content-addressed.

    ``shard_size`` bounds trials per shard (the retry / checkpoint
    granularity); the last shard of each config may be smaller. Configs
    never share a shard, so every shard's results carry exactly one
    (workload, backend, fault-model) label set.
    """

    name: str = "sweep"
    configs: tuple[SweepConfig, ...] = ()
    shard_size: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("a sweep plan needs a non-empty name")
        if not self.configs:
            raise SweepError("a sweep plan needs at least one config")
        if self.shard_size < 1:
            raise SweepError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )

    # -- sharding ------------------------------------------------------------

    def shards(self) -> list[Shard]:
        """Every shard of the plan, in global (config-major) order."""
        out: list[Shard] = []
        for ci, config in enumerate(self.configs):
            seeds = config.child_seeds()
            for start in range(0, len(seeds), self.shard_size):
                out.append(
                    Shard(
                        index=len(out),
                        config=ci,
                        start=start,
                        seeds=tuple(seeds[start:start + self.shard_size]),
                    )
                )
        return out

    def total_trials(self) -> int:
        """The plan's whole trial budget across all configs."""
        return sum(c.trials for c in self.configs)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-ready dict (the canonical stored form)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepPlan":
        """Rebuild a plan from its stored dict form."""
        if not isinstance(data, Mapping):
            raise SweepError(f"a sweep plan is a JSON object, got {data!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise SweepError(f"unknown sweep plan keys: {sorted(unknown)}")
        configs = data.get("configs", ())
        if not isinstance(configs, (list, tuple)):
            raise SweepError(
                f"sweep plan 'configs' must be a list, got {configs!r}"
            )
        try:
            built = tuple(
                SweepConfig(**dict(c)) if not isinstance(c, SweepConfig) else c
                for c in configs
            )
        except TypeError as exc:
            raise SweepError(f"bad sweep config entry: {exc}") from exc
        return cls(
            name=str(data.get("name", "sweep")),
            configs=built,
            shard_size=int(data.get("shard_size", 8)),
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) -- the digest's input."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepPlan":
        """Parse the :meth:`to_json` form; raise ``SweepError`` on bad JSON."""
        try:
            return cls.from_dict(json.loads(text))
        except ValueError as exc:
            if isinstance(exc, SweepError):
                raise
            raise SweepError(f"sweep plan is not valid JSON: {exc}") from exc

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "SweepPlan":
        """Read a plan file, with a clear error when missing/corrupt."""
        p = pathlib.Path(path)
        if not p.is_file():
            raise SweepError(f"sweep plan file not found: {p}")
        return cls.from_json(p.read_text(encoding="utf-8"))

    def digest(self) -> str:
        """Content hash binding journals and shard results to this plan."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def default_plan(
    *,
    name: str = "mesh-sweep",
    side: int = 4,
    d: int = 2,
    trials: int = 8,
    shard_size: int = 4,
    seed: int = 0,
    bandwidth: int = 2,
    worm_length: int = 4,
    max_rounds: int = 400,
    faults: tuple[str | None, ...] = (None, "transient:rate=0.02"),
    backend: str | None = None,
) -> SweepPlan:
    """The CLI's flag-built plan: one mesh workload per fault model.

    Mirrors the ``faults sweep`` shape (fault-free vs transient faults on
    the same collection) but cut into resumable shards.
    """
    workload = {"kind": "mesh", "side": side, "d": d, "rng": seed}
    configs = tuple(
        SweepConfig(
            workload=dict(workload),
            trials=trials,
            seed=seed,
            bandwidth=bandwidth,
            worm_length=worm_length,
            max_rounds=max_rounds,
            faults=spec,
            backend=backend,
        )
        for spec in faults
    )
    return SweepPlan(name=name, configs=configs, shard_size=shard_size)
