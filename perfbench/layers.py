"""Per-layer timers for the traced run, installed from outside ``src/``.

:class:`LayerTracer` replaces public functions and methods of each
layer (named by module: ``core.engine``, ``core.protocol``, ``paths``,
``network``, ``faults``, ``scenarios``, ``runners``, ``sweep``) with
timing wrappers, keeps the timings in memory, and puts the originals
back on :meth:`LayerTracer.uninstall`. A function another module imported by name is
wrapped where it is used as well, for example ``run_round_batch`` inside
``repro.core.protocol``.

Each call records its wall time under its own key and its *self* time
(wall minus the wall of wrapped calls made inside it) under its layer,
so layer self times never count the same second twice.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import cached_property, wraps

#: Layers in roll-up order.
LAYERS = (
    "runners",
    "protocol",
    "engine",
    "paths",
    "network",
    "faults",
    "scenarios",
    "sweep",
)


def _targets():
    """``(owner, attribute, layer, key)`` for every wrapped callable.

    Module-level functions are listed under the module whose namespace
    the benchmarked code looks them up in.
    """
    from repro.core import engine, protocol
    from repro.network.topology import Topology
    from repro.paths.collection import PathCollection
    from repro.runners import protocol_trials, trial
    from repro.scenarios import engine as scen_engine, spec
    from repro.sweep import journal, supervisor, worker

    return [
        (protocol_trials, "route_collection_trials", "runners", "runners.route_collection_trials"),
        (protocol_trials, "protocol_trial", "runners", "runners.protocol_trial"),
        (protocol_trials, "protocol_trial_batch", "runners", "runners.protocol_trial_batch"),
        (trial.TrialRunner, "run_seeds", "runners", "runners.run_seeds"),
        (protocol_trials, "run_protocol_batch", "protocol", "protocol.run_protocol_batch"),
        (protocol.TrialAndFailureProtocol, "run", "protocol", "protocol.run"),
        (protocol.TrialAndFailureProtocol, "__init__", "protocol", "protocol.init"),
        (protocol, "run_round_batch", "engine", "engine.run_round_batch"),
        (engine.RoutingEngine, "run_round", "engine", "engine.run_round"),
        (engine.RoutingEngine, "__init__", "engine", "engine.init"),
        (engine.RoutingEngine, "fork", "engine", "engine.fork"),
        (engine.RoutingEngine, "add_worms", "engine", "engine.mutate"),
        (engine.RoutingEngine, "retire_worms", "engine", "engine.mutate"),
        (PathCollection, "__init__", "paths", "paths.init"),
        (PathCollection, "subset", "paths", "paths.subset"),
        (PathCollection, "path_congestion", "paths", "paths.path_congestion"),
        (PathCollection, "subset_congestion_batch", "paths", "paths.oracle"),
        (Topology, "validate_path", "network", "network.validate_path"),
        (protocol, "surviving_graph", "faults", "faults.repair"),
        (protocol, "reroute_path", "faults", "faults.repair"),
        (protocol, "collection_links", "faults", "faults.repair"),
        (spec, "run_scenario", "scenarios", "scenarios.run_scenario"),
        (scen_engine.StreamingEngine, "run", "scenarios", "scenarios.run"),
        (supervisor.SweepSupervisor, "start", "sweep", "sweep.start"),
        (worker, "execute_shard", "sweep", "sweep.execute_shard"),
        (journal, "commit_json", "sweep", "sweep.commit_json"),
        (supervisor, "commit_json", "sweep", "sweep.commit_json"),
    ]


class LayerTracer:
    """In-memory call timers, active between :meth:`install` and :meth:`uninstall`.

    ``self_s[layer]`` sums self time; ``total_s[key]`` and ``calls[key]``
    sum wall time and count calls per wrapped callable.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, key: str):
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        @wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += wall
                self_s[layer] += wall - child
                total_s[key] += wall
                calls[key] += 1

        return timed

    def install(self) -> None:
        """Swap every target for its timed wrapper (idempotent per tracer)."""
        if self._saved:
            return
        for owner, attr, layer, key in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, cached_property):
                replacement = cached_property(self._wrap(original.func, layer, key))
                replacement.__set_name__(owner, attr)
            else:
                replacement = self._wrap(original, layer, key)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def attributed_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of a registry counter over all its label sets (0 when absent)."""
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    return float(sum(entry["values"].values()))


def span_self_total(snapshot: dict, stage: str) -> float:
    """Self seconds of every span path that ends in ``stage``."""
    return sum(
        stats["self"]
        for path, stats in snapshot.items()
        if path.rsplit("/", 1)[-1] == stage
    )
