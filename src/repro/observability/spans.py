"""Span profiler: nestable wall/self-time tracing for the hot paths.

Where :mod:`repro.observability.metrics` answers "how many and how
long in aggregate", spans answer "*where* is the time going": a
``span("engine.resolve")`` context manager opens a named region, spans
nest (each thread keeps its own stack), and every exit folds the
region's wall time -- and its *self* time, wall minus the time spent in
child spans -- into a deterministic aggregated profile keyed by the
span *path* (``"protocol.round/engine.round/engine.resolve"``).

The profile mirrors the metrics registry's aggregation contract:
:meth:`SpanProfile.snapshot` is a plain, JSON-ready, deterministically
ordered dict and :meth:`SpanProfile.merge` folds one snapshot into
another (counts/totals add, min/max combine), so per-worker profiles
can be shipped across process boundaries exactly like metrics
snapshots. :func:`write_profile` exports a snapshot as one
``span_profile`` JSONL record through a
:class:`~repro.observability.trace.TraceWriter`.

The process default is :data:`NULL_PROFILER`, a :class:`NullProfiler`
whose ``span()`` returns a shared no-op context manager, so the
instrumented layers (:class:`~repro.core.engine.RoutingEngine` stages,
:class:`~repro.core.protocol.TrialAndFailureProtocol` and streaming
rounds, :class:`~repro.runners.trial.TrialRunner` trials and the
:class:`~repro.scenarios.engine.StreamingEngine` admission phase) cost essentially nothing until :func:`enable_profiling` swaps
in a real profiler -- the same opt-in shape as ``enable_metrics``, with
the same <5% disabled-overhead tripwire in the test suite. Render a
snapshot with :func:`repro.observability.analysis.render_spans`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Iterator, Mapping

__all__ = [
    "SpanProfile",
    "SpanProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "get_profiler",
    "enable_profiling",
    "disable_profiling",
    "write_profile",
]

#: Path separator between nested span names.
SEP = "/"


class _Frame:
    """One open span on a thread's stack (internal)."""

    __slots__ = ("path", "start", "child")

    def __init__(self, path: str, start: float) -> None:
        self.path = path
        self.start = start
        self.child = 0.0  # wall time spent inside child spans


class SpanProfile:
    """Aggregated span statistics, thread-safe, mergeable.

    One entry per span *path*; each entry tracks ``count``, ``total``
    (wall seconds), ``self`` (wall minus child spans) and ``min``/
    ``max`` wall time of a single occurrence. The mutable state is
    internal; :meth:`snapshot` is the exchange format.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # path -> [count, total, self_total, min, max]
        self._spans: dict[str, list[float]] = {}

    def record(self, path: str, wall: float, self_time: float) -> None:
        """Fold one completed span occurrence into the profile."""
        with self._lock:
            entry = self._spans.get(path)
            if entry is None:
                self._spans[path] = [1, wall, self_time, wall, wall]
            else:
                entry[0] += 1
                entry[1] += wall
                entry[2] += self_time
                if wall < entry[3]:
                    entry[3] = wall
                if wall > entry[4]:
                    entry[4] = wall

    def snapshot(self) -> dict:
        """A plain, JSON-ready dict of every span path, sorted.

        Sorting by path keeps parents immediately before their children
        (``"a" < "a/b"``), which is what the flame renderer relies on.
        """
        out: dict = {}
        with self._lock:
            for path in sorted(self._spans):
                count, total, self_total, mn, mx = self._spans[path]
                out[path] = {
                    "count": int(count),
                    "total": total,
                    "self": self_total,
                    "min": mn,
                    "max": mx,
                }
        return out

    def merge(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` into this profile (counts/totals add)."""
        for path, stats in snapshot.items():
            with self._lock:
                entry = self._spans.get(path)
                if entry is None:
                    self._spans[path] = [
                        int(stats["count"]),
                        stats["total"],
                        stats["self"],
                        stats["min"],
                        stats["max"],
                    ]
                else:
                    entry[0] += int(stats["count"])
                    entry[1] += stats["total"]
                    entry[2] += stats["self"]
                    entry[3] = min(entry[3], stats["min"])
                    entry[4] = max(entry[4], stats["max"])

    def reset(self) -> None:
        """Drop every span (the profile object stays usable)."""
        with self._lock:
            self._spans.clear()


class SpanProfiler:
    """Opens spans and aggregates them into a :class:`SpanProfile`.

    ``span(name)`` is the whole tracing API: a reentrant, nestable
    context manager. Each thread keeps its own span stack (a span opened
    on one thread never becomes the parent of a span on another), while
    the aggregated profile is shared and thread-safe.
    """

    #: False only on :class:`NullProfiler`; instrumented code and the
    #: engine use this to skip the profiled wrapper entirely.
    enabled = True

    def __init__(self, profile: SpanProfile | None = None) -> None:
        self.profile = profile if profile is not None else SpanProfile()
        self._local = threading.local()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open the named span; nested calls build ``parent/child`` paths."""
        stack = self._stack()
        path = stack[-1].path + SEP + name if stack else name
        frame = _Frame(path, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            stack.pop()
            wall = time.perf_counter() - frame.start
            if stack:
                stack[-1].child += wall
            self.profile.record(path, wall, wall - frame.child)

    # Delegates, so a profiler can stand in wherever a profile is wanted.

    def snapshot(self) -> dict:
        """The aggregated profile's :meth:`SpanProfile.snapshot`."""
        return self.profile.snapshot()

    def merge(self, snapshot: Mapping) -> None:
        """Fold a snapshot into the aggregated profile."""
        self.profile.merge(snapshot)

    def reset(self) -> None:
        """Drop every aggregated span."""
        self.profile.reset()


class NullProfiler(SpanProfiler):
    """The disabled profiler: ``span()`` is a shared no-op context."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._noop = contextlib.nullcontext()

    def span(self, name: str):
        """A shared no-op context manager (never records anything)."""
        return self._noop


#: The process-default profiler: a no-op until :func:`enable_profiling`.
NULL_PROFILER = NullProfiler()

_default_profiler: SpanProfiler = NULL_PROFILER
_default_lock = threading.Lock()


def get_profiler() -> SpanProfiler:
    """The current process-default profiler (:data:`NULL_PROFILER` unless enabled)."""
    return _default_profiler


def enable_profiling(profiler: SpanProfiler | None = None) -> SpanProfiler:
    """Install ``profiler`` (or a fresh one) as the process default."""
    global _default_profiler
    with _default_lock:
        if profiler is None:
            profiler = SpanProfiler()
        _default_profiler = profiler
    return profiler


def disable_profiling() -> None:
    """Restore the no-op default profiler."""
    global _default_profiler
    with _default_lock:
        _default_profiler = NULL_PROFILER


def write_profile(writer, profile: SpanProfile | SpanProfiler, **fields) -> None:
    """Write one ``span_profile`` trace record holding the snapshot.

    ``writer`` is a :class:`~repro.observability.trace.TraceWriter`;
    extra ``fields`` (e.g. ``trial=``) tag the record. Read it back with
    ``RunTrace.of_kind("span_profile")`` and rebuild an aggregate via
    :meth:`SpanProfile.merge`.
    """
    writer.write("span_profile", spans=profile.snapshot(), **fields)
