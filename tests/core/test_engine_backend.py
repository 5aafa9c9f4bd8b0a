"""Backend names plus the round of engine correctness fixes.

Covers: the backend names (process default, unknown values, and that
the engine takes none), the empty-launch observability fix (rounds are
tallied even when nothing launches), launch validation at the engine
boundary (negative delays / wavelengths raise ``ProtocolError`` even
from launch-shaped objects that bypassed ``Launch``'s own checks), the
stale-occupancy eviction in the scalar replay, fixed cases of the
clash-only replay (truncation, dead links and recorder streams around
one clashed event), and fixed cases of the serve-first settle step
(which clashed events it finds contended; a serve-first pass never
replays and builds no run state without a recorder). The engine is
property-tested against the flit-level oracle in
``tests/property/test_differential_backend.py`` and, under serve-first,
against a scalar replay in ``tests/property/test_differential_settle.py``;
its full output is pinned by ``tests/core/test_golden_rounds.py``.
"""

import pytest

import repro.core.engine as engine_module
from repro.core.engine import (
    BACKENDS,
    RoundCall,
    RoutingEngine,
    _clashed,
    _lexorder,
    _Slot,
    get_default_backend,
    run_round,
    run_round_batch,
    set_default_backend,
)
from repro.core.protocol import ProtocolConfig
from repro.core.records import RoundResult
from repro.core.reference import reference_run_round
from repro.errors import ProtocolError
from repro.experiments.workloads import mesh_random_function
from repro.observability.analysis import verify_replay
from repro.observability.flightrec import FlightRecorder
from repro.observability.metrics import MetricsRegistry
from repro.optics.coupler import CollisionRule, TieRule
from repro.runners import route_collection_trials
from repro.worms.worm import FailureKind, Launch, Worm
from tests.property.test_differential_settle import scalar_round


def _chain_worms(n, path=(0, 1, 2), length=2):
    return [Worm(uid=i, path=path, length=length) for i in range(n)]


class _RawLaunch:
    """A launch-shaped object that skips Launch's own validation."""

    def __init__(self, worm, delay, wavelength, priority=0):
        self.worm = worm
        self.delay = delay
        self.wavelength = wavelength
        self.priority = priority


class TestBackendSelection:
    def test_default_is_python(self):
        assert get_default_backend() == "python"
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        assert not hasattr(engine, "backend")

    def test_explicit_backend(self):
        # The engine has one kernel and takes no backend name.
        for backend in BACKENDS:
            with pytest.raises(TypeError, match="backend"):
                RoutingEngine(
                    _chain_worms(1), CollisionRule.SERVE_FIRST, backend=backend
                )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ProtocolError, match="backend"):
            ProtocolConfig(bandwidth=1, backend="cuda")

    def test_process_default_round_trips(self):
        assert get_default_backend() == "python"
        set_default_backend("vectorized")
        try:
            assert get_default_backend() == "vectorized"
        finally:
            set_default_backend("python")

    def test_set_default_rejects_unknown(self):
        with pytest.raises(ProtocolError, match="backend"):
            set_default_backend("fortran")
        assert get_default_backend() == "python"

    def test_process_default_never_changes_a_round(self):
        worms = _chain_worms(3)
        launches = [Launch(worm=i, delay=i, wavelength=0) for i in range(3)]
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        want = engine.run_round(launches)
        assert want.collisions
        try:
            for backend in BACKENDS:
                set_default_backend(backend)
                assert engine.run_round(launches) == want
                fresh = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
                assert fresh.run_round(launches) == want
        finally:
            set_default_backend("python")

    def test_run_round_wrapper_takes_no_backend(self):
        worms = _chain_worms(3)
        launches = [Launch(worm=i, delay=2 * i, wavelength=0) for i in range(3)]
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        assert run_round(
            worms, launches, CollisionRule.SERVE_FIRST
        ) == engine.run_round(launches)
        with pytest.raises(TypeError, match="backend"):
            run_round(
                worms, launches, CollisionRule.SERVE_FIRST, backend="python"
            )


class TestEmptyRoundAccounting:
    """An empty-launch round must still be visible to observability."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.usefixtures("backend_default")
    def test_empty_round_counted(self):
        registry = MetricsRegistry()
        engine = RoutingEngine(
            _chain_worms(2), CollisionRule.SERVE_FIRST, metrics=registry
        )
        result = engine.run_round([])
        assert result == RoundResult(outcomes={}, collisions=(), makespan=None)
        assert registry.value("engine_rounds_total", rule="serve_first") == 1
        assert registry.value("engine_events_total", rule="serve_first") == 0
        assert registry.value("engine_worms_launched_total", rule="serve_first") == 0
        # A real round afterwards keeps counting from there.
        engine.run_round([Launch(worm=0, delay=0, wavelength=0)])
        assert registry.value("engine_rounds_total", rule="serve_first") == 2

    def test_empty_round_observes_wall_time(self):
        registry = MetricsRegistry()
        engine = RoutingEngine(
            _chain_worms(1), CollisionRule.SERVE_FIRST, metrics=registry
        )
        engine.run_round([])
        hist = registry.value("engine_round_seconds", rule="serve_first")
        assert hist["count"] == 1


class TestLaunchValidationAtEngine:
    """The engine revalidates launches; garbage must not corrupt a round."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.usefixtures("backend_default")
    def test_negative_delay_rejected(self):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError, match="negative launch delay"):
            engine.run_round([_RawLaunch(0, delay=-1, wavelength=0)])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.usefixtures("backend_default")
    def test_negative_wavelength_rejected(self):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError, match="negative wavelength"):
            engine.run_round([_RawLaunch(0, delay=0, wavelength=-2)])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.usefixtures("backend_default")
    def test_negative_per_link_wavelength_rejected(self):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError, match="negative per-link wavelength"):
            engine.run_round([_RawLaunch(0, delay=0, wavelength=(0, -1))])

    def test_per_link_length_mismatch_still_rejected(self):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError, match="per-link wavelengths"):
            engine.run_round([_RawLaunch(0, delay=0, wavelength=(0, 0, 0))])

    def test_valid_raw_launch_passes(self):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        result = engine.run_round([_RawLaunch(0, delay=1, wavelength=(1, 0))])
        assert result.outcomes[0].delivered


class TestOccupancyEviction:
    """The scalar replay evicts a stale record on detection.

    Only replayed events reach the scalar loop, so each case builds a
    clash cluster in which the replay meets a record whose tail already
    cleared. A serve-first round replays nothing, so its case runs the
    scalar replay of its clashes through ``scalar_round``.
    """

    def _spy_install(self, engine, captured):
        original = engine._install

        def spy(occupancy, key, run, pos, t):
            captured.setdefault("occupancy", occupancy)
            original(occupancy, key, run, pos, t)

        engine._install = spy

    def test_stale_records_evicted(self):
        # Serve-first: worm 0 holds link (0, 1) over [0, 3] and
        # eliminates worm 1 there at t=2. Worms 2 and 3 tie on (0, 1)
        # at t=5, within the clash gap but after worm 0's tail cleared:
        # the settle step finds only those three events contended. The
        # scalar replay of the clashes installs worm 0, finds its
        # record stale at t=5, evicts it, and the all-lose pair installs
        # nothing, so the dict ends with no record on (0, 1); without
        # the eviction it would still hold worm 0's dead record. It
        # keeps worm 0's record on (1, 2), which worm 1's clashed event
        # there (after its death) never reaches.
        worms = _chain_worms(4, length=4)
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        captured = {}
        self._spy_install(engine, captured)
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            Launch(worm=1, delay=2, wavelength=0),
            Launch(worm=2, delay=5, wavelength=0),
            Launch(worm=3, delay=5, wavelength=0),
        ]
        assert _contended_positions(worms, launches) == {
            1: [0], 2: [0], 3: [0],
        }
        result = engine.run_round(launches)
        out = result.outcomes
        assert out[0].delivered
        assert out[1].blockers == (0,)
        assert out[2].blockers == (3,) and out[3].blockers == (2,)
        assert "occupancy" not in captured
        assert scalar_round(RoundCall(engine, launches)) == result
        held = [engine._links[lid] for lid, _ in captured["occupancy"]]
        assert held == [(1, 2)]

    def test_dict_bounded_by_live_keys_not_arrivals(self):
        # Priority rule, so every clashed event replays. A long worm on
        # a path of its own widens the clash gap to seven steps; two-flit
        # worms three steps apart over one path are then all clashed,
        # and each arrival finds its predecessor's record stale. The
        # dict never exceeds the path's two (link, wavelength) keys no
        # matter how many worms pass through.
        n = 30
        worms = _chain_worms(n) + [Worm(uid=n, path=(5, 6), length=8)]
        engine = RoutingEngine(worms, CollisionRule.PRIORITY)
        captured = {}
        self._spy_install(engine, captured)
        launches = [Launch(worm=i, delay=3 * i, wavelength=0) for i in range(n)]
        launches.append(Launch(worm=n, delay=0, wavelength=0))
        replayed = _replayed_positions(worms, launches, CollisionRule.PRIORITY)
        assert replayed == {i: [0, 1] for i in range(n)}
        result = engine.run_round(launches)
        assert all(o.delivered for o in result.outcomes.values())
        assert len(captured["occupancy"]) == 2


class TestFork:
    """``fork()``: a clone sharing precomputed layout, not metrics."""

    def _engine(self, **kwargs):
        return RoutingEngine(
            _chain_worms(3), CollisionRule.SERVE_FIRST, **kwargs
        )

    def test_fork_inherits_metrics_by_default(self):
        registry = MetricsRegistry()
        parent = self._engine(metrics=registry)
        assert parent.fork()._metrics is registry

    def test_fork_overrides_metrics(self):
        parent = self._engine(metrics=MetricsRegistry())
        mine = MetricsRegistry()
        clone = parent.fork(metrics=mine)
        assert clone._metrics is mine
        clone2 = parent.fork(metrics=None)
        assert clone2._metrics is None

    def test_fork_rounds_bit_identical(self):
        launches = [Launch(worm=i, delay=i, wavelength=0) for i in range(3)]
        parent = self._engine()
        clone = parent.fork()
        assert clone.run_round(launches) == parent.run_round(launches)

    def test_fork_registration_does_not_leak_to_parent(self):
        parent = self._engine()
        clone = parent.fork()
        clone.add_worms([Worm(uid=99, path=(0, 1), length=1)])
        assert 99 in clone._worms
        assert 99 not in parent._worms


class _Collector:
    """In-memory trace writer: ``.records`` of plain dicts."""

    def __init__(self):
        self.records = []

    def write(self, kind, **fields):
        self.records.append({"kind": kind, **fields})


#: Worm A's path: seven links, each used by no other worm except where a
#: case routes a crossing worm through one of them.
_LINE = (0, 1, 2, 3, 4, 5, 6, 7)


def _run_all(worms, launches, rule, dead_links=(), tie_rule=TieRule.ALL_LOSE):
    """Run one round every way the engine can, plus the oracle.

    Returns ``(results, streams, engine)``: ``"engine"`` is a recorded
    :meth:`RoutingEngine.run_round`, ``"plain"`` the same round without
    a recorder, ``"stacked-0"``/``"stacked-1"`` two recorded copies of
    it in one ``run_round_batch`` pass, and ``"reference"``
    ``reference_run_round``'s result; ``streams`` holds each recorded
    run's flight-recorder stream.
    """
    dead = dead_links or None

    def recorder():
        collector = _Collector()
        fr = FlightRecorder(collector)
        fr.describe_worms(worms)
        fr.begin_round(1)
        return fr, collector

    results, streams = {}, {}
    fr, collector = recorder()
    engine = RoutingEngine(worms, rule, tie_rule)
    result = engine.run_round(launches, dead_links=dead, recorder=fr)
    fr.end_round(result.makespan)
    results["engine"], streams["engine"] = result, collector.records
    results["plain"] = RoutingEngine(worms, rule, tie_rule).run_round(
        launches, dead_links=dead
    )
    calls, collectors = [], []
    for _ in range(2):
        fr, collector = recorder()
        calls.append(RoundCall(
            RoutingEngine(worms, rule, tie_rule), launches,
            dead_links=dead, recorder=fr,
        ))
        collectors.append(collector)
    for i, (call, collector, result) in enumerate(
        zip(calls, collectors, run_round_batch(calls))
    ):
        call.recorder.end_round(result.makespan)
        results[f"stacked-{i}"] = result
        streams[f"stacked-{i}"] = collector.records
    results["reference"] = reference_run_round(
        worms, launches, rule, tie_rule, dead_links=dead
    )
    return results, streams, engine


def _assert_identical(results, streams):
    """Every run agrees; the stream replays; the oracle agrees."""
    want = results["engine"]
    for name in ("plain", "stacked-0", "stacked-1"):
        assert results[name] == want, name
        assert results[name].faulted_links == want.faulted_links, name
    for name in ("stacked-0", "stacked-1"):
        assert streams[name] == streams["engine"], name
    report = verify_replay(streams["engine"])
    assert report.rounds_checked == 1
    assert report.mismatches == ()
    ref = results["reference"]
    assert ref.outcomes == want.outcomes
    assert ref.makespan == want.makespan


def _clashed_positions(engine, launches, uid):
    """The positions of worm ``uid`` whose events the partition replays."""
    slot = _Slot(0, RoundCall(engine, launches), None)
    slot.begin()
    worms = slot.launched
    t, lid, wl, pos, ri = slot.parts
    radix = int(wl.max()) + 1
    order = _lexorder(
        (t, lid, wl, pos, ri),
        (int(t.max()) + 1, len(engine._links), radix, engine._max_links,
         len(worms)),
    )
    t, lid, wl, pos, ri = (col[order] for col in (t, lid, wl, pos, ri))
    gap = max(worm.length for worm in worms) - 1
    mask = _clashed(
        lid * radix + wl, t, gap, len(engine._links) * radix, int(t[-1]) + 1
    )
    k = next(i for i, worm in enumerate(worms) if worm.uid == uid)
    return sorted(pos[mask & (ri == k)].tolist())


def _replayed_positions(worms, launches, rule, tie_rule=TieRule.ALL_LOSE,
                        dead_links=()):
    """Each worm's positions that the engine replays (priority rule).

    Spies on the engine's scalar replay; worms it never sees are absent.
    """
    engine = RoutingEngine(worms, rule, tie_rule)
    replay = engine._resolve_scalar
    seen = {}

    def spy(events, *args, **kwargs):
        for _, _, _, pos, k in events:
            seen.setdefault(launches[k].worm, []).append(pos)
        return replay(events, *args, **kwargs)

    engine._resolve_scalar = spy
    engine.run_round(launches, dead_links=dead_links or None)
    return {uid: sorted(positions) for uid, positions in seen.items()}


def _contended_positions(worms, launches, tie_rule=TieRule.ALL_LOSE,
                         dead_links=()):
    """Each worm's positions that the serve-first settle step finds contended.

    A contended event is a live head in a tie or on an occupied channel;
    spies on :func:`_settle`, and worms with no contended event are
    absent.
    """
    settle = engine_module._settle
    seen = {}

    def spy(chan, t, pos, run, *args):
        dead_at, blocker, contended, replay = settle(chan, t, pos, run, *args)
        for p, k in zip(pos[contended].tolist(), run[contended].tolist()):
            seen.setdefault(launches[k].worm, []).append(p)
        return dead_at, blocker, contended, replay

    engine_module._settle = spy
    try:
        RoutingEngine(worms, CollisionRule.SERVE_FIRST, tie_rule).run_round(
            launches, dead_links=dead_links or None
        )
    finally:
        engine_module._settle = settle
    return {uid: sorted(positions) for uid, positions in seen.items()}


class TestClashReplay:
    """The partition replays only clashed events, never a whole worm.

    In the first cases worm 0 runs along ``_LINE`` and meets another
    worm on exactly one link, so it has unclashed events both before and
    after its one clashed event. The serve-first cases after them
    replay nothing: the settle step decides every clashed event. The
    engine with and without a recorder,
    two copies stacked in one pass and the flit-level oracle must agree
    on the RoundResult, the recorded runs on the flight-recorder stream,
    and the stream must pass the replay verifier.
    """

    def _truncation_case(self):
        # Worm 1 (higher priority, one flit) reaches link (3, 4) at t=5
        # while worm 0 holds it since t=3: worm 0 is cut to 5 - 3 = 2
        # flits there, and every record from position 3 on is capped.
        worms = [
            Worm(uid=0, path=_LINE, length=4),
            Worm(uid=1, path=(10, 3, 4, 11), length=1),
        ]
        launches = [
            Launch(worm=0, delay=0, wavelength=0, priority=0),
            Launch(worm=1, delay=4, wavelength=0, priority=1),
        ]
        return worms, launches

    def test_truncation_caps_unclashed_records(self):
        worms, launches = self._truncation_case()
        results, streams, engine = _run_all(
            worms, launches, CollisionRule.PRIORITY
        )
        _assert_identical(results, streams)
        assert _clashed_positions(engine, launches, 0) == [3]
        # The priority rule replays the whole clash set.
        assert _replayed_positions(worms, launches, CollisionRule.PRIORITY) == {
            0: _clashed_positions(engine, launches, 0),
            1: _clashed_positions(engine, launches, 1),
        }
        cut = results["engine"].outcomes[0]
        assert cut.failure is FailureKind.TRUNCATED
        assert cut.delivered_flits == 2
        # Worm 0's last record (position 6, entered at t=6) carries the
        # cut length: 6 + 2 - 1. Uncapped it would end at 6 + 4 - 1, and
        # worm 1's last record ends at t=6.
        assert results["engine"].makespan == 7

    def test_recorder_sees_cut_length_in_force(self):
        worms, launches = self._truncation_case()
        _, streams, _ = _run_all(worms, launches, CollisionRule.PRIORITY)
        surviving = {
            r["pos"]: r["surviving"]
            for r in streams["engine"]
            if r["kind"] == "worm_advance" and r["worm"] == 0
        }
        # The cut lands in the (t=5, link (3, 4)) group, which sorts
        # before worm 0's own t=5 event on link (5, 6).
        assert surviving == {0: 4, 1: 4, 2: 4, 3: 4, 4: 4, 5: 2, 6: 2}

    def _elimination_case(self):
        # Worm 1 holds link (3, 4) from t=2 to t=5; worm 0 arrives there
        # at t=3 and is eliminated (serve-first). Worm 2 crosses link
        # (5, 6) at t=10, long after worm 0's slot there, so its event
        # is unclashed too.
        worms = [
            Worm(uid=0, path=_LINE, length=4),
            Worm(uid=1, path=(20, 3, 4, 21), length=4),
            Worm(uid=2, path=(30, 5, 6, 31), length=4),
        ]
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            Launch(worm=1, delay=1, wavelength=0),
            Launch(worm=2, delay=9, wavelength=0),
        ]
        return worms, launches

    def test_elimination_without_faults(self):
        worms, launches = self._elimination_case()
        results, streams, engine = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST
        )
        _assert_identical(results, streams)
        assert _clashed_positions(engine, launches, 0) == [3]
        lost = results["engine"].outcomes[0]
        assert lost.failure is FailureKind.ELIMINATED
        assert lost.failed_at_link == 3

    def test_dead_link_downstream_of_elimination(self):
        # Worm 0 dies at (3, 4) before reaching the dead (5, 6); worm 2
        # is the only head lost there.
        worms, launches = self._elimination_case()
        results, streams, _ = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST, dead_links=[(5, 6)]
        )
        _assert_identical(results, streams)
        out = results["engine"].outcomes
        assert out[0].failure is FailureKind.ELIMINATED
        assert out[2].failure is FailureKind.FAULTED
        assert results["engine"].faulted_links == ((5, 6),)

    def test_dead_link_upstream_of_elimination(self):
        # Worm 0 faults at (1, 2) at t=1, so its clashed event at (3, 4)
        # never happens and worm 1 crosses unopposed.
        worms, launches = self._elimination_case()
        results, streams, _ = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST, dead_links=[(1, 2)]
        )
        _assert_identical(results, streams)
        out = results["engine"].outcomes
        assert out[0].failure is FailureKind.FAULTED
        assert out[0].failed_at_link == 1
        assert out[1].delivered
        assert results["engine"].collisions == ()

    def test_dead_links_on_both_sides(self):
        worms, launches = self._elimination_case()
        results, streams, _ = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST,
            dead_links=[(5, 6), (1, 2)],
        )
        _assert_identical(results, streams)
        out = results["engine"].outcomes
        assert out[0].failed_at_link == 1 and out[0].failure is FailureKind.FAULTED
        assert out[2].failure is FailureKind.FAULTED
        # Attribution follows event order: worm 0's t=1 hit comes first.
        assert results["engine"].faulted_links == ((1, 2), (5, 6))

    # -- the serve-first settle step -----------------------------------------
    #
    # The numpy fixed point decides every clashed event; only the live
    # heads of a tie or on an occupied channel are contended. Each case
    # also pins the exact contended positions. Worm 0 runs along
    # ``_LINE`` with delay 0, so it enters link ``(i, i + 1)`` at
    # ``t = i``.

    def test_cascade_frees_a_later_arrival(self):
        # Worm 1 holds (2, 3) over [1, 4], so worm 0 dies there at t=2.
        # Had it lived it would hold (4, 5) over [4, 7] and eliminate
        # worm 2, which arrives there at t=5: worm 2's event is clashed
        # but meets an idle channel once the upstream loss is settled.
        worms = [
            Worm(uid=0, path=_LINE, length=4),
            Worm(uid=1, path=(20, 2, 3, 21), length=4),
            Worm(uid=2, path=(40, 4, 5, 41), length=4),
        ]
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            Launch(worm=1, delay=0, wavelength=0),
            Launch(worm=2, delay=4, wavelength=0),
        ]
        results, streams, engine = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST
        )
        _assert_identical(results, streams)
        assert _clashed_positions(engine, launches, 2) == [1]
        # Worm 1's install at (2, 3) is the occupant, not contended.
        assert _contended_positions(worms, launches) == {0: [2]}
        out = results["engine"].outcomes
        assert out[0].failed_at_link == 2 and out[0].blockers == (1,)
        assert out[1].delivered and out[2].delivered

    def test_head_eliminated_where_it_arrives(self):
        # Worms 0 and 1 reach (3, 4) together at t=3: both heads get
        # there and both die there, so neither holds the link when
        # worm 2 arrives at t=5.
        worms = [
            Worm(uid=0, path=_LINE, length=4),
            Worm(uid=1, path=(30, 3, 4, 31), length=4),
            Worm(uid=2, path=(50, 3, 4, 51), length=4),
        ]
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            Launch(worm=1, delay=2, wavelength=0),
            Launch(worm=2, delay=4, wavelength=0),
        ]
        results, streams, _ = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST
        )
        _assert_identical(results, streams)
        assert _contended_positions(worms, launches) == {0: [3], 1: [1]}
        out = results["engine"].outcomes
        assert out[0].failed_at_link == 3 and out[1].failed_at_link == 1
        assert out[2].delivered

    def test_lowest_id_winner_becomes_occupant(self):
        # The same tie under LOWEST_ID_WINS: worm 0 wins (3, 4) and
        # holds it over [3, 6], so worm 2 arriving at t=5 is eliminated
        # with worm 0 as occupant and blocker.
        worms = [
            Worm(uid=0, path=_LINE, length=4),
            Worm(uid=1, path=(30, 3, 4, 31), length=4),
            Worm(uid=2, path=(50, 3, 4, 51), length=4),
        ]
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            Launch(worm=1, delay=2, wavelength=0),
            Launch(worm=2, delay=4, wavelength=0),
        ]
        results, streams, _ = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST,
            tie_rule=TieRule.LOWEST_ID_WINS,
        )
        _assert_identical(results, streams)
        # The tie's winner is contended too: it wins the tie.
        assert _contended_positions(
            worms, launches, TieRule.LOWEST_ID_WINS
        ) == {0: [3], 1: [1], 2: [1]}
        out = results["engine"].outcomes
        assert out[0].delivered
        assert out[1].blockers == (0,) and out[2].blockers == (0,)
        assert out[2].failed_at_link == 1

    def test_occupant_length_sets_its_end(self):
        # Worm 0 is one flit long: it holds (3, 4) only at t=3, so worm
        # 1 arriving at t=4 (within the four-flit clash gap) passes.
        # Worm 2 is four flits long and holds (5, 6) over [4, 7], so
        # worm 0 dies there at t=5.
        worms = [
            Worm(uid=0, path=_LINE, length=1),
            Worm(uid=1, path=(30, 3, 4, 31), length=4),
            Worm(uid=2, path=(50, 5, 6, 51), length=4),
        ]
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            Launch(worm=1, delay=3, wavelength=0),
            Launch(worm=2, delay=3, wavelength=0),
        ]
        results, streams, engine = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST
        )
        _assert_identical(results, streams)
        assert _clashed_positions(engine, launches, 0) == [3, 5]
        assert _contended_positions(worms, launches) == {0: [5]}
        out = results["engine"].outcomes
        assert out[0].failed_at_link == 5 and out[0].blockers == (2,)
        assert out[1].delivered and out[2].delivered

    def test_dark_link_inside_a_clash_cluster(self):
        # Worms 0 and 1 would tie on (3, 4) at t=3 and worm 2 follows at
        # t=4, but the link is dark: all three heads fault there, with
        # no collision. Worm 3 reaches (5, 6) at t=5, where worm 0 would
        # have tied with it, and is delivered. Nothing is contended.
        worms = [
            Worm(uid=0, path=_LINE, length=4),
            Worm(uid=1, path=(30, 3, 4, 31), length=4),
            Worm(uid=2, path=(40, 3, 4, 41), length=4),
            Worm(uid=3, path=(50, 5, 6, 51), length=4),
        ]
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            Launch(worm=1, delay=2, wavelength=0),
            Launch(worm=2, delay=3, wavelength=0),
            Launch(worm=3, delay=4, wavelength=0),
        ]
        results, streams, engine = _run_all(
            worms, launches, CollisionRule.SERVE_FIRST, dead_links=[(3, 4)]
        )
        _assert_identical(results, streams)
        assert _clashed_positions(engine, launches, 0) == [3, 5]
        assert _contended_positions(worms, launches, dead_links=[(3, 4)]) == {}
        out = results["engine"].outcomes
        for uid, pos in ((0, 3), (1, 1), (2, 1)):
            assert out[uid].failure is FailureKind.FAULTED
            assert out[uid].failed_at_link == pos
        assert out[3].delivered
        assert results["engine"].collisions == ()
        assert results["engine"].faulted_links == ((3, 4),)


class TestServeFirstNeverReplays:
    """A serve-first pass resolves in numpy: no scalar replay, no runs.

    Run state (``_Run``) is built for a serve-first worm only when a
    flight recorder needs it.
    """

    def _spy(self, monkeypatch):
        calls = {"replay": 0, "runs": 0}
        replay = RoutingEngine._resolve_scalar
        run_init = engine_module._Run.__init__

        def spy_replay(self, *args, **kwargs):
            calls["replay"] += 1
            return replay(self, *args, **kwargs)

        def spy_run(self, *args, **kwargs):
            calls["runs"] += 1
            run_init(self, *args, **kwargs)

        monkeypatch.setattr(RoutingEngine, "_resolve_scalar", spy_replay)
        monkeypatch.setattr(engine_module._Run, "__init__", spy_run)
        return calls

    def test_trials_never_replay(self, monkeypatch):
        calls = self._spy(monkeypatch)
        coll = mesh_random_function(6, 2, rng=3)
        results = route_collection_trials(coll, bandwidth=1, trials=4, seed=5)
        assert sum(r.rounds for r in results) > 4
        assert calls == {"replay": 0, "runs": 0}
        # The spies do see the priority rule's replay.
        route_collection_trials(
            coll, bandwidth=1, trials=2, seed=5, rule=CollisionRule.PRIORITY
        )
        assert calls["replay"] > 0 and calls["runs"] > 0

    def test_runs_only_for_a_recorder(self, monkeypatch):
        worms, launches = TestClashReplay()._elimination_case()
        calls = self._spy(monkeypatch)
        RoutingEngine(worms, CollisionRule.SERVE_FIRST).run_round(
            launches, dead_links=[(5, 6)]
        )
        assert calls == {"replay": 0, "runs": 0}
        recorder = FlightRecorder(_Collector())
        RoutingEngine(worms, CollisionRule.SERVE_FIRST).run_round(
            launches, dead_links=[(5, 6)], recorder=recorder
        )
        assert calls == {"replay": 0, "runs": len(worms)}
