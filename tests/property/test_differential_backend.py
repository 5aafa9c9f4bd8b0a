"""Differential testing: vectorized round kernel vs the scalar engine.

The vectorized backend must be *bit-identical* to the python one -- not
merely equivalent on outcome kinds -- because checkpoint resume, golden
traces and the CI perf gate all assume a backend is an implementation
detail. So unlike ``test_differential_engine`` (which compares against
the brute-force reference and tolerates legitimate blocker-identity
differences), these tests assert full ``RoundResult`` equality including
collision events and faulted-link order, plus equality of the flight-
recorder stream and a replay cross-check of vectorized traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import BACKENDS, RoundCall, RoutingEngine, run_round_batch
from repro.experiments.workloads import mesh_random_function
from repro.core.reference import reference_run_round
from repro.observability.analysis import verify_replay
from repro.observability.flightrec import FlightRecorder
from repro.optics.coupler import CollisionRule, TieRule
from repro.worms.worm import Launch, Launches, Worm, make_worms

NODES = 5

RULES = [
    (CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE),
    (CollisionRule.SERVE_FIRST, TieRule.LOWEST_ID_WINS),
    (CollisionRule.PRIORITY, TieRule.ALL_LOSE),
    (CollisionRule.PRIORITY, TieRule.LOWEST_ID_WINS),
]


@st.composite
def instances(draw, max_worms=5, max_len=4, max_delay=6, max_bandwidth=2,
              max_dead=2):
    """Random instances exercising every engine feature at once.

    Beyond ``test_differential_engine``'s strategy this also draws
    per-link wavelength tuples (some worms), a length per worm (so an
    occupant's own length, not the longest worm's, must set when it
    frees a link), and a small set of dead links sampled from the union
    of path links, so fault attribution and the per-link-wavelength
    event layout are covered too.
    """
    n_worms = draw(st.integers(1, max_worms))
    B = draw(st.integers(1, max_bandwidth))
    worms, launches = [], []
    ranks = draw(st.permutations(range(n_worms)))
    for uid in range(n_worms):
        path = draw(
            st.lists(st.integers(0, NODES - 1), min_size=2, max_size=NODES,
                     unique=True)
        )
        worm = Worm(uid=uid, path=tuple(path),
                    length=draw(st.integers(1, max_len)))
        worms.append(worm)
        if draw(st.booleans()):
            wavelength = tuple(
                draw(st.integers(0, B - 1)) for _ in range(worm.n_links)
            )
        else:
            wavelength = draw(st.integers(0, B - 1))
        launches.append(
            Launch(
                worm=uid,
                delay=draw(st.integers(0, max_delay)),
                wavelength=wavelength,
                priority=int(ranks[uid]),
            )
        )
    all_links = sorted({link for w in worms for link in w.links()})
    dead_links = draw(
        st.lists(st.sampled_from(all_links), max_size=max_dead, unique=True)
    )
    return worms, launches, tuple(dead_links)


class _Collector:
    """Minimal in-memory trace writer: ``.records`` of plain dicts."""

    def __init__(self):
        self.records = []

    def write(self, kind, **fields):
        self.records.append({"kind": kind, **fields})


def _round(worms, launches, rule, tie_rule, backend, dead_links=(),
           recorder=None):
    return RoutingEngine(worms, rule, tie_rule, backend=backend).run_round(
        launches,
        collect_collisions=True,
        dead_links=dead_links or None,
        recorder=recorder,
    )


def _batch_round(worms, launches, rule, tie_rule, dead_links=(),
                 recorder=None):
    """One round through the batch kernel (a singleton batch)."""
    engine = RoutingEngine(worms, rule, tie_rule, backend="batched")
    call = RoundCall(
        engine=engine,
        launches=launches,
        collect_collisions=True,
        dead_links=dead_links or None,
        recorder=recorder,
    )
    [result] = run_round_batch([call])
    return result


def _compare(worms, launches, dead_links, rule, tie_rule):
    py = _round(worms, launches, rule, tie_rule, "python", dead_links)
    vec = _round(worms, launches, rule, tie_rule, "vectorized", dead_links)
    bat = _round(worms, launches, rule, tie_rule, "batched", dead_links)
    kern = _batch_round(worms, launches, rule, tie_rule, dead_links)
    # Full structural equality: outcomes (including blocker identities),
    # the collision event sequence in order, makespan, faulted links --
    # three-way across backends, plus the stacked batch kernel itself.
    assert py == vec, (py, vec)
    assert py == bat, (py, bat)
    assert py == kern, (py, kern)
    assert py.faulted_links == vec.faulted_links
    assert py.faulted_links == bat.faulted_links
    assert py.faulted_links == kern.faulted_links


class TestBackendBitIdentity:
    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_serve_first_all_lose(self, inst):
        _compare(*inst, CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE)

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_priority_all_lose(self, inst):
        _compare(*inst, CollisionRule.PRIORITY, TieRule.ALL_LOSE)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_serve_first_lowest_id(self, inst):
        _compare(*inst, CollisionRule.SERVE_FIRST, TieRule.LOWEST_ID_WINS)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_priority_lowest_id(self, inst):
        _compare(*inst, CollisionRule.PRIORITY, TieRule.LOWEST_ID_WINS)

    @given(instances(max_worms=3, max_len=6, max_delay=3))
    @settings(max_examples=100, deadline=None)
    def test_long_worms_heavy_overlap(self, inst):
        # Longer worms + tight delays = more truncation cascades, which
        # stress the contended-subset handoff the hardest.
        _compare(*inst, CollisionRule.PRIORITY, TieRule.ALL_LOSE)


class TestVectorizedVsReference:
    """Triangulate: vectorized vs the per-flit brute-force simulator.

    Blocker identities may legitimately differ in all-lose ties, so this
    compares the observables (as ``test_differential_engine`` does for
    the scalar engine), closing the loop vectorized == scalar ==
    reference.
    """

    @given(instances(max_dead=0))
    @settings(max_examples=100, deadline=None)
    def test_serve_first(self, inst):
        worms, launches, _ = inst
        fast = _round(worms, launches, CollisionRule.SERVE_FIRST,
                      TieRule.ALL_LOSE, "vectorized")
        slow = reference_run_round(worms, launches, CollisionRule.SERVE_FIRST,
                                   TieRule.ALL_LOSE)
        assert set(fast.outcomes) == set(slow.outcomes)
        for uid in fast.outcomes:
            f, s = fast.outcomes[uid], slow.outcomes[uid]
            assert f.delivered == s.delivered, (uid, f, s)
            assert f.delivered_flits == s.delivered_flits, (uid, f, s)
            assert f.failure == s.failure, (uid, f, s)
            assert f.failed_at_link == s.failed_at_link, (uid, f, s)
            assert f.completion_time == s.completion_time, (uid, f, s)
        assert fast.makespan == slow.makespan


class TestRecorderStream:
    @given(instances())
    @settings(max_examples=75, deadline=None)
    def test_flight_records_bit_identical(self, inst):
        worms, launches, dead_links = inst
        streams = []
        for backend in ("python", "vectorized", "batched", "batch-kernel"):
            collector = _Collector()
            fr = FlightRecorder(collector)
            fr.describe_worms(worms)
            fr.begin_round(1)
            if backend == "batch-kernel":
                result = _batch_round(worms, launches,
                                      CollisionRule.SERVE_FIRST,
                                      TieRule.ALL_LOSE, dead_links,
                                      recorder=fr)
            else:
                result = _round(worms, launches, CollisionRule.SERVE_FIRST,
                                TieRule.ALL_LOSE, backend, dead_links,
                                recorder=fr)
            fr.end_round(result.makespan)
            streams.append(collector.records)
        assert all(s == streams[0] for s in streams[1:])

    @given(instances())
    @settings(max_examples=75, deadline=None)
    def test_vectorized_trace_replays(self, inst):
        # The replay verifier re-derives the makespan from the recorded
        # events alone; a vectorized trace must satisfy it just like a
        # scalar one (free-run records included).
        worms, launches, dead_links = inst
        collector = _Collector()
        fr = FlightRecorder(collector)
        fr.describe_worms(worms)
        fr.begin_round(1)
        result = _round(worms, launches, CollisionRule.PRIORITY,
                        TieRule.ALL_LOSE, "vectorized", dead_links,
                        recorder=fr)
        fr.end_round(result.makespan)
        report = verify_replay(collector)
        assert report.rounds_checked == 1
        assert report.mismatches == ()


class TestBatchKernelStacking:
    """Many trials stacked into ONE ``run_round_batch`` call.

    The batched backend's whole claim is that stacking K independent
    rounds into one set of ``(trial, link, wavelength)``-keyed arrays
    changes nothing: every trial's RoundResult -- and its recorder
    stream -- must equal the same trial run alone through the scalar
    engine.
    """

    @given(st.lists(instances(), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_stacked_rounds_bit_identical(self, insts):
        for rule, tie_rule in RULES:
            solo = [
                _round(worms, launches, rule, tie_rule, "python", dead)
                for worms, launches, dead in insts
            ]
            calls = [
                RoundCall(
                    engine=RoutingEngine(worms, rule, tie_rule,
                                         backend="batched"),
                    launches=launches,
                    collect_collisions=True,
                    dead_links=dead or None,
                )
                for worms, launches, dead in insts
            ]
            stacked = run_round_batch(calls)
            for i, (a, b) in enumerate(zip(solo, stacked)):
                assert a == b, (i, a, b)
                assert a.faulted_links == b.faulted_links, i

    @given(st.lists(instances(), min_size=2, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_stacked_recorder_streams_bit_identical(self, insts):
        solo_streams, stacked_streams = [], []
        recorders = []
        for worms, launches, dead in insts:
            collector = _Collector()
            fr = FlightRecorder(collector)
            fr.describe_worms(worms)
            fr.begin_round(1)
            result = _round(worms, launches, CollisionRule.SERVE_FIRST,
                            TieRule.ALL_LOSE, "python", dead, recorder=fr)
            fr.end_round(result.makespan)
            solo_streams.append(collector.records)

            collector2 = _Collector()
            fr2 = FlightRecorder(collector2)
            fr2.describe_worms(worms)
            fr2.begin_round(1)
            recorders.append((fr2, collector2))
        calls = [
            RoundCall(
                engine=RoutingEngine(worms, CollisionRule.SERVE_FIRST,
                                     TieRule.ALL_LOSE, backend="batched"),
                launches=launches,
                collect_collisions=True,
                dead_links=dead or None,
                recorder=recorders[i][0],
            )
            for i, (worms, launches, dead) in enumerate(insts)
        ]
        results = run_round_batch(calls)
        for (fr2, collector2), result in zip(recorders, results):
            fr2.end_round(result.makespan)
            stacked_streams.append(collector2.records)
        assert solo_streams == stacked_streams


def _as_columns(launches):
    """``launches`` built straight as columns, not through ``Launches.of``."""
    wls = [launch.wavelength for launch in launches]
    tuples = [wl if isinstance(wl, tuple) else None for wl in wls]
    return Launches(
        worm=np.array([launch.worm for launch in launches], dtype=np.int64),
        delay=np.array([launch.delay for launch in launches], dtype=np.int64),
        wavelength=np.array(
            [0 if isinstance(wl, tuple) else wl for wl in wls], dtype=np.int64
        ),
        priority=np.array([launch.priority for launch in launches], dtype=np.int64),
        per_link=tuples if any(tuples) else None,
    )


class TestColumnarLaunches:
    """A round launched as columns equals the round launched as objects.

    Every backend, under every rule and tie rule, with per-link
    wavelength tuples, dead links and a flight recorder: the two forms
    give equal RoundResults, outcomes in the same order, the same
    recorder stream, and the flit-level oracle's observables.
    """

    @given(instances(), st.sampled_from(RULES), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_columns_match_objects(self, inst, rules, record):
        worms, launches, dead_links = inst
        rule, tie_rule = rules
        columns = _as_columns(launches)
        assert list(columns) == launches
        for backend in BACKENDS:
            got = []
            for form in (launches, columns):
                collector = _Collector() if record else None
                recorder = None
                if record:
                    recorder = FlightRecorder(collector)
                    recorder.describe_worms(worms)
                    recorder.begin_round(1)
                result = _round(worms, form, rule, tie_rule, backend,
                                dead_links, recorder=recorder)
                if record:
                    recorder.end_round(result.makespan)
                got.append((result, collector and collector.records))
            (a, stream_a), (b, stream_b) = got
            assert a == b, (backend, a, b)
            assert list(a.outcomes) == list(b.outcomes) == [
                launch.worm for launch in launches
            ]
            assert a.faulted_links == b.faulted_links
            assert a.failure_counts == b.failure_counts
            assert stream_a == stream_b, backend
        slow = reference_run_round(worms, columns, rule, tie_rule,
                                   dead_links=dead_links or None)
        assert list(slow.outcomes) == list(b.outcomes)
        for uid, s in slow.outcomes.items():
            f = b.outcomes[uid]
            assert f.delivered == s.delivered, (uid, f, s)
            assert f.delivered_flits == s.delivered_flits, (uid, f, s)
            assert f.failure == s.failure, (uid, f, s)
            assert f.failed_at_link == s.failed_at_link, (uid, f, s)
            assert f.completion_time == s.completion_time, (uid, f, s)
        assert b.makespan == slow.makespan


#: Seeds of the mesh-scale differential; each draws a random function
#: on the 6x6 mesh and three rounds of delays and priorities.
MESH_SEEDS = range(8)


def _mesh_case(seed):
    """Worms of a 6x6-mesh random function (L=4) and their round draws."""
    worms = make_worms(mesh_random_function(6, 2, rng=seed).paths, 4)
    rng = np.random.default_rng(seed)
    delays = rng.integers(0, 6, size=(3, len(worms)))
    priorities = np.array([rng.permutation(len(worms)) for _ in range(3)])
    return worms, delays, priorities


def _mesh_rounds(cases, rule, tie_rule, backend):
    """The first three rounds of every case, on one wavelength (B=1).

    Each round relaunches the worms not yet delivered. ``"batch-kernel"``
    stacks every case's round into one ``run_round_batch`` pass. Returns
    each case's RoundResults and flight-recorder stream.
    """
    engines, recorders, collectors, active = [], [], [], []
    for worms, _, _ in cases:
        engines.append(RoutingEngine(
            worms, rule, tie_rule,
            backend="batched" if backend == "batch-kernel" else backend,
        ))
        collector = _Collector()
        recorder = FlightRecorder(collector)
        recorder.describe_worms(worms)
        collectors.append(collector)
        recorders.append(recorder)
        active.append({w.uid for w in worms})
    results = [[] for _ in cases]
    for r in range(3):
        calls = []
        for (_, delays, priorities), engine, recorder, alive in zip(
            cases, engines, recorders, active
        ):
            recorder.begin_round(r + 1)
            launches = [
                Launch(worm=uid, delay=int(delays[r, uid]), wavelength=0,
                       priority=int(priorities[r, uid]))
                for uid in sorted(alive)
            ]
            calls.append(RoundCall(engine, launches, recorder=recorder))
        if backend == "batch-kernel":
            round_results = run_round_batch(calls)
        else:
            round_results = [
                call.engine.run_round(call.launches, recorder=call.recorder)
                for call in calls
            ]
        for i, result in enumerate(round_results):
            recorders[i].end_round(result.makespan)
            results[i].append(result)
            active[i] -= {
                uid for uid, out in result.outcomes.items() if out.delivered
            }
    return results, [collector.records for collector in collectors]


class TestMeshScale:
    """Seeded 6x6-mesh rounds against the replay-all backend.

    Instances of five worms or fewer rarely chain one elimination into
    another three deep; 36 worms on one wavelength do, so the serve-first
    settle step meets long cascades here.
    """

    @pytest.mark.parametrize("rule, tie_rule", RULES)
    def test_rounds_and_streams_bit_identical(self, rule, tie_rule):
        cases = [_mesh_case(seed) for seed in MESH_SEEDS]
        want, want_streams = _mesh_rounds(cases, rule, tie_rule, "python")
        assert any(
            result.collisions for rounds in want for result in rounds
        )
        for backend in ("vectorized", "batched", "batch-kernel"):
            got, streams = _mesh_rounds(cases, rule, tie_rule, backend)
            for seed, a, b in zip(MESH_SEEDS, want, got):
                assert a == b, (backend, seed)
                assert [r.faulted_links for r in a] == [
                    r.faulted_links for r in b
                ], (backend, seed)
            assert streams == want_streams, backend
