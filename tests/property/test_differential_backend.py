"""Differential testing: the engine against the flit-level oracle.

Every round runs three ways: through :meth:`RoutingEngine.run_round`,
stacked with other trials in one :func:`run_round_batch` pass, and
through the brute-force :func:`reference_run_round`. The two engine
runs must be *bit-identical* -- full ``RoundResult`` equality including
collision events and faulted-link order, plus the flight-recorder
stream -- because checkpoint resume and golden traces assume stacking
is an implementation detail. The oracle is compared on observables
(delivery, flits, failure kind and position, completion time,
makespan): it may legitimately name other blockers in all-lose ties.
Recorder streams also go through the replay verifier. Blocker
identities and collision order are pinned by the golden round corpus
(``tests/core/test_golden_rounds.py``), which the mesh-scale cases here
check stacked passes against.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import RoundCall, RoutingEngine, run_round_batch
from repro.core.reference import reference_run_round
from repro.observability.analysis import verify_replay
from repro.observability.flightrec import FlightRecorder
from repro.optics.coupler import CollisionRule, TieRule
from repro.worms.worm import Launch, Launches, Worm
from tests.core.test_golden_rounds import EXPECTED, MESH_SEEDS, digest, mesh_rounds

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


def _round(worms, launches, rule, tie_rule, dead_links=(), recorder=None):
    return RoutingEngine(worms, rule, tie_rule).run_round(
        launches,
        collect_collisions=True,
        dead_links=dead_links or None,
        recorder=recorder,
    )


def _batch_round(worms, launches, rule, tie_rule, dead_links=(),
                 recorder=None):
    """One round through the batch kernel, stacked behind a decoy trial.

    The decoy is the same round on its own engine, so the pass has two
    trials with identical channels: any leak across the trial key
    would show in the result.
    """
    calls = [
        RoundCall(
            engine=RoutingEngine(worms, rule, tie_rule),
            launches=launches,
            collect_collisions=True,
            dead_links=dead_links or None,
            recorder=fr,
        )
        for fr in (None, recorder)
    ]
    return run_round_batch(calls)[1]


def _assert_observables(fast, slow):
    """``fast`` matches the oracle's ``slow`` on every observable."""
    assert list(fast.outcomes) == list(slow.outcomes)
    for uid, s in slow.outcomes.items():
        f = fast.outcomes[uid]
        assert f.delivered == s.delivered, (uid, f, s)
        assert f.delivered_flits == s.delivered_flits, (uid, f, s)
        assert f.failure == s.failure, (uid, f, s)
        assert f.failed_at_link == s.failed_at_link, (uid, f, s)
        assert f.completion_time == s.completion_time, (uid, f, s)
    assert fast.makespan == slow.makespan


def _compare(worms, launches, dead_links, rule, tie_rule):
    one = _round(worms, launches, rule, tie_rule, dead_links)
    kern = _batch_round(worms, launches, rule, tie_rule, dead_links)
    # Full structural equality between the one-call pass and the
    # stacked kernel: outcomes (including blocker identities), the
    # collision event sequence in order, makespan, faulted links.
    assert one == kern, (one, kern)
    assert one.faulted_links == kern.faulted_links
    slow = reference_run_round(worms, launches, rule, tie_rule,
                               dead_links=dead_links or None)
    _assert_observables(one, slow)
    if dead_links:
        assert set(one.faulted_links) <= set(dead_links)


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
    """The engine vs the per-flit brute-force simulator, fault-free.

    Blocker identities may legitimately differ in all-lose ties, so this
    compares the observables (as ``test_differential_engine`` does).
    """

    @given(instances(max_dead=0))
    @settings(max_examples=100, deadline=None)
    def test_serve_first(self, inst):
        worms, launches, _ = inst
        fast = _round(worms, launches, CollisionRule.SERVE_FIRST,
                      TieRule.ALL_LOSE)
        slow = reference_run_round(worms, launches, CollisionRule.SERVE_FIRST,
                                   TieRule.ALL_LOSE)
        _assert_observables(fast, slow)


class TestRecorderStream:
    @given(instances())
    @settings(max_examples=75, deadline=None)
    def test_flight_records_bit_identical(self, inst):
        # The one-call pass, the stacked kernel and a run without a
        # recorder give one result; the recorded streams are equal and
        # replay to that result's makespan.
        worms, launches, dead_links = inst
        rule, tie_rule = CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE
        streams, results = [], []
        for run in (_round, _batch_round):
            collector = _Collector()
            fr = FlightRecorder(collector)
            fr.describe_worms(worms)
            fr.begin_round(1)
            result = run(worms, launches, rule, tie_rule, dead_links,
                         recorder=fr)
            fr.end_round(result.makespan)
            streams.append(collector.records)
            results.append(result)
        assert streams[0] == streams[1]
        assert results[0] == results[1] == _round(
            worms, launches, rule, tie_rule, dead_links
        )
        report = verify_replay(streams[0])
        assert report.rounds_checked == 1
        assert report.mismatches == ()

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
                        TieRule.ALL_LOSE, dead_links, recorder=fr)
        fr.end_round(result.makespan)
        report = verify_replay(collector)
        assert report.rounds_checked == 1
        assert report.mismatches == ()


class TestBatchKernelStacking:
    """Many trials stacked into ONE ``run_round_batch`` call.

    Stacking K independent rounds into one set of ``(trial, link,
    wavelength)``-keyed arrays changes nothing: every trial's
    RoundResult -- and its recorder stream -- must equal the same trial
    run alone.
    """

    @given(st.lists(instances(), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_stacked_rounds_bit_identical(self, insts):
        for rule, tie_rule in RULES:
            solo = [
                _round(worms, launches, rule, tie_rule, dead)
                for worms, launches, dead in insts
            ]
            calls = [
                RoundCall(
                    engine=RoutingEngine(worms, rule, tie_rule),
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
                            TieRule.ALL_LOSE, dead, recorder=fr)
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
                                     TieRule.ALL_LOSE),
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

    Under every rule and tie rule, with per-link wavelength tuples, dead
    links and a flight recorder: the two forms give equal RoundResults,
    outcomes in the same order, the same recorder stream, and the
    flit-level oracle's observables.
    """

    @given(instances(), st.sampled_from(RULES), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_columns_match_objects(self, inst, rules, record):
        worms, launches, dead_links = inst
        rule, tie_rule = rules
        columns = _as_columns(launches)
        assert list(columns) == launches
        got = []
        for form in (launches, columns):
            collector = _Collector() if record else None
            recorder = None
            if record:
                recorder = FlightRecorder(collector)
                recorder.describe_worms(worms)
                recorder.begin_round(1)
            result = _round(worms, form, rule, tie_rule, dead_links,
                            recorder=recorder)
            if record:
                recorder.end_round(result.makespan)
            got.append((result, collector and collector.records))
        (a, stream_a), (b, stream_b) = got
        assert a == b, (a, b)
        assert list(a.outcomes) == list(b.outcomes) == [
            launch.worm for launch in launches
        ]
        assert a.faulted_links == b.faulted_links
        assert a.failure_counts == b.failure_counts
        assert stream_a == stream_b
        slow = reference_run_round(worms, columns, rule, tie_rule,
                                   dead_links=dead_links or None)
        _assert_observables(b, slow)


class TestMeshScale:
    """Seeded 6x6-mesh rounds, stacked, against the golden round corpus.

    Instances of five worms or fewer rarely chain one elimination into
    another three deep; 36 worms on one wavelength do, so the serve-first
    settle step meets long cascades here. The corpus pins each seed's
    three rounds run alone; here every seed's round runs in one stacked
    pass, and each seed must still reproduce its digest.
    """

    @pytest.mark.parametrize("rule, tie_rule", RULES)
    def test_rounds_and_streams_bit_identical(self, rule, tie_rule):
        tag = f"{rule.name.lower()}-{tie_rule.name.lower()}"
        stacked = mesh_rounds(MESH_SEEDS, rule, tie_rule, stacked=True)
        for seed, (rounds, stream) in zip(MESH_SEEDS, stacked):
            name = f"mesh/{tag}/{seed}"
            assert digest(rounds, stream) == EXPECTED[name], name
