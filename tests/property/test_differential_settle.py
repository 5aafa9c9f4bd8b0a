"""Differential testing: the serve-first settle step against a scalar replay.

Serve-first rounds are resolved in numpy end to end: the settle step
(:func:`repro.core.engine._settle`) works out every death and blocker,
and outcomes, collisions, faulted links and the flight-recorder stream
are written from its columns. :func:`scalar_round` resolves the same
round the way the priority rule still does: it replays every clashed
event before its worm's first unclashed dead link through
:meth:`RoutingEngine._resolve_scalar` (which applies the coupler's
serve-first kernel) and builds the result from the per-worm runs.

The two must agree on the whole :class:`RoundResult` -- outcomes with
their blockers, the collision log in order, ``faulted_links`` in order
and the makespan -- and on the recorder stream, under both tie rules,
with dead links inside clash clusters, in stacked multi-call passes,
with ``collect_collisions`` on and off, and with and without a
recorder.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.engine import (
    _ALIVE,
    RoundCall,
    RoutingEngine,
    _clashed,
    _Slot,
    run_round_batch,
)
from repro.observability.flightrec import FlightRecorder
from repro.optics.coupler import CollisionRule, TieRule
from repro.worms.worm import Launch, Worm
from tests.core.test_golden_rounds import clash_links, round_payload

NODES = 5

TIE_RULES = [TieRule.ALL_LOSE, TieRule.LOWEST_ID_WINS]


def scalar_round(call: RoundCall):
    """``call``'s round with every clashed event replayed by the scalar loop.

    The round is partitioned as the priority rule's are: every clashed
    event before its worm's first unclashed dead link replays through
    :meth:`RoutingEngine._replay`, a worm the replay leaves alive faults
    at that link, and the result is built from the runs.
    """
    engine = call.engine
    slot = _Slot(0, call, None)
    slot.begin()
    t, lid, wl, pos, ri = slot.parts
    radix = int(wl.max()) + 1
    clashed = _clashed(
        lid * radix + wl, t, int(slot.launched.length.max()) - 1,
        engine._gids.shape[0] * radix, int(t.max()) + 1,
    )
    quiet = np.isin(lid, list(slot.dead_lids)) & ~clashed
    cap = np.full(len(slot.launched), _ALIVE, dtype=np.int64)
    np.minimum.at(cap, ri[quiet], pos[quiet])
    slot.partition = (clashed & (pos < cap[ri]), quiet & (pos == cap[ri]))
    engine._replay(slot)
    return engine._finalise(slot)


class _Collector:
    """Minimal in-memory trace writer: ``.records`` of plain dicts."""

    def __init__(self):
        self.records = []

    def write(self, kind, **fields):
        self.records.append({"kind": kind, **fields})


@st.composite
def instances(draw, max_worms=6, max_len=4, max_delay=5, max_bandwidth=2):
    """A serve-first round: worms, launches, dead links and call options.

    Delays are tight and paths short, so most rounds clash. Dead links
    are drawn from the links that carry a clash cluster as well as from
    every path link, so dark channels sit inside clusters.
    """
    n_worms = draw(st.integers(1, max_worms))
    B = draw(st.integers(1, max_bandwidth))
    uids = draw(st.lists(st.integers(0, 60), min_size=n_worms,
                         max_size=n_worms, unique=True))
    worms, launches = [], []
    for uid in uids:
        path = draw(st.lists(st.integers(0, NODES - 1), min_size=2,
                             max_size=NODES, unique=True))
        worm = Worm(uid=uid, path=tuple(path),
                    length=draw(st.integers(1, max_len)))
        worms.append(worm)
        if draw(st.booleans()):
            wavelength = tuple(
                draw(st.integers(0, B - 1)) for _ in range(worm.n_links)
            )
        else:
            wavelength = draw(st.integers(0, B - 1))
        launches.append(Launch(worm=uid, delay=draw(st.integers(0, max_delay)),
                               wavelength=wavelength))
    launches = draw(st.permutations(launches))
    links = sorted({link for w in worms for link in w.links()})
    clusters = clash_links(worms, launches)
    dead = draw(st.lists(st.sampled_from(clusters), max_size=2, unique=True)
                ) if clusters else []
    dead += draw(st.lists(st.sampled_from(links), max_size=1))
    return {
        "worms": worms,
        "launches": launches,
        "dead": tuple(dict.fromkeys(dead)),
        "tie_rule": draw(st.sampled_from(TIE_RULES)),
        "collect": draw(st.booleans()),
        "record": draw(st.booleans()),
    }


def _call(inst):
    """A fresh call for ``inst`` and its collector (None: unrecorded)."""
    collector = recorder = None
    if inst["record"]:
        collector = _Collector()
        recorder = FlightRecorder(collector)
        recorder.describe_worms(inst["worms"])
        recorder.begin_round(1)
    engine = RoutingEngine(inst["worms"], CollisionRule.SERVE_FIRST,
                           inst["tie_rule"])
    call = RoundCall(engine, inst["launches"], inst["collect"],
                     inst["dead"] or None, recorder)
    return call, collector


def _stream(call, collector, result):
    if collector is None:
        return None
    call.recorder.end_round(result.makespan)
    return collector.records


def assert_settle_matches_scalar(insts):
    """One stacked pass over ``insts`` equals each one's scalar replay."""
    pairs = [_call(inst) for inst in insts]
    results = run_round_batch([call for call, _ in pairs])
    for inst, (call, collector), result in zip(insts, pairs, results):
        want_call, want_collector = _call(inst)
        want = scalar_round(want_call)
        assert round_payload(result) == round_payload(want)
        assert _stream(call, collector, result) == _stream(
            want_call, want_collector, want
        )


class TestSettleMatchesScalarReplay:
    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_one_call(self, inst):
        assert_settle_matches_scalar([inst])

    @given(st.lists(instances(), min_size=2, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_stacked_pass(self, insts):
        assert_settle_matches_scalar(insts)

    @given(instances(max_worms=4, max_len=6, max_delay=2, max_bandwidth=1))
    @settings(max_examples=200, deadline=None)
    def test_dense_single_wavelength(self, inst):
        # Long worms on one wavelength with tight delays: occupants,
        # cascades of freed links and multi-way ties.
        assert_settle_matches_scalar([inst])


def test_strategy_reaches_every_feature():
    """The strategy's instances include dark clusters, faults and ties."""
    seen = set()

    @given(instances())
    @settings(max_examples=200, deadline=None, database=None)
    def probe(inst):
        call, _ = _call(inst)
        result = scalar_round(call)
        clusters = set(clash_links(inst["worms"], inst["launches"]))
        if clusters & set(inst["dead"]):
            seen.add("dark cluster")
        if result.faulted_links:
            seen.add("fault")
        groups = {}
        for c in result.collisions:
            groups.setdefault((c.time, c.link, c.wavelength), []).append(c)
        if any(len(group) >= 2 for group in groups.values()):
            seen.add("tie")

    probe()
    assert seen >= {"dark cluster", "fault", "tie"}
