"""Committed digests of the engine's full round output on a seeded corpus.

The flit-level oracle (:func:`~repro.core.reference.reference_run_round`)
checks observables only: who is delivered, how many flits, where and
when. These digests pin everything else the engine emits, so blocker
identities, the order of the collision log, the order of
``faulted_links`` and the flight-recorder stream cannot drift unnoticed.
Each digest covers a case's :class:`~repro.core.records.RoundResult`
(outcomes in launch order with their blockers, collisions in order,
makespan, faulted links) and its flight-recorder stream. The corpus has:

* ``random/...``: small instances under both rules and both tie rules,
  with shuffled launch order, sparse uids, per-link wavelength tuples on
  some worms and up to two dead links;
* ``dark-clash/...``: instances whose dead links sit inside a clash
  cluster (two events on the dead link's channel at most ``L - 1``
  steps apart), plus ``all-dark``, where every head dies at its first
  link and no flit moves;
* ``fan-in/...``: three to five worms entering one link at the same
  step from links of their own, so an all-lose tie has several losers
  to name blockers for (and a lowest-id tie several to beat);
* ``cascade/...``: truncation cascades under the priority rule: feeders
  merge into a long worm's line one after another, each closer behind
  its head, so one occupant is cut again and again;
* ``mesh/...``: the first three rounds of a 6x6-mesh random function on
  one wavelength (36 worms, L = 4), each round relaunching the worms
  not yet delivered;
* ``stacked/...``: one :func:`~repro.core.engine.run_round_batch` pass
  stacking a random instance of each rule and tie rule, each call with
  its own dead links and recorder.

Every case also runs without a recorder and must give the same result.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/core/test_golden_rounds.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.core.engine import RoundCall, RoutingEngine, run_round_batch
from repro.core.records import CollisionKind
from repro.experiments.workloads import mesh_random_function
from repro.observability.flightrec import FlightRecorder
from repro.optics.coupler import CollisionRule, TieRule
from repro.worms.worm import FailureKind, Launch, Worm, make_worms

#: Case name -> digest of its rounds and flight-recorder stream.
EXPECTED = {
    'random/serve_first-all_lose/0': 'd0a0aaeef4ce0097',
    'random/serve_first-all_lose/1': 'a2343b3e2424757d',
    'random/serve_first-all_lose/2': '3b108ab6907e2e1a',
    'random/serve_first-all_lose/3': '60cfc24279d50259',
    'random/serve_first-all_lose/4': 'cc0d911ed47f0ceb',
    'random/serve_first-all_lose/5': 'a83f730a92b0c733',
    'random/serve_first-all_lose/6': '0301a260c4bbadc3',
    'random/serve_first-all_lose/7': 'c5c468288d45bb67',
    'dark-clash/serve_first-all_lose/0': '1e0557a74215f9f6',
    'dark-clash/serve_first-all_lose/1': '5d3774bc517201b5',
    'dark-clash/serve_first-all_lose/2': 'e5ba9299031f8fb6',
    'dark-clash/serve_first-all_lose/3': '55db2e384345f523',
    'fan-in/serve_first-all_lose/0': '4ba5f98eda5acab5',
    'fan-in/serve_first-all_lose/1': '7ef6ee3cd8164272',
    'fan-in/serve_first-all_lose/2': 'f339f6741e0c1ebc',
    'fan-in/serve_first-all_lose/3': '86187db5fdeaeb15',
    'all-dark/serve_first-all_lose': '7507316bccfef4c7',
    'mesh/serve_first-all_lose/0': '9ab875035cf980c1',
    'mesh/serve_first-all_lose/1': '452de0aaedca2c5d',
    'mesh/serve_first-all_lose/2': '8ca3e331d02b66e9',
    'mesh/serve_first-all_lose/3': '43688279ff315e01',
    'mesh/serve_first-all_lose/4': '39235af1d940b11b',
    'mesh/serve_first-all_lose/5': '60d2a7b9c8f58d8d',
    'mesh/serve_first-all_lose/6': 'bdd793abe1fa6c53',
    'mesh/serve_first-all_lose/7': 'b09d72eead7bd8dc',
    'random/serve_first-lowest_id_wins/0': '4af1eb23ebcd7bd4',
    'random/serve_first-lowest_id_wins/1': 'bec926032c42a0ac',
    'random/serve_first-lowest_id_wins/2': '3b108ab6907e2e1a',
    'random/serve_first-lowest_id_wins/3': '60cfc24279d50259',
    'random/serve_first-lowest_id_wins/4': 'cc0d911ed47f0ceb',
    'random/serve_first-lowest_id_wins/5': 'a83f730a92b0c733',
    'random/serve_first-lowest_id_wins/6': '0301a260c4bbadc3',
    'random/serve_first-lowest_id_wins/7': 'ffd8c95fd8b2278d',
    'dark-clash/serve_first-lowest_id_wins/0': '1e0557a74215f9f6',
    'dark-clash/serve_first-lowest_id_wins/1': '5d3774bc517201b5',
    'dark-clash/serve_first-lowest_id_wins/2': 'e5ba9299031f8fb6',
    'dark-clash/serve_first-lowest_id_wins/3': '55db2e384345f523',
    'fan-in/serve_first-lowest_id_wins/0': 'b6f99c16523721c0',
    'fan-in/serve_first-lowest_id_wins/1': 'ab5beada71125142',
    'fan-in/serve_first-lowest_id_wins/2': 'ae77c95ce4d941c2',
    'fan-in/serve_first-lowest_id_wins/3': '2078205bd0b7b416',
    'all-dark/serve_first-lowest_id_wins': '7507316bccfef4c7',
    'mesh/serve_first-lowest_id_wins/0': 'cdc632bbd8678b55',
    'mesh/serve_first-lowest_id_wins/1': '02f56671dd7b5d0b',
    'mesh/serve_first-lowest_id_wins/2': '36160aae39d8afb4',
    'mesh/serve_first-lowest_id_wins/3': 'bce8120c9c0adab0',
    'mesh/serve_first-lowest_id_wins/4': '65f9ffb42b9b909d',
    'mesh/serve_first-lowest_id_wins/5': '3b8c4644123f098c',
    'mesh/serve_first-lowest_id_wins/6': '4de94fd9705b85e1',
    'mesh/serve_first-lowest_id_wins/7': '7f626f402af19a2e',
    'random/priority-all_lose/0': '4af1eb23ebcd7bd4',
    'random/priority-all_lose/1': 'db1b01b978984d8b',
    'random/priority-all_lose/2': '9eecd70c5fae6247',
    'random/priority-all_lose/3': '60cfc24279d50259',
    'random/priority-all_lose/4': 'cc0d911ed47f0ceb',
    'random/priority-all_lose/5': 'a83f730a92b0c733',
    'random/priority-all_lose/6': '6209e3e67f01da45',
    'random/priority-all_lose/7': '7d3d2b4810e62959',
    'dark-clash/priority-all_lose/0': '1e0557a74215f9f6',
    'dark-clash/priority-all_lose/1': '5d3774bc517201b5',
    'dark-clash/priority-all_lose/2': 'e5ba9299031f8fb6',
    'dark-clash/priority-all_lose/3': '55db2e384345f523',
    'fan-in/priority-all_lose/0': '4ba5f98eda5acab5',
    'fan-in/priority-all_lose/1': '3e45e8cb3d0af033',
    'fan-in/priority-all_lose/2': 'f339f6741e0c1ebc',
    'fan-in/priority-all_lose/3': '86187db5fdeaeb15',
    'all-dark/priority-all_lose': '7507316bccfef4c7',
    'cascade/priority-all_lose/0': '6f00be100c6fa5de',
    'cascade/priority-all_lose/1': '8d10c8a772340017',
    'cascade/priority-all_lose/2': '58dab728a75a29be',
    'cascade/priority-all_lose/3': 'a8ad2a7fc40d2f8a',
    'cascade/priority-all_lose/4': '6e61a687a6ea7edd',
    'cascade/priority-all_lose/5': '6c6fba103ca4a825',
    'mesh/priority-all_lose/0': 'd5c328536d185a6f',
    'mesh/priority-all_lose/1': '4ecc4cc96b4614ce',
    'mesh/priority-all_lose/2': 'e1e6d2487f41474e',
    'mesh/priority-all_lose/3': '7f38f34cb920315f',
    'mesh/priority-all_lose/4': 'd6ec9e4f29cac4ff',
    'mesh/priority-all_lose/5': '046ca5d683adbfdc',
    'mesh/priority-all_lose/6': 'b657c0a970c0788d',
    'mesh/priority-all_lose/7': '15196aafb12aa717',
    'random/priority-lowest_id_wins/0': '4af1eb23ebcd7bd4',
    'random/priority-lowest_id_wins/1': 'db1b01b978984d8b',
    'random/priority-lowest_id_wins/2': '9eecd70c5fae6247',
    'random/priority-lowest_id_wins/3': '60cfc24279d50259',
    'random/priority-lowest_id_wins/4': 'cc0d911ed47f0ceb',
    'random/priority-lowest_id_wins/5': 'a83f730a92b0c733',
    'random/priority-lowest_id_wins/6': '6209e3e67f01da45',
    'random/priority-lowest_id_wins/7': '7d3d2b4810e62959',
    'dark-clash/priority-lowest_id_wins/0': '1e0557a74215f9f6',
    'dark-clash/priority-lowest_id_wins/1': '5d3774bc517201b5',
    'dark-clash/priority-lowest_id_wins/2': 'e5ba9299031f8fb6',
    'dark-clash/priority-lowest_id_wins/3': '55db2e384345f523',
    'fan-in/priority-lowest_id_wins/0': 'b6f99c16523721c0',
    'fan-in/priority-lowest_id_wins/1': '622b7436c8783070',
    'fan-in/priority-lowest_id_wins/2': 'ae77c95ce4d941c2',
    'fan-in/priority-lowest_id_wins/3': '15b3ac9ec698a50e',
    'all-dark/priority-lowest_id_wins': '7507316bccfef4c7',
    'cascade/priority-lowest_id_wins/0': '6f00be100c6fa5de',
    'cascade/priority-lowest_id_wins/1': '8d10c8a772340017',
    'cascade/priority-lowest_id_wins/2': '58dab728a75a29be',
    'cascade/priority-lowest_id_wins/3': 'a8ad2a7fc40d2f8a',
    'cascade/priority-lowest_id_wins/4': '6e61a687a6ea7edd',
    'cascade/priority-lowest_id_wins/5': '6c6fba103ca4a825',
    'mesh/priority-lowest_id_wins/0': 'd5c328536d185a6f',
    'mesh/priority-lowest_id_wins/1': '4ecc4cc96b4614ce',
    'mesh/priority-lowest_id_wins/2': 'e1e6d2487f41474e',
    'mesh/priority-lowest_id_wins/3': '7f38f34cb920315f',
    'mesh/priority-lowest_id_wins/4': 'd6ec9e4f29cac4ff',
    'mesh/priority-lowest_id_wins/5': '046ca5d683adbfdc',
    'mesh/priority-lowest_id_wins/6': 'b657c0a970c0788d',
    'mesh/priority-lowest_id_wins/7': '15196aafb12aa717',
    'stacked/0/0-serve_first-all_lose': '929fa9c62b72beb5',
    'stacked/0/1-serve_first-lowest_id_wins': 'd3b95188c50d07e9',
    'stacked/0/2-priority-all_lose': '42f670401ad27ef1',
    'stacked/0/3-priority-lowest_id_wins': '186cbe8194e1419b',
    'stacked/1/0-serve_first-all_lose': 'a8957952cf4a974a',
    'stacked/1/1-serve_first-lowest_id_wins': '51a98d801d6d5f02',
    'stacked/1/2-priority-all_lose': '81e70c7c82f93ab3',
    'stacked/1/3-priority-lowest_id_wins': 'aa2321b624fcb1bd',
}

RULES = [
    (CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE),
    (CollisionRule.SERVE_FIRST, TieRule.LOWEST_ID_WINS),
    (CollisionRule.PRIORITY, TieRule.ALL_LOSE),
    (CollisionRule.PRIORITY, TieRule.LOWEST_ID_WINS),
]

#: Seeds per rule pair of each seeded family.
RANDOM_SEEDS = range(8)
DARK_SEEDS = range(4)
FAN_IN_SEEDS = range(4)
CASCADE_SEEDS = range(6)
MESH_SEEDS = range(8)
STACKED_SEEDS = range(2)


def _tag(rule: CollisionRule, tie_rule: TieRule) -> str:
    return f"{rule.name.lower()}-{tie_rule.name.lower()}"


class _Collector:
    """Minimal in-memory trace writer: ``.records`` of plain dicts."""

    def __init__(self):
        self.records = []

    def write(self, kind, **fields):
        self.records.append({"kind": kind, **fields})


def _plain(value):
    """JSON fallback: numpy integers are ints (enums are mapped earlier)."""
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot digest {value!r}")


def round_payload(result) -> dict:
    """A canonical, order-preserving form of one RoundResult."""
    return {
        "outcomes": [
            [
                o.worm, o.delivered, o.delivered_flits,
                None if o.failure is None else o.failure.value,
                o.failed_at_link, o.completion_time, list(o.blockers),
            ]
            for o in result.outcomes.values()
        ],
        "collisions": [
            [
                c.time, list(c.link), c.wavelength, c.blocked, c.blocker,
                c.link_pos, c.kind.value,
            ]
            for c in result.collisions
        ],
        "makespan": result.makespan,
        "faulted_links": [list(link) for link in result.faulted_links],
    }


def digest(results, stream) -> str:
    """SHA-256 (first 16 hex digits) of some rounds and their stream."""
    payload = {
        "rounds": [round_payload(result) for result in results],
        "stream": stream,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- instances ----------------------------------------------------------------


def random_instance(seed, *, nodes=6, max_worms=7, max_len=4, max_delay=6,
                    max_bandwidth=2, max_dead=2, tuples=True):
    """Worms, launches and dead links drawn from ``seed``.

    Paths are simple walks over ``nodes`` labelled nodes (no topology);
    uids are a random sample of 0..99, launches are in a shuffled order,
    and every worm draws its own length, delay and priority.
    """
    rng = np.random.default_rng(seed)
    n_worms = int(rng.integers(2, max_worms + 1))
    bandwidth = int(rng.integers(1, max_bandwidth + 1))
    uids = rng.choice(100, size=n_worms, replace=False).tolist()
    ranks = rng.permutation(n_worms).tolist()
    worms, launches = [], []
    for uid, rank in zip(uids, ranks):
        hops = int(rng.integers(2, nodes + 1))
        path = tuple(rng.choice(nodes, size=hops, replace=False).tolist())
        worm = Worm(uid=uid, path=path, length=int(rng.integers(1, max_len + 1)))
        worms.append(worm)
        if tuples and rng.random() < 0.4:
            wavelength = tuple(
                rng.integers(0, bandwidth, size=worm.n_links).tolist()
            )
        else:
            wavelength = int(rng.integers(0, bandwidth))
        launches.append(Launch(
            worm=uid, delay=int(rng.integers(0, max_delay + 1)),
            wavelength=wavelength, priority=rank,
        ))
    launches = [launches[k] for k in rng.permutation(n_worms)]
    links = sorted({link for w in worms for link in w.links()})
    n_dead = int(rng.integers(0, max_dead + 1))
    dead = [links[k] for k in rng.choice(len(links), size=n_dead, replace=False)]
    return worms, launches, tuple(dead)


def _events(worms, launches):
    """Every head arrival as ``(link, wavelength, time, uid)``."""
    by_uid = {w.uid: w for w in worms}
    for launch in launches:
        worm = by_uid[launch.worm]
        for pos, link in enumerate(worm.links()):
            wl = launch.wavelength
            wl = wl[pos] if isinstance(wl, tuple) else wl
            yield link, wl, launch.delay + pos, worm.uid


def clash_links(worms, launches):
    """Links carrying two events on one wavelength at most ``L - 1`` apart.

    ``L`` is the longest launched worm: the engine's clash test, spelled
    out over the instance itself.
    """
    gap = max(w.length for w in worms) - 1
    by_channel = {}
    for link, wl, t, _ in _events(worms, launches):
        by_channel.setdefault((link, wl), []).append(t)
    return sorted({
        link for (link, _), times in by_channel.items()
        if any(b - a <= gap for a, b in zip(sorted(times), sorted(times)[1:]))
    })


def dark_clash_instance(seed):
    """A random instance whose dead links include a clash-cluster link."""
    for attempt in range(100):
        worms, launches, _ = random_instance(
            1000 + 100 * seed + attempt, max_bandwidth=1, max_dead=0
        )
        candidates = clash_links(worms, launches)
        if candidates:
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(candidates), size=min(2, len(candidates)),
                               replace=False)
            return worms, launches, tuple(candidates[k] for k in sorted(picks))
    raise AssertionError(f"no clash cluster for seed {seed}")


def all_dark_instance():
    """Three worms whose first links are all down: no flit ever moves."""
    worms = [
        Worm(uid=4, path=(0, 1, 2), length=3),
        Worm(uid=2, path=(0, 1, 3), length=2),
        Worm(uid=9, path=(3, 2, 1), length=1),
    ]
    launches = [
        Launch(worm=9, delay=0, wavelength=0, priority=1),
        Launch(worm=2, delay=1, wavelength=0, priority=0),
        Launch(worm=4, delay=1, wavelength=0, priority=2),
    ]
    return worms, launches, ((0, 1), (3, 2))


def fan_in_instance(seed):
    """Three to five worms meeting head-on at link (0, 1), plus stragglers.

    The fan-in worms reach (0, 1) together from links of their own and
    draw priorities from {0, 1}, so priority ties happen too; one or two
    stragglers arrive a step later, while the link may still be held.
    About one instance in three also loses a link past the meeting point.
    """
    rng = np.random.default_rng(8000 + seed)
    k = int(rng.integers(3, 6))
    extra = int(rng.integers(1, 3))
    uids = rng.choice(100, size=k + extra, replace=False).tolist()
    base = int(rng.integers(0, 3))
    worms, launches = [], []
    for i, uid in enumerate(uids):
        tail = int(rng.integers(2, 5))
        worms.append(Worm(uid=uid, path=(100 + uid, *range(tail)),
                          length=int(rng.integers(1, 5))))
        launches.append(Launch(
            worm=uid, delay=base + (i >= k), wavelength=0,
            priority=int(rng.integers(0, 2)),
        ))
    launches = [launches[j] for j in rng.permutation(k + extra)]
    dead = ((1, 2),) if rng.random() < 0.3 else ()
    return worms, launches, dead


def cascade_instance(seed, span=8):
    """A truncation cascade down a line of ``span`` links.

    A long lowest-priority worm runs the whole line from step 0; two to
    four feeders of higher priority merge into it at successive nodes,
    each one closer behind its head than the last, so the line worm is
    cut again and again (and feeders behind it cut each other). About
    one instance in three also loses a link.
    """
    rng = np.random.default_rng(5000 + seed)
    m = int(rng.integers(2, 5))
    uids = rng.choice(100, size=m + 1, replace=False).tolist()
    ranks = (1 + rng.permutation(m)).tolist()
    merges = np.sort(rng.choice(np.arange(1, span - 1), size=m, replace=False))
    lags = np.sort(rng.choice(np.arange(1, 6), size=m, replace=False))[::-1]
    worms = [Worm(uid=uids[0], path=tuple(range(span + 1)), length=span)]
    launches = [Launch(worm=uids[0], delay=0, wavelength=0, priority=0)]
    for uid, rank, a, lag in zip(uids[1:], ranks, merges.tolist(), lags.tolist()):
        b = int(rng.integers(a + 1, span + 1))
        worms.append(Worm(uid=uid, path=(100 + uid, *range(a, b + 1)),
                          length=int(rng.integers(2, span + 1))))
        launches.append(Launch(worm=uid, delay=a + lag - 1, wavelength=0,
                               priority=rank))
    launches = [launches[k] for k in rng.permutation(m + 1)]
    links = sorted({link for w in worms for link in w.links()})
    dead = (links[int(rng.integers(len(links)))],) if rng.random() < 0.3 else ()
    return worms, launches, dead


@lru_cache(maxsize=None)
def mesh_case(seed):
    """Worms of a 6x6-mesh random function (L=4) and their round draws."""
    worms = make_worms(mesh_random_function(6, 2, rng=seed).paths, 4)
    rng = np.random.default_rng(seed)
    delays = rng.integers(0, 6, size=(3, len(worms)))
    priorities = np.array([rng.permutation(len(worms)) for _ in range(3)])
    return worms, delays, priorities


# -- runners ------------------------------------------------------------------


def _recorder(worms):
    collector = _Collector()
    recorder = FlightRecorder(collector)
    recorder.describe_worms(worms)
    recorder.begin_round(1)
    return recorder, collector


def run_single(worms, launches, dead, rule, tie_rule):
    """One round with a recorder: ``([result], stream)``.

    The same round without a recorder must give the same result.
    """
    recorder, collector = _recorder(worms)
    result = RoutingEngine(worms, rule, tie_rule).run_round(
        launches, dead_links=dead or None, recorder=recorder
    )
    recorder.end_round(result.makespan)
    plain = RoutingEngine(worms, rule, tie_rule).run_round(
        launches, dead_links=dead or None
    )
    assert plain == result
    assert plain.faulted_links == result.faulted_links
    return [result], collector.records


def mesh_rounds(seeds, rule, tie_rule, stacked=False, record=True):
    """The first three rounds of each seed's mesh case, on wavelength 0.

    ``stacked`` runs every seed's round in one ``run_round_batch`` pass;
    otherwise each seed's engine runs its own. Returns each seed's
    ``(results, stream)``; ``record=False`` runs without recorders (the
    streams are then empty).
    """
    cases = [mesh_case(seed) for seed in seeds]
    engines, recorders, collectors, active = [], [], [], []
    for worms, _, _ in cases:
        engines.append(RoutingEngine(worms, rule, tie_rule))
        collector = _Collector()
        recorder = FlightRecorder(collector) if record else None
        if record:
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
            if record:
                recorder.begin_round(r + 1)
            launches = [
                Launch(worm=uid, delay=int(delays[r, uid]), wavelength=0,
                       priority=int(priorities[r, uid]))
                for uid in sorted(alive)
            ]
            calls.append(RoundCall(engine, launches, recorder=recorder))
        if stacked:
            round_results = run_round_batch(calls)
        else:
            round_results = [run_round_batch([call])[0] for call in calls]
        for i, result in enumerate(round_results):
            if record:
                recorders[i].end_round(result.makespan)
            results[i].append(result)
            active[i] -= {
                uid for uid, out in result.outcomes.items() if out.delivered
            }
    return [
        (rounds, collector.records)
        for rounds, collector in zip(results, collectors)
    ]


def stacked_instances(seed):
    """One random instance per rule pair, for one stacked pass."""
    return [
        random_instance(7000 + 10 * seed + k, max_worms=6)
        for k in range(len(RULES))
    ]


def run_stacked(seed):
    """The stacked pass of ``seed``: each call's ``([result], stream)``."""
    insts = stacked_instances(seed)
    calls, collectors = [], []
    for (worms, launches, dead), (rule, tie_rule) in zip(insts, RULES):
        recorder, collector = _recorder(worms)
        collectors.append(collector)
        calls.append(RoundCall(
            RoutingEngine(worms, rule, tie_rule), launches,
            dead_links=dead or None, recorder=recorder,
        ))
    results = run_round_batch(calls)
    out = []
    for call, result, collector in zip(calls, results, collectors):
        call.recorder.end_round(result.makespan)
        out.append(([result], collector.records))
    return out


def _cases():
    """Case name -> a callable returning ``(results, stream)``."""
    cases = {}
    for rule, tie_rule in RULES:
        tag = _tag(rule, tie_rule)
        for seed in RANDOM_SEEDS:
            cases[f"random/{tag}/{seed}"] = (
                lambda s=seed, r=rule, tr=tie_rule:
                    run_single(*random_instance(s), r, tr)
            )
        for seed in DARK_SEEDS:
            cases[f"dark-clash/{tag}/{seed}"] = (
                lambda s=seed, r=rule, tr=tie_rule:
                    run_single(*dark_clash_instance(s), r, tr)
            )
        for seed in FAN_IN_SEEDS:
            cases[f"fan-in/{tag}/{seed}"] = (
                lambda s=seed, r=rule, tr=tie_rule:
                    run_single(*fan_in_instance(s), r, tr)
            )
        cases[f"all-dark/{tag}"] = (
            lambda r=rule, tr=tie_rule: run_single(*all_dark_instance(), r, tr)
        )
        if rule is CollisionRule.PRIORITY:
            for seed in CASCADE_SEEDS:
                cases[f"cascade/{tag}/{seed}"] = (
                    lambda s=seed, r=rule, tr=tie_rule:
                        run_single(*cascade_instance(s), r, tr)
                )
        for seed in MESH_SEEDS:
            cases[f"mesh/{tag}/{seed}"] = (
                lambda s=seed, r=rule, tr=tie_rule: mesh_rounds([s], r, tr)[0]
            )
    for seed in STACKED_SEEDS:
        for k, (rule, tie_rule) in enumerate(RULES):
            cases[f"stacked/{seed}/{k}-{_tag(rule, tie_rule)}"] = (
                lambda s=seed, i=k: run_stacked(s)[i]
            )
    return cases


CASES = _cases()


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("name", list(CASES))
def test_round_digest(name):
    results, stream = CASES[name]()
    assert digest(results, stream) == EXPECTED[name], name


@pytest.mark.parametrize("rule, tie_rule", RULES, ids=[_tag(*r) for r in RULES])
def test_mesh_rounds_without_recorders(rule, tie_rule):
    # The lazily built run state of an unrecorded round gives the same
    # rounds as the eager state a recorder needs.
    recorded = mesh_rounds(MESH_SEEDS, rule, tie_rule)
    plain = mesh_rounds(MESH_SEEDS, rule, tie_rule, record=False)
    for seed, (a, _), (b, _) in zip(MESH_SEEDS, recorded, plain):
        assert a == b, seed


class TestCoverage:
    """The corpus exercises what its docstring says it does."""

    def test_random_cases_carry_tuples_and_dead_links(self):
        insts = [random_instance(seed) for seed in RANDOM_SEEDS]
        assert any(
            isinstance(launch.wavelength, tuple)
            for _, launches, _ in insts for launch in launches
        )
        assert sum(bool(dead) for _, _, dead in insts) >= 2
        assert any(len(dead) == 2 for _, _, dead in insts)

    def test_dead_links_inside_clash_clusters(self):
        for seed in DARK_SEEDS:
            worms, launches, dead = dark_clash_instance(seed)
            assert set(dead) <= set(clash_links(worms, launches)), seed

    def test_every_failure_kind_occurs(self):
        kinds = set()
        for name, run in CASES.items():
            if name.startswith(("random/", "dark-clash/")):
                for result in run()[0]:
                    kinds |= {k for k, n in result.failure_counts.items() if n}
        assert kinds >= set(FailureKind)

    def test_fan_in_ties_eliminate_three_at_once(self):
        # Every fan-in case meets in an all-lose tie on an idle link
        # that eliminates at least three worms in one group.
        for seed in FAN_IN_SEEDS:
            [result], _ = run_single(
                *fan_in_instance(seed), CollisionRule.SERVE_FIRST,
                TieRule.ALL_LOSE,
            )
            groups = {}
            for c in result.collisions:
                groups.setdefault((c.time, c.link, c.wavelength), []).append(c)
            assert any(
                len(group) >= 3 and all(
                    c.kind is CollisionKind.ELIMINATED
                    and c.blocker in {d.blocked for d in group}
                    for c in group
                )
                for group in groups.values()
            ), seed

    def test_cascades_truncate_a_worm_repeatedly(self):
        deep = 0
        for seed in CASCADE_SEEDS:
            [result], _ = run_single(
                *cascade_instance(seed), CollisionRule.PRIORITY,
                TieRule.ALL_LOSE,
            )
            cuts = [c.blocked for c in result.collisions
                    if c.kind is CollisionKind.TRUNCATED]
            deep += any(cuts.count(uid) >= 2 for uid in cuts)
        assert deep >= 4

    def test_all_dark_moves_no_flit(self):
        for rule, tie_rule in RULES:
            [result], _ = run_single(*all_dark_instance(), rule, tie_rule)
            assert result.makespan is None
            assert result.failure_counts[FailureKind.FAULTED] == 3

    def test_mesh_rounds_collide(self):
        for rule, tie_rule in RULES:
            runs = mesh_rounds(MESH_SEEDS[:2], rule, tie_rule, record=False)
            assert any(r.collisions for rounds, _ in runs for r in rounds)


if __name__ == "__main__":  # pragma: no cover - fixture recording helper
    for name, run in CASES.items():
        print(f"    {name!r}: {digest(*run())!r},")
