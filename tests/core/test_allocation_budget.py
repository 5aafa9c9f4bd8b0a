"""Allocation budgets of the engine's sort and of one lockstep pass.

Every engine pass allocates pass-sized arrays, and an allocator hands
large ones back to the system and faults them in again on the next
pass, so a pass should allocate little beyond the arrays it returns or
keeps. ``tracemalloc`` sees numpy's buffers, so these peaks are counted
in bytes and do not depend on the host or its allocator's state (page
fault counts would).

* ``_lexorder`` on ``n`` rows owns one packed int64 word, sorted in
  place, and returns the row order (plus each kept column): a traced
  peak of ``2 * 8n`` bytes (``4 * 8n`` with two kept columns). Building
  it from a fresh sorted copy, a separate row index and unpacking
  temporaries peaks at ``4 * 8n`` (``6 * 8n``).
* One 16-trial 32x32-mesh serve-first pass (about 341k head-arrival
  events) holds its five int64 event columns (its *event bytes*, 40
  bytes an event) and peaks at about 4.0 times them when each call
  writes straight into its slice of them, against 5.2 times when each
  call builds columns of its own and the pass copies them together.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.engine import RoundCall, RoutingEngine, _lexorder, run_round_batch
from repro.experiments.workloads import mesh_random_function
from repro.optics.coupler import CollisionRule
from repro.worms.worm import Launches, make_worms

#: Traced peak of ``_lexorder`` on ``n`` rows, in units of ``8n`` bytes,
#: by number of kept columns.
LEXORDER_BUDGET = {0: 3.0, 2: 5.0}
#: Traced peak of the 16-trial pass, in units of its event bytes.
PASS_BUDGET = 4.6


def _traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates at its peak beyond what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("keep", sorted(LEXORDER_BUDGET))
def test_lexorder_peak(keep):
    n = 200_000
    rng = np.random.default_rng(0)
    bounds = [1 << 20, 1 << 10, 64]
    columns = [rng.integers(0, b, n) for b in bounds]
    peak = _traced_peak(lambda: _lexorder(columns, bounds, keep=keep))
    assert peak <= LEXORDER_BUDGET[keep] * 8 * n


def test_lockstep_pass_peak():
    worms = make_worms(mesh_random_function(32, 2, rng=5).paths, 4)
    engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
    uids = np.array([w.uid for w in worms], dtype=np.int64)
    calls = []
    for trial in range(16):
        rng = np.random.default_rng(trial)
        launches = Launches(
            uids, rng.integers(0, 16, uids.shape[0]), rng.integers(0, 2, uids.shape[0])
        )
        calls.append(RoundCall(engine.fork(), launches))
    event_bytes = 40 * 16 * sum(w.n_links for w in worms)
    want = run_round_batch(calls)
    results = []
    peak = _traced_peak(lambda: results.extend(run_round_batch(calls)))
    assert results == want
    assert peak <= PASS_BUDGET * event_bytes
