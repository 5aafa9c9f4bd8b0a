"""The engine's packed-key sort order and its clash mask.

``_lexorder`` packs integer key columns into as few int64 words as fit
and must return exactly the stable ``np.lexsort`` order of the same
columns (which takes its keys least significant first). It packs and
sorts in place, so it must also never write through to its inputs nor
return an array sharing their memory; neither may a pass write to its
engines' event tables or its launch columns. ``_clashed`` must not
depend on how that order breaks ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import (
    RoundCall,
    RoutingEngine,
    _clashed,
    _lexorder,
    run_round_batch,
)
from repro.optics.coupler import CollisionRule
from repro.worms.worm import Launches, Worm


def _reference(columns):
    return np.lexsort(tuple(columns[::-1]))


@st.composite
def keyed_columns(draw, max_rows=40, max_cols=5):
    """Random columns with random bounds (some wide, some 1 = all zero)."""
    n = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    bounds = [
        draw(st.one_of(st.integers(1, 4), st.integers(1, 2**40)))
        for _ in range(n_cols)
    ]
    columns = [
        np.asarray(
            draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        for b in bounds
    ]
    return columns, bounds


class TestLexorder:
    @given(keyed_columns())
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_lexsort(self, case):
        columns, bounds = case
        assert np.array_equal(_lexorder(columns, bounds), _reference(columns))

    @given(keyed_columns(), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_kept_columns_come_back_sorted(self, case, keep):
        # One packed word unpacks its leading columns; several words
        # gather them. Either way they read as the columns in order.
        columns, bounds = case
        keep = min(keep, len(columns))
        order, kept = _lexorder(columns, bounds, keep=keep)
        want = _reference(columns)
        assert np.array_equal(order, want)
        assert len(kept) == keep
        for col, got in zip(columns, kept):
            assert np.array_equal(got, col[want])

    def test_random_columns(self):
        rng = np.random.default_rng(7)
        bounds = [5, 300, 2, 60, 1000]
        columns = [rng.integers(0, b, 5000) for b in bounds]
        assert np.array_equal(_lexorder(columns, bounds), _reference(columns))

    def test_wider_than_one_word(self):
        # 40 + 30 + 10 bits plus the row index: at least two words.
        rng = np.random.default_rng(3)
        bounds = [2**40, 2**30, 2**10]
        columns = [rng.integers(0, 4, 3000) * (b // 4) for b in bounds]
        assert np.array_equal(_lexorder(columns, bounds), _reference(columns))

    def test_widest_columns(self):
        # Every column needs a word of its own.
        rng = np.random.default_rng(11)
        bounds = [2**62, 2**62]
        columns = [rng.integers(0, 2**62, 500) for _ in bounds]
        columns[0][::2] = 5  # ties on the first column
        assert np.array_equal(_lexorder(columns, bounds), _reference(columns))

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_arrays(self, n):
        columns = [np.full(n, 3, dtype=np.int64), np.zeros(n, dtype=np.int64)]
        order = _lexorder(columns, [4, 1])
        assert order.tolist() == list(range(n))

    def test_all_zero_columns(self):
        # Bound 1 means width 0, which is packed as one bit.
        columns = [np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64)]
        assert _lexorder(columns, [1, 1]).tolist() == list(range(6))

    def test_ties_keep_input_order(self):
        key = np.array([2, 1, 2, 1, 2], dtype=np.int64)
        assert _lexorder([key], [3]).tolist() == [1, 3, 0, 2, 4]


def _unwritten(columns, bounds, keep):
    """``_lexorder`` on copies; assert the columns and results stay apart."""
    copies = [col.copy() for col in columns]
    got = _lexorder(copies, bounds, keep=keep)
    order, kept = got if keep else (got, [])
    assert np.array_equal(order, _reference(columns))
    for col, copy in zip(columns, copies):
        assert np.array_equal(copy, col)
        for out in (order, *kept):
            assert not np.shares_memory(out, copy)
    assert len(kept) == keep


class TestNoWriteThrough:
    """The word is packed and sorted in place, never in a caller's array."""

    def test_int64_column_is_copied(self):
        # An int64 column needs no cast: only the copy keeps the
        # in-place sort off it.
        key = np.array([5, 1, 4, 1, 3], dtype=np.int64)
        _unwritten([key], [6], keep=0)

    def test_single_column_and_row_index(self):
        rng = np.random.default_rng(5)
        _unwritten([rng.integers(0, 1000, 300)], [1000], keep=0)

    @pytest.mark.parametrize("keep", [1, 2])
    def test_kept_columns(self, keep):
        rng = np.random.default_rng(keep)
        bounds = [50, 300, 7]
        columns = [rng.integers(0, b, 400) for b in bounds]
        _unwritten(columns, bounds, keep=keep)

    @pytest.mark.parametrize("keep", [0, 2])
    def test_several_words(self, keep):
        rng = np.random.default_rng(9)
        bounds = [2**40, 2**30, 2**10]
        columns = [rng.integers(0, b, 200) for b in bounds]
        _unwritten(columns, bounds, keep=keep)

    def test_pass_leaves_event_tables_and_launches(self):
        # Forks share one event table; each call writes its events into
        # its slice of the pass's columns, never into what it reads.
        worms = [
            Worm(uid=u, path=tuple(range(u, u + 4)), length=3) for u in range(6)
        ]
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        uids = np.arange(6, dtype=np.int64)
        launches = [
            Launches(uids, [0, 1, 0, 2, 1, 0], [0, 1, 0, 1, 0, 1]),
            Launches(uids[::-1], [1, 0, 0, 0, 2, 1], [1, 1, 0, 0, 1, 0],
                     per_link=[None, (1, 0, 1), None, None, (0, 0, 1), None]),
            Launches(uids[:4], [3, 0, 1, 0], [0, 0, 0, 0]),
        ]
        calls = [
            RoundCall(engine.fork(), launches[0]),
            RoundCall(engine.fork(), launches[1]),
            RoundCall(engine.fork(), launches[2], dead_links=[(2, 3)]),
        ]
        table = engine._ev_table.copy()
        worm_cols = engine._ev_worms
        before = [
            col.copy() for col in (
                worm_cols.uid, worm_cols.start, worm_cols.count, worm_cols.length
            )
        ]
        launch_cols = [
            [col.copy() for col in (cols.worm, cols.delay, cols.wavelength,
                                    cols.priority)]
            for cols in launches
        ]
        run_round_batch(calls)
        run_round_batch(calls[1:2])
        for call in calls:
            assert call.engine._ev_table is engine._ev_table
        assert np.array_equal(engine._ev_table, table)
        for col, copy in zip(
            (worm_cols.uid, worm_cols.start, worm_cols.count, worm_cols.length),
            before,
        ):
            assert np.array_equal(col, copy)
        for cols, copies in zip(launches, launch_cols):
            for col, copy in zip(
                (cols.worm, cols.delay, cols.wavelength, cols.priority), copies
            ):
                assert np.array_equal(col, copy)
        assert launches[1].per_link[1] == (1, 0, 1)


class TestClashed:
    def test_gap_boundary(self):
        chan = np.zeros(4, dtype=np.int64)
        t = np.array([0, 3, 7, 20], dtype=np.int64)
        # 0 and 3 are 3 apart (<= gap 3); 7 is 4 past 3; 20 is alone.
        assert _clashed(chan, t, 3, 1, 21).tolist() == [True, True, False, False]

    def test_channels_never_mix(self):
        chan = np.array([0, 1, 0, 1], dtype=np.int64)
        t = np.array([0, 1, 9, 2], dtype=np.int64)
        assert _clashed(chan, t, 3, 2, 10).tolist() == [False, True, False, True]

    def test_per_event_gaps(self):
        # Each adjacent pair is judged by the later event's gap.
        chan = np.zeros(3, dtype=np.int64)
        t = np.array([0, 2, 4], dtype=np.int64)
        gap = np.array([0, 1, 2], dtype=np.int64)
        assert _clashed(chan, t, gap, 1, 5).tolist() == [False, True, True]

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 12)),
                    min_size=1, max_size=30),
           st.integers(0, 4), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_mask_independent_of_row_order(self, rows, gap, rnd):
        # Permuting the rows changes how the sort breaks (channel, time)
        # ties, never the mask.
        perm = list(range(len(rows)))
        rnd.shuffle(perm)
        chan = np.array([c for c, _ in rows], dtype=np.int64)
        t = np.array([s for _, s in rows], dtype=np.int64)
        mask = _clashed(chan, t, gap, 3, 13)
        shuffled = _clashed(chan[perm], t[perm], gap, 3, 13)
        assert np.array_equal(shuffled, mask[perm])
