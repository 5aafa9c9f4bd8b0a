"""The path-congestion oracle against a brute-force set reference.

``per_path_congestion`` and ``subset_congestion_batch`` read one packed
structure (per-path sharing bitsets, 64 paths to a word), so collection
sizes at the word edges (63, 64, 65, 128, 129 paths) are drawn on
purpose, as are identical paths, one-link paths, walks that revisit a
link, and all-false and all-true mask rows. After a chain of
``rerouted`` calls, whose bitsets are patched rather than rebuilt, both
reads must still equal the reference and a fresh build.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.mesh import Mesh, Torus
from repro.paths.collection import PathCollection

_TOPOLOGIES = {
    "mesh": Mesh((4, 4)),
    "torus": Torus((5, 5)),
    "free": None,
}

_FREE_NODES = 6


def _walk(topology, rng):
    """A random walk of 1 to 6 links (it may revisit links)."""
    length = int(rng.integers(1, 7))
    if topology is None:
        path = [int(rng.integers(_FREE_NODES))]
        for _ in range(length):
            step = int(rng.integers(1, _FREE_NODES))
            path.append((path[-1] + step) % _FREE_NODES)
        return tuple(path)
    path = [topology.nodes[int(rng.integers(len(topology.nodes)))]]
    for _ in range(length):
        nbrs = topology.neighbors(path[-1])
        path.append(nbrs[int(rng.integers(len(nbrs)))])
    return tuple(path)


def _paths(topology, rng, n):
    """``n`` walks, about a quarter of them copies of earlier ones."""
    paths = []
    for _ in range(n):
        if paths and rng.random() < 0.25:
            paths.append(paths[int(rng.integers(len(paths)))])
        else:
            paths.append(_walk(topology, rng))
    return paths


def _masks(rng, n, rows):
    masks = rng.random((rows, n)) < rng.random((rows, 1))
    masks[0] = False
    masks[1] = True
    return masks


def _reference(paths, masks):
    """Per-path congestion and per-mask subset congestion, by sets."""
    links = [set(zip(p, p[1:])) for p in paths]
    shares = np.array([[bool(a & b) for b in links] for a in links])
    per_path = shares.sum(axis=1)
    subset = [
        int((shares[mask][:, mask].sum(axis=1)).max()) if mask.any() else 0
        for mask in masks
    ]
    return per_path, subset


def _assert_oracle(coll, masks):
    per_path, subset = _reference(coll.paths, masks)
    assert coll.per_path_congestion.dtype == np.int64
    assert coll.per_path_congestion.tolist() == per_path.tolist()
    got = coll.subset_congestion_batch(masks)
    assert got.dtype == np.int64
    assert got.tolist() == subset
    every = coll.subset_congestion_batch(np.ones((2, coll.n), dtype=bool))
    assert every.dtype == np.int64
    assert every.tolist() == [per_path.max()] * 2


_SIZES = st.one_of(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 12))


@given(
    kind=st.sampled_from(sorted(_TOPOLOGIES)),
    n=_SIZES,
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_oracle_equals_set_reference(kind, n, seed):
    rng = np.random.default_rng(seed)
    topology = _TOPOLOGIES[kind]
    coll = PathCollection(_paths(topology, rng, n), topology, require_simple=False)
    _assert_oracle(coll, _masks(rng, n, 6))


@given(
    kind=st.sampled_from(sorted(_TOPOLOGIES)),
    n=_SIZES,
    seed=st.integers(0, 2**32 - 1),
    chain=st.lists(st.integers(1, 8), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_chained_reroutes_equal_fresh_build(kind, n, seed, chain):
    rng = np.random.default_rng(seed)
    topology = _TOPOLOGIES[kind]
    coll = PathCollection(_paths(topology, rng, n), topology, require_simple=False)
    coll.subset_congestion_batch(np.ones((1, n), dtype=bool))
    for k in chain:
        pids = rng.choice(n, size=min(k, n), replace=False)
        changes = {int(pid): _walk(topology, rng) for pid in pids}
        if n > 1 and rng.random() < 0.5:
            # Two replaced rows take one new path: they share every link.
            changes[int(pids[0])] = changes[int(pids[-1])]
        coll = coll.rerouted(changes)
        assert "_share_bits" in coll.__dict__
        fresh = PathCollection(coll.paths, topology, require_simple=False)
        np.testing.assert_array_equal(coll._share_bits, fresh._share_bits)
        masks = _masks(rng, n, 6)
        _assert_oracle(coll, masks)
        np.testing.assert_array_equal(
            coll.subset_congestion_batch(masks), fresh.subset_congestion_batch(masks)
        )
