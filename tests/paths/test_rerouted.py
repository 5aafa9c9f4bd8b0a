"""``PathCollection.rerouted`` against a fresh build of the same paths.

A rerouted collection must be indistinguishable from
``PathCollection(paths with changes, topology=..., require_simple=False)``
through everything the protocol and the oracle read: paths, link order,
link -> paths index, the congestion measures, the sharing bitsets and
the batched subset oracle. Chains of reroutes must stay exact, because the
protocol patches the previous repair's collection, not the original.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PathError, TopologyError
from repro.experiments.workloads import mesh_random_function, torus_random_function
from repro.network.mesh import Mesh
from repro.paths.collection import PathCollection


def _walk(topology, rng, length):
    """A random walk of ``length`` links (walks may revisit links)."""
    node = topology.nodes[int(rng.integers(len(topology.nodes)))]
    path = [node]
    for _ in range(length):
        nbrs = topology.neighbors(path[-1])
        path.append(nbrs[int(rng.integers(len(nbrs)))])
    return tuple(path)


def _random_changes(coll, rng, k):
    pids = rng.choice(coll.n, size=min(k, coll.n), replace=False)
    return {
        int(pid): _walk(coll.topology, rng, int(rng.integers(1, 9)))
        for pid in pids
    }


def _fresh(coll, changes):
    paths = list(coll.paths)
    for pid, path in changes.items():
        paths[pid] = path
    return PathCollection(paths, topology=coll.topology, require_simple=False)


def _brute_shares(coll):
    links = [set(zip(p, p[1:])) for p in coll.paths]
    return np.array([[bool(a & b) for b in links] for a in links])


def _shares(coll):
    """The cached sharing bitsets unpacked to an ``n x n`` boolean matrix."""
    bits = coll._share_bits.view(np.uint8)
    return np.unpackbits(bits, axis=1, count=coll.n, bitorder="little").astype(bool)


def _assert_same(got, want, rng):
    assert got.paths == want.paths
    assert got.topology is want.topology
    assert got.links == want.links
    assert got.link_paths == want.link_paths
    assert got.dilation == want.dilation
    np.testing.assert_array_equal(got.per_path_congestion, want.per_path_congestion)
    assert got.per_path_congestion.dtype == want.per_path_congestion.dtype
    assert got.path_congestion == want.path_congestion
    np.testing.assert_array_equal(got._share_bits, want._share_bits)
    assert got._share_bits.dtype == want._share_bits.dtype
    masks = rng.random((5, want.n)) < 0.5
    masks[0] = True
    np.testing.assert_array_equal(
        got.subset_congestion_batch(masks), want.subset_congestion_batch(masks)
    )


_BUILDERS = {
    "torus": lambda seed: torus_random_function(4, 2, rng=seed),
    "mesh": lambda seed: mesh_random_function(4, 2, rng=seed),
}


@given(
    kind=st.sampled_from(sorted(_BUILDERS)),
    seed=st.integers(0, 2**16),
    warm=st.booleans(),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_chained_reroutes_equal_fresh_build(kind, seed, warm, sizes):
    rng = np.random.default_rng(seed)
    coll = _BUILDERS[kind](seed)
    if warm:
        coll._share_bits  # the parent's oracle is cached: patch it
    for k in sizes:
        changes = _random_changes(coll, rng, k)
        cached = "_share_bits" in coll.__dict__
        child = coll.rerouted(changes)
        # Patched exactly when the parent had one; _assert_same reads
        # the oracle, so later links of the chain are always patched.
        assert ("_share_bits" in child.__dict__) == cached
        _assert_same(child, _fresh(coll, changes), rng)
        coll = child


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_long_chain_on_cached_oracle(kind):
    rng = np.random.default_rng(7)
    coll = _BUILDERS[kind](3)
    coll.subset_congestion_batch(np.ones((1, coll.n), dtype=bool))
    for step in range(12):
        changes = _random_changes(coll, rng, 1 + step % 4)
        want = _fresh(coll, changes)
        coll = coll.rerouted(changes)
        _assert_same(coll, want, rng)
    np.testing.assert_array_equal(_shares(coll), _brute_shares(coll))


def test_parent_without_cached_share_matrix():
    rng = np.random.default_rng(1)
    coll = torus_random_function(4, 2, rng=1)
    assert "_share_bits" not in coll.__dict__
    changes = _random_changes(coll, rng, 3)
    child = coll.rerouted(changes)
    assert "_share_bits" not in child.__dict__
    assert "per_path_congestion" not in child.__dict__
    _assert_same(child, _fresh(coll, changes), rng)


def test_invalid_replacement_raises_like_a_fresh_build():
    coll = torus_random_function(4, 2, rng=4)
    coll._share_bits
    a, b = coll.paths[0][0], coll.paths[0][-1]
    bad = {1: coll.paths[1], 3: (a, (9, 9))}
    with pytest.raises(TopologyError) as fresh_err:
        _fresh(coll, bad)
    with pytest.raises(TopologyError) as patched_err:
        coll.rerouted(bad)
    assert str(patched_err.value) == str(fresh_err.value)
    short = {2: (b,), 3: (a, (9, 9))}
    with pytest.raises(PathError) as fresh_err:
        _fresh(coll, short)
    with pytest.raises(PathError) as patched_err:
        coll.rerouted(short)
    assert str(patched_err.value) == str(fresh_err.value)


@pytest.mark.parametrize("pid", [-1, 10_000])
def test_out_of_range_pid_is_named(pid):
    coll = torus_random_function(4, 2, rng=5)
    with pytest.raises(PathError, match=str(pid)):
        coll.rerouted({pid: coll.paths[0]})


def test_empty_changes_return_the_collection():
    coll = mesh_random_function(4, 2, rng=6)
    assert coll.rerouted({}) is coll


def test_collection_over_the_patch_gate():
    # A collection of any size patches: 324 paths span six bitset words,
    # and the replaced rows fall in several of them.
    rng = np.random.default_rng(9)
    coll = torus_random_function(18, 2, rng=9)
    coll._share_bits
    changes = _random_changes(coll, rng, 5)
    changes[0] = changes[coll.n - 1] = _walk(coll.topology, rng, 5)
    child = coll.rerouted(changes)
    assert "_share_bits" in child.__dict__
    assert "_link_members" not in child.__dict__
    _assert_same(child, _fresh(coll, changes), rng)


def test_share_matrix_matches_brute_force():
    sparse = torus_random_function(8, 2, rng=8)
    np.testing.assert_array_equal(_shares(sparse), _brute_shares(sparse))
    m = Mesh((3, 3))
    row = [(0, 0), (0, 1), (0, 2)]
    dense = PathCollection([row] * 6 + [[(1, 0), (1, 1)]], topology=m)
    np.testing.assert_array_equal(_shares(dense), _brute_shares(dense))
    assert dense.per_path_congestion.tolist() == [6] * 6 + [1]


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_replaced_paths_sharing_links_patch_exactly(kind):
    # One call replaces several rows whose new paths share links with
    # one another: the batched patch must fill the replaced block too.
    rng = np.random.default_rng(11)
    coll = _BUILDERS[kind](11)
    coll._share_bits
    walk = _walk(coll.topology, rng, 6)
    changes = {0: walk, 3: walk, 5: walk[1:4], 7: walk[3:][::-1], 9: walk[:2]}
    child = coll.rerouted(changes)
    assert "_share_bits" in child.__dict__
    want = _fresh(coll, changes)
    np.testing.assert_array_equal(child._share_bits, want._share_bits)
    for trio in ([0, 3, 5], [0, 3, 9]):
        assert _shares(child)[np.ix_(trio, trio)].all()
    _assert_same(child, want, rng)
