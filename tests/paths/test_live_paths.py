"""``LivePathSet`` against a fresh ``PathCollection`` of the live paths.

After every ``add`` and ``remove`` the live set's ``n``, ``dilation`` and
``path_congestion`` must equal those of
``PathCollection(live paths, topology=..., require_simple=False)``,
including for identical paths under different uids, reversed paths,
1-link paths and walks that revisit a link.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PathError, TopologyError
from repro.network.mesh import Mesh
from repro.paths.collection import LivePathSet, PathCollection

MESH = Mesh((3, 3))


@st.composite
def walks(draw, max_links=5):
    """A random walk on ``MESH`` of 1 to ``max_links`` links."""
    path = [draw(st.sampled_from(MESH.nodes))]
    for _ in range(draw(st.integers(1, max_links))):
        path.append(draw(st.sampled_from(sorted(MESH.neighbors(path[-1])))))
    return tuple(path)


def _assert_matches(live: LivePathSet, model: dict[int, tuple]) -> None:
    if not model:
        assert (live.n, live.dilation, live.path_congestion) == (0, 0, 0)
        return
    fresh = PathCollection(list(model.values()), topology=MESH, require_simple=False)
    assert live.n == fresh.n
    assert live.dilation == fresh.dilation
    assert live.path_congestion == fresh.path_congestion


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_live_set_matches_a_fresh_collection(data):
    live = LivePathSet(MESH)
    model: dict[int, tuple] = {}
    next_uid = 0
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        ops = ["add"] + (["copy", "reverse", "remove"] if model else [])
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "remove":
            uid = data.draw(st.sampled_from(sorted(model)), label="uid")
            live.remove(uid)
            del model[uid]
            _assert_matches(live, model)
            continue
        if op == "add":
            path = data.draw(walks(), label="path")
        else:
            path = model[data.draw(st.sampled_from(sorted(model)), label="of")]
            if op == "reverse":
                path = path[::-1]
        live.add(next_uid, path)
        model[next_uid] = path
        next_uid += 1
        _assert_matches(live, model)


def test_identical_paths_share():
    live = LivePathSet(MESH)
    for uid in range(3):
        live.add(uid, ((0, 0), (0, 1)))
    live.add(3, ((0, 1), (0, 0)))  # the opposite direction never contends
    assert (live.n, live.dilation, live.path_congestion) == (4, 1, 3)
    live.remove(1)
    assert live.path_congestion == 2


def test_duplicate_uid_raises():
    live = LivePathSet(MESH)
    live.add(7, ((0, 0), (0, 1)))
    with pytest.raises(PathError, match="path 7 is already live"):
        live.add(7, ((1, 0), (1, 1)))
    assert live.n == 1


def test_unknown_uid_raises():
    live = LivePathSet(MESH)
    live.add(7, ((0, 0), (0, 1)))
    with pytest.raises(PathError, match="path 3 is not live"):
        live.remove(3)
    live.remove(7)
    with pytest.raises(PathError, match="path 7 is not live"):
        live.remove(7)


@pytest.mark.parametrize(
    "path, error",
    [
        (((0, 0),), PathError),
        (((0, 0), (1, 1)), TopologyError),
        (((0, 0), (9, 9)), TopologyError),
    ],
)
def test_rejected_paths_raise_as_a_collection_does(path, error):
    live = LivePathSet(MESH)
    with pytest.raises(error) as live_info:
        live.add(0, path)
    with pytest.raises(error) as coll_info:
        PathCollection([path], topology=MESH, require_simple=False)
    assert str(live_info.value) == str(coll_info.value)
    assert (live.n, live.path_congestion) == (0, 0)
