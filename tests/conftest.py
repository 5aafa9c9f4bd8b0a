"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import get_default_backend, set_default_backend
from repro.network.butterfly import Butterfly
from repro.network.mesh import Mesh, Torus
from repro.paths.collection import PathCollection
from repro.paths.gadgets import type1_staircase, type1_triangle, type2_bundle


@pytest.fixture
def rng():
    """A deterministic generator; reseed per test for reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture
def backend_default(backend):
    """Make the test's ``backend`` parameter the process-default name.

    The engine reads no backend name, so an engine-level test run under
    each name checks that none of them changes what the engine does.
    """
    previous = get_default_backend()
    set_default_backend(backend)
    yield backend
    set_default_backend(previous)


@pytest.fixture
def small_butterfly():
    """A 3-dimensional butterfly (8 rows, 4 levels)."""
    return Butterfly(3)


@pytest.fixture
def small_mesh():
    """A 4x4 two-dimensional mesh."""
    return Mesh((4, 4))


@pytest.fixture
def small_torus():
    """A 4x4 two-dimensional torus."""
    return Torus((4, 4))


@pytest.fixture
def bundle8():
    """A type-2 bundle: 8 identical length-6 paths."""
    return type2_bundle(congestion=8, D=6)


@pytest.fixture
def staircase5():
    """A type-1 staircase of 5 paths, D=20, built for L=4 worms."""
    return type1_staircase(k=5, D=20, L=4)


@pytest.fixture
def triangle():
    """A cyclic triangle gadget, D=12, built for L=4 worms."""
    return type1_triangle(D=12, L=4)


@pytest.fixture
def two_disjoint_paths():
    """Two link-disjoint paths (never conflict)."""
    return PathCollection([[("a", i) for i in range(5)], [("b", i) for i in range(5)]])
