"""Tests for deployment areas, the distance contract and the neighbor
kernel as a spatial index."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    area_side_for_density,
    critical_range_for_connectivity,
    distance,
    distances,
)
from repro.geometry.kernel import NeighborKernel


class TestPlaneMetric:
    def test_euclidean_distance(self):
        assert distance((0, 0), (3, 4), 10.0, torus=False) == 5.0

    def test_no_wrap(self):
        assert distance((0.5, 0), (9.5, 0), 10.0, torus=False) == 9.0


class TestTorusMetric:
    def test_short_way_around(self):
        assert distance((0.5, 0), (9.5, 0), 10.0, torus=True) == 1.0

    def test_interior_matches_plane(self):
        a, b = (2, 2), (3, 5)
        assert distance(a, b, 10.0, True) == distance(a, b, 10.0, False)

    def test_max_distance_is_half_diagonal(self):
        assert distance((0, 0), (5, 5), 10.0, torus=True) == math.sqrt(50)

    @given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=50)
    def test_torus_never_longer_than_plane(self, ax, ay, bx, by):
        a, b = (ax, ay), (bx, by)
        torus = distance(a, b, 10.0, True)
        assert torus <= distance(a, b, 10.0, False)
        assert torus <= math.sqrt(50)


class TestDistanceForms:
    """:func:`distances` equals :func:`distance` with ``==``, row by row."""

    SIDE = 1000.0

    @pytest.mark.parametrize("torus", [False, True])
    def test_array_equals_scalar(self, torus):
        side = self.SIDE
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, side, size=(100_000, 2))
        b = rng.uniform(0.0, side, size=(100_000, 2))
        # Zero separation, exactly the wrap point, exactly one side.
        a[:3] = 0.0
        b[:3] = [(0.0, 0.0), (0.5 * side, 0.5 * side), (side, side)]
        got = distances(a, b, side, torus)
        assert got.tolist() == [distance(p, q, side, torus)
                                for p, q in zip(a.tolist(), b.tolist())]
        assert got[:3].tolist() == [0.0, math.sqrt(0.5 * side * side),
                                    0.0 if torus else math.sqrt(2 * side * side)]
        # One origin against every row: the form range queries use.
        origin = tuple(a[7].tolist())
        rows = b[:1000]
        assert distances(rows, origin, side, torus).tolist() == [
            distance(origin, q, side, torus) for q in rows.tolist()]


class TestDensityScaling:
    def test_area_gives_target_degree(self):
        side = area_side_for_density(n=200, radio_range=200.0, avg_degree=10.0)
        # The paper's expected degree: pi r^2 n / side^2.
        assert math.pi * 200.0 ** 2 * 200 / side ** 2 == pytest.approx(10.0)

    def test_larger_network_larger_area(self):
        small = area_side_for_density(100, 200.0, 10.0)
        big = area_side_for_density(800, 200.0, 10.0)
        assert big > small

    def test_denser_network_smaller_area(self):
        sparse = area_side_for_density(200, 200.0, 7.0)
        dense = area_side_for_density(200, 200.0, 25.0)
        assert dense < sparse

    @pytest.mark.parametrize("bad", [(0, 200.0, 10.0), (100, 0.0, 10.0),
                                     (100, 200.0, 0.0)])
    def test_invalid_args_rejected(self, bad):
        with pytest.raises(ValueError):
            area_side_for_density(*bad)

    def test_critical_range_shrinks_with_n(self):
        assert (critical_range_for_connectivity(1000)
                < critical_range_for_connectivity(100))

    def test_critical_range_needs_two_nodes(self):
        with pytest.raises(ValueError):
            critical_range_for_connectivity(1)


class TestSpatialGrid:
    """:class:`NeighborKernel` as a spatial index: insert, move, remove and
    inclusive range queries under the distance contract."""

    def test_insert_and_query(self):
        kernel = NeighborKernel(side=100.0, radius=10.0)
        kernel.insert(1, (50, 50))
        kernel.insert(2, (55, 50))
        kernel.insert(3, (90, 90))
        assert kernel.within((50, 50), 10.0) == [1, 2]

    def test_neighbors_excludes_self(self):
        kernel = NeighborKernel(side=100.0, radius=10.0)
        kernel.insert(1, (50, 50))
        kernel.insert(2, (52, 50))
        assert kernel.neighbors_of(1) == [2]

    def test_remove(self):
        kernel = NeighborKernel(side=100.0, radius=10.0)
        kernel.insert(1, (50, 50))
        kernel.remove(1)
        assert kernel.within((50, 50), 10.0) == []
        assert 1 not in kernel

    def test_remove_missing_is_noop(self):
        NeighborKernel(side=10.0, radius=1.0).remove(42)

    def test_reinsert_moves_node(self):
        kernel = NeighborKernel(side=100.0, radius=10.0)
        kernel.insert(1, (10, 10))
        kernel.insert(1, (90, 90))
        assert kernel.within((10, 10), 5.0) == []
        assert kernel.within((90, 90), 5.0) == [1]
        assert len(kernel) == 1

    def test_boundary_point_included(self):
        kernel = NeighborKernel(side=100.0, radius=10.0)
        kernel.insert(1, (100.0, 100.0))
        assert kernel.within((99.0, 99.0), 2.0) == [1]

    def test_radius_inclusive(self):
        kernel = NeighborKernel(side=100.0, radius=10.0)
        kernel.insert(1, (50, 50))
        kernel.insert(2, (60, 50))
        assert 2 in kernel.within((50, 50), 10.0)

    def test_torus_wraps(self):
        kernel = NeighborKernel(side=100.0, radius=10.0, torus=True)
        kernel.insert(1, (1, 50))
        kernel.insert(2, (99, 50))
        assert kernel.within((0, 50), 5.0) == [1, 2]

    def test_zero_radius_empty(self):
        kernel = NeighborKernel(side=10.0, radius=1.0)
        kernel.insert(1, (5, 5))
        assert kernel.within((5, 5), 0.0) == []

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            NeighborKernel(side=0.0, radius=1.0)
        with pytest.raises(ValueError):
            NeighborKernel(side=1.0, radius=0.0)

    @given(st.integers(0, 1000), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, seed, torus):
        rng = random.Random(seed)
        side = 100.0
        kernel = NeighborKernel(side=side, radius=13.0, torus=torus)
        positions = {}
        for nid in range(40):
            positions[nid] = (rng.uniform(0, side), rng.uniform(0, side))
            kernel.insert(nid, positions[nid])
        center = (rng.uniform(0, side), rng.uniform(0, side))
        radius = rng.uniform(1.0, kernel.cell_size)
        assert kernel.within(center, radius) == sorted(
            nid for nid, p in positions.items()
            if distance(p, center, side, torus) <= radius)
