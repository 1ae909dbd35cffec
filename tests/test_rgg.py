"""Tests for random geometric graph generation and graph measurements."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import pairwise_tables

from repro.geometry import (
    bfs_distances,
    connected_components,
    diameter,
    distance,
    is_connected,
    random_geometric_graph,
    rgg_for_density,
    shortest_path,
    theoretical_diameter_hops,
)


def small_rgg(seed=0, n=60, radius=0.25):
    return random_geometric_graph(n, radius=radius, rng=random.Random(seed))


class TestGeneration:
    def test_node_count(self):
        g = small_rgg()
        assert g.n == 60
        assert len(g.adjacency) == 60

    def test_positions_in_area(self):
        g = small_rgg()
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in g.positions)

    def test_adjacency_symmetric(self):
        g = small_rgg()
        for u, nbrs in enumerate(g.adjacency):
            for v in nbrs:
                assert u in g.adjacency[v]

    def test_no_self_loops(self):
        g = small_rgg()
        for u, nbrs in enumerate(g.adjacency):
            assert u not in nbrs

    def test_edges_respect_radius(self):
        g = small_rgg()
        for u, row in enumerate(g.adjacency):
            for v in row:
                assert distance(g.positions[u], g.positions[v], g.side,
                                g.torus) <= g.radius

    def test_non_edges_exceed_radius(self):
        g = small_rgg(n=30)
        for u in range(g.n):
            nbrs = set(g.adjacency[u])
            for v in range(g.n):
                if v != u and v not in nbrs:
                    assert distance(g.positions[u], g.positions[v], g.side,
                                    g.torus) > g.radius

    @pytest.mark.parametrize("torus,radius", [(True, 0.4), (True, 0.5),
                                              (True, 1.0), (False, 1.5)])
    def test_rows_equal_all_pairs_scan(self, torus, radius):
        # Under three cells per side the torus grid aliases cells; a row
        # must still list each neighbor once.  r >= side is one cell.
        g = random_geometric_graph(60, radius=radius, torus=torus,
                                   rng=random.Random(0))
        scan = pairwise_tables(dict(enumerate(g.positions)), g.side, radius,
                               torus)
        assert g.adjacency == [scan[u] for u in range(g.n)]

    def test_deterministic_given_rng(self):
        a = small_rgg(seed=5)
        b = small_rgg(seed=5)
        assert a.positions == b.positions
        assert a.adjacency == b.adjacency

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            random_geometric_graph(0, radius=0.1, rng=random.Random(0))

    @pytest.mark.parametrize("radius,side", [(0.0, 1.0), (-0.1, 1.0),
                                             (0.1, 0.0), (0.1, -1.0)])
    def test_invalid_radius_or_side(self, radius, side):
        with pytest.raises(ValueError):
            random_geometric_graph(5, radius=radius, side=side,
                                   rng=random.Random(0))

    def test_degree_stats(self):
        g = small_rgg()
        assert g.degrees() == [len(row) for row in g.adjacency]
        assert g.degree(0) == len(g.adjacency[0])


class TestDensityScaledRgg:
    def test_average_degree_near_target(self):
        g = rgg_for_density(300, avg_degree=10.0, rng=random.Random(2))
        # Boundary effects push the realized mean slightly below target.
        assert 6.0 <= sum(g.degrees()) / g.n <= 12.0

    def test_torus_average_degree_closer(self):
        g = rgg_for_density(300, avg_degree=10.0, torus=True,
                            rng=random.Random(2))
        assert 8.0 <= sum(g.degrees()) / g.n <= 12.0

    def test_require_connected(self):
        g = rgg_for_density(150, avg_degree=12.0, rng=random.Random(3),
                            require_connected=True)
        assert is_connected(g)


class TestConnectivity:
    def test_connected_components_partition(self):
        g = small_rgg()
        comps = connected_components(g)
        all_nodes = sorted(v for comp in comps for v in comp)
        assert all_nodes == list(range(g.n))

    def test_is_connected_agrees_with_components(self):
        g = small_rgg()
        assert is_connected(g) == (len(connected_components(g)) == 1)

    def test_is_connected_with_ignored_nodes(self):
        g = rgg_for_density(80, avg_degree=12.0, rng=random.Random(4),
                            require_connected=True)
        assert is_connected(g, ignore=set())

    def test_isolated_node_disconnects(self):
        g = random_geometric_graph(5, radius=0.001, rng=random.Random(0))
        assert not is_connected(g) or g.n == 1


class TestPathsAndDiameter:
    def test_bfs_distances_source_zero(self):
        g = rgg_for_density(60, avg_degree=12.0, rng=random.Random(6),
                            require_connected=True)
        dist = bfs_distances(g, 0)
        assert dist[0] == 0
        assert len(dist) == g.n

    def test_bfs_triangle_inequality_on_edges(self):
        g = rgg_for_density(60, avg_degree=12.0, rng=random.Random(6),
                            require_connected=True)
        dist = bfs_distances(g, 0)
        for u, row in enumerate(g.adjacency):
            for v in row:
                assert abs(dist[u] - dist[v]) <= 1

    def test_shortest_path_endpoints(self):
        g = rgg_for_density(60, avg_degree=12.0, rng=random.Random(7),
                            require_connected=True)
        path = shortest_path(g, 0, g.n - 1)
        assert path is not None
        assert path[0] == 0 and path[-1] == g.n - 1

    def test_shortest_path_is_valid_walk(self):
        g = rgg_for_density(60, avg_degree=12.0, rng=random.Random(7),
                            require_connected=True)
        path = shortest_path(g, 0, g.n - 1)
        for a, b in zip(path, path[1:]):
            assert b in g.adjacency[a]

    def test_shortest_path_length_matches_bfs(self):
        g = rgg_for_density(60, avg_degree=12.0, rng=random.Random(7),
                            require_connected=True)
        dist = bfs_distances(g, 0)
        path = shortest_path(g, 0, g.n - 1)
        assert len(path) - 1 == dist[g.n - 1]

    def test_shortest_path_to_self(self):
        g = small_rgg()
        assert shortest_path(g, 3, 3) == [3]

    def test_shortest_path_unreachable(self):
        g = random_geometric_graph(4, radius=0.0001, rng=random.Random(1))
        assert shortest_path(g, 0, 3) is None

    def test_exact_diameter_at_least_double_sweep(self):
        g = rgg_for_density(50, avg_degree=12.0, rng=random.Random(8),
                            require_connected=True)
        assert diameter(g, exact=True) >= diameter(g, exact=False)

    def test_theoretical_diameter_scales_with_sqrt_n(self):
        assert theoretical_diameter_hops(400, 10.0) == pytest.approx(
            2 * theoretical_diameter_hops(100, 10.0))

    @given(st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_bfs_distance_symmetry(self, seed):
        g = rgg_for_density(40, avg_degree=12.0, rng=random.Random(seed),
                            require_connected=True)
        d0 = bfs_distances(g, 0)
        for target in (g.n // 2, g.n - 1):
            back = bfs_distances(g, target)
            assert d0[target] == back[0]
