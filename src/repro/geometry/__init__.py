"""Geometry substrate: deployment areas, the one distance contract
(``space.distance`` / ``space.distances``), the neighbor kernel, and random
geometric graphs."""

from repro.geometry.rgg import (
    GeometricGraph,
    bfs_distances,
    build_adjacency,
    connected_components,
    diameter,
    is_connected,
    random_geometric_graph,
    rgg_for_density,
    shortest_path,
    theoretical_diameter_hops,
)
from repro.geometry.space import (
    Point,
    area_side_for_density,
    critical_range_for_connectivity,
    distance,
    distances,
    expected_degree,
)

__all__ = [
    "GeometricGraph",
    "bfs_distances",
    "build_adjacency",
    "connected_components",
    "diameter",
    "is_connected",
    "random_geometric_graph",
    "rgg_for_density",
    "shortest_path",
    "theoretical_diameter_hops",
    "Point",
    "area_side_for_density",
    "critical_range_for_connectivity",
    "distance",
    "distances",
    "expected_degree",
]
