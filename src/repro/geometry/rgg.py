"""Random geometric graphs G^2(n, r).

The paper's theoretical model (Section 2.3): n nodes placed uniformly at
random in a square (torus for analysis, plane for simulations), with an edge
between any two nodes at Euclidean distance <= r.  This module generates
such graphs and provides the graph-theoretic measurements the paper relies
on: connectivity, components, diameter, and degree statistics.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.geometry.kernel import batched_neighbor_tables
from repro.geometry.space import Point, area_side_for_density

#: The paper's ideal reception range, meters (Figure 2).
RADIO_RANGE = 200.0
#: Samples ``rgg_for_density`` draws before giving up on connectivity.
MAX_ATTEMPTS = 50


@dataclass
class GeometricGraph:
    """An embedded unit-disk graph: positions plus adjacency lists."""

    positions: List[Point]
    radius: float
    side: float
    torus: bool
    adjacency: List[List[int]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.positions)

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def degrees(self) -> List[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def neighbors(self, node: int) -> List[int]:
        return self.adjacency[node]


def build_adjacency(
    positions: Sequence[Point], radius: float, side: float, torus: bool
) -> List[List[int]]:
    """Unit-disk adjacency from one neighbor-kernel pass (O(n * d_avg))."""
    table = batched_neighbor_tables(range(len(positions)), positions, side,
                                    radius, torus)[0]
    return list(table.values())


def random_geometric_graph(
    n: int,
    radius: float,
    side: float = 1.0,
    torus: bool = False,
    *,
    rng: random.Random,
) -> GeometricGraph:
    """Sample G^2(n, r): uniform positions, unit-disk edges."""
    if n <= 0:
        raise ValueError("n must be positive")
    if radius <= 0 or side <= 0:
        raise ValueError("radius and side must be positive")
    positions = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    adjacency = build_adjacency(positions, radius, side, torus)
    return GeometricGraph(
        positions=positions, radius=radius, side=side, torus=torus,
        adjacency=adjacency,
    )


def rgg_for_density(
    n: int,
    avg_degree: float,
    torus: bool = False,
    *,
    rng: random.Random,
    require_connected: bool = False,
) -> GeometricGraph:
    """Sample an RGG scaled to the paper's density rule (Section 2.4).

    The area is scaled so the expected degree equals ``avg_degree`` for
    the paper's 200 m ideal reception range.  With
    ``require_connected=True``, re-samples (up to 50 times) until the
    graph is connected (the paper notes d_avg >= 7 kept all its networks
    connected).
    """
    side = area_side_for_density(n, RADIO_RANGE, avg_degree)
    for _ in range(MAX_ATTEMPTS):
        graph = random_geometric_graph(
            n, radius=RADIO_RANGE, side=side, torus=torus, rng=rng
        )
        if not require_connected or is_connected(graph):
            return graph
    raise RuntimeError(
        f"could not sample a connected RGG (n={n}, d_avg={avg_degree}) "
        f"in {MAX_ATTEMPTS} attempts"
    )


def connected_components(graph: GeometricGraph) -> List[List[int]]:
    """Connected components as sorted id lists (singletons for isolated)."""
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in range(graph.n):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = [start]
        while queue:
            u = queue.popleft()
            for v in graph.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        components.append(sorted(comp))
    return components


def is_connected(graph: GeometricGraph, ignore: Optional[Set[int]] = None) -> bool:
    """True if the graph (optionally minus ``ignore`` nodes) is connected."""
    ignore = ignore or set()
    alive = [u for u in range(graph.n) if u not in ignore]
    if not alive:
        return True
    seen = {alive[0]}
    queue = deque([alive[0]])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if v not in ignore and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(alive)


def bfs_distances(graph: GeometricGraph, source: int) -> Dict[int, int]:
    """Hop distances from ``source`` to every reachable node."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def shortest_path(graph: GeometricGraph, source: int, target: int) -> Optional[List[int]]:
    """One shortest hop path source -> target, or None if unreachable."""
    if source == target:
        return [source]
    parent: Dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if v in parent:
                continue
            parent[v] = u
            if v == target:
                path = [v]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            queue.append(v)
    return None


def diameter(graph: GeometricGraph, exact: bool = False) -> int:
    """Hop diameter.

    ``exact=True`` runs BFS from every node (O(n*m)); otherwise uses the
    standard double-sweep lower bound from eight seeded random starts,
    which is exact on most RGGs and always a lower bound.
    """
    if graph.n == 0:
        return 0
    if exact:
        best = 0
        for u in range(graph.n):
            dist = bfs_distances(graph, u)
            best = max(best, max(dist.values(), default=0))
        return best
    rng = random.Random(0)
    best = 0
    for _ in range(8):
        start = rng.randrange(graph.n)
        dist = bfs_distances(graph, start)
        far, d = max(dist.items(), key=lambda kv: kv[1])
        best = max(best, d)
        dist2 = bfs_distances(graph, far)
        best = max(best, max(dist2.values(), default=0))
    return best


def theoretical_diameter_hops(n: int, avg_degree: float) -> float:
    """Paper's Theta(1/r) diameter estimate, in hops, for the scaled area.

    With ``side = sqrt(pi r^2 n / d_avg)``, the max Euclidean extent is
    ``side*sqrt(2)`` and each hop covers at most ``r``, giving
    ``diameter ~ sqrt(2 pi n / d_avg)``.
    """
    return math.sqrt(2.0 * math.pi * n / avg_degree)
