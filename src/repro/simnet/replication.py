"""Cross-replica shared state for batched Monte-Carlo replication.

Replicas of one scenario share the network seed, hence the deployment:
the *topology* (static positions + the deterministic, network-seed-driven
churn sequence) evolves identically in every replica even though each
replica's workload randomness differs.  Route discovery — BFS path + ring
coverage counts — is a pure function of that topology, so its results can
be memoized ONCE and served to every replica.

:class:`TopologyRouteOracle` is that memo.  A network keys into it with
its ``topology_version`` (a counter bumped on every geometry mutation):
two replicas at the same version have applied the same mutation sequence
to the same initial placement, so their graphs are identical and the
cached BFS trees are exact.  The oracle is only ever attached to
*static*-mobility networks (time-varying topologies are never shared).

Accounting stays strictly per-replica: the oracle returns topology facts
(paths, distances, coverage counts); each network still meters its own
routing messages, energy, and trace events from them.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, List, Optional

import numpy as np


class BfsTree:
    """Full BFS tree from one source over one frozen topology.

    The BFS expands nodes in FIFO order and scans neighbors in sorted
    order, so the first-discovery parent of every node — and therefore
    the extracted path — is the one an early-exit BFS towards that node
    finds, and ``count_within(h)`` is the size of its ``h``-capped ring
    (``tests/reference/access.py`` keeps that BFS as the oracle).
    """

    __slots__ = ("source", "parent", "dist", "_cum")

    def __init__(self, source: int, parent: Dict[int, int],
                 dist: Dict[int, int]) -> None:
        self.source = source
        self.parent = parent
        self.dist = dist
        # _cum[h] = number of nodes at distance <= h (the RREQ ring size).
        rings = np.bincount(np.fromiter(dist.values(), dtype=np.intp,
                                        count=len(dist)), minlength=1)
        self._cum = np.cumsum(rings).tolist()

    @property
    def reachable(self) -> int:
        """Nodes reachable from the source (including itself)."""
        return len(self.dist)

    def count_within(self, hops: int) -> int:
        """Nodes at hop distance <= ``hops`` (the TTL-ring coverage)."""
        if hops < 0:
            return 0
        if hops >= len(self._cum):
            return self._cum[-1] if self._cum else 0
        return self._cum[hops]

    def path_to(self, dst: int) -> Optional[List[int]]:
        """Shortest path source -> dst (a fresh list), or None."""
        parent, source = self.parent, self.source
        if dst not in parent:
            return None
        path = [dst]
        while dst != source:
            dst = parent[dst]
            path.append(dst)
        path.reverse()
        return path


def bfs_tree(net, src: int) -> BfsTree:
    """Compute the full BFS tree from ``src`` on ``net``'s current graph."""
    tables = net._neighbor_tables()
    parent: Dict[int, int] = {src: src}
    dist: Dict[int, int] = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in tables.get(u, ()):
            if v in parent:
                continue
            parent[v] = u
            dist[v] = dist[u] + 1
            queue.append(v)
    return BfsTree(source=src, parent=parent, dist=dist)


class TopologyRouteOracle:
    """Memoized BFS trees shared by replicas of one deployment.

    Keyed by ``(topology_version, source)``.  Old versions are evicted
    LRU-style once ``max_versions`` distinct topologies have been seen
    (churn bumps the version; replicas all walk the same version
    sequence, so only a handful are ever live at once).
    """

    def __init__(self, max_versions: int = 8) -> None:
        self._versions: "OrderedDict[int, Dict[int, BfsTree]]" = OrderedDict()
        self._max_versions = max_versions
        self._fingerprint: Optional[tuple] = None
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _config_fingerprint(net) -> tuple:
        cfg = net.config
        return (cfg.seed, cfg.n, cfg.avg_degree, cfg.radio_range,
                cfg.mobility, cfg.torus)

    def tree(self, net, src: int) -> BfsTree:
        """The BFS tree from ``src`` at ``net``'s current topology."""
        fingerprint = self._config_fingerprint(net)
        if self._fingerprint is None:
            self._fingerprint = fingerprint
        elif fingerprint != self._fingerprint:
            raise ValueError(
                "TopologyRouteOracle shared across different deployments: "
                f"{fingerprint} vs {self._fingerprint}")
        version = net.topology_version
        trees = self._versions.get(version)
        if trees is None:
            trees = {}
            self._versions[version] = trees
            if len(self._versions) > self._max_versions:
                self._versions.popitem(last=False)
        else:
            self._versions.move_to_end(version)
        cached = trees.get(src)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        tree = bfs_tree(net, src)
        trees[src] = tree
        return tree
