"""Cross-replica shared state for batched Monte-Carlo replication.

Replicas of one scenario share the network seed, hence the deployment:
every replica starts from the same static placement even though each
replica's workload randomness differs.  Route discovery — BFS path + ring
coverage counts — is a pure function of that topology, so its results can
be memoized ONCE and served to every replica.

:class:`TopologyRouteOracle` is that memo, and the only one: the BFS
trees and the CSR snapshot of **one** topology version of one
deployment.  Replicas join it through
:meth:`repro.core.access_engine.AccessEngine.adopt_shared`, which checks
deployment and version once; a replica reads it while its own
``topology_version`` still equals the adopted one and falls back to its
private memo at its first geometry mutation (workload-driven churn
differs between replicas, so equal version *counts* would no longer mean
equal graphs).  Time-varying topologies are never shared.

Accounting stays strictly per-replica: the oracle returns topology facts
(paths, distances, coverage counts); each network still meters its own
routing messages, energy, and trace events from them.
"""

from __future__ import annotations

from collections import deque
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
    """BFS trees + CSR snapshot of one topology version of one deployment.

    ``fingerprint`` and ``version`` are set by the first
    ``AccessEngine.adopt_shared`` and checked by every later one, so
    :meth:`tree` itself trusts its caller: it is only reached from an
    engine whose network still stands at the adopted version.
    """

    __slots__ = ("fingerprint", "version", "csr", "trees", "hits", "misses")

    def __init__(self) -> None:
        self.fingerprint: Optional[tuple] = None
        self.version: Optional[int] = None
        self.csr = None
        self.trees: Dict[int, BfsTree] = {}
        self.hits = 0
        self.misses = 0

    def tree(self, net, src: int) -> BfsTree:
        """The BFS tree from ``src`` at the adopted topology version."""
        cached = self.trees.get(src)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        tree = self.trees[src] = bfs_tree(net, src)
        return tree
