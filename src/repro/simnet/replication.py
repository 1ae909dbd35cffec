"""Cross-replica shared state for batched Monte-Carlo replication.

Replicas of one scenario share the network seed, hence the deployment:
every replica starts from the same static placement even though each
replica's workload randomness differs.  Route discovery — BFS path + ring
coverage counts — is a pure function of that topology, so its results can
be memoized ONCE and served to every replica.

This module also holds that BFS, the only one: :class:`NeighborRows` is
the neighbor table in row space (``SimNetwork._neighbor_rows`` builds it
once per topology version, or per timestamp under mobility), and a
:class:`BfsTree` is a FIFO BFS over it kept as flat lists by row —
predecessor, depth and cumulative ring counts, ≈7 KiB at n = 400 — so a
memo of hundreds of trees stays small.

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

from typing import Dict, List, Optional, Tuple


class NeighborRows:
    """One neighbor table in row space: the graph a BFS route tree walks.

    ``ids[r]`` is row ``r``'s node id (ascending), ``index`` maps an id
    back to its row, and ``adj[r]`` lists row ``r``'s neighbor rows in
    the table's order, so a FIFO BFS over rows discovers the nodes in
    the same order as one over the table.
    """

    __slots__ = ("ids", "index", "adj")

    def __init__(self, ids: List[int], index: Dict[int, int],
                 adj: List[List[int]]) -> None:
        self.ids, self.index, self.adj = ids, index, adj


class BfsTree:
    """Full BFS tree from one source over one frozen topology.

    The tree lives in the row space of the :class:`NeighborRows` it was
    built over (the id/row maps are that object's, shared by every tree
    of the topology): ``pred`` and ``depth`` are flat lists by row, ``-1``
    where the source does not reach, and ``cum[h]`` counts the nodes at
    hop distance <= ``h``.  The BFS expands rows in FIFO order and scans
    each row's neighbors in ascending id order, so the first-discovery
    parent of every node — and therefore the extracted path — is the one
    an early-exit BFS towards that node finds, and ``count_within(h)`` is
    the size of its ``h``-capped ring (``tests/reference/access.py``
    keeps that BFS as the oracle).  A source that is not in the table
    (a dead node) reaches only itself.
    """

    __slots__ = ("source", "_ids", "_index", "_adj", "_pred", "_depth",
                 "_cum")

    def __init__(self, rows: NeighborRows, source: int) -> None:
        self.source = source
        self._ids = rows.ids
        self._index = index = rows.index
        self._adj = adj = rows.adj
        n = len(rows.ids)
        self._pred = pred = [-1] * n
        self._depth = depth = [-1] * n
        self._cum = cum = [1]
        root = index.get(source)
        if root is None:
            return
        pred[root] = root
        depth[root] = 0
        frontier = [root]
        hop = 0
        while frontier:
            hop += 1
            ring = []
            for u in frontier:
                for v in adj[u]:
                    if depth[v] < 0:
                        depth[v] = hop
                        pred[v] = u
                        ring.append(v)
            if ring:
                cum.append(cum[-1] + len(ring))
            frontier = ring

    @property
    def reachable(self) -> int:
        """Nodes reachable from the source (including itself)."""
        return self._cum[-1]

    def count_within(self, hops: int) -> int:
        """Nodes at hop distance <= ``hops`` (the TTL-ring coverage)."""
        if hops < 0:
            return 0
        cum = self._cum
        return cum[hops] if hops < len(cum) else cum[-1]

    def route(self, dst: int) -> Tuple[Optional[List[int]], int]:
        """Shortest path source -> dst (a fresh list) and its bystander
        load; ``(None, 0)`` when ``dst`` is unreachable.

        The load is Σ(degree − 1) over the path's senders: the header
        decodes by in-range non-addressees that the energy ledger
        charges for a delivered message, summed on the walk that
        extracts the path.
        """
        row = self._index.get(dst)
        hops = -1 if row is None else self._depth[row]
        if hops < 0:
            return ([dst], 0) if dst == self.source else (None, 0)
        ids, pred, adj = self._ids, self._pred, self._adj
        degrees = 0
        path = [dst]
        for _ in range(hops):
            row = pred[row]
            path.append(ids[row])
            degrees += len(adj[row])
        path.reverse()
        return path, degrees - hops


def bfs_tree(net, src: int) -> BfsTree:
    """Compute the full BFS tree from ``src`` on ``net``'s current graph."""
    return BfsTree(net._neighbor_rows(), src)


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
