"""Access-layer oracles: a declining ``AccessEngine`` and an early-exit BFS.

:class:`DecliningEngine` answers "not applicable" from every *batched*
kernel of :class:`repro.core.access_engine.AccessEngine` — the flood
ring and bulk path forwarding — so a network carrying it sends every
frame through ``one_hop_broadcast`` / ``one_hop_unicast``,
the code those kernels decline to under mobility, random drops, or a
simulation event inside the window.  Route discovery still needs a BFS
tree; the stand-in builds one in plain Python on every call, with no
tree memo to go stale.

:func:`bfs_path` and :func:`ring_size` share nothing with ``BfsTree``:
the textbook BFS that stops at the destination and a hop-capped ring
count over a plain adjacency dict — what tree-based route discovery is
held to, every query of one tree at a time by :func:`check_tree`.
"""

from collections import deque

from repro.simnet.replication import bfs_tree


class DecliningEngine:
    """Stand-in for ``net.access_engine`` whose batched kernels decline."""

    def flood_ring(self, net, frontier, previous):
        return None

    def forward(self, net, path, stamp):
        return None

    def tree(self, net, src):
        return bfs_tree(net, src)


def per_event(net):
    """Make ``net`` run the per-event code everywhere; returns ``net``."""
    net.access_engine = DecliningEngine()
    return net


def bfs_path(tables, src, dst):
    """Early-exit BFS: the first shortest path found, or None."""
    if src == dst:
        return [src]
    parent = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in tables.get(u, ()):
            if v in parent:
                continue
            parent[v] = u
            if v == dst:
                path = [v]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(v)
    return None


def ring_size(tables, src, cap):
    """How many nodes lie within ``cap`` hops of ``src`` (itself included)."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if dist[u] < cap:
            for v in tables.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return len(dist)


def check_tree(tree, tables, src, dsts):
    """Assert a route tree from ``src`` answers like the two oracles.

    ``dsts`` must include every node of ``tables``; ids outside it (dead
    or never-joined nodes) are unreachable destinations.
    """
    depth = reached = 0
    for dst in dsts:
        path = bfs_path(tables, src, dst)
        assert tree.path_to(dst) == path
        assert tree.hops(dst) == (None if path is None else len(path) - 1)
        if path is not None:
            depth = max(depth, len(path) - 1)
            reached += dst in tables
    # Past the deepest ring every cap counts the whole component.
    caps = range(depth + 2)
    assert [tree.count_within(h) for h in caps] == [
        ring_size(tables, src, h) for h in caps]
    assert tree.count_within(-1) == 0
    assert tree.reachable == tree.count_within(depth + 1)
    assert tree.reachable == (reached if src in tables else 1)
