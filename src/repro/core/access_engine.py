"""Batched access engine: one numpy pass for floods, walks, and probes.

PR 1 vectorized neighbor tables and the Monte-Carlo engine batched the
replica axis; this module batches the *access hot path itself*.  Three
kernels advance all concurrent work items of an access in single numpy
passes over a packed CSR snapshot (:mod:`repro.geometry.csr`):

1. **flood rounds** — the whole ring-``h`` frontier expands in one
   gather/first-occurrence pass (per-round TTL and duplicate
   accounting), instead of one Python broadcast loop per node;
2. **BFS route trees** — RANDOM's probe fan-out resolves every route
   against a level-synchronous numpy BFS tree, memoized per
   ``(topology_version, source)``;
3. **walker batches** — Philox-stream next-hop draws (uniform and
   max-degree-biased) advance whole walker populations in lockstep for
   the large-n analysis path.

The engine is **statistic-identical** to the per-event code it
replaces.  The strategy RNG streams are stdlib ``random.Random``
generators, so the accesses that define reported statistics never move
their draws into numpy: the engine vectorizes only the *deterministic*
graph work (frontier expansion, BFS, membership tests) and replays side
effects — counters, metrics, energy charges, trace events, clock
advances — in exactly the per-event order, with the same float
operations.  Whenever exactness cannot be proven cheaply (pending
simulation events inside a window, random drops, mobility, tracing on a
fast path that does not emit events), the kernel declines and the
caller runs the per-event code; nothing but those observed conditions
selects the path.  The Philox walk kernel is the one exception: it is
an analysis/benchmark surface with its own counter-based streams,
deliberately outside the statistic-identical contract.

Cross-replica sharing: :class:`SharedAccessState` lets the Monte-Carlo
builder serve one CSR snapshot and one BFS memo to every replica of a
deployment, under the same soundness rule as ``TopologyRouteOracle``
(sharing stops at the first geometry mutation past the attach point).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.csr import CsrCache, CsrSnapshot
from repro.obs.profile import PROFILER
from repro.simnet.replication import BfsTree, bfs_tree

#: Below this population the numpy BFS's per-round call overhead beats
#: the plain deque walk; both are exact, so the cutover is pure perf.
_NUMPY_BFS_MIN_N = 128

#: Per-network BFS-tree memo bound (LRU).  Replication-shared memos are
#: unbounded like the route oracle's (one deployment, few versions).
_MAX_PRIVATE_TREES = 512


class SharedAccessState:
    """Cross-replica CSR + BFS memo for one deployment.

    Mirrors the ``TopologyRouteOracle`` contract: replicas of one
    deployment adopt the state at the same topology version; any later
    geometry mutation silently detaches the sharer (workload-driven
    churn diverges between replicas, so version equality would no
    longer imply graph equality).
    """

    __slots__ = ("fingerprint", "version", "csr", "trees",
                 "hits", "misses")

    def __init__(self) -> None:
        self.fingerprint: Optional[tuple] = None
        self.version: Optional[int] = None
        self.csr: Optional[CsrSnapshot] = None
        self.trees: Dict[int, BfsTree] = {}
        self.hits = 0
        self.misses = 0


def _deployment_fingerprint(net) -> tuple:
    cfg = net.config
    return (cfg.seed, cfg.n, cfg.avg_degree, cfg.radio_range,
            cfg.mobility, cfg.torus)


class AccessEngine:
    """Per-network batched kernels with staleness-guarded caches."""

    def __init__(self) -> None:
        self._csr_cache = CsrCache()
        self._trees: "OrderedDict[int, BfsTree]" = OrderedDict()
        self._trees_version = -1
        self._shared: Optional[SharedAccessState] = None
        self._shared_version = -1
        self.tree_hits = 0
        self.tree_misses = 0

    # -- CSR snapshots -------------------------------------------------------

    def _usable_shared(self, net) -> Optional[SharedAccessState]:
        state = self._shared
        if (state is None
                or state.version != net.topology_version):
            return None
        return state

    def adopt_shared(self, net, state: SharedAccessState) -> None:
        """Share CSR/BFS memos with the other replicas of a deployment."""
        fingerprint = _deployment_fingerprint(net)
        if state.fingerprint is None:
            state.fingerprint = fingerprint
            state.version = net.topology_version
        elif state.fingerprint != fingerprint:
            raise ValueError(
                "SharedAccessState shared across different deployments: "
                f"{fingerprint} vs {state.fingerprint}")
        elif state.version != net.topology_version:
            raise ValueError(
                "SharedAccessState adopted at mismatched topology "
                f"versions: {net.topology_version} vs {state.version}")
        self._shared = state
        self._shared_version = net.topology_version

    def true_csr(self, net) -> CsrSnapshot:
        """True-view snapshot (shared across replicas when sound)."""
        state = self._usable_shared(net)
        if state is not None:
            if state.csr is None:
                state.csr = self._csr_cache.true_snapshot(net)
            return state.csr
        return self._csr_cache.true_snapshot(net)

    def known_csr(self, net) -> CsrSnapshot:
        """Known-view (heartbeat) snapshot — always per-network."""
        return self._csr_cache.known_snapshot(net)

    # -- kernel 1: batched flood rounds --------------------------------------

    def flood(self, net, origin: int, ttl: int
              ) -> Optional[Tuple[Dict[int, int], Dict[int, int], int]]:
        """Run a TTL-scoped flood in batched rounds.

        Returns ``(covered, parent, messages)`` matching
        ``SimNetwork.flood`` exactly — same dict insertion order, same
        parent assignment, same per-broadcast side effects — or None
        when the per-event loop must run (mobility or random drops).
        Rounds whose broadcast window contains a pending simulation
        event run through ``one_hop_broadcast`` so timers and churn
        interleave exactly as they always did; the CSR snapshot re-keys
        on the topology version every round, so mid-flood churn can
        never be served a stale adjacency.
        """
        if net.config.mobility != "static" or net.config.drop_prob > 0:
            return None
        covered: Dict[int, int] = {origin: 0}
        parent: Dict[int, int] = {origin: origin}
        mask = np.zeros(max(net._next_id, origin + 1), dtype=bool)
        mask[origin] = True
        messages = 0
        frontier: List[int] = [origin]
        hop = 0
        while frontier and hop < ttl:
            messages += len(frontier)
            nxt = self._flood_round_batched(net, frontier, hop,
                                            covered, parent, mask)
            if nxt is None:
                nxt = self._flood_round_sequential(net, frontier, hop,
                                                   covered, parent, mask)
            frontier = nxt
            hop += 1
        return covered, parent, messages

    @staticmethod
    def _mark_covered(mask: np.ndarray, node: int) -> np.ndarray:
        if node >= mask.size:
            grown = np.zeros(node + 1, dtype=bool)
            grown[:mask.size] = mask
            mask = grown
        mask[node] = True
        return mask

    def _flood_round_sequential(self, net, frontier: List[int], hop: int,
                                covered: Dict[int, int],
                                parent: Dict[int, int],
                                mask: np.ndarray) -> List[int]:
        """One ring through ``one_hop_broadcast`` (events may interleave)."""
        nxt: List[int] = []
        for node in frontier:
            receivers = net.one_hop_broadcast(node)
            for rx in receivers:
                if rx not in covered:
                    covered[rx] = hop + 1
                    parent[rx] = node
                    nxt.append(rx)
                    mask = self._mark_covered(mask, rx)
        return nxt

    def _flood_round_batched(self, net, frontier: List[int], hop: int,
                             covered: Dict[int, int],
                             parent: Dict[int, int],
                             mask: np.ndarray) -> Optional[List[int]]:
        """One ring as a single CSR gather; None if an event interferes."""
        sim = net.sim
        latency = net.config.hop_latency
        # Accumulate by repeated addition: the same float operations the
        # per-broadcast advance() chain performs.
        t_end = sim.now
        for _ in range(len(frontier)):
            t_end += latency
        if sim.next_event_time() <= t_end:
            return None

        alive = net._alive
        alive_frontier = [n for n in frontier if n in alive]
        degree_of: Dict[int, int] = {}
        new_ids: List[int] = []
        new_parents: List[int] = []
        if alive_frontier:
            with PROFILER.phase("access.batch_pass"):
                csr = self.true_csr(net)
                f = np.asarray(alive_frontier, dtype=np.int64)
                rows = csr.rows_of(f)
                starts = csr.indptr[rows]
                counts = (csr.indptr[rows + 1] - starts).astype(np.int64)
                degree_of = dict(zip(alive_frontier, counts.tolist()))
                total = int(counts.sum())
                if total:
                    bounds = np.concatenate(
                        ([0], np.cumsum(counts)[:-1]))
                    gather = (np.arange(total, dtype=np.int64)
                              + np.repeat(starts - bounds, counts))
                    cand = csr.indices[gather]
                    owner = np.repeat(np.arange(len(f)), counts)
                    fresh = ~mask[cand]
                    cand = cand[fresh]
                    owner = owner[fresh]
                    if cand.size:
                        uniq, first = np.unique(cand, return_index=True)
                        order = np.argsort(first, kind="stable")
                        discovered = uniq[order]
                        parents = f[owner[first[order]]]
                        mask[discovered] = True
                        new_ids = discovered.tolist()
                        new_parents = parents.tolist()

        # Replay the per-broadcast side effects in broadcast order.
        trace = net.trace if net.trace.enabled else None
        energy = net.energy
        net.counters["network"] += len(frontier)
        net._metric_broadcasts.inc(len(frontier))
        t = sim.now
        for node in frontier:
            t += latency
            deg = degree_of.get(node)
            if deg is None:  # broadcaster died between rounds
                if trace is not None:
                    trace.record("broadcast", t, src=node,
                                 receivers=0, ok=False)
                continue
            energy.charge_broadcast(node, receivers=deg)
            if trace is not None:
                trace.record("broadcast", t, src=node,
                             receivers=deg, ok=True)
        if t > sim.now:
            sim.run(until=t)

        nxt: List[int] = []
        for rx, par in zip(new_ids, new_parents):
            covered[rx] = hop + 1
            parent[rx] = par
            nxt.append(rx)
        return nxt

    # -- kernel 2: batched BFS route trees -----------------------------------

    def routes_active(self, net) -> bool:
        """Whether route discovery may be served from engine trees."""
        return net.config.mobility == "static"

    def tree(self, net, src: int) -> Optional[BfsTree]:
        """Memoized BFS tree from ``src``, or None when not applicable.

        The memo key is ``(topology_version, src)`` — the route-oracle
        staleness guard — so churn invalidates by construction.  When a
        :class:`SharedAccessState` is adopted and still sound, the memo
        is the deployment-wide one; otherwise a bounded per-network LRU.
        """
        if not self.routes_active(net):
            return None
        state = self._usable_shared(net)
        if state is not None:
            cached = state.trees.get(src)
            if cached is not None:
                state.hits += 1
                return cached
            state.misses += 1
            tree = bfs_tree(net, src)
            state.trees[src] = tree
            return tree
        version = net.topology_version
        if version != self._trees_version:
            self._trees.clear()
            self._trees_version = version
        cached = self._trees.get(src)
        if cached is not None:
            self._trees.move_to_end(src)
            self.tree_hits += 1
            return cached
        self.tree_misses += 1
        tree = bfs_tree(net, src)
        self._trees[src] = tree
        if len(self._trees) > _MAX_PRIVATE_TREES:
            self._trees.popitem(last=False)
        return tree

    def numpy_tree(self, net, src: int) -> Optional[BfsTree]:
        """Level-synchronous numpy BFS from ``src`` (unmemoized).

        Exact: the frontier expands in discovery order and each row
        scans sorted neighbors, so first-occurrence parents equal the
        sequential FIFO BFS parents (see ``BfsTree``).  Returns None
        when ineligible (small n, dead source, mobility) — the caller
        then walks the graph in Python.
        """
        if (net.config.mobility != "static"
                or net.n_alive < _NUMPY_BFS_MIN_N):
            return None
        csr = self.true_csr(net)
        src_row = csr.row_of(src)
        if src_row is None:
            return None
        with PROFILER.phase("access.batch_pass"):
            parent, dist = _numpy_bfs(csr, src_row)
        return BfsTree(source=src, parent=parent, dist=dist)

    # -- fast unicast (walker / reply hot path) ------------------------------

    def unicast_resolver(self, net):
        """A ``send(src, dst) -> bool | None`` fast path, or None.

        Replicates ``one_hop_unicast`` — counters, metrics, energy
        (bystanders from the table degree), clock advance by the same
        float addition — while skipping the per-call neighbor-list
        copies and distance recomputation.  Only issued when provably
        identical: static mobility, no random drops, tracing off (the
        fast path emits no ``hop`` events).  A ``None`` result from
        ``send`` means a simulation event lands inside the hop window;
        the caller must fall back to ``one_hop_unicast`` for that
        transmission so the event fires in order.
        """
        if (net.config.mobility != "static"
                or net.config.drop_prob > 0
                or net.trace.enabled):
            return None
        sim = net.sim
        latency = net.config.hop_latency
        alive = net._alive
        counters = net.counters
        energy = net.energy
        unicasts = net._metric_unicasts
        failures = net._metric_unicast_failures

        def send(src: int, dst: int) -> Optional[bool]:
            if src == dst:  # self-send: table lookups don't model it
                return None
            t = sim.now + latency
            if sim.next_event_time() <= t:
                return None
            tables = net._neighbor_tables()
            counters["network"] += 1
            unicasts.inc()
            if latency > 0:
                sim.run(until=t)
            nbrs = tables.get(src)
            if nbrs is None:  # sender is dead: frame never airs
                ok = False
            elif dst not in alive or dst not in nbrs:
                energy.charge_failed_unicast(src)
                ok = False
            else:
                energy.charge_unicast(src, dst,
                                      bystanders=max(0, len(nbrs) - 1))
                ok = True
            if not ok:
                failures.inc()
            return ok

        return send


def fast_unicast(net):
    """``net``'s fast unicast resolver (see
    :meth:`AccessEngine.unicast_resolver`), or None when it declines or
    the network carries no engine (the packet-level stack adapter)."""
    engine = getattr(net, "access_engine", None)
    return engine.unicast_resolver(net) if engine is not None else None


# -- numpy BFS ---------------------------------------------------------------


def _numpy_bfs(csr: CsrSnapshot, src_row: int
               ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Level-synchronous BFS over a CSR snapshot → (parent, dist) dicts."""
    node_ids = csr.node_ids
    indptr = csr.indptr
    nbr_rows = csr.neighbor_rows
    n = len(node_ids)
    parent_row = np.full(n, -1, dtype=np.int64)
    dist_row = np.full(n, -1, dtype=np.int64)
    parent_row[src_row] = src_row
    dist_row[src_row] = 0
    order: List[np.ndarray] = [np.array([src_row], dtype=np.int64)]
    frontier = order[0]
    depth = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = (indptr[frontier + 1] - starts).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            break
        bounds = np.concatenate(([0], np.cumsum(counts)[:-1]))
        gather = (np.arange(total, dtype=np.int64)
                  + np.repeat(starts - bounds, counts))
        cand = nbr_rows[gather]
        owner = np.repeat(frontier, counts)
        fresh = dist_row[cand] < 0
        cand = cand[fresh]
        owner = owner[fresh]
        if not cand.size:
            break
        uniq, first = np.unique(cand, return_index=True)
        idx = np.argsort(first, kind="stable")
        discovered = uniq[idx]
        parent_row[discovered] = owner[first[idx]]
        depth += 1
        dist_row[discovered] = depth
        frontier = discovered
        order.append(discovered)
    rows = np.concatenate(order)
    ids = node_ids[rows].tolist()
    parents = node_ids[parent_row[rows]].tolist()
    dists = dist_row[rows].tolist()
    parent = dict(zip(ids, parents))
    dist = dict(zip(ids, dists))
    return parent, dist


# -- kernel 3: Philox walker batches -----------------------------------------


@dataclass
class WalkBatchOutcome:
    """All walkers of one batched pass, advanced in lockstep.

    ``paths`` holds row indexes into ``node_ids`` with shape
    ``(steps + 1, walkers)``; ``messages`` counts actual transmissions
    per walker (self-loops and stuck walkers transmit nothing).
    """

    node_ids: np.ndarray
    paths: np.ndarray
    messages: np.ndarray
    self_loops: np.ndarray

    @property
    def walkers(self) -> int:
        return self.paths.shape[1]

    @property
    def steps(self) -> int:
        return self.paths.shape[0] - 1

    @property
    def end_nodes(self) -> np.ndarray:
        """Node id each walker ends on."""
        return self.node_ids[self.paths[-1]]

    def unique_counts(self) -> np.ndarray:
        """Distinct nodes visited per walker (coverage statistic)."""
        ordered = np.sort(self.paths, axis=0)
        return 1 + (ordered[1:] != ordered[:-1]).sum(axis=0)


def walk_batch(csr: CsrSnapshot, starts, n_steps: int, seed: int,
               variant: str = "uniform") -> WalkBatchOutcome:
    """Advance a walker population ``n_steps`` steps in one numpy pass.

    ``variant="uniform"`` steps every walker to a uniform neighbor each
    round; ``"max-degree"`` self-loops with probability
    ``1 - d(u)/d_max`` first (RaWMS), making the stationary
    distribution uniform.  Next-hop draws come from a counter-based
    Philox stream keyed on ``seed`` — reproducible for a given
    ``(seed, starts, n_steps, variant)`` and independent of the stdlib
    streams (this kernel is the large-n analysis/bench surface, not the
    statistic-identical access path).  Walkers on isolated rows stay
    put and transmit nothing.
    """
    if variant not in ("uniform", "max-degree"):
        raise ValueError(f"unknown walk variant {variant!r}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    start_ids = np.asarray(list(starts), dtype=np.int64)
    rows = np.searchsorted(csr.node_ids, start_ids)
    if len(rows) and ((rows >= len(csr.node_ids)).any()
                      or (csr.node_ids[np.minimum(
                          rows, len(csr.node_ids) - 1)] != start_ids).any()):
        raise ValueError("walk_batch start node not in snapshot")
    walkers = len(rows)
    rng = np.random.Generator(np.random.Philox(key=abs(int(seed))))
    degrees = csr.degrees().astype(np.int64)
    nbr_rows = csr.neighbor_rows
    indptr = csr.indptr
    d_max = int(degrees.max()) if len(degrees) else 1
    d_max = max(d_max, 1)

    paths = np.empty((n_steps + 1, walkers), dtype=np.int64)
    paths[0] = rows
    messages = np.zeros(walkers, dtype=np.int64)
    self_loops = np.zeros(walkers, dtype=np.int64)
    cur = rows.copy()
    with PROFILER.phase("access.batch_pass"):
        for step in range(n_steps):
            d = degrees[cur]
            can_move = d > 0
            if variant == "max-degree":
                move = (rng.random(walkers) < d / d_max) & can_move
                pick_u = rng.random(walkers)
            else:
                move = can_move
                pick_u = rng.random(walkers)
            pick = np.minimum((pick_u * d).astype(np.int64),
                              np.maximum(d - 1, 0))
            nxt = np.where(move, nbr_rows[np.minimum(
                indptr[cur] + pick, len(nbr_rows) - 1 if len(nbr_rows)
                else 0)], cur)
            messages += move
            self_loops += can_move & ~move
            cur = nxt
            paths[step + 1] = cur
    return WalkBatchOutcome(node_ids=csr.node_ids, paths=paths,
                            messages=messages, self_loops=self_loops)
