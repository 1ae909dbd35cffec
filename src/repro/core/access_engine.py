"""Batched access engine: one pass per flood ring, route tree, path.

The transmission primitives live in :mod:`repro.simnet.network` — one
body each for a unicast hop, a broadcast, the flood ring loop and a
routed send.  This module holds the *kernels* those bodies call, each
doing a whole batch of frames' work in one step over a packed CSR
snapshot (:mod:`repro.geometry.csr`), the neighbor table or its row form
(:class:`repro.simnet.replication.NeighborRows`):

1. **flood ring** — the whole ring-``h`` frontier expands in one
   gather/first-occurrence pass, instead of one broadcast per node;
2. **BFS route trees** — every route discovery reads a tree, built by
   :func:`repro.simnet.replication.bfs_tree` (the only BFS) as flat
   row-indexed lists over the network's neighbor rows, and memoized per
   ``(topology_version, source)`` while positions are static.  A path
   comes off its tree with its bystander load, summed on the same walk,
   so charging a routed message reads no neighbor table;
3. **the batch window** — :meth:`AccessEngine.horizon`, the one decline
   predicate: frames sent back to back from now may go in one step
   when the last one lands strictly before it.  A routed access reads
   it once when it opens its route frame (``SimNetwork.route_frame``)
   and again only after a call that can run the scheduler; a frame
   send that lands inside it charges a whole path at once and moves
   the clock across the idle window without entering the scheduler,
   and the network records its hops as one trace run.  The flood ring
   asks the same question per ring.

All kernels are **statistic-identical** to the per-frame code.  The
strategy RNG streams are stdlib ``random.Random`` generators, so the
accesses that define reported statistics never move their draws into
numpy: the engine batches only the *deterministic* graph work.  Of the
side effects, counters, metrics and energy are integer counts (one bulk
update equals the per-frame updates in any order), trace events keep
per-frame order and per-frame timestamps, and the clock is
advanced by the same repeated float additions.  A batch declines, before
touching anything, only on what a batch cannot reproduce — mobility, a
simulation event inside its window, and for the flood ring random
drops — and the caller then sends the frames one by one; tracing
selects no path.  A routed send under random drops stays one step: it
draws each hop's loss in path order, the per-frame draws, and charges
the delivered prefix and the lost frame.

Cross-replica sharing: :meth:`AccessEngine.adopt_shared` is the one
hook through which the Monte-Carlo builder serves one
:class:`~repro.simnet.replication.TopologyRouteOracle` — one CSR
snapshot and one BFS memo — to every replica of a deployment; a replica
stops reading it at its first geometry mutation past the adopted version.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry.csr import CsrCache, CsrSnapshot
from repro.obs.profile import PROFILER
from repro.simnet.replication import BfsTree, bfs_tree

#: Per-network BFS-tree memo bound (LRU).  The shared oracle is
#: unbounded (one deployment, one version, at most n sources).
_MAX_PRIVATE_TREES = 512


class AccessEngine:
    """Per-network batched kernels with staleness-guarded caches."""

    def __init__(self) -> None:
        self._csr_cache = CsrCache()
        self._trees: "OrderedDict[int, BfsTree]" = OrderedDict()
        self._trees_version = -1
        self._shared = None  # the adopted TopologyRouteOracle, if any
        self.tree_hits = 0
        self.tree_misses = 0

    # -- cross-replica sharing -----------------------------------------------

    def adopt_shared(self, net, oracle) -> None:
        """Share CSR/BFS memos with the other replicas of a deployment.

        ``oracle`` is a ``TopologyRouteOracle``.  The first adopter
        stamps it with its deployment and topology version; every later
        one must match both.  The adoption covers the topology as it
        stands *now*: any later geometry mutation moves
        ``net.topology_version`` past the oracle's and this engine
        silently stops reading it.
        """
        cfg = net.config
        fingerprint = (cfg.seed, cfg.n, cfg.avg_degree, cfg.radio_range,
                       cfg.mobility, cfg.torus)
        if oracle.fingerprint is None:
            oracle.fingerprint = fingerprint
            oracle.version = net.topology_version
        elif oracle.fingerprint != fingerprint:
            raise ValueError(
                "TopologyRouteOracle shared across different deployments: "
                f"{fingerprint} vs {oracle.fingerprint}")
        elif oracle.version != net.topology_version:
            raise ValueError(
                "TopologyRouteOracle adopted at mismatched topology "
                f"versions: {net.topology_version} vs {oracle.version}")
        self._shared = oracle

    def _usable_shared(self, net):
        oracle = self._shared
        if oracle is None or oracle.version != net.topology_version:
            return None
        return oracle

    # -- CSR snapshots -------------------------------------------------------

    def true_csr(self, net) -> CsrSnapshot:
        """True-view snapshot (shared across replicas when sound)."""
        oracle = self._usable_shared(net)
        if oracle is not None:
            if oracle.csr is None:
                oracle.csr = self._csr_cache.true_snapshot(net)
            return oracle.csr
        return self._csr_cache.true_snapshot(net)

    # -- kernel 1: batched flood ring ----------------------------------------

    def flood_ring(self, net, frontier: List[int], previous: List[int]
                   ) -> Optional[Iterable[Tuple[int, int]]]:
        """Broadcast one flood ring as a single CSR gather.

        Returns ``(receiver, broadcaster)`` pairs — each node that hears
        the ring with the first broadcaster it hears, in the order the
        per-broadcast loop would meet them — after replaying every
        broadcast's side effects (counters, metrics, energy, trace
        events, clock) in broadcast order.  Receivers in ``frontier`` or
        in ``previous`` (the ring before it) are left out; any other
        already-covered receiver, which only mid-flood churn can
        produce, is the caller's to drop.  Returns None, before touching
        anything, when only ``one_hop_broadcast`` is exact: mobility,
        random drops, or a simulation event inside the ring's broadcast
        window.  The CSR snapshot re-keys on the topology version every
        ring, so mid-flood churn can never be served a stale adjacency.
        """
        if net.config.drop_prob > 0:
            return None
        sim = net.sim
        latency = net.config.hop_latency
        t_end = sim.now
        for _ in frontier:
            t_end += latency
        if not t_end < self.horizon(net):
            return None

        alive = net._alive
        alive_frontier = [n for n in frontier if n in alive]
        degree_of: Dict[int, int] = {}
        heard: Iterable[Tuple[int, int]] = ()
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
                    owner = np.repeat(f, counts)
                    # Drop what the last two rings already cover before
                    # sorting: on an unchanged graph that is every
                    # duplicate, and it shrinks the sort about 3x.
                    seen = np.zeros(net._next_id, dtype=bool)
                    seen[f] = True
                    seen[np.asarray(previous, dtype=np.int64)] = True
                    fresh = ~seen[cand]
                    cand = cand[fresh]
                    owner = owner[fresh]
                    uniq, first = np.unique(cand, return_index=True)
                    order = np.argsort(first, kind="stable")
                    heard = zip(uniq[order].tolist(),
                                owner[first[order]].tolist())

        # Replay the per-broadcast side effects in broadcast order.
        trace = net.trace if net.trace.enabled else None
        energy = net.energy
        net.counters["network"] += len(frontier)
        net._metric_broadcasts.inc(len(frontier))
        t = sim.now
        for node in frontier:
            t += latency
            deg = degree_of.get(node)
            if deg is None:  # broadcaster died between rings
                if trace is not None:
                    trace.record("broadcast", t, src=node,
                                 receivers=0, ok=False)
                continue
            energy.charge_broadcast(node, receivers=deg)
            if trace is not None:
                trace.record("broadcast", t, src=node,
                             receivers=deg, ok=True)
        sim.skip_to(t_end)
        return heard

    # -- kernel 2: batched BFS route trees -----------------------------------

    def tree(self, net, src: int) -> BfsTree:
        """The BFS tree from ``src`` over ``net``'s current topology.

        Static networks memoise it under ``(topology_version, src)``, so
        churn invalidates by construction: the deployment-wide
        ``TopologyRouteOracle`` while the adopted version stands,
        otherwise a bounded per-network LRU.  Under mobility the
        topology is a function of the clock, so the tree is built for
        this one discovery and counts as neither a hit nor a miss.
        """
        if net.config.mobility != "static":
            return bfs_tree(net, src)
        oracle = self._usable_shared(net)
        if oracle is not None:
            return oracle.tree(net, src)
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

    def reuse(self, net, src: int, tree: BfsTree) -> None:
        """Count one more discovery from ``tree``, which :meth:`tree`
        served for ``src`` at the current topology version, exactly as a
        second :meth:`tree` call would: a hit and an LRU touch, or a
        miss that puts the tree back if the memo dropped it meanwhile.
        A route frame holds its origin's tree across its discoveries
        and reports each of them here.
        """
        oracle = self._shared
        if oracle is not None and oracle.version == net.topology_version:
            oracle.hits += 1
            return
        trees = self._trees
        if src in trees:
            trees.move_to_end(src)
            self.tree_hits += 1
            return
        self.tree_misses += 1
        trees[src] = tree
        if len(trees) > _MAX_PRIVATE_TREES:
            trees.popitem(last=False)

    # -- kernel 3: the batch window -----------------------------------------

    def horizon(self, net) -> float:
        """The time before which frames sent from now may go in one step.

        A batch of frames is exact when the last one lands strictly
        before it: nothing can run *during* the per-frame loop then.  It
        is the next simulation event's time (heartbeat, churn, a drop
        burst's edge), or ``-inf`` — every batch declines — under
        mobility, where each frame must be resolved on its own.  Random
        drops do not close the window: nothing else draws from the drops
        stream inside it, so a batched send draws each hop's loss in
        path order as the per-frame loop would (the flood ring, whose
        per-receiver draws it does not replay, declines on its own).
        Callers accumulate the landing time by repeated addition, the
        same float operations as the per-frame ``advance`` chain, so
        clocks and latency statistics stay byte-identical.
        """
        if net.config.mobility != "static":
            return -math.inf
        return net.sim.next_event_time()
