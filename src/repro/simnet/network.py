"""Graph-level (protocol-model) network simulator.

This is the workhorse for the paper's large parameter sweeps.  It models an
ad hoc network exactly at the abstraction level the paper measures
(Section 8): *network-layer messages* — one application message over a
4-hop route counts as 4 messages — with routing control overhead accounted
separately, while still capturing the phenomena the results depend on:

* mobility (positions move; links appear/disappear mid-operation);
* stale neighbor knowledge (neighbor tables refresh on a 10 s heartbeat, so
  a chosen next hop may have moved away — exactly the failure mode that RW
  salvation and reply-path repair address, Section 6.2);
* MAC-level failure notification (a one-hop unicast to a departed neighbor
  *fails visibly* rather than silently);
* route caching, discovery floods and route breakage for AODV-style routing;
* churn: node failures and joins at runtime.

The packet-level stack in :mod:`repro.stack` cross-validates this model on
small networks.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config import current_run
from repro.geometry import space
from repro.geometry.kernel import NeighborKernel, SlackIndex, slack_window
from repro.geometry.space import Point, area_side_for_density
from repro.obs.audit import AccountingAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILER
from repro.obs.trace import EventTrace
from repro.mobility.models import (
    SPEED_SLACK,
    FixedPlacement,
    MobilityManager,
    RandomWaypoint,
    StaticPlacement,
)
from repro.sim.kernel import PeriodicTimer, Simulator
from repro.sim.rng import RngRegistry
from repro.simnet.energy import EnergyLedger
from repro.simnet.replication import BfsTree, NeighborRows, bfs_tree


def check_drop_prob(drop_prob: float) -> None:
    """Reject a per-hop drop probability outside [0, 1] (NaN included)."""
    if not 0.0 <= drop_prob <= 1.0:
        raise ValueError(f"drop_prob must lie in [0, 1], got {drop_prob!r}")


@dataclass
class NetworkConfig:
    """Deployment and protocol parameters (paper Figure 2 defaults)."""

    n: int = 100
    avg_degree: float = 10.0
    radio_range: float = 200.0
    seed: int = 0
    mobility: str = "static"  # "static" | "waypoint"
    min_speed: float = 0.5
    max_speed: float = 2.0
    pause_time: float = 30.0
    heartbeat_interval: float = 10.0
    hop_latency: float = 0.002
    torus: bool = False
    require_connected: bool = True
    drop_prob: float = 0.0  # extra random per-hop loss (interference proxy)

    def __setattr__(self, name: str, value) -> None:
        # Checked on every assignment, construction included: a drop
        # burst sets it on a live network.
        if name == "drop_prob":
            check_drop_prob(value)
        object.__setattr__(self, name, value)

    @property
    def side(self) -> float:
        return area_side_for_density(self.n, self.radio_range, self.avg_degree)


@dataclass(slots=True)
class RouteResult:
    """Outcome of a multi-hop routed send."""

    success: bool
    path: List[int] = field(default_factory=list)
    data_messages: int = 0
    routing_messages: int = 0

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


@dataclass
class FloodOutcome:
    """Result of a TTL-scoped flood."""

    origin: int
    ttl: int
    covered: Dict[int, int] = field(default_factory=dict)  # node -> hop
    parent: Dict[int, int] = field(default_factory=dict)   # reverse tree
    messages: int = 0

    @property
    def coverage(self) -> int:
        return len(self.covered)

    def reverse_path(self, node: int) -> List[int]:
        """Path from ``node`` back to the flood origin along the tree.

        The parent chain of a valid flood tree has at most ``len(covered)``
        hops; a longer walk means the chain is cyclic, and a missing parent
        means it is broken — both raise :class:`ValueError` rather than
        looping forever / leaking a ``KeyError``.
        """
        max_hops = max(len(self.covered), 1)
        path = [node]
        while path[-1] != self.origin:
            if len(path) > max_hops:
                raise ValueError(
                    f"cyclic parent chain in flood tree at node {node} "
                    f"(walked {len(path)} hops over {max_hops} covered nodes)")
            try:
                path.append(self.parent[path[-1]])
            except KeyError:
                raise ValueError(
                    f"broken parent chain in flood tree: node {path[-1]} "
                    f"has no parent entry (started from {node})") from None
        return path


class SimNetwork:
    """A simulated ad hoc network at the protocol-model level."""

    def __init__(self, config: NetworkConfig,
                 positions: Optional[List[Point]] = None,
                 defer_neighbor_init: bool = False) -> None:
        self.config = config
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        side = self._side = config.side

        # Observability: typed event trace, metrics registry, accounting
        # auditor.  Tracing is off unless enabled explicitly, by the run
        # config's JSONL path, or by the watcher hub it attaches below.
        run = current_run()
        self.trace = EventTrace()
        self.metrics = MetricsRegistry()
        self.auditor = (AccountingAuditor(strict=run.audit == "strict")
                        if run.audit else None)
        if run.trace:
            self.trace.enable(memory=False, jsonl_path=run.trace)
        self._metric_unicasts = self.metrics.counter("net.unicasts")
        self._metric_unicast_failures = self.metrics.counter(
            "net.unicast_failures")
        self._metric_broadcasts = self.metrics.counter("net.broadcasts")
        self._metric_routing = self.metrics.counter("net.routing")

        # Churn commit/rollback state: failures can be applied tentatively
        # (geometry updated so connectivity checks see them) and only
        # *committed* — trace event, churn metrics, service-state eviction
        # listeners — once the churn driver decides they stick.
        self._tentative_failures: Set[int] = set()
        self._failure_listeners: List = []
        self._heartbeat_suspended = False

        placement_rng = self.rngs.stream("placement")
        if config.mobility == "waypoint":
            self._model = RandomWaypoint(
                side=side, min_speed=config.min_speed,
                max_speed=config.max_speed, pause_time=config.pause_time,
                rng=self.rngs.stream("mobility"),
            )
        elif config.mobility == "static":
            if positions is not None:
                self._model = FixedPlacement(positions)
            else:
                self._model = StaticPlacement(side, rng=placement_rng)
        else:
            raise ValueError(f"unknown mobility model {config.mobility!r}")

        # Batched access engine (local import: repro.core pulls in the
        # strategy modules, which import this one).
        from repro.core.access_engine import AccessEngine
        self.access_engine = AccessEngine()

        self.mobility = MobilityManager(self._model)
        self._alive: Set[int] = set()
        self._alive_sorted: Optional[List[int]] = None  # reset on change
        self._next_id = 0
        self.counters: Counter = Counter()
        # Static networks: contiguous-array kernel + full neighbor table,
        # kept until churn patches them.  Mobile networks: one candidate
        # index per validity window (`_snapshot`), filtered exactly at
        # every query; `_legs_until` is the earliest end of the alive
        # nodes' current legs, as of the last draw step.  `_rows` is the
        # table in row space, for the BFS route trees; static rows are
        # patched on churn like the tables.
        self._kernel: Optional[NeighborKernel] = None
        self._tables: Optional[Dict[int, List[int]]] = None
        self._slack: Optional[SlackIndex] = None
        self._window, self._reach = slack_window(
            config.radio_range, self._model.max_speed, SPEED_SLACK)
        self._snapshot_time = -math.inf
        self._legs_until = -math.inf
        self._rows: Optional[NeighborRows] = None
        self._rows_key: Optional[tuple] = None
        # per-timestamp position cache: MobilityManager.position_at runs at
        # most once per node per tick (static positions are cached forever).
        self._pos_cache: Dict[int, Point] = {}
        self._pos_cache_time = -math.inf
        self._known_neighbors: Dict[int, List[int]] = {}
        # Topology version the heartbeat copy was taken at.
        self._known_stamp = -1
        # Counts known-view (heartbeat snapshot) mutations; these do not
        # touch geometry, so known-view caches key on
        # (topology_version, known_version).
        self._known_version = 0
        # (src, dst) -> (path, topology version it was last valid at,
        # the path's bystander load at that version).
        self._route_cache: Dict[Tuple[int, int],
                                Tuple[List[int], int, int]] = {}
        self._drop_rng = self.rngs.stream("drops")
        self.energy = EnergyLedger()
        # Identifies the current topology: bumped on every geometry
        # mutation, so every cache derived from the graph keys on it.
        self._topo_version = 0
        self._positions_given = positions is not None
        self._deferred_init = defer_neighbor_init

        for i in range(config.n):
            pos = None
            if positions is not None and config.mobility != "waypoint":
                pos = positions[i]
            self._spawn_node(pos)

        if not defer_neighbor_init:
            if config.require_connected and positions is None:
                self._ensure_connected(placement_rng)
            self._refresh_neighbor_tables()
        self._heartbeat = PeriodicTimer(
            self.sim, config.heartbeat_interval, self._refresh_neighbor_tables
        )

        # Adversarial replica registry (repro.faults.byzantine); None on
        # honest networks so the access path pays one attribute check.
        self.byzantine = None

        # Live invariant watchers: the accounting audit and the config's
        # watchers share one hub.  Attached last so the hub sees the
        # finished topology (n_alive for the intersection bound).
        self.watch_hub = None
        if self.auditor is not None or run.watch:
            from repro.obs.watch import attach_run_watchers
            attach_run_watchers(self, run)

    # -- construction helpers ----------------------------------------------

    def _spawn_node(self, position: Optional[Point] = None) -> int:
        node_id = self._next_id
        self._next_id += 1
        self.mobility.add_node(node_id, t=self.sim.now, position=position)
        self._alive.add(node_id)
        self._alive_sorted = None
        self._admit_to_geometry(node_id)
        return node_id

    def _ensure_connected(self, rng: random.Random, max_attempts: int = 60) -> None:
        for _ in range(max_attempts):
            if self.is_connected():
                return
            # Re-place all nodes.
            for node_id in list(self._alive):
                self.mobility.remove_node(node_id)
                pos = (rng.uniform(0, self.config.side),
                       rng.uniform(0, self.config.side))
                self.mobility.add_node(node_id, t=self.sim.now, position=pos)
            self._invalidate_geometry()
        raise RuntimeError(
            f"could not obtain a connected deployment "
            f"(n={self.config.n}, d_avg={self.config.avg_degree})"
        )

    def finish_deferred_init(self,
                             tables: Optional[Dict[int, List[int]]] = None
                             ) -> None:
        """Complete a ``defer_neighbor_init=True`` construction.

        ``tables``, when given, must equal what :meth:`_neighbor_tables`
        would compute for the current placement (the batched replication
        engine obtains it from one replica-axis kernel pass); it is
        adopted instead of recomputed.  Connectivity enforcement then
        runs exactly as the normal constructor would — same placement
        stream, same redraw sequence — so a deferred network is
        indistinguishable from an eagerly-built one.
        """
        if not self._deferred_init:
            return
        if tables is not None and self.config.mobility == "static":
            ids = sorted(self._alive)
            self._kernel = self._build_kernel(
                ids, [self.position(i) for i in ids])
            self._tables = {node: list(nbrs) for node, nbrs in tables.items()}
        if self.config.require_connected and not self._positions_given:
            if not self.is_connected():
                self._ensure_connected(self.rngs.stream("placement"))
        self._refresh_neighbor_tables()
        self._deferred_init = False

    # -- geometry caches -----------------------------------------------------

    def _build_kernel(self, ids, positions) -> NeighborKernel:
        kernel = NeighborKernel(side=self.config.side,
                                radius=self.config.radio_range,
                                torus=self.config.torus)
        kernel.rebuild(ids, positions)
        return kernel

    def _invalidate_geometry(self) -> None:
        """Full invalidation: every position may have changed."""
        self._topo_version += 1
        self._drop_kernel()
        self._pos_cache.clear()
        self._pos_cache_time = self.sim.now

    def _drop_kernel(self) -> None:
        self._kernel = None
        self._tables = None
        self._slack = None

    def _admit_to_geometry(self, node_id: int) -> None:
        """Add a node: static tables are patched in place, once built; a
        mobile candidate index is dropped and rebuilt by the next query."""
        self._topo_version += 1
        self._pos_cache.pop(node_id, None)
        if self.config.mobility != "static":
            self._drop_kernel()
            return
        if self._kernel is None:
            return
        self._kernel.insert(node_id, self.position(node_id))
        neighbors = self._kernel.neighbors_of(node_id)
        self._tables[node_id] = neighbors
        for other in neighbors:
            table = self._tables.get(other)
            if table is not None and node_id not in table:
                bisect.insort(table, node_id)
        self._relink_rows(node_id, neighbors)

    def _evict_from_geometry(self, node_id: int) -> None:
        """Drop a node — static tables need no full rebuild for one churn
        event; a mobile index is dropped as in `_admit_to_geometry`."""
        self._topo_version += 1
        self._pos_cache.pop(node_id, None)
        if self.config.mobility != "static":
            self._drop_kernel()
            return
        if self._kernel is None:
            return
        self._kernel.remove(node_id)
        for other in self._tables.pop(node_id, ()):  # symmetric links
            table = self._tables.get(other)
            if table is not None and node_id in table:
                table.remove(node_id)
        self._relink_rows(node_id, None)

    def _relink_rows(self, node_id: int, links: Optional[List[int]]) -> None:
        """Patch static rows that were current before this churn event,
        copy on write (``NeighborRows.relinked``), so a connectivity
        check after a tentative failure builds no table."""
        if self._rows_key == (self._topo_version - 1, None):
            self._rows = self._rows.relinked(node_id, links)
            if self._rows is not None:
                self._rows_key = (self._topo_version, None)

    # -- cache keys ----------------------------------------------------------

    @property
    def topology_version(self) -> int:
        """Counts geometry mutations (the key of every graph-derived cache)."""
        return self._topo_version

    @property
    def known_version(self) -> int:
        """Counts known-view (heartbeat snapshot) mutations."""
        return self._known_version

    # -- observability -------------------------------------------------------

    def record_event(self, kind: str, /, **fields) -> None:
        """Record one trace event at the current simulated time."""
        if self.trace.enabled:
            self.trace.record(kind, self.sim.now, **fields)

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def advance(self, dt: float) -> None:
        """Advance simulated time, running due events (heartbeats, churn)."""
        if dt > 0:
            self.sim.run(until=self.sim.now + dt)

    def run_until(self, t: float) -> None:
        if t > self.sim.now:
            self.sim.run(until=t)

    # -- membership of the deployment ----------------------------------------

    def alive_nodes(self) -> List[int]:
        """The alive ids, ascending: a fresh list, sorted once per
        change of the alive set."""
        if self._alive_sorted is None:
            self._alive_sorted = sorted(self._alive)
        return list(self._alive_sorted)

    @property
    def n_alive(self) -> int:
        return len(self._alive)

    @property
    def ids_assigned(self) -> int:
        """How many ids the network has handed out: they are ``0 .. this-1``."""
        return self._next_id

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._alive

    def add_failure_listener(self, fn) -> None:
        """Register ``fn(node_id)`` to run when a failure *commits*.

        Listeners model service-state reactions to a node really going
        away (e.g. :meth:`LocationService.evict_bystander_state`).  They
        never fire for tentative failures that get rolled back, so a
        connectivity-preserving churn probe leaves caches untouched.
        """
        self._failure_listeners.append(fn)

    def fail_node(self, node_id: int, commit: bool = True) -> None:
        """Crash/leave: the node stops participating immediately.

        With ``commit=False`` the failure is *tentative*: geometry and
        neighbor state update (so ``is_connected`` sees the would-be
        survivor graph) but no trace event, churn metric, or failure
        listener fires until :meth:`commit_failure` — and
        :meth:`revive_node` rolls the whole thing back silently.
        """
        if node_id not in self._alive:
            return
        with PROFILER.phase("churn.update"):
            self._alive.discard(node_id)
            self._alive_sorted = None
            self._evict_from_geometry(node_id)
            self._known_neighbors.pop(node_id, None)
            self._known_version += 1
        if commit:
            self._commit_failure_effects(node_id)
        else:
            self._tentative_failures.add(node_id)

    def commit_failure(self, node_id: int) -> None:
        """Make a tentative failure stick (event + metrics + listeners)."""
        if node_id in self._tentative_failures:
            self._tentative_failures.discard(node_id)
            self._commit_failure_effects(node_id)

    def _commit_failure_effects(self, node_id: int) -> None:
        self.metrics.counter("churn.failures").inc()
        self.record_event("churn", action="fail", node=node_id)
        for fn in self._failure_listeners:
            fn(node_id)

    def revive_node(self, node_id: int) -> None:
        """Undo a failure.

        Rolling back a *tentative* failure is silent (the failure was
        never observable); reviving a committed failure emits the
        compensating ``churn action=revive`` event so offline summaries
        can reconcile the earlier ``fail``.
        """
        if node_id in self._alive:
            return
        tentative = node_id in self._tentative_failures
        with PROFILER.phase("churn.update"):
            if node_id not in self.mobility:
                self.mobility.add_node(node_id, t=self.sim.now)
            self._alive.add(node_id)
            self._alive_sorted = None
            self._admit_to_geometry(node_id)
        if tentative:
            self._tentative_failures.discard(node_id)
        else:
            self.metrics.counter("churn.revives").inc()
            self.record_event("churn", action="revive", node=node_id)

    def join_node(self, position: Optional[Point] = None) -> int:
        """A fresh node joins at a random (or given) position."""
        with PROFILER.phase("churn.update"):
            node_id = self._spawn_node(position)
            # The newcomer learns its neighbors on arrival (first
            # heartbeat).
            self._known_neighbors[node_id] = self.true_neighbors(node_id)
            for other in self._known_neighbors[node_id]:
                table = self._known_neighbors.get(other)
                if table is not None and node_id not in table:
                    table.append(node_id)
            self._known_version += 1
        self.metrics.counter("churn.joins").inc()
        self.record_event("churn", action="join", node=node_id)
        return node_id

    # -- geometry --------------------------------------------------------------

    def position(self, node_id: int) -> Point:
        t = self.sim.now
        if t != self._pos_cache_time:
            if self.config.mobility != "static":
                self._pos_cache.clear()
            self._pos_cache_time = t
        pos = self._pos_cache.get(node_id)
        if pos is None:
            pos = self.mobility.position_at(node_id, t)
            self._pos_cache[node_id] = pos
        return pos

    def distance(self, a: Point, b: Point) -> float:
        return space.distance(a, b, self._side, self.config.torus)

    def in_range(self, a: int, b: int) -> bool:
        return (self.distance(self.position(a), self.position(b))
                <= self.config.radio_range)

    def _snapshot(self) -> SlackIndex:
        """Mobile networks: the candidate index serving ``sim.now``, after
        this timestamp's draws.

        Two steps, kept apart:

        * **Draws.**  The first neighbor query at a new timestamp (or
          after churn) advances every expired waypoint leg of the alive
          nodes in sorted-id order (:meth:`MobilityManager.advance`).
          All nodes draw from one mobility stream, so *when* legs
          advance is part of what fixes the trajectories: this runs at
          exactly the queries where a full position snapshot always
          ran, and costs one comparison while no leg has expired.
        * **Evaluation.**  Positions are computed only for the rows a
          query reads: a node's candidates for :meth:`true_neighbors`
          (a hop), every row for the route trees and the whole-graph
          consumers.

        The index (:class:`SlackIndex`) lists every pair within
        ``R = r + 2·v_max·Δ`` plus a float margin at the instant ``t0``
        it was built, ``Δ = r / (8·v_max)`` from the model's speed bound
        (:func:`slack_window`).  It serves ``[t0, t0 + Δ]`` at one
        topology version; churn drops it.
        """
        now = self.sim.now
        index = self._slack
        if index is None or self._snapshot_time != now:
            with PROFILER.phase("neighbor.rebuild"):
                if index is None:
                    ids = np.array(sorted(self._alive), dtype=np.intp)
                    self._legs_until = -math.inf
                else:
                    ids = index.ids
                if now > self._legs_until:
                    ends = self.mobility.advance(ids, now)
                    self._legs_until = (float(ends.min()) if len(ends)
                                        else math.inf)
                if index is None or now > index.expires:
                    index = self._slack = SlackIndex(
                        ids, self._positions_now(ids), now, self._side,
                        self.config.radio_range, self.config.torus,
                        self._window, self._reach)
            self._snapshot_time = now
        return index

    def _positions_now(self, ids: np.ndarray) -> np.ndarray:
        """Evaluate the positions of ``ids`` at ``sim.now`` (mobile: after
        the draw step, so this draws nothing)."""
        with PROFILER.phase("mobility.positions"):
            return self.mobility.positions_at(ids, self.sim.now)

    def _neighbor_tables(self) -> Dict[int, List[int]]:
        """Full ground-truth adjacency at ``sim.now``.

        Static networks keep the table until churn touches it (then it is
        patched incrementally).  Mobile networks filter every candidate
        row of the current index at ``sim.now``.
        """
        if self.config.mobility != "static":
            index = self._snapshot()
            return dict(zip(index.id_list, index.adjacency(
                self._positions_now(index.ids), as_ids=True)))
        if self._tables is None:
            with PROFILER.phase("neighbor.rebuild"):
                if self._kernel is None:
                    ids = sorted(self._alive)
                    with PROFILER.phase("mobility.positions"):
                        positions = [self.position(i) for i in ids]
                    self._kernel = self._build_kernel(ids, positions)
                self._tables = self._kernel.neighbor_tables()
        return self._tables

    def _neighbor_rows(self) -> NeighborRows:
        """The neighbor table in row space, for the BFS route trees.

        Built from the static table and then patched, copy on write, at
        every churn event (``_relink_rows``), and under mobility once per
        timestamp, straight from the filtered candidate rows of the
        current index.
        """
        mobile = self.config.mobility != "static"
        key = (self._topo_version, self.sim.now if mobile else None)
        if self._rows_key != key:
            if mobile:
                index = self._snapshot()
                self._rows = NeighborRows(
                    index.id_list, index.row_of,
                    index.adjacency(self._positions_now(index.ids)))
            else:
                tables = self._neighbor_tables()
                ids = sorted(tables)
                row_of = dict(zip(ids, range(len(ids))))
                self._rows = NeighborRows(ids, row_of, [
                    list(map(row_of.__getitem__, tables[u])) for u in ids])
            self._rows_key = key
        return self._rows

    def true_neighbors(self, node_id: int) -> List[int]:
        """Ground-truth current neighbors (alive, within range), sorted.

        Under mobility this evaluates the positions of ``node_id``'s
        candidates only; a dead (or never-admitted) query node, whose
        position is still tracked, is held against every alive node.
        """
        if self.config.mobility == "static":
            neighbors = self._neighbor_tables().get(node_id)
            if neighbors is None:
                return self._kernel.within(self.position(node_id),
                                           self.config.radio_range,
                                           exclude=node_id)
            return list(neighbors)
        index = self._snapshot()
        row = index.row_of.get(node_id)
        here = self.position(node_id)
        if row is None:
            near = space.distances(self._positions_now(index.ids), here,
                                   self._side, self.config.torus)
            return index.ids[near <= self.config.radio_range].tolist()
        return index.neighbors(row, here, self.mobility.position_at,
                               self.sim.now)

    def known_neighbors(self, node_id: int) -> List[int]:
        """Last-heartbeat neighbor snapshot (stale under mobility)."""
        return list(self._known_neighbors.get(node_id, []))

    def suspend_neighbor_refresh(self) -> None:
        """Freeze heartbeat updates (membership-staleness injection).

        The periodic timer keeps firing but becomes a no-op, so nodes
        keep routing on their last-heartbeat neighbor snapshot.
        """
        self._heartbeat_suspended = True

    def resume_neighbor_refresh(self) -> None:
        """Re-enable heartbeat updates and refresh immediately."""
        self._heartbeat_suspended = False
        self._refresh_neighbor_tables()

    def _refresh_neighbor_tables(self) -> None:
        if self._heartbeat_suspended:
            return
        self._known_version += 1
        with PROFILER.phase("neighbor.heartbeat"):
            # A static graph moves only with the topology version, and
            # every edit of the copy in between (fail_node, join_node)
            # bumps it.
            if (self.config.mobility == "static"
                    and self._known_stamp == self._topo_version):
                return
            tables = self._neighbor_tables()
            self._known_neighbors = {
                node_id: list(tables.get(node_id, ()))
                for node_id in self._alive
            }
            self._known_stamp = self._topo_version

    def is_connected(self) -> bool:
        """Whether every alive node reaches every other: one BFS tree,
        built outside the route memo (no tree hit or miss counts)."""
        alive = self._alive
        if not alive:
            return True
        return bfs_tree(self, next(iter(alive))).reachable == len(alive)

    # -- one-hop messaging ------------------------------------------------------

    def one_hop_unicast(self, src: int, dst: int) -> bool:
        """Send one frame to a direct neighbor.

        Returns False — emulating the MAC failure notification after 7
        retries — when the destination is dead, out of range, or the frame
        is lost to the configured random drop.  Counts one network message
        either way (the frame was transmitted).

        Static networks answer "in range" from the neighbor table, which
        churn keeps patched; mobile networks test the two positions, so a
        hop evaluates (and advances the waypoint legs of) its endpoints
        only.
        """
        self.counters["network"] += 1
        self._metric_unicasts.inc()
        self.advance(self.config.hop_latency)
        static = self.config.mobility == "static"
        sender_up = src in self._alive
        if not sender_up:
            ok = False  # the frame never airs: nothing to charge
        elif static:
            neighbors = self._neighbor_tables()[src]
            ok = dst == src or dst in neighbors
        else:
            ok = dst in self._alive and self.in_range(src, dst)
        if (ok and self.config.drop_prob > 0
                and self._drop_rng.random() < self.config.drop_prob):
            ok = False
        if ok:
            if not static:
                neighbors = self.true_neighbors(src)
            self.energy.charge_unicast(
                src, dst, bystanders=max(0, len(neighbors) - 1))
        else:
            if sender_up:
                self.energy.charge_failed_unicast(src)
            self._metric_unicast_failures.inc()
        if self.trace.enabled:
            self.trace.record("hop", self.sim.now, src=src, dst=dst, ok=ok)
        return ok

    def one_hop_broadcast(self, src: int) -> List[int]:
        """Broadcast one frame; returns the alive nodes that received it."""
        self.counters["network"] += 1
        self._metric_broadcasts.inc()
        self.advance(self.config.hop_latency)
        if not self.is_alive(src):
            if self.trace.enabled:
                self.trace.record("broadcast", self.sim.now, src=src,
                                  receivers=0, ok=False)
            return []
        receivers = self.true_neighbors(src)
        if self.config.drop_prob > 0:
            receivers = [r for r in receivers
                         if self._drop_rng.random() >= self.config.drop_prob]
        self.energy.charge_broadcast(src, receivers=len(receivers))
        if self.trace.enabled:
            self.trace.record("broadcast", self.sim.now, src=src,
                              receivers=len(receivers), ok=True)
        return receivers

    # -- TTL-scoped flooding ---------------------------------------------------

    def flood(self, origin: int, ttl: int) -> "FloodOutcome":
        """TTL-scoped flood (Section 4.4): ring-by-ring BFS broadcast.

        The originator broadcasts with the given TTL; each first-time
        receiver decrements it and rebroadcasts while it stays positive.
        Returns every covered node with its hop distance, the reverse
        (parent) tree for replies, and the transmission count (one
        broadcast per rebroadcasting node).
        """
        if ttl < 1:
            raise ValueError("flood TTL must be >= 1")
        covered = {origin: 0}
        parent = {origin: origin}
        messages = 0
        frontier: List[int] = [origin]
        previous: List[int] = []
        hop = 0
        while frontier and hop < ttl:
            messages += len(frontier)
            ring = self.access_engine.flood_ring(self, frontier, previous)
            if ring is None:
                ring = ((rx, node) for node in frontier
                        for rx in self.one_hop_broadcast(node))
            previous, frontier = frontier, []
            hop += 1
            for rx, node in ring:
                if rx not in covered:
                    covered[rx] = hop
                    parent[rx] = node
                    frontier.append(rx)
        self.record_event("flood", origin=origin, ttl=ttl,
                          coverage=len(covered), messages=messages)
        return FloodOutcome(origin=origin, ttl=ttl, covered=covered,
                            parent=parent, messages=messages)

    # -- multi-hop routing (AODV-style with caching) ------------------------------

    def _route_valid(self, path: List[int]) -> bool:
        for a, b in zip(path, path[1:]):
            if not self.is_alive(b) or not self.in_range(a, b):
                return False
        return True

    def _discover(self, tree: BfsTree, dst: int, ttl: Optional[int] = None
                  ) -> Tuple[Optional[List[int]], int, int]:
        """One route request answered from ``tree``, the BFS tree of its
        source: ``(path, control messages, the path's bystander load)``.
        The caller meters the control messages and records the
        ``routing`` event (:meth:`_trace_routing`).

        Without ``ttl`` it models AODV's expanding ring: every node
        inside the ring that found ``dst`` rebroadcasts the RREQ once
        and the RREP retraces the path, and a search that fails floods
        the whole component.  With ``ttl`` the flood is confined to
        that many hops and costs every node it reaches.
        """
        path, load = tree.route(dst)
        if ttl is not None:
            cost = tree.count_within(ttl)
            if path is not None and len(path) - 1 > ttl:
                path = None
        elif path is None:
            cost = tree.reachable
        else:
            hops = len(path) - 1
            cost = tree.count_within(hops) + hops
        return path, cost, load

    def _trace_routing(self, src: int, dst: int, cost: int,
                       found: bool) -> None:
        """Record a discovery's ``routing`` event, if it cost anything."""
        if cost > 0 and self.trace.enabled:
            self.trace.record("routing", self.sim.now, src=src, dst=dst,
                              count=cost, found=found)

    def route_frame(self, origin: int) -> "RouteFrame":
        """Open the route frame of one access from ``origin``."""
        return RouteFrame(self, origin)

    def discover_path(self, src: int, dst: int) -> Tuple[Optional[List[int]], int]:
        """Obtain a route (cache hit or discovery) WITHOUT sending data.

        Returns ``(path, routing_control_messages)``.  Used by protocols
        that need hop-by-hop control over the data forwarding (e.g. the
        RANDOM-OPT en-route lookup).
        """
        if not self.is_alive(src) or not self.is_alive(dst):
            return None, 0
        if src == dst:
            return [src], 0
        path, cost, _ = RouteFrame(self, src).obtain(
            dst, self._route_cache.get((src, dst)))
        self._trace_routing(src, dst, cost, path is not None)
        if cost:
            self.counters["routing"] += cost
            self._metric_routing.inc(cost)
        return path, cost

    def route(self, src: int, dst: int) -> RouteResult:
        """Send an application message via (cached) multi-hop routing:
        a route frame of one send (:meth:`RouteFrame.send`)."""
        frame = RouteFrame(self, src)
        path = frame.send(dst)
        frame.close()
        if path is None:
            return RouteResult(False, [], frame.data, frame.routing)
        return RouteResult(True, path, frame.data, frame.routing)

    def scoped_route(self, src: int, dst: int, max_hops: int) -> RouteResult:
        """Route with a TTL-limited discovery (Section 6.2 local repair).

        The RREQ flood is confined to ``max_hops`` hops around ``src``; its
        cost is the number of nodes reached.  Fails fast if the destination
        is farther than ``max_hops``.  A repair follows a MAC failure,
        so its message goes hop by hop.
        """
        if not self.is_alive(src):
            return RouteResult(False)
        if src == dst:
            return RouteResult(True, [src])
        path, routing_messages, _ = self._discover(
            self.access_engine.tree(self, src), dst, max_hops)
        self._trace_routing(src, dst, routing_messages, path is not None)
        self.counters["routing"] += routing_messages
        self._metric_routing.inc(routing_messages)
        if path is None:
            return RouteResult(False, [], 0, routing_messages)
        sent = 0
        for a, b in zip(path, path[1:]):
            sent += 1
            if not self.one_hop_unicast(a, b):
                return RouteResult(False, [], sent, routing_messages)
        return RouteResult(True, path, sent, routing_messages)

    def invalidate_routes(self) -> None:
        """Drop all cached routes (e.g. after heavy churn)."""
        self._route_cache.clear()

    # -- convenience --------------------------------------------------------------

    def random_alive_node(self, rng: random.Random) -> int:
        return rng.choice(self.alive_nodes())


class RouteFrame:
    """The routed sends of one access from one origin.

    A quorum access (RANDOM, §4.1, and the algebraic systems) reaches
    each member by its own routed unicast from the same origin, and
    ``SimNetwork.route`` is a frame of one send, so :meth:`send` is the
    one routed-send body.  The frame holds what every send would look
    up again: the origin's BFS tree (read at the first discovery, again
    only at a new topology version; every discovery still counts as a
    tree hit or miss) and the batch-window horizon
    (:meth:`AccessEngine.horizon`, read when the frame opens and again
    only after a call that can run the scheduler: a per-hop send, or
    :meth:`call`).  A send that lands before the horizon charges its
    whole path at once and skips the clock to the arrival, accumulated
    by the same repeated additions as the per-hop ``advance`` chain.
    Under random drops it first draws each hop's loss in path order up
    to the first one, the per-hop sends' draws; a lost hop charges the
    delivered prefix and the lost frame, skips the clock to that hop,
    and the path is dropped and obtained once more, as a per-hop loss
    is.  Otherwise the send goes hop by hop through
    ``one_hop_unicast``, where mobility and churn mid-flight act, and a
    broken path is dropped and obtained once more.

    The one-step sends' counts — ``counters["network"/"routing"]`` and
    the ``net.unicasts`` / ``net.routing`` metrics — accumulate here and
    are published once, by :meth:`close`.  They are the experiment's
    meters, read between accesses: nothing a frame calls reads them
    (stores and probes act on replica state, watchers read trace
    events), and they are integer sums, so the totals are those of
    publishing every send.  Trace events are recorded as they happen;
    a one-step send is one :class:`~repro.obs.trace.HopRun` that also
    holds its discovery's ``routing`` event, and a failed discovery is
    one zero-hop run with its failed ``route`` event.
    ``data`` and ``routing`` total the frame's data and control
    messages, for the access result.
    """

    __slots__ = ("net", "origin", "data", "routing", "_data", "_routing",
                 "_horizon", "_tree", "_tree_version", "_static",
                 "_latency")

    def __init__(self, net: SimNetwork, origin: int) -> None:
        self.net = net
        self.origin = origin
        self.data = self.routing = 0
        self._data = self._routing = 0  # not yet published
        self._tree: Optional[BfsTree] = None
        self._tree_version = -1
        self._static = net.config.mobility == "static"
        self._latency = net.config.hop_latency
        self._horizon = net.access_engine.horizon(net)

    def send(self, dst: int) -> Optional[List[int]]:
        """Route one application message ``origin -> dst``; the path it
        took, or None when it was not delivered."""
        net = self.net
        src = self.origin
        if src not in net._alive:
            return None
        if src == dst:
            return [src]
        trace = net.trace
        routing = None  # a traced discovery, recorded with what follows it
        for last in (False, True):
            entry = net._route_cache.get((src, dst))
            if (entry is not None and entry[1] == net._topo_version
                    and self._static):
                path, _, load = entry
            else:
                path, cost, load = self.obtain(dst, entry)
                if cost:
                    self.routing += cost
                    self._routing += cost
                    if trace.enabled:
                        routing = {"src": src, "dst": dst, "count": cost,
                                   "found": path is not None}
            if path is None:
                break
            hops = len(path) - 1
            sim = net.sim
            start = end = sim.now
            latency = self._latency
            for _ in range(hops):
                end += latency
            if end < self._horizon:
                good = (self._delivered(hops) if net.config.drop_prob > 0
                        else hops)
                if good == hops:
                    net.energy.charge_path(path, load)
                    sim.skip_to(end)
                    self.data += hops
                    self._data += hops
                    if trace.enabled:
                        trace.record_hops(
                            start, latency, path,
                            {"src": src, "dst": dst, "ok": True,
                             "hops": hops}, routing=routing, end=end)
                    return path
                # Hop ``good`` is lost: the hops before it are delivered
                # and the lost frame still costs its sender the airtime.
                end = start
                for _ in range(good + 1):
                    end += latency
                if good:
                    tables = net._neighbor_tables()
                    prefix = path[:good + 1]
                    net.energy.charge_path(prefix, sum(
                        map(len, map(tables.__getitem__, prefix[:-1]))) - good)
                net.energy.charge_failed_unicast(path[good])
                net._metric_unicast_failures.inc()
                sim.skip_to(end)
                self.data += good + 1
                self._data += good + 1
                if trace.enabled:
                    trace.record_hops(
                        start, latency, path[:good + 2],
                        {"src": src, "dst": dst, "ok": False} if last
                        else None, routing=routing, lost=True, end=end)
                    routing = None
                net._route_cache.pop((src, dst), None)
                if last:
                    return None
                continue
            if routing is not None:
                trace.record("routing", start, **routing)
                routing = None
            delivered = True
            for a, b in zip(path, path[1:]):
                self.data += 1
                if not net.one_hop_unicast(a, b):
                    delivered = False
                    break
            self._horizon = net.access_engine.horizon(net)
            if delivered:
                net.record_event("route", src=src, dst=dst, ok=True,
                                 hops=hops)
                return path
            net._route_cache.pop((src, dst), None)
            if last:
                net.record_event("route", src=src, dst=dst, ok=False)
                return None
        # No path: the failed discovery and the failed send, one record.
        if routing is not None:
            trace.record_hops(net.sim.now, self._latency, [src],
                              {"src": src, "dst": dst, "ok": False},
                              routing=routing)
        else:
            net.record_event("route", src=src, dst=dst, ok=False)
        return None

    def _delivered(self, hops: int) -> int:
        """How many hops of a one-step send get through random drops: one
        draw of the drops stream per hop in path order, up to the first
        loss — the per-hop sends' draws, since nothing else runs in the
        window."""
        drop_prob = self.net.config.drop_prob
        draw = self.net._drop_rng.random
        for i in range(hops):
            if draw() < drop_prob:
                return i
        return hops

    def obtain(self, dst: int, entry: Optional[tuple]
               ) -> Tuple[Optional[List[int]], int, int]:
        """A valid path from the cache or a discovery: ``(path, control
        messages, bystander load)``; ``entry`` is the cache entry of
        ``(origin, dst)``, if any.

        A cache entry carries the topology version it was last valid at.
        Every alive-set or geometry mutation bumps it, so on a static
        network a path read from a BFS tree at version v, or one that
        passed `_route_valid` at v, is not walked again until the
        version moves; the walk re-stamps it with its load recounted
        from the table.  Under mobility every use re-validates, and the
        load, which only a batched send reads, is left as discovered.
        """
        net = self.net
        key = (self.origin, dst)
        if entry is not None:
            path, stamp, load = entry
            if self._static and stamp == net._topo_version:
                return path, 0, load
            if net._route_valid(path):
                if self._static:
                    tables = net._neighbor_tables()
                    load = sum(map(len, map(tables.__getitem__, path[:-1]))
                               ) - (len(path) - 1)
                net._route_cache[key] = (path, net._topo_version, load)
                return path, 0, load
        # The phase is three calls even while profiling is off.
        if PROFILER.enabled:
            with PROFILER.phase("routing.discover"):
                path, cost, load = net._discover(self._source_tree(), dst)
        else:
            path, cost, load = net._discover(self._source_tree(), dst)
        if path is None:
            net._route_cache.pop(key, None)
        else:
            net._route_cache[key] = (path, net._topo_version, load)
        return path, cost, load

    def _source_tree(self) -> BfsTree:
        """The origin's BFS tree for one discovery.  A static topology's
        tree is read once per version and its later discoveries are
        reported to the engine; a mobile one is a function of the clock
        and is read every time."""
        net = self.net
        tree = self._tree
        if tree is not None and self._tree_version == net._topo_version:
            net.access_engine.reuse(net, self.origin, tree)
            return tree
        tree = net.access_engine.tree(net, self.origin)
        if self._static:
            self._tree = tree
            self._tree_version = net._topo_version
        return tree

    def call(self, fn, *args):
        """``fn(*args)`` — a store, a probe, a reply: anything that can
        run the scheduler — then a fresh read of the horizon."""
        value = fn(*args)
        self._horizon = self.net.access_engine.horizon(self.net)
        return value

    def close(self) -> None:
        """End the frame: publish its one-step sends' counts."""
        net = self.net
        if self._data:
            net.counters["network"] += self._data
            net._metric_unicasts.inc(self._data)
            self._data = 0
        if self._routing:
            net.counters["routing"] += self._routing
            net._metric_routing.inc(self._routing)
            self._routing = 0
