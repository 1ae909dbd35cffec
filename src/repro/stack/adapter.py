"""Run quorum strategies over the *packet-level* stack.

:class:`PacketQuorumNetwork` exposes (a supported subset of) the
:class:`~repro.simnet.network.SimNetwork` primitive interface on top of
:class:`~repro.stack.network.AdhocStack`, so the access strategies from
:mod:`repro.core` execute against real CSMA/CA frames, collisions,
retransmissions, and AODV control traffic instead of the protocol-model
abstraction.  This is the high-fidelity cross-validation path: the same
strategy code, two substrates.

Supported strategy primitives: neighbor tables (real HELLO beacons),
one-hop unicast with MAC success/failure resolution, one-hop broadcast,
routed unicast with end-to-end probe acknowledgment, and TTL flooding
with coverage collection.  ``discover_path`` (needed only by RANDOM-OPT's
en-route probing) is not available at packet level and raises.

Because the stack is event-driven while strategies are written
synchronously, each primitive *drives the simulator* until its outcome
resolves (or a timeout passes) — the same nested-run mechanism the
graph-level simulator uses for hop latency.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from repro.sim.rng import RngRegistry
from repro.simnet.network import FloodOutcome, RouteResult
from repro.stack.network import AdhocStack


@dataclass(frozen=True)
class _Hello:
    sender: int


@dataclass(frozen=True)
class _OneHop:
    token: int
    sender: int
    dst: int  # -1 => broadcast probe


@dataclass(frozen=True)
class _Probe:
    token: int
    origin: int


@dataclass(frozen=True)
class _ProbeAck:
    token: int


@dataclass(frozen=True)
class _FloodMark:
    token: int
    origin: int


#: HELLO beacon period, seconds (the heartbeat of Section 2.3).
HELLO_INTERVAL = 10.0
#: How long an acked unicast and a routed send may take, seconds.
UNICAST_TIMEOUT = 1.0
ROUTE_TIMEOUT = 8.0
#: How long a flood is given to settle, seconds.
FLOOD_SETTLE = 3.0
#: Simulated seconds of beaconing before the first access.
WARMUP = 0.5


@dataclass
class _AdapterConfig:
    """Mimics the bits of NetworkConfig that strategies read."""

    n: int
    avg_degree: float
    radio_range: float
    hop_latency: float = 0.0


class PacketQuorumNetwork:
    """SimNetwork-compatible facade over a packet-level stack."""

    def __init__(self, stack: AdhocStack) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.rngs = RngRegistry(stack.config.seed ^ 0x5EED)
        self.counters: Dict[str, int] = {"network": 0, "routing": 0}
        self.config = _AdapterConfig(
            n=stack.config.n,
            avg_degree=stack.config.avg_degree,
            radio_range=stack.phy_params.ideal_range_m,
        )
        self._tokens = itertools.count(1)
        self._neighbor_tables: Dict[int, Set[int]] = {
            nid: set() for nid in stack.nodes
        }
        self._acks_seen: Set[int] = set()
        self._flood_seen: Dict[int, Dict[int, int]] = {}  # token -> node -> hop

        for node in stack.nodes.values():
            node.raw_handler = (
                lambda payload, frm, nid=node.node_id:
                self._on_raw(nid, payload, frm))
            node.app_handler = self._wrap_app(node.app_handler, node.node_id)

        # HELLO beaconing (the heartbeat of Section 2.3).
        for node in stack.nodes.values():
            self.sim.schedule(
                self.rngs.stream("hello").uniform(0, 1.0),
                self._hello_loop, node.node_id)
        self.stack.run(WARMUP)

    # -- beaconing / raw frames ------------------------------------------------

    def _hello_loop(self, node_id: int) -> None:
        node = self.stack.nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.mac.send_broadcast(_Hello(sender=node_id), payload_bytes=16)
        self.sim.schedule(HELLO_INTERVAL, self._hello_loop, node_id)

    def _on_raw(self, receiver: int, payload: Any, from_node: int) -> None:
        if isinstance(payload, _Hello):
            self._neighbor_tables.setdefault(receiver, set()).add(
                payload.sender)

    def _wrap_app(self, inner: Callable, node_id: int) -> Callable:
        def handler(payload: Any, src: int) -> None:
            if isinstance(payload, _Probe):
                self._acks_seen.add(-payload.token)  # arrival marker
                node = self.stack.nodes[node_id]
                node.aodv.send_data(payload.origin,
                                    _ProbeAck(token=payload.token))
                return
            if isinstance(payload, _ProbeAck):
                self._acks_seen.add(payload.token)
                return
            if isinstance(payload, _FloodMark):
                self._flood_seen.setdefault(payload.token, {})
                if node_id not in self._flood_seen[payload.token]:
                    self._flood_seen[payload.token][node_id] = -1
                return
            if inner is not None:
                inner(payload, src)
        return handler

    # -- liveness ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def advance(self, dt: float) -> None:
        self.stack.run(dt)

    def run_until(self, t: float) -> None:
        if t > self.sim.now:
            self.stack.run(t - self.sim.now)

    def alive_nodes(self) -> List[int]:
        return self.stack.env.alive_nodes()

    @property
    def n_alive(self) -> int:
        return len(self.stack.env.alive_nodes())

    def is_alive(self, node_id: int) -> bool:
        return self.stack.env.is_alive(node_id)

    def fail_node(self, node_id: int) -> None:
        self.stack.crash(node_id)

    def random_alive_node(self, rng: random.Random) -> int:
        return rng.choice(self.alive_nodes())

    # -- neighborhood ----------------------------------------------------------

    def position(self, node_id: int):
        return self.stack.env.position_of(node_id)

    def in_range(self, a: int, b: int) -> bool:
        return (self.stack.env.distance(self.position(a), self.position(b))
                <= self.config.radio_range)

    def true_neighbors(self, node_id: int) -> List[int]:
        pos = self.position(node_id)
        return [v for v in self.stack.env.nodes_near(pos,
                                                     self.config.radio_range)
                if v != node_id]

    def known_neighbors(self, node_id: int) -> List[int]:
        """Neighbor table from HELLO beacons.

        We probe reality lazily: the HELLO traffic keeps the channel
        realistic, while the table reflects the last beacon round (ground
        truth at beacon time, stale between rounds for mobile stacks).
        """
        table = self._neighbor_tables.get(node_id)
        if table:
            return sorted(table)
        return self.true_neighbors(node_id)

    # -- primitives --------------------------------------------------------------

    def one_hop_unicast(self, src: int, dst: int) -> bool:
        """A real MAC unicast: CSMA/CA, ACK, up to 7 retries."""
        if not self.is_alive(src) or src == dst:
            return False
        self.counters["network"] += 1
        outcome: List[Optional[bool]] = [None]
        node = self.stack.nodes[src]
        node.mac.send_unicast(
            dst, _OneHop(token=next(self._tokens), sender=src, dst=dst),
            on_success=lambda: outcome.__setitem__(0, True),
            on_failure=lambda: outcome.__setitem__(0, False))
        deadline = self.sim.now + UNICAST_TIMEOUT
        while outcome[0] is None and self.sim.now < deadline:
            if not self.sim.step():
                break
        return bool(outcome[0])

    def one_hop_broadcast(self, src: int) -> List[int]:
        """A real MAC broadcast; returns ground-truth receivers in range
        (broadcasts carry no acks, so the sender cannot know — the caller
        is the omniscient experiment harness, as in the paper's metric)."""
        if not self.is_alive(src):
            return []
        self.counters["network"] += 1
        node = self.stack.nodes[src]
        node.mac.send_broadcast(_OneHop(token=next(self._tokens),
                                        sender=src, dst=-1))
        self.stack.run(0.05)
        return [v for v in self.true_neighbors(src) if self.is_alive(v)]

    def route(self, src: int, dst: int) -> RouteResult:
        """AODV-routed send, confirmed by an end-to-end probe ack."""
        if not self.is_alive(src):
            return RouteResult(success=False)
        if src == dst:
            return RouteResult(success=True, path=[src])
        token = next(self._tokens)
        data_before = self._total_data_transmissions()
        control_before = self.stack.total_control_messages()
        self.stack.nodes[src].aodv.send_data(dst, _Probe(token=token,
                                                         origin=src))
        deadline = self.sim.now + ROUTE_TIMEOUT
        while token not in self._acks_seen and self.sim.now < deadline:
            if not self.sim.step():
                break
        arrived = -token in self._acks_seen
        acked = token in self._acks_seen
        control = self.stack.total_control_messages() - control_before
        data_hops = self._total_data_transmissions() - data_before
        self.counters["network"] += data_hops
        self.counters["routing"] += control
        return RouteResult(success=arrived or acked,
                           path=[src, dst] if (arrived or acked) else [],
                           data_messages=data_hops,
                           routing_messages=control)

    def _total_data_transmissions(self) -> int:
        """Network-layer data transmissions (originations + forwards)."""
        return sum(node.aodv.data_originated + node.aodv.data_forwarded
                   for node in self.stack.nodes.values())

    def scoped_route(self, src: int, dst: int, max_hops: int) -> RouteResult:
        """Packet level has no TTL-scoped discovery; fall back to a full
        route (conservative for the repair cost accounting)."""
        return self.route(src, dst)

    def discover_path(self, src: int, dst: int):
        raise NotImplementedError(
            "en-route probing (RANDOM-OPT) requires per-hop visibility; "
            "use the graph-level simulator for that strategy")

    def flood(self, origin: int, ttl: int) -> FloodOutcome:
        """A real TTL-scoped flood; coverage collected at the harness."""
        if ttl < 1:
            raise ValueError("flood TTL must be >= 1")
        token = next(self._tokens)
        frames_before = self.stack.total_mac_frames()
        self._flood_seen[token] = {origin: 0}
        self.stack.nodes[origin].flood(_FloodMark(token=token,
                                                  origin=origin), ttl=ttl)
        self.stack.run(FLOOD_SETTLE)
        covered_raw = self._flood_seen.pop(token, {origin: 0})
        messages = self.stack.total_mac_frames() - frames_before
        self.counters["network"] += messages
        # Rebuild hop counts / parent tree over the ground-truth topology
        # (BFS restricted to actually-covered nodes).
        from collections import deque
        covered = {origin: 0}
        parent = {origin: origin}
        queue = deque([origin])
        while queue:
            u = queue.popleft()
            for v in self.true_neighbors(u):
                if v in covered_raw and v not in covered:
                    covered[v] = covered[u] + 1
                    parent[v] = u
                    queue.append(v)
        return FloodOutcome(origin=origin, ttl=ttl, covered=covered,
                            parent=parent, messages=messages)

    def invalidate_routes(self) -> None:
        """Route caches live inside AODV; nothing to do at the facade."""
