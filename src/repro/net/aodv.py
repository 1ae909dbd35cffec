"""AODV routing agent (per node).

Implements the parts of AODV the paper's RANDOM / RANDOM-OPT strategies
exercise: on-demand route discovery with expanding-ring RREQ floods,
reverse-path RREPs, hop-by-hop data forwarding, route lifetimes, RERR on
link break, and — critically for Section 6.2 — *cross-layer notifications*:
a MAC-level unicast failure invalidates the route and is propagated to the
application instead of a silent drop.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.mac.csma import MacLayer
from repro.net.packet import (
    DataPacket,
    RouteError,
    RouteReply,
    RouteRequest,
    next_packet_id,
)
from repro.sim.kernel import Simulator


@dataclass
class RouteEntry:
    next_hop: int
    hop_count: int
    dst_seq: int
    expires: float
    valid: bool = True


@dataclass(frozen=True)
class AodvParams:
    """Timing/expanding-ring constants (scaled-down RFC 3561 defaults)."""

    active_route_timeout: float = 10.0
    ttl_start: int = 2
    ttl_increment: int = 2
    ttl_threshold: int = 7
    net_diameter: int = 35
    rreq_retries: int = 2
    ring_traversal_time_per_ttl: float = 0.05
    buffer_timeout: float = 5.0


@dataclass
class _BufferedPacket:
    packet: DataPacket
    queued_at: float
    on_unroutable: Optional[Callable[[DataPacket], None]] = None


class AodvAgent:
    """AODV routing state machine for one node."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacLayer,
        node_id: int,
        deliver: Callable[[Any, DataPacket], None],
        params: Optional[AodvParams] = None,
        *,
        rng: random.Random,
    ) -> None:
        self.sim = sim
        self.mac = mac
        self.node_id = node_id
        self.deliver = deliver
        self.params = params or AodvParams()
        self.rng = rng

        self.seq = 0
        self._rreq_id = itertools.count(1)
        self.routes: Dict[int, RouteEntry] = {}
        self._seen_rreqs: Dict[Tuple[int, int], float] = {}
        self._buffers: Dict[int, List[_BufferedPacket]] = {}
        self._discovery_state: Dict[int, Tuple[int, int]] = {}  # dst -> (attempt, ttl)

        # Cross-layer notification hook: called when a data packet this node
        # originated cannot be sent/forwarded (Section 6.2).
        self.on_send_failure: Optional[Callable[[DataPacket], None]] = None

        # Statistics (routing overhead = control transmissions; Section 8).
        self.rreq_sent = 0
        self.rrep_sent = 0
        self.rerr_sent = 0
        self.data_forwarded = 0
        self.data_originated = 0
        self.data_delivered = 0

    # -- public API --------------------------------------------------------

    def control_messages(self) -> int:
        """Total routing-layer control transmissions by this node."""
        return self.rreq_sent + self.rrep_sent + self.rerr_sent

    def has_route(self, dst: int) -> bool:
        entry = self.routes.get(dst)
        return bool(entry and entry.valid and entry.expires > self.sim.now)

    def send_data(
        self,
        dst: int,
        payload: Any,
        on_unroutable: Optional[Callable[[DataPacket], None]] = None,
    ) -> DataPacket:
        """Originate a data packet towards ``dst`` (discovering if needed)."""
        packet = DataPacket(pkt_id=next_packet_id(), src=self.node_id,
                            dst=dst, payload=payload)
        self.data_originated += 1
        if dst == self.node_id:
            self.data_delivered += 1
            self.deliver(payload, packet)
            return packet
        self._route_or_discover(packet, on_unroutable)
        return packet

    # -- receive dispatch ----------------------------------------------------

    def on_payload(self, payload: Any, from_node: int) -> None:
        """Entry point for every network payload handed up by the MAC."""
        if isinstance(payload, RouteRequest):
            self._handle_rreq(payload, from_node)
        elif isinstance(payload, RouteReply):
            self._handle_rrep(payload, from_node)
        elif isinstance(payload, RouteError):
            self._handle_rerr(payload, from_node)
        elif isinstance(payload, DataPacket):
            self._handle_data(payload, from_node)

    # -- data path -----------------------------------------------------------

    def _route_or_discover(
        self,
        packet: DataPacket,
        on_unroutable: Optional[Callable[[DataPacket], None]] = None,
    ) -> None:
        if self.has_route(packet.dst):
            self._forward(packet)
            return
        self._buffers.setdefault(packet.dst, []).append(
            _BufferedPacket(packet=packet, queued_at=self.sim.now,
                            on_unroutable=on_unroutable)
        )
        if packet.dst not in self._discovery_state:
            self._start_discovery(packet.dst)

    def _forward(self, packet: DataPacket) -> None:
        entry = self.routes.get(packet.dst)
        if entry is None or not entry.valid or entry.expires <= self.sim.now:
            self._on_forward_failure(packet)
            return
        entry.expires = self.sim.now + self.params.active_route_timeout
        packet.hop_count += 1
        packet.ttl -= 1
        if packet.ttl <= 0:
            self._on_forward_failure(packet)
            return
        if packet.src != self.node_id:
            self.data_forwarded += 1
        self.mac.send_unicast(
            entry.next_hop,
            packet,
            on_failure=lambda p=packet, nh=entry.next_hop: self._on_link_break(p, nh),
        )

    def _on_link_break(self, packet: DataPacket, next_hop: int) -> None:
        """MAC reported 7 failed retries to ``next_hop``: route is dead."""
        broken = [
            (dst, entry.dst_seq)
            for dst, entry in self.routes.items()
            if entry.valid and entry.next_hop == next_hop
        ]
        for dst, _seq in broken:
            self.routes[dst].valid = False
        if broken:
            self.rerr_sent += 1
            self.mac.send_broadcast(RouteError(unreachable=broken),
                                    payload_bytes=32)
        self._on_forward_failure(packet)

    def _on_forward_failure(self, packet: DataPacket) -> None:
        if packet.src == self.node_id and self.on_send_failure is not None:
            self.on_send_failure(packet)

    def _handle_data(self, packet: DataPacket, _from_node: int) -> None:
        if packet.dst == self.node_id:
            self.data_delivered += 1
            self.deliver(packet.payload, packet)
            return
        self._route_or_discover(packet)

    # -- route discovery -----------------------------------------------------

    def _start_discovery(self, dst: int) -> None:
        self._discovery_state[dst] = (0, self.params.ttl_start)
        self._send_rreq(dst)

    def _send_rreq(self, dst: int) -> None:
        attempt, ttl = self._discovery_state[dst]
        self.seq += 1
        known = self.routes.get(dst)
        rreq = RouteRequest(
            rreq_id=next(self._rreq_id),
            origin=self.node_id,
            origin_seq=self.seq,
            dst=dst,
            dst_seq=known.dst_seq if known else 0,
            hop_count=0,
            ttl=ttl,
        )
        self._seen_rreqs[(self.node_id, rreq.rreq_id)] = self.sim.now
        self.rreq_sent += 1
        self.mac.send_broadcast(rreq, payload_bytes=32)
        wait = max(2 * ttl, 2) * self.params.ring_traversal_time_per_ttl
        self.sim.schedule(wait, self._check_discovery, dst, rreq.rreq_id)

    def _check_discovery(self, dst: int, _rreq_id: int) -> None:
        if dst not in self._discovery_state:
            return
        if self.has_route(dst):
            self._discovery_done(dst)
            return
        attempt, ttl = self._discovery_state[dst]
        if ttl < self.params.ttl_threshold:
            ttl = min(ttl + self.params.ttl_increment, self.params.ttl_threshold)
            self._discovery_state[dst] = (attempt, ttl)
            self._send_rreq(dst)
            return
        if attempt < self.params.rreq_retries:
            self._discovery_state[dst] = (attempt + 1, self.params.net_diameter)
            self._send_rreq(dst)
            return
        # Give up: flush buffered packets as unroutable.
        self._discovery_state.pop(dst, None)
        for buffered in self._buffers.pop(dst, []):
            if buffered.on_unroutable is not None:
                buffered.on_unroutable(buffered.packet)
            elif (buffered.packet.src == self.node_id
                  and self.on_send_failure is not None):
                self.on_send_failure(buffered.packet)

    def _discovery_done(self, dst: int) -> None:
        self._discovery_state.pop(dst, None)
        now = self.sim.now
        pending = self._buffers.pop(dst, [])
        for buffered in pending:
            if now - buffered.queued_at <= self.params.buffer_timeout:
                self._forward(buffered.packet)

    def _update_route(self, dst: int, next_hop: int, hop_count: int,
                      dst_seq: int) -> None:
        now = self.sim.now
        entry = self.routes.get(dst)
        fresher = (
            entry is None
            or not entry.valid
            or entry.expires <= now
            or dst_seq > entry.dst_seq
            or (dst_seq == entry.dst_seq and hop_count < entry.hop_count)
        )
        if fresher:
            self.routes[dst] = RouteEntry(
                next_hop=next_hop,
                hop_count=hop_count,
                dst_seq=dst_seq,
                expires=now + self.params.active_route_timeout,
            )
            if dst in self._discovery_state:
                self._discovery_done(dst)

    def _handle_rreq(self, rreq: RouteRequest, from_node: int) -> None:
        key = (rreq.origin, rreq.rreq_id)
        if key in self._seen_rreqs:
            return
        self._seen_rreqs[key] = self.sim.now
        if len(self._seen_rreqs) > 8192:
            horizon = self.sim.now - 30.0
            self._seen_rreqs = {
                k: v for k, v in self._seen_rreqs.items() if v >= horizon
            }
        hops_here = rreq.hop_count + 1
        self._update_route(rreq.origin, from_node, hops_here, rreq.origin_seq)
        # Also learn the one-hop route to the forwarder.
        self._update_route(from_node, from_node, 1, 0)

        if rreq.dst == self.node_id:
            self.seq = max(self.seq, rreq.dst_seq) + 1
            self._send_rrep_towards(rreq.origin, dst=self.node_id,
                                    dst_seq=self.seq, hop_count=0)
            return
        entry = self.routes.get(rreq.dst)
        if (entry and entry.valid and entry.expires > self.sim.now
                and entry.dst_seq >= rreq.dst_seq and entry.dst_seq > 0):
            self._send_rrep_towards(rreq.origin, dst=rreq.dst,
                                    dst_seq=entry.dst_seq,
                                    hop_count=entry.hop_count)
            return
        if rreq.ttl > 1:
            fwd = RouteRequest(
                rreq_id=rreq.rreq_id, origin=rreq.origin,
                origin_seq=rreq.origin_seq, dst=rreq.dst,
                dst_seq=rreq.dst_seq, hop_count=hops_here, ttl=rreq.ttl - 1,
            )
            self.rreq_sent += 1
            self.mac.send_broadcast(fwd, payload_bytes=32)

    def _send_rrep_towards(self, origin: int, dst: int, dst_seq: int,
                           hop_count: int) -> None:
        entry = self.routes.get(origin)
        if entry is None or not entry.valid:
            return
        rrep = RouteReply(origin=origin, dst=dst, dst_seq=dst_seq,
                          hop_count=hop_count,
                          lifetime=self.params.active_route_timeout)
        self.rrep_sent += 1
        self.mac.send_unicast(entry.next_hop, rrep, payload_bytes=24)

    def _handle_rrep(self, rrep: RouteReply, from_node: int) -> None:
        hops_here = rrep.hop_count + 1
        self._update_route(rrep.dst, from_node, hops_here, rrep.dst_seq)
        self._update_route(from_node, from_node, 1, 0)
        if rrep.origin == self.node_id:
            return
        entry = self.routes.get(rrep.origin)
        if entry is None or not entry.valid:
            return
        fwd = RouteReply(origin=rrep.origin, dst=rrep.dst,
                         dst_seq=rrep.dst_seq, hop_count=hops_here,
                         lifetime=rrep.lifetime)
        self.rrep_sent += 1
        self.mac.send_unicast(entry.next_hop, fwd, payload_bytes=24)

    def _handle_rerr(self, rerr: RouteError, from_node: int) -> None:
        invalidated: List[Tuple[int, int]] = []
        for dst, dst_seq in rerr.unreachable:
            entry = self.routes.get(dst)
            if entry and entry.valid and entry.next_hop == from_node:
                entry.valid = False
                invalidated.append((dst, max(entry.dst_seq, dst_seq)))
        if invalidated:
            self.rerr_sent += 1
            self.mac.send_broadcast(RouteError(unreachable=invalidated),
                                    payload_bytes=32)
