"""TTL-scoped network flooding (Section 4.4).

A flood starts at an originating node with a time-to-live; each node that
receives the packet for the first time delivers the payload to the
application, decrements the TTL, and (if it stays positive) rebroadcasts
after a random jitter.  Works over any object exposing the MAC broadcast
interface.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.mac.csma import MacLayer, RecentKeys
from repro.net.packet import FloodPacket, next_packet_id
from repro.sim.kernel import Simulator


class FloodingAgent:
    """Per-node limited-scope flooding entity."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacLayer,
        node_id: int,
        deliver: Callable[[Any, FloodPacket], None],
        *,
        rng: random.Random,
    ) -> None:
        self.sim = sim
        self.mac = mac
        self.node_id = node_id
        self.deliver = deliver
        self.rng = rng
        self._seen = RecentKeys(60.0)  # pkt_id
        self.floods_originated = 0
        self.rebroadcasts = 0

    def originate(self, payload: Any, ttl: int) -> FloodPacket:
        """Start a flood from this node; the originator also delivers."""
        if ttl < 1:
            raise ValueError("flood TTL must be >= 1")
        packet = FloodPacket(pkt_id=next_packet_id(), origin=self.node_id,
                             payload=payload, ttl=ttl)
        self._seen.note(packet.pkt_id, self.sim.now)
        self.floods_originated += 1
        self.deliver(payload, packet)
        self.mac.send_broadcast(packet)
        return packet

    def on_payload(self, payload: Any, _from_node: int) -> None:
        """Handle a flood packet heard from a neighbor."""
        if not isinstance(payload, FloodPacket):
            return
        packet = payload
        if packet.pkt_id in self._seen:
            return
        self._seen.note(packet.pkt_id, self.sim.now)
        self.deliver(packet.payload, packet)
        if packet.ttl - 1 > 0:
            fwd = FloodPacket(pkt_id=packet.pkt_id, origin=packet.origin,
                              payload=packet.payload, ttl=packet.ttl - 1,
                              hop_count=packet.hop_count + 1)
            self.rebroadcasts += 1
            self.mac.send_broadcast(fwd)
