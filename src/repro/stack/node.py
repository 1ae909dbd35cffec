"""A full protocol stack instance for one node: MAC + AODV + flooding + app."""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.mac.csma import MacLayer
from repro.net.aodv import AodvAgent, AodvTotals
from repro.net.flooding import FloodingAgent
from repro.net.packet import DataPacket, FloodPacket
from repro.sim.kernel import Simulator

AppHandler = Callable[[Any, int], None]  # (payload, src_node)


class StackNode:
    """One node's networking stack.

    Dispatches MAC deliveries to AODV (routing control + routed data) and
    the flooding agent; routed/flooded application payloads reach the
    ``app_handler``.  ``aodv_totals`` is the stack-wide sum this node's
    AODV counters add to.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Any,
        node_id: int,
        *,
        rng: random.Random,
        aodv_totals: AodvTotals,
        app_handler: Optional[AppHandler] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.app_handler = app_handler
        self.mac = MacLayer(sim, channel, node_id, deliver=self._dispatch,
                            rng=rng)
        self.aodv = AodvAgent(sim, self.mac, node_id,
                              deliver=self._deliver_routed,
                              rng=rng, totals=aodv_totals)
        self.flooder = FloodingAgent(sim, self.mac, node_id,
                                     deliver=self._deliver_flooded, rng=rng)
        self.alive = True
        #: Hook for payloads that are neither routing control nor routed
        #: data nor floods (e.g. HELLO beacons, one-hop protocol frames).
        #: Signature: (payload, from_node) -> None.
        self.raw_handler: Optional[Callable[[Any, int], None]] = None
        # Exact payload type -> handler: one lookup per delivered frame
        # reaches the AODV or flooding handler itself.
        self._handlers = dict(self.aodv.handlers)
        self._handlers[FloodPacket] = self.flooder.on_payload

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, payload: Any, from_node: int) -> None:
        if not self.alive:
            return
        handler = self._handlers.get(type(payload))
        if handler is not None:
            handler(payload, from_node)
        elif self.raw_handler is not None:
            self.raw_handler(payload, from_node)

    def _deliver_routed(self, payload: Any, packet: DataPacket) -> None:
        if self.app_handler is not None:
            self.app_handler(payload, packet.src)

    def _deliver_flooded(self, payload: Any, packet: FloodPacket) -> None:
        if self.app_handler is not None:
            self.app_handler(payload, packet.origin)

    # -- sending ------------------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        """Send an application payload via AODV routing."""
        self.aodv.send_data(dst, payload)

    def flood(self, payload: Any, ttl: int) -> None:
        """Start a TTL-scoped flood of an application payload."""
        self.flooder.originate(payload, ttl)

    def shutdown(self) -> None:
        """Crash the node: silence its MAC and drop its state."""
        self.alive = False
        self.mac.shutdown()
