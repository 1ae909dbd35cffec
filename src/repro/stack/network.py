"""Packet-level ad hoc network: PHY + MAC + AODV + flooding, end to end.

This is the high-fidelity counterpart of :mod:`repro.simnet` — it runs the
full stack (SINR or protocol-model radio, CSMA/CA MAC with acked unicast
and retry/backoff, AODV routing, TTL flooding) for each node.  It is used
to validate the graph-level simulator on small networks and to exercise
the substrate implementations under collisions and contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.geometry.space import area_side_for_density
from repro.mobility.models import (
    MobilityManager,
    RandomWaypoint,
    StaticPlacement,
)
from repro.phy.channel import ProtocolChannel, SINRChannel
from repro.phy.params import PhyParams
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.stack.environment import StackEnvironment
from repro.stack.node import StackNode


@dataclass
class StackConfig:
    """Deployment parameters for the packet-level network."""

    n: int = 20
    avg_degree: float = 10.0
    seed: int = 0
    mobility: str = "static"  # "static" | "waypoint"
    min_speed: float = 0.5
    max_speed: float = 2.0
    pause_time: float = 30.0
    channel: str = "sinr"  # "sinr" | "protocol"
    torus: bool = False

    @property
    def side(self) -> float:
        return area_side_for_density(self.n, PhyParams().ideal_range_m,
                                     self.avg_degree)


class AdhocStack:
    """A deployed packet-level network of :class:`StackNode` instances."""

    def __init__(self, config: StackConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        self.phy_params = PhyParams()
        side = config.side

        if config.mobility == "waypoint":
            model = RandomWaypoint(side=side, min_speed=config.min_speed,
                                   max_speed=config.max_speed,
                                   pause_time=config.pause_time,
                                   rng=self.rngs.stream("mobility"))
            max_speed = config.max_speed
        else:
            model = StaticPlacement(side, rng=self.rngs.stream("placement"))
            max_speed = 0.0
        self.env = StackEnvironment(
            self.sim, MobilityManager(model), side=side, torus=config.torus,
            max_speed=max_speed,
        )

        if config.channel == "sinr":
            self.channel = SINRChannel(self.sim, self.env,
                                       params=self.phy_params)
        elif config.channel == "protocol":
            self.channel = ProtocolChannel(
                self.sim, self.env,
                range_m=self.phy_params.ideal_range_m,
                params=self.phy_params)
        else:
            raise ValueError(f"unknown channel model {config.channel!r}")

        self.nodes: Dict[int, StackNode] = {}
        self.received: List[Tuple[int, Any, int]] = []  # (dst, payload, src)
        for i in range(config.n):
            self._add_node(i)

    def _add_node(self, node_id: int) -> StackNode:
        self.env.add_node(node_id)
        node = StackNode(
            self.sim, self.channel, node_id,
            rng=self.rngs.stream(f"node:{node_id}"),
            app_handler=lambda payload, src, nid=node_id:
                self.received.append((nid, payload, src)),
        )
        self.nodes[node_id] = node
        return node

    # -- control -----------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the packet-level simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    def crash(self, node_id: int) -> None:
        """Crash a node mid-run."""
        self.nodes[node_id].shutdown()
        self.env.remove_node(node_id)

    def send(self, src: int, dst: int, payload: Any) -> None:
        self.nodes[src].send(dst, payload)

    def flood(self, src: int, payload: Any, ttl: int) -> None:
        self.nodes[src].flood(payload, ttl)

    # -- metrics ----------------------------------------------------------------

    def delivered_to(self, node_id: int) -> List[Tuple[Any, int]]:
        """(payload, src) pairs delivered to ``node_id``'s application."""
        return [(p, s) for (d, p, s) in self.received if d == node_id]

    def total_control_messages(self) -> int:
        return sum(node.aodv.control_messages() for node in self.nodes.values())

    def total_mac_frames(self) -> int:
        return self.channel.frames_sent
