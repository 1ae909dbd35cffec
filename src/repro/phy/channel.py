"""Wireless channel models.

Two receivers are implemented, mirroring Section 2.3 of the paper:

* ``SINRChannel`` — the *physical model*: a frame is decoded iff its
  received power clears RXThresh and the signal-to-interference-plus-noise
  ratio clears beta, with cumulative interference from every overlapping
  transmission plus thermal noise (the "RadioNoiseAdditive" model of
  JiST/SWANS, with capture effect).
* ``ProtocolChannel`` — the *protocol model*: a frame from X_i is received
  by X_j iff |X_i - X_j| <= r and no other simultaneous transmitter X_k has
  |X_k - X_j| <= (1 + delta) * r.

Both are half-duplex: a node transmitting during any part of a frame's
airtime cannot receive that frame.

Both stand on one **on-air ledger** (``_Channel._on_air``): every
transmission that a frame still waiting to resolve, or a frame yet to be
sent, can overlap, in transmit order.  Carrier sense reads the entries
still on the air; a resolving frame filters the ledger once for what
overlapped it and hands that to the model's ``_receive``.  Transmit
order is part of the contract: the SINR interference sum is a float sum
over the ledger's order, so the ledger is only ever filtered, never
sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol

from repro.geometry.space import Point
from repro.phy.params import PhyParams
from repro.phy.pathloss import PathLossModel, default_pathloss
from repro.sim.kernel import Simulator


class NodeEnvironment(Protocol):
    """What the channel needs to know about the deployed nodes."""

    def position_of(self, node_id: int) -> Point:
        """Current position of a node."""
        ...

    def nodes_near(self, pos: Point, radius: float) -> List[int]:
        """Ids of alive nodes within ``radius`` of ``pos``."""
        ...

    def is_alive(self, node_id: int) -> bool:
        """Whether the node is powered on."""
        ...

    def distance(self, a: Point, b: Point) -> float:
        """Distance respecting the deployment metric (plane or torus)."""
        ...


@dataclass
class Transmission:
    """An in-flight (or recently completed) frame on the air."""

    tx_id: int
    sender: int
    sender_pos: Point
    start: float
    end: float
    power_mw: float
    frame: Any


FrameCallback = Callable[[int, Any, float], None]
# (receiver_id, frame, rx_power_mw) -> None


class _Channel:
    """Receivers, frame counters and the on-air ledger of both models."""

    def __init__(self, sim: Simulator, env: NodeEnvironment,
                 params: Optional[PhyParams]) -> None:
        self.sim = sim
        self.env = env
        self.params = params or PhyParams()
        self._receivers: Dict[int, FrameCallback] = {}
        self._on_air: List[Transmission] = []
        self._next_tx_id = 0
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost_collision = 0
        self.frames_lost_weak = 0

    def attach(self, node_id: int, on_frame: FrameCallback) -> None:
        """Register a node's receive callback."""
        self._receivers[node_id] = on_frame

    def detach(self, node_id: int) -> None:
        self._receivers.pop(node_id, None)

    def is_transmitting(self, node_id: int) -> bool:
        now = self.sim.now
        return any(tx.sender == node_id and tx.end > now
                   for tx in self._on_air)

    def transmit(self, sender: int, frame: Any, duration: float) -> Transmission:
        """Put a frame on the air; reception resolves after ``duration``."""
        now = self.sim.now
        self._prune(now)
        tx = Transmission(
            tx_id=self._next_tx_id,
            sender=sender,
            sender_pos=self.env.position_of(sender),
            start=now,
            end=now + duration,
            power_mw=self.params.tx_power_mw,
            frame=frame,
        )
        self._next_tx_id += 1
        self._on_air.append(tx)
        self.frames_sent += 1
        self.sim.schedule(duration, self._resolve, tx)
        return tx

    def _prune(self, now: float) -> None:
        """Forget what no pending or future frame can overlap.

        A frame resolves at its own ``end`` against whatever overlapped
        it, so the ledger must keep exactly what ends after the earliest
        start still waiting to resolve.  A frame ending right ``now``
        may not have resolved yet and counts as waiting, so the kept set
        is always a superset of what the overlap predicate can select.
        """
        horizon = min((t.start for t in self._on_air if t.end >= now),
                      default=now)
        self._on_air = [t for t in self._on_air if t.end > horizon]

    def _resolve(self, tx: Transmission) -> None:
        """Hand the frame and what overlapped it to the reception model."""
        self._prune(self.sim.now)
        self._receive(tx, [
            other
            for other in self._on_air
            if other.tx_id != tx.tx_id
            and other.start < tx.end
            and other.end > tx.start
        ])

    def _receive(self, tx: Transmission,
                 interferers: List[Transmission]) -> None:
        raise NotImplementedError


class SINRChannel(_Channel):
    """Cumulative-noise SINR channel with capture effect.

    Reception is evaluated at the end of each frame's airtime: the frame is
    delivered to every alive node within hearing distance whose SINR
    (signal / (thermal noise + sum of overlapping interferers)) is at least
    ``params.sinr_thresh`` and whose received power is at least RXThresh.
    """

    def __init__(
        self,
        sim: Simulator,
        env: NodeEnvironment,
        params: Optional[PhyParams] = None,
        pathloss: Optional[PathLossModel] = None,
    ) -> None:
        super().__init__(sim, env, params)
        self.pathloss = pathloss or default_pathloss(self.params)

    def carrier_busy(self, node_id: int) -> bool:
        """True if cumulative on-air power at the node clears CSThresh."""
        now = self.sim.now
        self._prune(now)
        # Asking for a position advances waypoint legs (one shared RNG
        # stream), so it is asked only while something is on the air.
        if not any(tx.end > now for tx in self._on_air):
            return False
        pos = self.env.position_of(node_id)
        total = 0.0
        for tx in self._on_air:
            if tx.end <= now or tx.sender == node_id:
                continue
            dist = self.env.distance(tx.sender_pos, pos)
            total += self.pathloss.received_power_mw(tx.power_mw, dist)
            if total >= self.params.cs_thresh_mw:
                return True
        return False

    def _receive(self, tx: Transmission,
                 interferers: List[Transmission]) -> None:
        """Deliver the frame to every receiver whose SINR clears beta."""
        hearing_range = self.params.carrier_sense_range_m * 1.5
        busy_senders = {o.sender for o in interferers} | {tx.sender}
        candidates = self.env.nodes_near(tx.sender_pos, hearing_range)
        for rx in candidates:
            if rx == tx.sender or rx not in self._receivers:
                continue
            if not self.env.is_alive(rx):
                continue
            if rx in busy_senders:
                # Half duplex: a node transmitting during the frame misses it.
                continue
            rx_pos = self.env.position_of(rx)
            signal = self.pathloss.received_power_mw(
                tx.power_mw, self.env.distance(tx.sender_pos, rx_pos)
            )
            if signal < self.params.rx_thresh_mw:
                self.frames_lost_weak += 1
                continue
            interference = 0.0
            for other in interferers:
                interference += self.pathloss.received_power_mw(
                    other.power_mw, self.env.distance(other.sender_pos, rx_pos)
                )
            sinr = signal / (self.params.noise_mw + interference)
            if sinr < self.params.sinr_thresh:
                self.frames_lost_collision += 1
                continue
            self.frames_delivered += 1
            self._receivers[rx](rx, tx.frame, signal)


class ProtocolChannel(_Channel):
    """Unit-disk protocol-model channel (Section 2.3).

    A frame reaches every alive node within ``range_m``, unless another
    simultaneous transmitter sits within ``(1 + delta) * range_m`` of that
    receiver (interference), in which case the frame is lost at that
    receiver.
    """

    def __init__(
        self,
        sim: Simulator,
        env: NodeEnvironment,
        range_m: float = 200.0,
        delta: float = 0.0,
        params: Optional[PhyParams] = None,
    ) -> None:
        if range_m <= 0:
            raise ValueError("range must be positive")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        super().__init__(sim, env, params)
        self.range_m = range_m
        self.delta = delta

    def carrier_busy(self, node_id: int) -> bool:
        now = self.sim.now
        self._prune(now)
        pos = self.env.position_of(node_id)
        sense_range = self.range_m * (1.0 + self.delta)
        for tx in self._on_air:
            if tx.sender == node_id or tx.end <= now:
                continue
            if self.env.distance(tx.sender_pos, pos) <= sense_range:
                return True
        return False

    def _receive(self, tx: Transmission,
                 interferers: List[Transmission]) -> None:
        busy_senders = {o.sender for o in interferers} | {tx.sender}
        guard = self.range_m * (1.0 + self.delta)
        for rx in self.env.nodes_near(tx.sender_pos, self.range_m):
            if rx == tx.sender or rx not in self._receivers:
                continue
            if not self.env.is_alive(rx) or rx in busy_senders:
                continue
            rx_pos = self.env.position_of(rx)
            collided = any(
                self.env.distance(o.sender_pos, rx_pos) <= guard
                for o in interferers
            )
            if collided:
                self.frames_lost_collision += 1
                continue
            self.frames_delivered += 1
            self._receivers[rx](rx, tx.frame, self.params.rx_thresh_mw)
