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

A frame resolves from **link rows**.  A row is one transmitter's link
(position and transmit power) to every alive node of the environment's
position snapshot: the distances in one array pass and, from them, what
the model reads — for SINR the received power at every node and which
nodes in hearing range clear RXThresh and which do not, for the protocol
model the nodes within range and within the guard zone.  Rows are cached per snapshot version, so on a static network each
sender's row is built once; a new snapshot (a join, a crash, or under
mobility a new ``sim.now``) drops them all.  ``_receive`` visits the
frame's candidates in ascending id and reads interferers' rows in ledger
order; it makes no per-candidate position, distance or path-loss call.
Carrier sense stays scalar, with the same arithmetic as the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Set, Tuple

import numpy as np

from repro.geometry.space import Point
from repro.phy.params import PhyParams
from repro.phy.pathloss import default_pathloss
from repro.sim.kernel import Simulator


class NodeEnvironment(Protocol):
    """What the channel needs to know about the deployed nodes."""

    def position_of(self, node_id: int) -> Point:
        """Current position of a node."""
        ...

    def distance(self, a: Point, b: Point) -> float:
        """Distance respecting the deployment metric (plane or torus)."""
        ...

    def snapshot(self) -> Any:
        """The alive nodes now: ascending ``ids``, their ``points``, and
        a ``version`` that moves whenever those may have changed."""
        ...

    def distances(self, pos: Point, points: np.ndarray) -> np.ndarray:
        """:meth:`distance` from ``pos`` to every row, equal with ``==``."""
        ...


@dataclass(slots=True)
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
        self._rows: Dict[Tuple[Point, float], Any] = {}
        self._rows_version: Optional[int] = None

    def attach(self, node_id: int, on_frame: FrameCallback) -> None:
        """Register a node's receive callback."""
        self._receivers[node_id] = on_frame
        self._rows_version = None  # rows list attached nodes

    def detach(self, node_id: int) -> None:
        self._receivers.pop(node_id, None)
        self._rows_version = None

    def is_transmitting(self, node_id: int) -> bool:
        now = self.sim.now
        for tx in self._on_air:
            if tx.sender == node_id and tx.end > now:
                return True
        return False

    def transmit(self, sender: int, frame: Any, duration: float) -> Transmission:
        """Put a frame on the air; reception resolves after ``duration``."""
        now = self.sim.now
        self._prune(now)
        tx = Transmission(self._next_tx_id, sender,
                          self.env.position_of(sender), now, now + duration,
                          self.params.tx_power_mw, frame)
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
        The clock never runs backwards, so starts do not decrease along
        the ledger and the first waiting entry has the earliest start.
        """
        on_air = self._on_air
        horizon = now
        for t in on_air:
            if t.end >= now:
                horizon = t.start
                break
        for t in on_air:
            if t.end <= horizon:
                self._on_air = [t for t in on_air if t.end > horizon]
                return

    def _resolve(self, tx: Transmission) -> None:
        """Hand the frame and what overlapped it to the reception model."""
        self._prune(self.sim.now)
        # Starts do not decrease along the ledger: past the first entry
        # that starts at or after this frame's end, none can overlap it.
        start, end, tx_id = tx.start, tx.end, tx.tx_id
        overlapping = []
        for other in self._on_air:
            if other.start >= end:
                break
            if other.end > start and other.tx_id != tx_id:
                overlapping.append(other)
        self._receive(tx, overlapping)

    def _row(self, sender_pos: Point, power_mw: float) -> Any:
        """The link row of a transmitter at ``sender_pos``, built at most
        once per position snapshot."""
        snap = self.env.snapshot()
        if snap.version != self._rows_version:
            self._rows = {}
            self._rows_version = snap.version
        key = (sender_pos, power_mw)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self._link_row(
                snap.ids, self.env.distances(sender_pos, snap.points),
                power_mw)
        return row

    def _link_row(self, ids: np.ndarray, distances: np.ndarray,
                  power_mw: float) -> Any:
        raise NotImplementedError

    def _receive(self, tx: Transmission,
                 interferers: List[Transmission]) -> None:
        raise NotImplementedError


@dataclass
class _GainRow:
    """SINR link row: received power at each snapshot index; the
    ``(index, node)`` pairs within hearing range that clear RXThresh,
    ascending id; and the attached nodes within hearing range that do
    not (rows are dropped when a node attaches or detaches)."""

    power_mw: List[float]
    strong: List[Tuple[int, int]]
    weak: Set[int]


@dataclass
class _DiskRow:
    """Protocol-model link row: nodes within range (ascending id) and the
    set within the interference guard zone."""

    in_range: List[int]
    guard: Set[int]


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
    ) -> None:
        super().__init__(sim, env, params)
        self.pathloss = default_pathloss(self.params)

    def carrier_busy(self, node_id: int) -> bool:
        """True if cumulative on-air power at the node clears CSThresh."""
        now = self.sim.now
        self._prune(now)
        on_air = self._on_air
        # Asking for a position advances waypoint legs (one shared RNG
        # stream), so it is asked only while something is on the air.
        for tx in on_air:
            if tx.end > now:
                break
        else:
            return False
        pos = self.env.position_of(node_id)
        distance = self.env.distance
        received = self.pathloss.received_power_mw
        cs_thresh = self.params.cs_thresh_mw
        total = 0.0
        for tx in on_air:
            if tx.end <= now or tx.sender == node_id:
                continue
            total += received(tx.power_mw, distance(tx.sender_pos, pos))
            if total >= cs_thresh:
                return True
        return False

    def _link_row(self, ids: np.ndarray, distances: np.ndarray,
                  power_mw: float) -> _GainRow:
        power = self.pathloss.received_power_row(power_mw, distances)
        heard = distances <= self.params.carrier_sense_range_m * 1.5
        clears = power >= self.params.rx_thresh_mw
        strong = np.flatnonzero(heard & clears)
        return _GainRow(
            power_mw=power.tolist(),
            strong=list(zip(strong.tolist(), ids[strong].tolist())),
            weak=set(ids[heard & ~clears].tolist()).intersection(
                self._receivers))

    def _receive(self, tx: Transmission,
                 interferers: List[Transmission]) -> None:
        """Deliver the frame to every receiver whose SINR clears beta."""
        row = self._row(tx.sender_pos, tx.power_mw)
        # Interferers' powers, in ledger order: the sum below is a float
        # sum, so its order is part of the result.
        noise_rows = [self._row(o.sender_pos, o.power_mw).power_mw
                      for o in interferers]
        # Half duplex: a node transmitting during the frame misses it.
        busy_senders = {o.sender for o in interferers}
        busy_senders.add(tx.sender)
        weak = row.weak
        self.frames_lost_weak += len(weak) - len(weak.intersection(busy_senders))
        receivers = self._receivers
        params = self.params
        noise = params.noise_mw
        sinr_thresh = params.sinr_thresh
        power = row.power_mw
        frame = tx.frame
        for i, rx in row.strong:
            if rx in busy_senders or rx not in receivers:
                continue
            signal = power[i]
            interference = 0.0
            for other in noise_rows:
                interference += other[i]
            if signal / (noise + interference) < sinr_thresh:
                self.frames_lost_collision += 1
                continue
            self.frames_delivered += 1
            receivers[rx](rx, frame, signal)


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

    def _link_row(self, ids: np.ndarray, distances: np.ndarray,
                  power_mw: float) -> _DiskRow:
        guard = self.range_m * (1.0 + self.delta)
        return _DiskRow(in_range=ids[distances <= self.range_m].tolist(),
                        guard=set(ids[distances <= guard].tolist()))

    def _receive(self, tx: Transmission,
                 interferers: List[Transmission]) -> None:
        row = self._row(tx.sender_pos, tx.power_mw)
        guards = [self._row(o.sender_pos, o.power_mw).guard
                  for o in interferers]
        busy_senders = {o.sender for o in interferers} | {tx.sender}
        receivers = self._receivers
        for rx in row.in_range:
            if rx in busy_senders or rx not in receivers:
                continue
            if any(rx in guard for guard in guards):
                self.frames_lost_collision += 1
                continue
            self.frames_delivered += 1
            receivers[rx](rx, tx.frame, self.params.rx_thresh_mw)
