"""CSMA/CA MAC layer (802.11 DCF style).

Implements the MAC semantics the paper's protocols depend on (Sections 2.4
and 6.2):

* carrier sensing with DIFS + slotted random backoff (slot 20 us, DIFS 50 us,
  the paper's Figure 2 values);
* unicast frames are acknowledged; up to 7 retransmissions with binary
  exponential backoff, after which the MAC *notifies the upper layer* of the
  failure instead of dropping silently (the cross-layer notification design
  of Section 6.2 that enables RW salvation and reply-path repair);
* broadcast frames are unacknowledged, sent at the low broadcast rate, and
  delayed by a random jitter (10 ms, RFC 5148) to avoid synchronized
  rebroadcast collisions;
* an optional promiscuous hook overhears every decodable frame (Section 7.2).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional, Tuple
from collections import deque

from repro.sim.kernel import Event, Simulator

BROADCAST = -1

#: Size past which a :class:`RecentKeys` table first forgets old keys.
PRUNE_AT = 8192


class RecentKeys(dict):
    """A dedupe table: key -> the simulated time it was first seen.

    :meth:`note` records a key.  Once the table holds more than
    ``limit`` keys it forgets those older than ``window`` seconds, and the
    next limit is twice what is left (never below :data:`PRUNE_AT`), so
    pruning costs O(1) amortised per key even when every key is recent.
    A key younger than ``window`` is never forgotten.
    """

    __slots__ = ("window", "limit")

    def __init__(self, window: float) -> None:
        super().__init__()
        self.window = window
        self.limit = PRUNE_AT

    def note(self, key: Any, now: float) -> None:
        """Record ``key`` as seen at ``now``."""
        self[key] = now
        if len(self) > self.limit:
            horizon = now - self.window
            kept = [(k, t) for k, t in self.items() if t >= horizon]
            self.clear()
            self.update(kept)
            self.limit = max(PRUNE_AT, 2 * len(kept))


@dataclass(frozen=True)
class MacParams:
    """802.11 DCF timing parameters (paper Figure 2, MAC section)."""

    slot_time: float = 20e-6
    difs: float = 50e-6
    sifs: float = 10e-6
    cw_min: int = 31
    cw_max: int = 1023
    retry_limit: int = 7
    ack_bytes: int = 14
    broadcast_jitter: float = 10e-3
    ack_timeout_guard: float = 100e-6


@dataclass(slots=True)
class MacFrame:
    """A frame on the air: DATA or ACK."""

    kind: str  # "data" | "ack"
    src: int
    dst: int  # BROADCAST for broadcast data
    seq: int
    payload: Any = None
    retry: int = 0


@dataclass(slots=True)
class _OutgoingJob:
    dst: int
    payload: Any
    payload_bytes: int
    on_success: Optional[Callable[[], None]]
    on_failure: Optional[Callable[[], None]]
    seq: int = 0
    retry: int = 0


class MacLayer:
    """Per-node MAC entity.

    Upper layers call :meth:`send_unicast` / :meth:`send_broadcast`; the MAC
    serialises frames through a FIFO queue, performs CSMA/CA and retries,
    and invokes ``deliver`` for every frame addressed to (or broadcast at)
    this node.  Set :attr:`promiscuous` to also receive overheard frames via
    ``on_overhear``.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Any,
        node_id: int,
        deliver: Callable[[Any, int], None],
        *,
        rng: random.Random,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.node_id = node_id
        self.deliver = deliver
        self.params = MacParams()
        self.rng = rng
        self.promiscuous = False
        self.on_overhear: Optional[Callable[[Any, int, int], None]] = None

        self._queue: Deque[_OutgoingJob] = deque()
        self._current: Optional[_OutgoingJob] = None
        self._seq = itertools.count()
        self._pending_ack: Optional[Tuple[int, Event]] = None  # (seq, timeout)
        self._attempt_event: Optional[Event] = None
        self._seen_data = RecentKeys(30.0)  # dedupe (src, seq)
        self.alive = True

        # Statistics
        self.data_sent = 0
        self.acks_sent = 0
        self.retries = 0
        self.failures = 0
        self.delivered_up = 0

        channel.attach(node_id, self._on_frame)

    # -- upper-layer API ---------------------------------------------------

    def send_unicast(
        self,
        dst: int,
        payload: Any,
        payload_bytes: int = 512,
        on_success: Optional[Callable[[], None]] = None,
        on_failure: Optional[Callable[[], None]] = None,
    ) -> None:
        """Queue a unicast frame; exactly one of the callbacks fires later."""
        if dst == self.node_id:
            raise ValueError("cannot unicast to self")
        job = _OutgoingJob(dst, payload, payload_bytes, on_success,
                           on_failure, next(self._seq))
        self._queue.append(job)
        self._kick()

    def send_broadcast(self, payload: Any, payload_bytes: int = 512) -> None:
        """Queue a broadcast frame (fire and forget, jittered)."""
        job = _OutgoingJob(BROADCAST, payload, payload_bytes, None, None,
                           next(self._seq))
        self._queue.append(job)
        self._kick()

    def shutdown(self) -> None:
        """Power off: detach from the channel and drop queued frames."""
        self.alive = False
        self.channel.detach(self.node_id)
        if self._attempt_event is not None:
            self._attempt_event.cancel()
        if self._pending_ack is not None:
            self._pending_ack[1].cancel()
        self._queue.clear()
        self._current = None

    # -- queue machinery -----------------------------------------------------

    def _kick(self) -> None:
        if not self.alive or self._current is not None or not self._queue:
            return
        self._current = self._queue.popleft()
        self._schedule_attempt(first=True)

    def _contention_window(self, retry: int) -> int:
        cw = (self.params.cw_min + 1) * (2 ** retry) - 1
        return min(cw, self.params.cw_max)

    def _schedule_attempt(self, first: bool = False) -> None:
        job = self._current
        if job is None or not self.alive:
            return
        backoff_slots = self.rng.randint(0, self._contention_window(job.retry))
        delay = self.params.difs + backoff_slots * self.params.slot_time
        if job.dst == BROADCAST and first:
            delay += self.rng.uniform(0, self.params.broadcast_jitter)
        self._attempt_event = self.sim.schedule(delay, self._attempt)

    def _attempt(self) -> None:
        job = self._current
        if job is None or not self.alive:
            return
        if self.channel.carrier_busy(self.node_id) or self.channel.is_transmitting(self.node_id):
            # Medium busy: back off again (simplified DCF freeze).
            self._schedule_attempt()
            return
        frame = MacFrame("data", self.node_id, job.dst, job.seq,
                         job.payload, job.retry)
        broadcast = job.dst == BROADCAST
        duration = self.channel.params.tx_duration(job.payload_bytes,
                                                   broadcast=broadcast)
        self.channel.transmit(self.node_id, frame, duration)
        self.data_sent += 1
        if broadcast:
            self._current = None
            self._kick()
            return
        # Await an ACK.
        ack_air = self.channel.params.tx_duration(self.params.ack_bytes)
        timeout = (duration + self.params.sifs + ack_air
                   + self.params.ack_timeout_guard)
        ev = self.sim.schedule(timeout, self._on_ack_timeout, job.seq)
        self._pending_ack = (job.seq, ev)

    def _on_ack_timeout(self, seq: int) -> None:
        job = self._current
        if job is None or job.seq != seq:
            return
        self._pending_ack = None
        if job.retry >= self.params.retry_limit:
            self.failures += 1
            self._current = None
            if job.on_failure is not None:
                job.on_failure()
            self._kick()
            return
        job.retry += 1
        self.retries += 1
        self._schedule_attempt()

    # -- receive path ----------------------------------------------------

    def _on_frame(self, _rx_id: int, frame: MacFrame, _rx_power: float) -> None:
        # Every decodable frame at every attached node comes through
        # here: one pass over kind and destination, then the dedupe.
        if not self.alive:
            return
        dst = frame.dst
        if frame.kind == "ack":
            if dst == self.node_id:
                self._handle_ack(frame)
            return
        if dst == self.node_id:
            self._send_ack(frame)
        elif dst != BROADCAST:
            if self.promiscuous and self.on_overhear is not None:
                self.on_overhear(frame.payload, frame.src, dst)
            return
        key = (frame.src, frame.seq)
        seen = self._seen_data
        if key in seen:
            return
        seen.note(key, self.sim.now)
        self.delivered_up += 1
        self.deliver(frame.payload, frame.src)

    def _send_ack(self, frame: MacFrame) -> None:
        ack = MacFrame("ack", self.node_id, frame.src, frame.seq)
        duration = self.channel.params.tx_duration(self.params.ack_bytes)
        self.sim.schedule(self.params.sifs, self._transmit_ack, ack, duration)
        self.acks_sent += 1

    def _transmit_ack(self, ack: MacFrame, duration: float) -> None:
        if self.alive:
            self.channel.transmit(self.node_id, ack, duration)

    def _handle_ack(self, frame: MacFrame) -> None:
        job = self._current
        if job is None or self._pending_ack is None:
            return
        seq, ev = self._pending_ack
        if frame.seq != seq:
            return
        ev.cancel()
        self._pending_ack = None
        self._current = None
        if job.on_success is not None:
            job.on_success()
        self._kick()
