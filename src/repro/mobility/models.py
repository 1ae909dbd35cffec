"""Node mobility models.

The paper's simulations use the Random Waypoint model (Section 2.4): each
node repeatedly picks a uniform destination in the area, moves to it at a
speed drawn uniformly from ``[min_speed, max_speed]``, then pauses (30 s on
average).  Positions are evaluated lazily: a node's trajectory is a sequence
of linear legs, and ``position_at(t)`` interpolates inside the current leg,
so mobility costs nothing between queries.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.geometry.space import Point

#: Float slack on the speed bound, in metres.  Evaluated positions are
#: rounded, so two of them can lie farther apart than ``max_speed·dt``
#: allows: by a few ULPs of the coordinates per evaluation, and by
#: ``max_speed`` times an ULP of the clock per leg boundary (a leg's end
#: time is a rounded sum).  At sides up to 10⁵ m, clocks up to 10⁷ s and
#: 20 m/s those are below 10⁻¹⁰ m and 4·10⁻⁸ m; this covers 25 leg
#: boundaries of the worst case.
SPEED_SLACK = 1e-6


@dataclass
class Leg:
    """Linear motion from ``p0`` at time ``t0`` to ``p1`` at time ``t1``.

    A pause is a leg with ``p0 == p1``.
    """

    t0: float
    p0: Point
    t1: float
    p1: Point

    def position_at(self, t: float) -> Point:
        if t >= self.t1 or self.t1 <= self.t0:
            return self.p1
        if t <= self.t0:
            return self.p0
        frac = (t - self.t0) / (self.t1 - self.t0)
        return (
            self.p0[0] + frac * (self.p1[0] - self.p0[0]),
            self.p0[1] + frac * (self.p1[1] - self.p0[1]),
        )


class MobilityModel(ABC):
    """Produces an initial position and subsequent legs for each node.

    ``max_speed`` bounds every trajectory the model produces: for any
    ``t1 <= t2``, ``|p(t2) - p(t1)| <= max_speed·(t2 - t1)`` up to
    :data:`SPEED_SLACK`, across leg boundaries and pauses.  Models that
    never move declare 0.
    """

    max_speed: float = 0.0

    @abstractmethod
    def initial_position(self, node_id: int) -> Point:
        """Starting position of ``node_id``."""

    @abstractmethod
    def next_leg(self, node_id: int, t: float, pos: Point) -> Leg:
        """The leg beginning at time ``t`` from position ``pos``."""


class StaticPlacement(MobilityModel):
    """Uniform random placement; nodes never move."""

    def __init__(self, side: float, rng: random.Random) -> None:
        if side <= 0:
            raise ValueError("side must be positive")
        self.side = side
        self._rng = rng

    def initial_position(self, node_id: int) -> Point:
        return (self._rng.uniform(0, self.side), self._rng.uniform(0, self.side))

    def next_leg(self, node_id: int, t: float, pos: Point) -> Leg:
        return Leg(t0=t, p0=pos, t1=math.inf, p1=pos)


class FixedPlacement(MobilityModel):
    """Static model with externally supplied positions (e.g. from an RGG)."""

    def __init__(self, positions: List[Point]) -> None:
        self._positions = list(positions)

    def initial_position(self, node_id: int) -> Point:
        return self._positions[node_id]

    def next_leg(self, node_id: int, t: float, pos: Point) -> Leg:
        return Leg(t0=t, p0=pos, t1=math.inf, p1=pos)


class RandomWaypoint(MobilityModel):
    """Random Waypoint with uniform speed and constant-mean pause.

    Defaults follow the paper: speeds 0.5–2 m/s (walking) and 30 s pauses.
    ``max_speed`` overrides both bounds for the fast-mobility experiments
    (2/5/10/20 m/s, Figures 13–14) which vary the maximum speed.
    """

    def __init__(
        self,
        side: float,
        min_speed: float = 0.5,
        max_speed: float = 2.0,
        pause_time: float = 30.0,
        *,
        rng: random.Random,
    ) -> None:
        if side <= 0:
            raise ValueError("side must be positive")
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError("need 0 < min_speed <= max_speed")
        if pause_time < 0:
            raise ValueError("pause_time must be non-negative")
        self.side = side
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_time = pause_time
        self._rng = rng
        # Alternate pause / move legs per node.
        self._pausing: Dict[int, bool] = {}

    def initial_position(self, node_id: int) -> Point:
        return (self._rng.uniform(0, self.side), self._rng.uniform(0, self.side))

    def next_leg(self, node_id: int, t: float, pos: Point) -> Leg:
        if self._pausing.get(node_id, False) and self.pause_time > 0:
            self._pausing[node_id] = False
            return Leg(t0=t, p0=pos, t1=t + self.pause_time, p1=pos)
        dest = (self._rng.uniform(0, self.side), self._rng.uniform(0, self.side))
        speed = self._rng.uniform(self.min_speed, self.max_speed)
        dist = math.hypot(dest[0] - pos[0], dest[1] - pos[1])
        duration = dist / speed if speed > 0 else math.inf
        self._pausing[node_id] = True
        return Leg(t0=t, p0=pos, t1=t + duration, p1=dest)


class MobilityManager:
    """Tracks every node's current leg and answers position queries.

    Nodes may be added (joins) and removed (failures/leaves) at runtime,
    supporting the churn experiments.

    Each current leg is also mirrored into struct-of-arrays form
    (``t0, t1, p0, p1``, indexed by node id), so :meth:`positions_at`
    evaluates a whole deployment in one vectorised pass.  Node ids index
    those arrays directly and must therefore be small non-negative
    integers; every caller allocates them densely from 0.
    """

    def __init__(self, model: MobilityModel) -> None:
        self.model = model
        self._legs: Dict[int, Leg] = {}
        self._t0 = np.empty(0)
        self._t1 = np.empty(0)
        self._p0 = np.empty((0, 2))
        self._p1 = np.empty((0, 2))

    def _set_leg(self, node_id: int, leg: Leg) -> None:
        if node_id >= len(self._t0):
            grow = max(node_id + 1, 2 * len(self._t0), 16) - len(self._t0)
            self._t0 = np.concatenate((self._t0, np.zeros(grow)))
            self._t1 = np.concatenate((self._t1, np.full(grow, math.inf)))
            self._p0 = np.concatenate((self._p0, np.zeros((grow, 2))))
            self._p1 = np.concatenate((self._p1, np.zeros((grow, 2))))
        self._legs[node_id] = leg
        self._t0[node_id] = leg.t0
        self._t1[node_id] = leg.t1
        self._p0[node_id] = leg.p0
        self._p1[node_id] = leg.p1

    def add_node(self, node_id: int, t: float = 0.0,
                 position: Optional[Point] = None) -> Point:
        if node_id < 0:
            raise ValueError(f"node id must be non-negative; got {node_id}")
        pos = position if position is not None else self.model.initial_position(node_id)
        self._set_leg(node_id, self.model.next_leg(node_id, t, pos))
        return pos

    def remove_node(self, node_id: int) -> None:
        self._legs.pop(node_id, None)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._legs

    def node_ids(self) -> List[int]:
        return list(self._legs.keys())

    def position_at(self, node_id: int, t: float) -> Point:
        """Position of ``node_id`` at time ``t`` (advances legs lazily)."""
        leg = self._legs[node_id]
        while t > leg.t1 and math.isfinite(leg.t1):
            leg = self.model.next_leg(node_id, leg.t1, leg.p1)
            self._set_leg(node_id, leg)
        return leg.position_at(t)

    def advance(self, ids: np.ndarray, t: float) -> np.ndarray:
        """Advance every leg among ``ids`` that ends before ``t``, in
        ``ids`` order, through :meth:`position_at` — exactly the draws
        :meth:`positions_at` makes — and evaluate nothing.  Returns the
        end times of the legs ``ids`` are on now: until the earliest no
        leg of theirs expires (a later draw only pushes an end out).
        """
        t1 = self._t1.take(ids)
        expired = t > t1
        if expired.any():
            for node_id in ids[expired].tolist():
                self.position_at(node_id, t)
            t1 = self._t1.take(ids)
        return t1

    def positions_at(self, ids: np.ndarray, t: float) -> np.ndarray:
        """``(len(ids), 2)`` positions at time ``t``, one row per id.

        Equal bit for bit to ``[position_at(i, t) for i in ids]``, model
        draws included: one vectorised test finds the expired legs, which
        are advanced through :meth:`position_at` in ``ids`` order; the
        rest is :meth:`Leg.position_at` spelled over arrays.
        """
        t1 = self.advance(ids, t)
        t0 = self._t0.take(ids)
        p0, p1 = self._p0.take(ids, axis=0), self._p1.take(ids, axis=0)
        span = t1 - t0
        # Zero-length legs divide by zero; those rows are overwritten below.
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (t - t0) / span
            pos = p0 + frac[:, np.newaxis] * (p1 - p0)
        at_end = (t >= t1) | (span <= 0)
        np.copyto(pos, p1, where=at_end[:, np.newaxis])
        np.copyto(pos, p0, where=(~at_end & (t <= t0))[:, np.newaxis])
        return pos

    def snapshot(self, t: float) -> Dict[int, Point]:
        """All node positions at time ``t``."""
        return {nid: self.position_at(nid, t) for nid in list(self._legs)}
