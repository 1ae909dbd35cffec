"""Node environment for the packet-level stack.

Implements the :class:`~repro.phy.channel.NodeEnvironment` protocol over a
mobility manager: the PHY channel asks it for node positions and position
snapshots, the packet adapter for proximity sets and liveness.

Geometry is served from one **position snapshot**: the alive nodes in
ascending id order and their positions, taken in one
:meth:`MobilityManager.positions_at` pass.  The snapshot carries a
``version``.  On a static deployment (``max_speed == 0``) it is rebuilt
only after :meth:`add_node` / :meth:`remove_node`; under mobility it is
also rebuilt at every new ``sim.now`` that asks for it, and the rebuild
advances expired waypoint legs in id order (the graph floor's rule).
Radio channels key their per-transmitter link rows on that version.

Distances come from :mod:`repro.geometry.space`, the array form
(:meth:`distances`) and the scalar form (:meth:`distance`) alike, so the
two agree bit for bit with each other and with the graph floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.geometry import space
from repro.geometry.space import Point
from repro.mobility.models import MobilityManager
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class PositionSnapshot:
    """Alive nodes in ascending id order and their positions at one time."""

    version: int
    ids: np.ndarray     # (k,) node ids, ascending
    points: np.ndarray  # (k, 2) positions, one row per id


class StackEnvironment:
    """Positions, proximity and liveness for the PHY layer."""

    def __init__(self, sim: Simulator, mobility: MobilityManager,
                 side: float, torus: bool = False,
                 max_speed: float = 0.0) -> None:
        self.sim = sim
        self.mobility = mobility
        self.side = side
        self.torus = torus
        self.max_speed = max_speed
        self._alive: Set[int] = set()
        self._alive_sorted: Optional[List[int]] = None
        self._snapshot: Optional[PositionSnapshot] = None
        self._snapshot_time = -math.inf
        self._version = 0

    # -- liveness ----------------------------------------------------------

    def add_node(self, node_id: int, position: Optional[Point] = None) -> Point:
        pos = self.mobility.add_node(node_id, t=self.sim.now, position=position)
        self._alive.add(node_id)
        self._snapshot = self._alive_sorted = None
        return pos

    def remove_node(self, node_id: int) -> None:
        self._alive.discard(node_id)
        self._snapshot = self._alive_sorted = None

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._alive

    @property
    def n_alive(self) -> int:
        return len(self._alive)

    def alive_nodes(self) -> List[int]:
        """The alive ids, ascending: a fresh list, sorted once per
        change of the alive set."""
        if self._alive_sorted is None:
            self._alive_sorted = sorted(self._alive)
        return list(self._alive_sorted)

    # -- geometry ------------------------------------------------------------

    def snapshot(self) -> PositionSnapshot:
        """The alive nodes' positions now; rebuilt only when they can differ."""
        now = self.sim.now
        snap = self._snapshot
        if snap is None or (self.max_speed > 0 and self._snapshot_time != now):
            ids = np.array(sorted(self._alive), dtype=np.intp)
            self._version += 1
            snap = self._snapshot = PositionSnapshot(
                self._version, ids, self.mobility.positions_at(ids, now))
            self._snapshot_time = now
        return snap

    def distances(self, pos: Point, points: np.ndarray) -> np.ndarray:
        """Distance from ``pos`` to every row of ``points``; equal with
        ``==`` to :meth:`distance` applied row by row."""
        return space.distances(points, pos, self.side, self.torus)

    def position_of(self, node_id: int) -> Point:
        return self.mobility.position_at(node_id, self.sim.now)

    def distance(self, a: Point, b: Point) -> float:
        return space.distance(a, b, self.side, self.torus)

    def nodes_near(self, pos: Point, radius: float) -> List[int]:
        """Alive nodes within ``radius`` of ``pos``, in ascending id order."""
        snap = self.snapshot()
        return snap.ids[self.distances(pos, snap.points) <= radius].tolist()
