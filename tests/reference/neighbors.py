"""Brute-force neighbor oracle: every pair, one distance each.

Shares nothing with :mod:`repro.geometry.kernel` (cell binning, numpy
distance passes, incremental insert/remove) or with
:mod:`repro.geometry.space`: positions come from ``net.position()`` and
the metric is spelled out here, in the same correctly rounded steps the
package's distance contract uses, so a bug in either cannot cancel out in
a comparison.
"""

import math
from typing import Dict, Hashable, List, Tuple

from repro.simnet.network import SimNetwork

Point = Tuple[float, float]


def _in_range(a: Point, b: Point, side: float, radius: float,
              torus: bool) -> bool:
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    if torus:
        dx, dy = min(dx, side - dx), min(dy, side - dy)
    return math.sqrt(dx * dx + dy * dy) <= radius


def pairwise_tables(positions: Dict[Hashable, Point], side: float,
                    radius: float, torus: bool = False
                    ) -> Dict[Hashable, List]:
    """``{id: sorted ids within radius}`` by testing all n² pairs."""
    return {
        i: sorted(j for j, b in positions.items()
                  if j != i and _in_range(a, b, side, radius, torus))
        for i, a in positions.items()
    }


def brute_force_tables(net: SimNetwork) -> Dict[int, List[int]]:
    """Ground-truth adjacency of ``net``'s alive nodes at ``net.now``."""
    cfg = net.config
    positions = {v: net.position(v) for v in net.alive_nodes()}
    return pairwise_tables(positions, cfg.side, cfg.radio_range, cfg.torus)


class BruteForceNetwork(SimNetwork):
    """A :class:`SimNetwork` that never builds the neighbor kernel.

    Every consumer of ground-truth adjacency — ``true_neighbors``, the
    heartbeat snapshot, ``is_connected``, routing, floods, the CSR
    snapshots — reads ``_neighbor_tables()`` / ``true_neighbors()``, so
    answering those two from :func:`brute_force_tables` yields a whole
    network driven by the oracle.  Tables are recomputed whenever the
    topology version (churn) or, under mobility, the clock has moved.
    """

    _oracle_key = None
    _oracle_tables: Dict[int, List[int]] = {}

    def _neighbor_tables(self) -> Dict[int, List[int]]:
        mobile = self.config.mobility != "static"
        key = (self.topology_version, self.sim.now if mobile else None)
        if key != self._oracle_key:
            self._oracle_tables = brute_force_tables(self)
            self._oracle_key = key
        return self._oracle_tables

    def true_neighbors(self, node_id: int) -> List[int]:
        neighbors = self._neighbor_tables().get(node_id)
        if neighbors is not None:
            return list(neighbors)
        # Dead query node: answer from its last tracked position.
        cfg = self.config
        here = self.position(node_id)
        return [v for v in self.alive_nodes()
                if v != node_id and _in_range(here, self.position(v),
                                              cfg.side, cfg.radio_range,
                                              cfg.torus)]
