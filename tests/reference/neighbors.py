"""Brute-force neighbor oracle: every pair, one distance each.

Shares nothing with :mod:`repro.geometry.kernel` (cell binning, slack
windows, numpy distance passes, incremental insert/remove) or with
:mod:`repro.geometry.space`: positions come from ``net.position()`` and
the metric is spelled out here, in the same correctly rounded steps the
package's distance contract uses, so a bug in either cannot cancel out in
a comparison.

:class:`BruteForceNetwork` also keeps the *eager* mobility recipe: every
neighbor query at a new timestamp first evaluates every alive position
with one ``MobilityManager.positions_at`` pass in sorted-id order, which
advances every expired waypoint leg there and then.  A mobile
``SimNetwork`` evaluates only the rows a query reads, so its draws — the
leg arrays and the mobility stream — are held to this twin's.
"""

import math
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.simnet.network import SimNetwork
from repro.simnet.replication import NeighborRows

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
    """A :class:`SimNetwork` that builds neither neighbor index.

    Every consumer of ground-truth adjacency — ``true_neighbors``, the
    heartbeat snapshot, ``is_connected``, the route trees, floods, the
    CSR snapshots — reads ``_neighbor_tables()`` / ``true_neighbors()`` /
    ``_neighbor_rows()``, so answering those from
    :func:`brute_force_tables` yields a whole network driven by the
    oracle.  Tables are recomputed whenever the topology version (churn)
    or, under mobility, the clock has moved, after the eager draws.
    """

    _oracle_key = None
    _oracle_tables: Dict[int, List[int]] = {}

    def _neighbor_tables(self) -> Dict[int, List[int]]:
        mobile = self.config.mobility != "static"
        key = (self.topology_version, self.sim.now if mobile else None)
        if key != self._oracle_key:
            ids = np.array(self.alive_nodes(), dtype=np.intp)
            self.mobility.positions_at(ids, self.sim.now)  # eager draws
            self._oracle_tables = brute_force_tables(self)
            self._oracle_key = key
        return self._oracle_tables

    def _neighbor_rows(self) -> NeighborRows:
        tables = self._neighbor_tables()
        ids = sorted(tables)
        row = {v: r for r, v in enumerate(ids)}
        return NeighborRows(ids, row, [[row[v] for v in tables[u]]
                                       for u in ids])

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
