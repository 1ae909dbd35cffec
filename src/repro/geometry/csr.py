"""Packed CSR topology snapshots for the batched access engine.

The access engine (:mod:`repro.core.access_engine`) advances flood
rings with numpy passes over the adjacency (BFS route trees walk the
neighbor table's row form instead, in plain Python: see
:mod:`repro.simnet.replication`).  A :class:`CsrSnapshot` is the packed
``indptr``/``indices`` form of one frozen view of the network graph:

* the **true** view — ground-truth neighbor tables (alive nodes within
  radio range, rows sorted by id), built from
  ``SimNetwork._neighbor_tables``;
* the **known** view — the last-heartbeat neighbor snapshot each node
  routes on, preserving the *stored row order* (sorted after a
  heartbeat, append-order after a join) because walker shuffles consume
  the list in that order.

Snapshots are immutable; staleness is handled by the cache, never by
mutating a snapshot.  :class:`CsrCache` reuses the
``TopologyRouteOracle`` staleness-guard pattern
(:mod:`repro.simnet.replication`): every lookup re-keys on the
network's ``topology_version`` (true view) or
``(topology_version, known_version)`` (known view) and rebuilds on any
mismatch, so a stale topology version can never be served.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class CsrSnapshot:
    """One frozen adjacency in packed CSR form.

    ``node_ids`` is the sorted id array defining the row space;
    ``indices`` stores neighbor *ids* (not row indexes) concatenated
    row by row, with ``indptr[r]:indptr[r+1]`` delimiting row ``r``.
    """

    __slots__ = ("key", "node_ids", "indptr", "indices")

    def __init__(self, key, node_ids: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray) -> None:
        self.key = key
        self.node_ids = node_ids
        self.indptr = indptr
        self.indices = indices

    @property
    def n(self) -> int:
        return len(self.node_ids)

    def row_of(self, node_id: int) -> Optional[int]:
        """Row index of ``node_id``, or None if absent."""
        r = int(np.searchsorted(self.node_ids, node_id))
        if r < len(self.node_ids) and int(self.node_ids[r]) == node_id:
            return r
        return None

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Row indexes for ids known to be present (true-view frontier)."""
        return np.searchsorted(self.node_ids, ids)

    def degree(self, node_id: int) -> int:
        r = self.row_of(node_id)
        if r is None:
            return 0
        return int(self.indptr[r + 1] - self.indptr[r])

    def neighbors(self, node_id: int) -> List[int]:
        """Neighbor ids of one node in stored row order (a fresh list)."""
        r = self.row_of(node_id)
        if r is None:
            return []
        return self.indices[self.indptr[r]:self.indptr[r + 1]].tolist()


def _pack(key, tables: Dict[int, List[int]],
          prune_missing: bool = False) -> CsrSnapshot:
    node_ids = np.array(sorted(tables), dtype=np.int64)
    id_set = set(tables) if prune_missing else None
    indptr = np.zeros(len(node_ids) + 1, dtype=np.int64)
    chunks: List[List[int]] = []
    for r, node in enumerate(node_ids.tolist()):
        row = tables[node]
        if id_set is not None:
            row = [v for v in row if v in id_set]
        chunks.append(row)
        indptr[r + 1] = indptr[r] + len(row)
    if chunks:
        indices = np.array([v for row in chunks for v in row],
                           dtype=np.int64)
    else:
        indices = np.zeros(0, dtype=np.int64)
    return CsrSnapshot(key=key, node_ids=node_ids, indptr=indptr,
                       indices=indices)


def build_true_csr(net) -> CsrSnapshot:
    """True-view snapshot at the network's current topology version.

    The packed tables are the kernel's own adjacency; rows come out
    sorted because the tables keep each neighbor list sorted.
    """
    version = net.topology_version
    tables = net._neighbor_tables()
    snap = _pack(version, tables)
    if net.topology_version != version:  # pragma: no cover - defensive
        raise RuntimeError("topology mutated during CSR build")
    return snap


def build_known_csr(net) -> CsrSnapshot:
    """Known-view (heartbeat) snapshot, preserving stored row order.

    Known tables may reference departed nodes until the next heartbeat;
    entries that are not themselves rows are dropped, leaving the
    *reachable* stale view.
    """
    key = (net.topology_version, net.known_version)
    return _pack(key, dict(net._known_neighbors), prune_missing=True)


class CsrCache:
    """Staleness-guarded snapshot cache, one per view per network.

    A snapshot is only served while its key still equals the network's
    *current* version counters — any topology or heartbeat mutation
    changes the key, forcing a rebuild.  ``hits``/``misses`` expose the
    guard's behaviour to tests.
    """

    def __init__(self) -> None:
        self._true: Optional[CsrSnapshot] = None
        self._known: Optional[CsrSnapshot] = None
        self.hits = 0
        self.misses = 0

    def true_snapshot(self, net) -> CsrSnapshot:
        version = net.topology_version
        snap = self._true
        if snap is not None and snap.key == version:
            self.hits += 1
            return snap
        self.misses += 1
        snap = build_true_csr(net)
        self._true = snap
        return snap

    def known_snapshot(self, net) -> CsrSnapshot:
        key: Tuple[int, int] = (net.topology_version, net.known_version)
        snap = self._known
        if snap is not None and snap.key == key:
            self.hits += 1
            return snap
        self.misses += 1
        snap = build_known_csr(net)
        self._known = snap
        return snap
