"""Vectorized position/neighbor engine (numpy backend).

The graph-level simulator answers the same query millions of times per
sweep: *which alive nodes are within radio range of node v right now?*
This module keeps every alive node's position in one contiguous
``(n, 2)`` float64 array and computes the **entire** neighbor table in a
single batched cell-binning pass:

1. bin every node into a uniform grid cell (cell size >= query radius);
2. for all nine 3x3 cell offsets at once, pair every node with the nodes
   in the offset cell via ``argsort`` + one stacked ``searchsorted`` pair
   of range arithmetic — no Python-level loop over nodes or offsets;
3. filter candidate pairs by :func:`repro.geometry.space.distances`
   ``<= r`` and bucket the survivors into per-node sorted id lists.

The distance is the package's one contract, so these lists,
``SimNetwork.in_range`` and the packet floor decide every pair alike,
including a pair within an ULP of the radius.

Both the plane and torus metrics are supported.  Updates are incremental
— ``insert``/``remove`` for churn, ``set_positions`` for a mobility tick
— and a single node's neighbors come from one range query (``within``,
the same predicate), so a caller that needs one row does not pay for the
table.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.space import Point, distances
from repro.obs.profile import profiled


def _cell_offsets(axis: int, torus: bool) -> List[Tuple[int, int]]:
    raw = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    if torus and axis < 3:
        # Wrapped offsets alias each other on tiny grids; deduplicate so
        # a pair of nodes is considered exactly once.
        return sorted({(dx % axis, dy % axis) for dx, dy in raw})
    return raw


def _binned_tables(
    ids: np.ndarray,
    pos: np.ndarray,
    side: float,
    radius: float,
    torus: bool,
    axis: int,
) -> List[Dict[int, List[int]]]:
    """The cell-binning pass behind both table builders.

    ``pos`` is ``(R, N, 2)``; ``axis`` is the grid's cells per side, and
    either ``radius`` fits in one cell or the grid is a single cell (then
    every pair is a candidate).  Replicas never mix: each node is binned
    into a *composite* cell index ``replica * cells + cell``, so the 3x3
    candidate-pair expansion can only pair rows of the same replica.
    """
    reps, n, _ = pos.shape
    if n == 0:
        return [dict() for _ in range(reps)]
    if n == 1:
        return [{int(ids[0]): []} for _ in range(reps)]

    cell_size = side / axis
    cells = axis * axis
    flat = pos.reshape(reps * n, 2)
    total_rows = reps * n
    cx = np.minimum((flat[:, 0] / cell_size).astype(np.int64), axis - 1)
    cy = np.minimum((flat[:, 1] / cell_size).astype(np.int64), axis - 1)
    np.clip(cx, 0, axis - 1, out=cx)
    np.clip(cy, 0, axis - 1, out=cy)
    rep_base = np.repeat(np.arange(reps, dtype=np.int64) * cells, n)
    cell = rep_base + cx * axis + cy
    order = np.argsort(cell, kind="stable")
    sorted_cell = cell[order]

    # The target cell of every (3x3 offset, row), searched in one go.
    offsets = np.array(_cell_offsets(axis, torus), dtype=np.int64)
    tx = cx + offsets[:, :1]
    ty = cy + offsets[:, 1:]
    if torus:
        target = rep_base + (tx % axis) * axis + ty % axis
    else:
        target = rep_base + tx * axis + ty
        target[(tx < 0) | (tx >= axis) | (ty < 0) | (ty >= axis)] = -1
    target = target.ravel()
    starts = np.searchsorted(sorted_cell, target, side="left")
    counts = np.searchsorted(sorted_cell, target, side="right") - starts
    total = int(counts.sum())
    if total == 0:
        return [{int(i): [] for i in ids} for _ in range(reps)]
    rows = np.repeat(np.tile(np.arange(total_rows, dtype=np.intp),
                             len(offsets)), counts)
    # Flatten the per-row [start, end) ranges into one index array.
    bases = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cols = order[np.arange(total, dtype=np.intp)
                 + np.repeat(starts - bases, counts)]

    keep = ((distances(flat[rows], flat[cols], side, torus) <= radius)
            & (rows != cols))
    rows = rows[keep]
    cols = cols[keep]

    neighbor_ids = ids[cols % n]
    neighbor_ids = neighbor_ids[np.lexsort((neighbor_ids, rows))]
    ends = np.cumsum(np.bincount(rows, minlength=total_rows)).tolist()
    starts = [0] + ends[:-1]
    neighbor_list = neighbor_ids.tolist()
    id_list = ids.tolist()
    return [
        {node: neighbor_list[starts[row]:ends[row]]
         for row, node in enumerate(id_list, r * n)}
        for r in range(reps)
    ]


@profiled("kernel.batch_pass_replicas")
def batched_neighbor_tables(
    ids: Sequence[int],
    positions,
    side: float,
    radius: float,
    torus: bool = False,
) -> List[Dict[int, List[int]]]:
    """Neighbor tables for R replica deployments in ONE cell-binning pass.

    ``positions`` has shape ``(R, N, 2)`` (or ``(N, 2)`` for a single
    replica); row ``i`` of every replica holds the position of node
    ``ids[i]``.  Returns one ``{node_id: sorted neighbor ids}`` dict per
    replica, each identical to what :meth:`NeighborKernel.neighbor_tables`
    computes for that replica alone (both run :func:`_binned_tables`), but
    amortizing the argsort / searchsorted machinery over the whole
    replica batch.  Any positive radius is accepted: the cells are at
    least ``radius`` wide, or one cell spans the whole side.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim == 2:
        pos = pos[np.newaxis]
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError(f"positions must be (R, N, 2); got {pos.shape}")
    if len(ids) != pos.shape[1]:
        raise ValueError(f"{len(ids)} ids for {pos.shape[1]} position rows")
    if side <= 0 or radius <= 0:
        raise ValueError("side and radius must be positive")
    axis = max(1, int(math.floor(side / radius)))
    return _binned_tables(np.asarray(ids, dtype=np.int64), pos, side, radius,
                          torus, axis)


class NeighborKernel:
    """Contiguous-array neighbor engine over integer node ids.

    Rows are kept dense: removing a node swaps the last row into its slot,
    so position data stays contiguous regardless of churn history.
    """

    def __init__(self, side: float, radius: float, torus: bool = False) -> None:
        if side <= 0 or radius <= 0:
            raise ValueError("side and radius must be positive")
        self.side = float(side)
        self.radius = float(radius)
        self.torus = torus
        self.cells_per_axis = max(1, int(math.floor(side / radius)))
        self.cell_size = side / self.cells_per_axis
        self._ids = np.empty(0, dtype=np.int64)
        self._pos = np.empty((0, 2), dtype=np.float64)
        self._row: Dict[int, int] = {}

    # -- membership ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._row)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._row

    def ids(self) -> List[int]:
        return [int(i) for i in self._ids]

    def position(self, node_id: int) -> Point:
        row = self._pos[self._row[node_id]]
        return (float(row[0]), float(row[1]))

    def _grow(self, extra: int) -> None:
        n = len(self._row)
        capacity = self._pos.shape[0]
        if n + extra <= capacity:
            return
        new_cap = max(n + extra, 2 * capacity, 16)
        ids = np.empty(new_cap, dtype=np.int64)
        pos = np.empty((new_cap, 2), dtype=np.float64)
        ids[:n] = self._ids[:n]
        pos[:n] = self._pos[:n]
        self._ids, self._pos = ids, pos

    def insert(self, node_id: int, p: Point) -> None:
        """Insert a node (or move it if already present)."""
        row = self._row.get(node_id)
        if row is not None:
            self._pos[row, 0] = p[0]
            self._pos[row, 1] = p[1]
            return
        self._grow(1)
        row = len(self._row)
        self._ids[row] = node_id
        self._pos[row, 0] = p[0]
        self._pos[row, 1] = p[1]
        self._row[node_id] = row

    def remove(self, node_id: int) -> None:
        """Remove a node; the last row is swapped into its slot (O(1))."""
        row = self._row.pop(node_id, None)
        if row is None:
            return
        last = len(self._row)  # index of the (former) last occupied row
        if row != last:
            moved = int(self._ids[last])
            self._ids[row] = self._ids[last]
            self._pos[row] = self._pos[last]
            self._row[moved] = row

    def rebuild(self, ids: Sequence[int], positions: Sequence[Point]) -> None:
        """Bulk-load the full membership."""
        n = len(ids)
        self._ids = np.asarray(ids, dtype=np.int64).copy()
        self._pos = np.asarray(positions, dtype=np.float64).reshape(n, 2).copy()
        self._row = dict(zip(self._ids.tolist(), range(n)))

    def set_positions(self, positions: np.ndarray) -> None:
        """Move every node in one shot (one mobility tick).

        ``positions`` is ``(len(self), 2)`` with row ``i`` belonging to
        ``ids()[i]`` — the order of the last :meth:`rebuild` as long as no
        node was removed since.
        """
        self._pos[:len(self._row)] = positions

    # -- geometry -----------------------------------------------------------

    def _active(self) -> Tuple[np.ndarray, np.ndarray]:
        n = len(self._row)
        return self._ids[:n], self._pos[:n]

    def within(self, center: Point, radius: float,
               exclude: Optional[int] = None) -> List[int]:
        """Sorted node ids within ``radius`` of ``center`` (inclusive)."""
        ids, pos = self._active()
        if len(ids) == 0 or radius <= 0:
            return []
        found = ids[distances(pos, center, self.side, self.torus) <= radius]
        if exclude is not None:
            found = found[found != exclude]
        return sorted(found.tolist())

    def neighbors_of(self, node_id: int, radius: Optional[float] = None) -> List[int]:
        """Sorted ids within ``radius`` of ``node_id``, excluding itself."""
        r = self.radius if radius is None else radius
        return self.within(self.position(node_id), r, exclude=node_id)

    # -- the batched all-pairs pass -----------------------------------------

    @profiled("kernel.batch_pass")
    def neighbor_tables(self, radius: Optional[float] = None) -> Dict[int, List[int]]:
        """All-pairs-within-radius adjacency, computed in one batched pass.

        Returns ``{node_id: sorted neighbor ids}`` for every node currently
        in the kernel.  ``radius`` defaults to the kernel's bin radius and
        must not exceed the cell size (one ring of cells is searched)
        unless the grid is a single cell.
        """
        r = self.radius if radius is None else radius
        if (self.cells_per_axis > 1 and len(self._row) > 1
                and r > self.cell_size * (1 + 1e-12)):
            raise ValueError(
                f"query radius {r} exceeds cell size {self.cell_size}")
        ids, pos = self._active()
        return _binned_tables(ids, pos[np.newaxis], self.side, r, self.torus,
                              self.cells_per_axis)[0]
