"""Vectorized position/neighbor engine (numpy backend).

The graph-level simulator answers the same query millions of times per
sweep: *which alive nodes are within radio range of node v right now?*
Every answer comes from one cell-binning pass, :func:`_pairs_within`:

1. bin every node into a uniform grid cell (cell size >= query radius);
2. for all nine 3x3 cell offsets at once, pair every node with the nodes
   in the offset cell via ``argsort`` + one stacked ``searchsorted`` pair
   of range arithmetic — no Python-level loop over nodes or offsets;
3. filter candidate pairs by :func:`repro.geometry.space.distances`
   ``<= r``.

The distance is the package's one contract, so these lists,
``SimNetwork.in_range`` and the packet floor decide every pair alike,
including a pair within an ULP of the radius.  Both the plane and torus
metrics are supported.

Two indexes sit on that pass:

* :class:`NeighborKernel` — static positions.  It keeps every alive
  node's position in one contiguous ``(n, 2)`` array and buckets the
  radius-``r`` pairs into per-node sorted id lists
  (:meth:`NeighborKernel.neighbor_tables`); churn updates it
  incrementally (``insert`` / ``remove``), and one node's row is one
  range query (``within``).  :func:`batched_neighbor_tables` runs the
  same pass over a batch of Monte-Carlo replica deployments.
* :class:`SlackIndex` — moving positions of bounded speed.  The pass
  runs once per validity window, at the slack radius
  ``R = r + 2·v_max·Δ`` plus a stated float margin
  (:func:`slack_window`), on the positions at the window's start.  Until
  the window ends, every pair within ``r`` is among those candidates, so
  a query evaluates positions only for the candidates it reads and keeps
  the ones within ``r`` — the same contract, the same answer with ``==``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.space import Point, distance, distances
from repro.obs.profile import profiled


def _cell_offsets(axis: int, torus: bool) -> List[Tuple[int, int]]:
    raw = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    if torus and axis < 3:
        # Wrapped offsets alias each other on tiny grids; deduplicate so
        # a pair of nodes is considered exactly once.
        return sorted({(dx % axis, dy % axis) for dx, dy in raw})
    return raw


def _pairs_within(
    pos: np.ndarray,
    side: float,
    radius: float,
    torus: bool,
    axis: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ordered pair of distinct rows within ``radius``: the binning pass.

    ``pos`` is ``(R, N, 2)``; ``axis`` is the grid's cells per side, and
    either ``radius`` fits in one cell or the grid is a single cell (then
    every pair is a candidate).  Returns ``(rows, cols)``, flat row
    indexes into ``pos.reshape(-1, 2)`` in no particular order.  Replicas
    never mix: each node is binned into a *composite* cell index
    ``replica * cells + cell``, so the 3x3 candidate-pair expansion can
    only pair rows of the same replica.
    """
    reps, n, _ = pos.shape
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
    rows = np.repeat(np.tile(np.arange(total_rows, dtype=np.intp),
                             len(offsets)), counts)
    # Flatten the per-row [start, end) ranges into one index array.
    bases = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cols = order[np.arange(total, dtype=np.intp)
                 + np.repeat(starts - bases, counts)]

    keep = ((distances(flat[rows], flat[cols], side, torus) <= radius)
            & (rows != cols))
    return rows[keep], cols[keep]


def _binned_tables(
    ids: np.ndarray,
    pos: np.ndarray,
    side: float,
    radius: float,
    torus: bool,
    axis: int,
) -> List[Dict[int, List[int]]]:
    """The radius-``radius`` table of every replica of ``pos`` (``(R, N,
    2)``): one :func:`_pairs_within` pass, bucketed into per-node sorted
    id lists."""
    reps, n, _ = pos.shape
    if n == 0:
        return [dict() for _ in range(reps)]
    if n == 1:
        return [{int(ids[0]): []} for _ in range(reps)]
    rows, cols = _pairs_within(pos, side, radius, torus, axis)
    neighbor_ids = ids[cols % n]
    neighbor_ids = neighbor_ids[np.lexsort((neighbor_ids, rows))]
    ends = np.cumsum(np.bincount(rows, minlength=reps * n)).tolist()
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

    def neighbors_of(self, node_id: int) -> List[int]:
        """Sorted ids within the radius of ``node_id``, excluding itself."""
        return self.within(self.position(node_id), self.radius,
                           exclude=node_id)

    # -- the batched all-pairs pass -----------------------------------------

    @profiled("kernel.batch_pass")
    def neighbor_tables(self) -> Dict[int, List[int]]:
        """All-pairs-within-radius adjacency, computed in one batched pass.

        Returns ``{node_id: sorted neighbor ids}`` for every node currently
        in the kernel.  The cell size is at least the radius, so one ring
        of cells is searched.
        """
        ids, pos = self._active()
        return _binned_tables(ids, pos[np.newaxis], self.side, self.radius,
                              self.torus, self.cells_per_axis)[0]


#: Relative slack for the rounding of a computed distance itself: each
#: is within a few ULPs (≈2⁻⁵¹ relative) of the exact distance between
#: the two computed points, far inside this.
_DISTANCE_ROUNDING = 2.0 ** -40


def slack_window(radius: float, max_speed: float,
                 drift: float) -> Tuple[float, float]:
    """``(Δ, R)``: how long a :class:`SlackIndex` serves, and its radius.

    Every node obeys ``|p(t) - p(t0)| <= max_speed·(t - t0) + drift``
    (``drift`` metres of float rounding; see
    :data:`repro.mobility.models.SPEED_SLACK`).  By the triangle
    inequality, which the torus metric keeps, two nodes within
    ``radius`` at some ``t`` in ``[t0, t0 + Δ]`` were within
    ``radius + 2·(max_speed·Δ + drift)`` at ``t0``; a further
    ``2⁻⁴⁰·radius`` covers the rounding of the two computed distances.
    ``Δ = radius / (8·max_speed)`` puts ``R`` at ``1.25·radius`` plus
    that margin: about 1.56× the true degree in candidates per row, for
    one binning pass per window.  A model that never moves
    (``max_speed == 0``) gives a window that never ends.
    """
    margin = 2.0 * drift + radius * _DISTANCE_ROUNDING
    if max_speed <= 0:
        return math.inf, radius + margin
    window = radius / (8.0 * max_speed)
    return window, radius + 2.0 * max_speed * window + margin


class SlackIndex:
    """Candidate neighbor table of nodes of bounded speed (one window).

    Built from the positions at ``t0``: row ``i`` is node ``ids[i]``
    (ascending ids), and ``rows`` / ``cols`` list, row by row and
    ascending within a row, every other row within ``reach`` of it at
    ``t0`` (``candidate_ids[i]`` holds row ``i``'s as ids).  With
    ``(window, reach)`` from :func:`slack_window`, that is every pair
    that can come within ``radius`` up to ``expires = t0 + window``.  A
    query at ``t`` in ``[t0, expires]`` evaluates positions at ``t`` for
    the candidates it reads and keeps those within ``radius`` under the
    one distance contract (:mod:`repro.geometry.space`): the same rows,
    in the same order, as a fresh radius-``radius`` table.
    """

    __slots__ = ("ids", "id_list", "row_of", "rows", "cols",
                 "candidate_ids", "expires", "side", "radius", "torus")

    def __init__(self, ids: np.ndarray, positions: np.ndarray, t0: float,
                 side: float, radius: float, torus: bool, window: float,
                 reach: float) -> None:
        n = len(ids)
        self.ids = ids
        self.id_list: List[int] = ids.tolist()
        self.row_of: Dict[int, int] = dict(zip(self.id_list, range(n)))
        self.side, self.radius, self.torus = side, radius, torus
        self.expires = t0 + window
        if n > 1:
            axis = max(1, int(math.floor(side / reach)))
            rows, cols = _pairs_within(positions[np.newaxis], side, reach,
                                       torus, axis)
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
        else:
            rows = cols = np.empty(0, dtype=np.intp)
        self.rows, self.cols = rows, cols
        self.candidate_ids = _split(ids[cols].tolist(), rows, n)

    def neighbors(self, row: int, here: Point,
                  position_at: Callable[[int, float], Point],
                  t: float) -> List[int]:
        """``row``'s candidates within ``radius`` of ``here`` at ``t``,
        ascending; ``position_at(id, t)`` evaluates one candidate.

        One row is a dozen or two candidates, which scalar evaluation
        and :func:`~repro.geometry.space.distance` filter faster than
        numpy calls on arrays that short; the scalar forms equal the
        array forms with ``==``.
        """
        side, torus, radius = self.side, self.torus, self.radius
        return [v for v in self.candidate_ids[row]
                if distance(here, position_at(v, t), side, torus) <= radius]

    def adjacency(self, positions: np.ndarray,
                  as_ids: bool = False) -> List[List[int]]:
        """The exact table at ``positions`` (one row per index row): each
        row's neighbor rows, or ids with ``as_ids``, ascending."""
        keep = distances(positions[self.rows], positions[self.cols],
                         self.side, self.torus) <= self.radius
        cols = self.cols[keep]
        flat = (self.ids[cols] if as_ids else cols).tolist()
        return _split(flat, self.rows[keep], len(self.id_list))


def _split(flat: List[int], rows: np.ndarray, n: int) -> List[List[int]]:
    """Cut ``flat`` (entries grouped by ascending ``rows``) into ``n``
    per-row lists."""
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends[:-1], ends)]
