"""The binning pass in its earlier spelling, kept as an oracle.

``repro.geometry.kernel`` reads each target cell's range from counted
bounds, gathers position rows with ``take`` and orders pairs by one
sorted integer key.  The forms here are the ones it replaced: cell
ranges from two ``searchsorted`` passes over the sorted cells, row
gathers by fancy indexing, and pair order from ``lexsort``.  They share
the distance contract (:func:`repro.geometry.space.distances`) with the
kernel, so the two must agree with ``==``, element for element and in
the same order; :func:`brute_pairs` shares nothing but the contract's
arithmetic, spelled out in scalar steps.  (Both spellings bin a torus
coordinate at ``side`` into cell 0, where it is; binned into the last
cell, its pairs two cells over were missed, which only the brute-force
list shows.)
"""

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.geometry.kernel import _cell_offsets
from repro.geometry.space import distances


def pairs_within(pos: np.ndarray, side: float, radius: float, torus: bool,
                 axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """``kernel._pairs_within`` with ``searchsorted`` cell ranges."""
    reps, n, _ = pos.shape
    cell_size = side / axis
    cells = axis * axis
    flat = pos.reshape(reps * n, 2)
    total_rows = reps * n
    cx = np.minimum((flat[:, 0] / cell_size).astype(np.int64), axis - 1)
    cy = np.minimum((flat[:, 1] / cell_size).astype(np.int64), axis - 1)
    np.clip(cx, 0, axis - 1, out=cx)
    np.clip(cy, 0, axis - 1, out=cy)
    if torus:
        # A coordinate at ``side`` is the one at 0.
        cx[flat[:, 0] >= side] = 0
        cy[flat[:, 1] >= side] = 0
    rep_base = np.repeat(np.arange(reps, dtype=np.int64) * cells, n)
    cell = rep_base + cx * axis + cy
    order = np.argsort(cell, kind="stable")
    sorted_cell = cell[order]

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
    bases = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cols = order[np.arange(total, dtype=np.intp)
                 + np.repeat(starts - bases, counts)]

    keep = ((distances(flat[rows], flat[cols], side, torus) <= radius)
            & (rows != cols))
    return rows[keep], cols[keep]


def binned_tables(ids: np.ndarray, pos: np.ndarray, side: float,
                  radius: float, torus: bool,
                  axis: int) -> List[Dict[int, List[int]]]:
    """``kernel._binned_tables`` with ``lexsort`` pair order."""
    reps, n, _ = pos.shape
    if n == 0:
        return [dict() for _ in range(reps)]
    if n == 1:
        return [{int(ids[0]): []} for _ in range(reps)]
    rows, cols = pairs_within(pos, side, radius, torus, axis)
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


def slack_pairs(positions: np.ndarray, side: float, reach: float,
                torus: bool) -> Tuple[np.ndarray, np.ndarray]:
    """``SlackIndex``'s ``(rows, cols)``: every pair within ``reach`` of
    one ``(N, 2)`` deployment, ordered by ``lexsort``."""
    if len(positions) < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    axis = max(1, int(math.floor(side / reach)))
    rows, cols = pairs_within(positions[np.newaxis], side, reach, torus, axis)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def brute_pairs(pos: np.ndarray, side: float, radius: float,
                torus: bool) -> List[Tuple[int, int]]:
    """Every ordered pair of distinct flat rows of ``pos`` (``(R, N, 2)``)
    within ``radius`` of each other in the same replica, ascending, by
    testing all n² pairs of each replica with scalar arithmetic."""
    reps, n, _ = pos.shape
    found = []
    for r in range(reps):
        points = pos[r].tolist()
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                if i == j:
                    continue
                dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
                if torus:
                    dx, dy = min(dx, side - dx), min(dy, side - dy)
                if math.sqrt(dx * dx + dy * dy) <= radius:
                    found.append((r * n + i, r * n + j))
    return found
