"""The binning pass against its earlier spelling and a brute-force list.

``geometry.kernel`` reads cell ranges from counted bounds, gathers rows
with ``take`` and orders pairs by one sorted integer key.  Each result
must equal, with ``==`` and in the same order, the ``searchsorted`` /
fancy-index / ``lexsort`` forms kept in ``tests/reference/binning.py``,
and as a set the O(n²) pair list: on the plane and the torus, on grids
of one to three cells per side (where wrapped offsets alias), over
replica batches, at n = 0, 1 and 2, and with points exactly on cell
edges and at ``side``.
"""

import math
import random

import numpy as np
import pytest
from reference import binning, pairwise_tables

from repro.geometry import kernel
from repro.geometry.kernel import SlackIndex, batched_neighbor_tables
from repro.simnet.network import NetworkConfig, SimNetwork

SIDE = 300.0


def _positions(reps, n, axis, seed, edges=False):
    """``(reps, n, 2)`` uniform points; with ``edges``, every coordinate
    sits on a cell edge, at 0 or at ``SIDE``."""
    rng = random.Random(seed)
    marks = [SIDE * k / axis for k in range(axis + 1)]
    count = reps * n * 2
    values = ([rng.choice(marks) for _ in range(count)] if edges
              else [rng.uniform(0.0, SIDE) for _ in range(count)])
    return np.array(values, dtype=np.float64).reshape(reps, n, 2)


def _cases():
    for torus in (False, True):
        for axis in (1, 2, 3, 7):
            for n in (0, 1, 2, 40):
                for reps in (1, 3):
                    for edges in (False, True):
                        yield pytest.param(
                            torus, axis, n, reps, edges,
                            id=f"{'torus' if torus else 'plane'}-axis{axis}"
                               f"-n{n}-reps{reps}{'-edges' if edges else ''}")


CASES = list(_cases())


def _radius(axis):
    # At most one cell wide, so that the grid is the one asked for.
    return SIDE / axis if axis > 1 else 0.4 * SIDE


@pytest.mark.parametrize("torus,axis,n,reps,edges", CASES)
def test_pairs_equal_the_reference_and_the_brute_force_list(
        torus, axis, n, reps, edges):
    pos = _positions(reps, n, axis, seed=n * 31 + axis, edges=edges)
    radius = _radius(axis)
    rows, cols = kernel._pairs_within(pos, SIDE, radius, torus, axis)
    want_rows, want_cols = binning.pairs_within(pos, SIDE, radius, torus,
                                                axis)
    assert rows.tolist() == want_rows.tolist()
    assert cols.tolist() == want_cols.tolist()
    assert sorted(zip(rows.tolist(), cols.tolist())) == binning.brute_pairs(
        pos, SIDE, radius, torus)


@pytest.mark.parametrize("torus,axis,n,reps,edges", CASES)
def test_tables_equal_the_reference(torus, axis, n, reps, edges):
    pos = _positions(reps, n, axis, seed=n * 17 + axis, edges=edges)
    radius = _radius(axis)
    # Ids in no order, negative ones too: the sort key ranks them.
    ids = np.array(random.Random(n).sample(range(-50, 150), n),
                   dtype=np.int64)
    tables = kernel._binned_tables(ids, pos, SIDE, radius, torus, axis)
    assert tables == binning.binned_tables(ids, pos, SIDE, radius, torus,
                                           axis)
    for r in range(reps):
        points = dict(zip(ids.tolist(), map(tuple, pos[r].tolist())))
        assert tables[r] == pairwise_tables(points, SIDE, radius, torus)


@pytest.mark.parametrize("torus", [False, True])
def test_batched_tables_take_any_radius(torus):
    # A radius far below the side: the grid stays a few cells per row,
    # and a radius above it: one cell.
    pos = _positions(2, 60, 1, seed=4)
    ids = list(range(60))
    for radius in (0.5, 9.0, 2 * SIDE):
        tables = batched_neighbor_tables(ids, pos, SIDE, radius, torus)
        for r in range(2):
            points = dict(zip(ids, map(tuple, pos[r].tolist())))
            assert tables[r] == pairwise_tables(points, SIDE, radius, torus)


@pytest.mark.parametrize("torus", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 90])
@pytest.mark.parametrize("edges", [False, True])
def test_slack_index_equals_the_reference(torus, n, edges):
    reach = 70.0
    axis = int(SIDE // reach)
    pos = _positions(1, n, axis, seed=n + 3, edges=edges)[0]
    ids = np.arange(0, 2 * n, 2, dtype=np.intp)
    index = SlackIndex(ids, pos, 0.0, SIDE, 50.0, torus, 1.0, reach)
    want_rows, want_cols = binning.slack_pairs(pos, SIDE, reach, torus)
    assert index.rows.tolist() == want_rows.tolist()
    assert index.cols.tolist() == want_cols.tolist()
    near = pairwise_tables(dict(zip(ids.tolist(), map(tuple, pos.tolist()))),
                           SIDE, reach, torus)
    assert dict(zip(index.id_list, index.candidate_ids)) == near


@pytest.mark.parametrize("torus", [False, True])
def test_adjacency_equals_the_scalar_filter_inside_a_window(torus):
    net = SimNetwork(NetworkConfig(
        n=80, avg_degree=9, seed=23, mobility="waypoint", min_speed=5.0,
        max_speed=20.0, pause_time=0.5, torus=torus,
        require_connected=False))
    net.advance(3.0)
    index = net._snapshot()
    start, end = net.now, index.expires
    for frac in (0.0, 0.25, 0.5, 0.9, 1.0):
        net.run_until(start + frac * (end - start))
        assert net._snapshot() is index
        table = index.adjacency(net._positions_now(index.ids), as_ids=True)
        rows = index.adjacency(net._positions_now(index.ids))
        for row, node in enumerate(index.id_list):
            scalar = index.neighbors(row, net.position(node),
                                     net.mobility.position_at, net.now)
            assert table[row] == scalar
            assert [index.id_list[v] for v in rows[row]] == scalar
    assert math.isclose(net.now, end)
