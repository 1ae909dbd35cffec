"""Work-vector count gate for the mobile floor (exact counts, no clock).

One seeded n = 200 waypoint run — RANDOM advertises (routed, so route
discoveries) and UNIQUE-PATH lookups (walks, so hops) — with every unit
of neighbor work counted by wrapping it from outside:

* candidate-index builds (one per validity window, plus churn);
* radius-r full-table passes and O(n) kernel range queries: none — no
  mobile path reaches ``_binned_tables``, ``NeighborKernel.
  neighbor_tables`` or ``NeighborKernel.within``;
* position rows evaluated per hop: on a hop where no waypoint leg
  expires, no window ends and no heartbeat falls, only the sender's
  candidates and the two endpoints, a small multiple of the mean degree
  instead of all n;
* BFS expansions per discovery: one complete tree, each reachable row
  expanded once.

The counts repeat exactly on one commit; a change that moves one must
say so.
"""

import collections

import pytest

from repro.core import access_engine as access_engine_module
from repro.core.strategies import RandomStrategy, UniquePathStrategy
from repro.experiments.common import (
    make_membership,
    run_scenario,
    scenario_config,
)
from repro.geometry import kernel as kernel_module
from repro.geometry.kernel import NeighborKernel, SlackIndex
from repro.mobility.models import MobilityManager, RandomWaypoint
from repro.simnet import network as network_module
from repro.simnet.network import SimNetwork


class _CountingAdj(list):
    """Row adjacency that counts the rows a BFS expands."""

    reads = 0

    def __getitem__(self, row):
        _CountingAdj.reads += 1
        return list.__getitem__(self, row)


@pytest.fixture
def work(monkeypatch):
    count = collections.Counter()

    def spy(owner, name, key, size=None):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            count[key] += 1 if size is None else size(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    spy(kernel_module, "_binned_tables", "radius_r_passes")
    spy(NeighborKernel, "neighbor_tables", "kernel_tables")
    spy(NeighborKernel, "within", "kernel_within")
    spy(MobilityManager, "position_at", "rows")
    spy(MobilityManager, "positions_at", "rows", lambda a: len(a[1]))
    spy(RandomWaypoint, "next_leg", "draws")
    spy(SimNetwork, "_refresh_neighbor_tables", "heartbeats")

    class CountingIndex(SlackIndex):
        __slots__ = ()

        def __init__(self, *args):
            count["index_builds"] += 1
            super().__init__(*args)
    monkeypatch.setattr(network_module, "SlackIndex", CountingIndex)

    real_rows = network_module.NeighborRows

    def counting_rows(ids, index, adj):
        return real_rows(ids, index, _CountingAdj(adj))
    monkeypatch.setattr(network_module, "NeighborRows", counting_rows)

    expansions = []
    real_tree = access_engine_module.bfs_tree

    def counting_tree(*args, **kwargs):
        before = _CountingAdj.reads
        tree = real_tree(*args, **kwargs)
        expansions.append(_CountingAdj.reads - before)
        return tree
    monkeypatch.setattr(access_engine_module, "bfs_tree", counting_tree)

    hops = []
    real_hop = SimNetwork.one_hop_unicast

    def counting_hop(net, src, dst):
        before = dict(count)
        ok = real_hop(net, src, dst)
        moved = {k: count[k] - before.get(k, 0) for k in count}
        hops.append(moved)
        return ok
    monkeypatch.setattr(SimNetwork, "one_hop_unicast", counting_hop)
    return count, hops, expansions


def test_mobile_run_work_vector(work):
    count, hops, expansions = work
    net = SimNetwork(scenario_config(200, mobility="waypoint", max_speed=10.0,
                                     hop_latency=0.05, seed=7))
    membership = make_membership(net, "random")
    count.clear()
    run_scenario(net, RandomStrategy(membership),
                 UniquePathStrategy(salvation=True), advertise_size=28,
                 lookup_size=16, n_keys=2, n_lookups=12, seed=2)
    membership.stop()

    tables = net._neighbor_tables()
    mean_degree = sum(map(len, tables.values())) / len(tables)
    steady = [h["rows"] for h in hops if not (
        h.get("draws") or h.get("index_builds") or h.get("heartbeats"))]

    # No radius-r table pass and no O(n) range query, anywhere.
    assert count["radius_r_passes"] == 0
    assert count["kernel_tables"] == count["kernel_within"] == 0
    # Position rows per steady hop: a small multiple of the degree.
    assert max(steady) <= 3.5 * mean_degree
    assert sum(steady) / len(steady) <= 2.0 * mean_degree
    # BFS expansions: each tree expands every row it reaches, once.
    assert all(0 < e <= net.n_alive for e in expansions)
    # The exact vector of this seeded run.
    assert (count["index_builds"], len(hops), len(steady), sum(steady),
            len(expansions), sum(expansions)) == (7, 371, 363, 6180, 56, 11200)
