"""Static row tables patched on churn, copy on write.

A static ``SimNetwork`` builds its row table (``NeighborRows``, what the
BFS route trees walk) once and patches it on every fail, revive and
join, as it patches its neighbor tables, so a connectivity check after a
tentative failure builds no table.  A failed node keeps its row,
unlinked and out of the id index, so no other row is renumbered.  Two
things must hold:

* **equal trees** — after any churn sequence, a tree over the patched
  rows equals, node by node (predecessor, depth) and ring by ring, the
  tree over rows built fresh from the brute-force table, dead sources
  and dead destinations included;
* **copy on write** — a tree built before a patch answers as it did.
"""

import random

import pytest
from reference import brute_force_tables

from repro.faults import run_fault_campaign
from repro.simnet import network as network_module
from repro.simnet.network import NetworkConfig, SimNetwork
from repro.simnet.replication import BfsTree, NeighborRows


def fresh_rows(net):
    """Rows built from scratch over the brute-force table."""
    tables = brute_force_tables(net)
    ids = sorted(tables)
    row = {v: r for r, v in enumerate(ids)}
    return NeighborRows(ids, row, [[row[v] for v in tables[u]]
                                   for u in ids])


def by_id(tree, rows):
    """A tree as ``({id: (predecessor id, depth)}, ring counts)``."""
    ids = rows.ids
    reached = {ids[r]: (ids[tree._pred[r]], tree._depth[r])
               for r in range(len(ids)) if tree._depth[r] >= 0}
    return reached, tree._cum


def churn_step(net, rng):
    """One random fail (committed or tentative), rollback, revive or join."""
    roll = rng.random()
    alive = net.alive_nodes()
    dead = [v for v in range(net.ids_assigned) if not net.is_alive(v)]
    if roll < 0.35 and len(alive) > 2:
        net.fail_node(rng.choice(alive), commit=rng.random() < 0.5)
    elif roll < 0.55 and net._tentative_failures:
        net.revive_node(rng.choice(sorted(net._tentative_failures)))
    elif roll < 0.75 and dead:
        net.revive_node(rng.choice(dead))
    else:
        net.join_node()


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("torus", [False, True])
def test_trees_over_patched_rows_equal_trees_over_fresh_rows(seed, torus):
    net = SimNetwork(NetworkConfig(n=70, avg_degree=6, seed=seed,
                                   torus=torus, require_connected=False))
    rng = random.Random(seed)
    for victim in (3, 30, 50):  # dead before the first build: no row,
        net.fail_node(victim)   # so their revivals rebuild the table
    net._neighbor_rows()
    for _ in range(80):
        churn_step(net, rng)
        rows, fresh = net._neighbor_rows(), fresh_rows(net)
        assert [rows.ids[r] for r in sorted(rows.index.values())] == fresh.ids
        for src in rng.sample(range(net.ids_assigned), 4):
            patched, built = BfsTree(rows, src), BfsTree(fresh, src)
            assert by_id(patched, rows) == by_id(built, fresh)
            for dst in range(net.ids_assigned):
                assert patched.route(dst) == built.route(dst)
    assert net.is_connected() == (
        BfsTree(fresh, net.alive_nodes()[0]).reachable == net.n_alive)


def test_a_tree_of_the_old_version_stays_valid():
    net = SimNetwork(NetworkConfig(n=60, seed=5))
    rng = random.Random(5)
    trees = [bfs_tree_and_answers(net, src) for src in (0, 7, 33)]
    for _ in range(40):
        churn_step(net, rng)
        net.is_connected()
    for tree, answers in trees:
        assert [tree.route(dst) for dst in range(60)] == answers


def bfs_tree_and_answers(net, src):
    tree = BfsTree(net._neighbor_rows(), src)
    return tree, [tree.route(dst) for dst in range(60)]


def test_a_failure_probe_builds_no_table(monkeypatch):
    builds = []
    real_rows = network_module.NeighborRows

    def counting_rows(ids, index, adj):
        builds.append(len(ids))
        return real_rows(ids, index, adj)
    monkeypatch.setattr(network_module, "NeighborRows", counting_rows)
    net = SimNetwork(NetworkConfig(n=120, seed=3))
    built = len(builds)  # the construction's connectivity checks
    for victim in (5, 17, 40):
        net.fail_node(victim, commit=False)
        net.is_connected()
        net.revive_node(victim)
    net.fail_node(9)
    net.join_node()
    net.revive_node(9)
    assert net.is_connected()
    assert len(builds) == built


def test_pinned_stress_campaign_row_builds(monkeypatch):
    # The stress campaign (n = 100, seed 7) asks 26 connectivity
    # questions.  Both builds are the construction's: its first
    # placement is partitioned and is drawn again.  Every churn event
    # after that patches the rows (28 builds when each check built its
    # own).
    builds, checks = [], []
    real_rows = network_module.NeighborRows
    real_check = SimNetwork.is_connected

    def counting_rows(ids, index, adj):
        builds.append(len(ids))
        return real_rows(ids, index, adj)

    def counting_check(net):
        checks.append(net.topology_version)
        return real_check(net)
    monkeypatch.setattr(network_module, "NeighborRows", counting_rows)
    monkeypatch.setattr(SimNetwork, "is_connected", counting_check)
    report = run_fault_campaign(campaign="stress", n=100, seed=7, watch=True)
    assert report.watch["events"] == 7487
    assert (len(builds), len(checks)) == (2, 26)
