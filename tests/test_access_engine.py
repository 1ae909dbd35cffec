"""Equivalence suite for the batched access engine.

The contract under test (DESIGN.md §11): the batched kernels are
**statistic-identical** to the per-event code they decline to — same
:class:`AccessResult` fields, same trace events, same counters, same
energy, same simulated clock — across every strategy, under churn,
fault campaigns, mobility, random drops, tracing, and strict audit.
The per-event run comes from the declining engine in
``tests/reference`` (every batched kernel answers "not applicable").
Plus the CSR snapshot staleness guard (a stale topology version can
never be served), the BFS tree builder's exactness, and the
adaptation-exhaustion satellite.
"""

import collections
import dataclasses
import gc
import tracemalloc

import pytest
from reference import DecliningEngine, bfs_path, check_tree, per_event

from repro.core.access_engine import AccessEngine
from repro.core.gossip import GossipFloodStrategy
from repro.core.strategies import (
    FloodingStrategy,
    PathStrategy,
    RandomOptStrategy,
    RandomSamplingStrategy,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.experiments.common import (
    make_membership,
    make_network,
    run_scenario,
)
import repro.geometry.kernel as kernel_module
import repro.simnet.network as network_module
from repro.geometry.csr import CsrCache, build_known_csr, build_true_csr
from repro.simnet.energy import EnergyLedger
from repro.simnet.network import NetworkConfig, SimNetwork
from repro.simnet.replication import (
    NeighborRows,
    TopologyRouteOracle,
    bfs_tree,
)


def _pair(n=80, seed=3, **kw):
    """Two identically-seeded networks: per-event code vs the kernels."""
    seq = per_event(SimNetwork(NetworkConfig(n=n, seed=seed, **kw)))
    bat = SimNetwork(NetworkConfig(n=n, seed=seed, **kw))
    return seq, bat


def _drive(net, make_strategy, script, trace=False):
    """Run an access script against one network; return full observables."""
    if trace:
        net.trace.enable(memory=True)
    strategy = make_strategy(net)
    stored = set()
    results = []
    for step in script:
        if step[0] == "advertise":
            _, origin, size = step
            r = strategy.advertise(net, origin, stored.add, size)
        elif step[0] == "lookup":
            _, origin, size = step
            r = strategy.lookup(
                net, origin,
                lambda v: v if v in stored else None, size)
        elif step[0] == "fail":
            net.fail_node(step[1])
            continue
        elif step[0] == "fail-tentative":
            net.fail_node(step[1], commit=False)
            continue
        elif step[0] == "commit":
            net.commit_failure(step[1])
            continue
        elif step[0] == "revive":
            net.revive_node(step[1])
            continue
        elif step[0] == "join":
            net.join_node()
            continue
        elif step[0] == "advance":
            net.advance(step[1])
            continue
        else:  # pragma: no cover - script typo guard
            raise ValueError(step)
        results.append(dataclasses.asdict(r))
    observables = {
        "results": results,
        "now": net.sim.now,
        "counters": dict(net.counters),
        "energy": net.energy.total,
        "metrics": net.metrics.snapshot(),
    }
    if net.trace.enabled:
        observables["events"] = list(net.trace.events())
    return observables


def _assert_identical(make_strategy, script, trace=False, **net_kw):
    seq, bat = _pair(**net_kw)
    obs_seq = _drive(seq, make_strategy, script, trace=trace)
    obs_bat = _drive(bat, make_strategy, script, trace=trace)
    assert obs_seq == obs_bat


BASIC_SCRIPT = [
    ("advertise", 0, 14), ("lookup", 7, 11), ("lookup", 19, 11),
    ("advertise", 3, 14), ("lookup", 0, 11),
]

CHURN_SCRIPT = [
    ("advertise", 0, 14), ("fail", 9), ("fail", 21), ("lookup", 7, 11),
    ("fail-tentative", 30), ("lookup", 3, 11), ("revive", 30),
    ("commit", 30), ("join",), ("advance", 10.5), ("advertise", 5, 14),
    ("fail", 2), ("lookup", 11, 11),
]


# -- statistic-identity across strategies ------------------------------------


def test_random_strategy_identical():
    _assert_identical(lambda net: RandomStrategy(
        make_membership(net, "random")), BASIC_SCRIPT)


def test_random_strategy_identical_under_churn():
    _assert_identical(lambda net: RandomStrategy(
        make_membership(net, "random")), CHURN_SCRIPT)


def test_random_strategy_identical_traced():
    _assert_identical(lambda net: RandomStrategy(
        make_membership(net, "random")), CHURN_SCRIPT, trace=True)


def test_random_opt_identical():
    _assert_identical(lambda net: RandomOptStrategy(
        make_membership(net, "full")), CHURN_SCRIPT)


def test_sampling_strategy_identical():
    _assert_identical(lambda net: RandomSamplingStrategy(walk_length=30),
                      BASIC_SCRIPT)


def test_path_strategy_identical_under_churn():
    _assert_identical(lambda net: PathStrategy(), CHURN_SCRIPT)


def test_unique_path_identical():
    _assert_identical(lambda net: UniquePathStrategy(local_repair=True),
                      CHURN_SCRIPT)


@pytest.mark.parametrize("kwargs", [
    {},                      # analytic TTL
    {"expanding_ring": True},
    {"ttl": 3},              # fixed TTL (Figure 11 mode)
])
def test_flooding_identical_under_churn(kwargs):
    _assert_identical(lambda net: FloodingStrategy(**kwargs), CHURN_SCRIPT)


def test_gossip_flood_identical():
    _assert_identical(lambda net: GossipFloodStrategy(), CHURN_SCRIPT)


def test_flooding_identical_traced():
    _assert_identical(lambda net: FloodingStrategy(), BASIC_SCRIPT,
                      trace=True)


def test_identical_with_random_drops():
    # drop_prob > 0 makes every kernel decline; the two runs must still
    # agree draw for draw (same "drops" stream).
    _assert_identical(lambda net: PathStrategy(), BASIC_SCRIPT,
                      drop_prob=0.1)
    _assert_identical(lambda net: FloodingStrategy(), BASIC_SCRIPT,
                      drop_prob=0.1)


def test_identical_under_waypoint_mobility():
    _assert_identical(lambda net: PathStrategy(local_repair=True),
                      BASIC_SCRIPT, mobility="waypoint",
                      require_connected=False)
    _assert_identical(lambda net: FloodingStrategy(),
                      BASIC_SCRIPT, mobility="waypoint",
                      require_connected=False)


def test_identical_under_strict_audit(monkeypatch):
    # The auditor cross-checks every AccessResult against the traced
    # event stream; the batched kernels must keep that ledger balanced.
    monkeypatch.setenv("REPRO_AUDIT", "strict")
    _assert_identical(lambda net: FloodingStrategy(), BASIC_SCRIPT)
    _assert_identical(lambda net: RandomStrategy(
        make_membership(net, "random")), BASIC_SCRIPT)
    _assert_identical(lambda net: PathStrategy(), CHURN_SCRIPT)


def test_flood_outcome_identical_mid_heartbeat():
    # Floods whose broadcast window straddles a heartbeat must fall back
    # round by round and still agree exactly.
    seq, bat = _pair()
    for net in (seq, bat):
        net.advance(net.config.heartbeat_interval
                    - 3 * net.config.hop_latency)
    fa = seq.flood(0, 30)
    fb = bat.flood(0, 30)
    assert fa.covered == fb.covered
    assert list(fa.covered) == list(fb.covered)  # discovery order too
    assert fa.parent == fb.parent
    assert fa.messages == fb.messages
    assert seq.sim.now == bat.sim.now


@pytest.mark.parametrize("lookup", ["unique-path", "sampling", "random-opt"])
def test_tracing_does_not_change_the_run(lookup):
    # Tracing selects no code path (a bulk-forwarded path's hops are
    # recorded as one run): recording events must leave statistics,
    # counters, energy and the clock untouched.
    def run(trace):
        net = make_network(90, seed=11)
        if trace:
            net.trace.enable(memory=True)
        membership = make_membership(net, "random")
        strategy = {
            "unique-path": lambda: UniquePathStrategy(local_repair=True),
            "sampling": lambda: RandomSamplingStrategy(walk_length=25),
            "random-opt": lambda: RandomOptStrategy(membership),
        }[lookup]()
        stats = run_scenario(net, RandomStrategy(membership), strategy,
                             advertise_size=19, lookup_size=12, n_keys=3,
                             n_lookups=12, seed=5)
        return stats, dict(net.counters), net.now, net.energy.per_node

    traced, untraced = run(True), run(False)
    assert traced == untraced
    assert traced[1]["network"] > 0


def test_flood_identical_when_churn_reconnects_old_rings():
    # A horseshoe whose tips are out of range.  A node joining between
    # the tips mid-flood is covered from the far tip (ring 6) and then
    # rebroadcasts to the origin (ring 0): a covered receiver outside
    # the two rings the kernel masks, which the ring loop must drop.
    shoe = [(0.0, 0.0), (0.0, 190.0), (0.0, 380.0), (190.0, 380.0),
            (380.0, 380.0), (380.0, 190.0), (380.0, 0.0)]
    outcomes = []
    for prepare in (per_event, lambda net: net):
        net = prepare(SimNetwork(
            NetworkConfig(n=7, seed=1, require_connected=False),
            positions=shoe))
        net.sim.schedule(3.5 * net.config.hop_latency,
                         net.join_node, (190.0, 0.0))
        out = net.flood(0, 10)
        outcomes.append((list(out.covered.items()), out.parent,
                         out.messages, net.now, dict(net.counters),
                         net.energy.per_node))
    assert outcomes[0] == outcomes[1]
    covered = dict(outcomes[0][0])
    assert covered[6] == 6 and covered[7] == 7  # joiner reached via the tip
    assert outcomes[0][1][7] == 6 and outcomes[0][2] == 8


# -- O(1) routed messages on a static network --------------------------------


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)


def test_static_routed_access_does_no_per_hop_work(monkeypatch):
    # Count gate.  While the topology version stands, a routed message
    # costs no per-hop range test (routes carry a version stamp) and no
    # per-hop energy charge (one path charge); after one churn event
    # each cached route is validated hop by hop exactly once.
    calls = collections.Counter()
    _count_calls(monkeypatch, SimNetwork, "in_range", calls)
    _count_calls(monkeypatch, SimNetwork, "_route_valid", calls)
    _count_calls(monkeypatch, SimNetwork, "route", calls)
    _count_calls(monkeypatch, EnergyLedger, "charge_unicast", calls)
    _count_calls(monkeypatch, EnergyLedger, "charge_path", calls)

    net = SimNetwork(NetworkConfig(n=120, seed=3))
    strategy = RandomStrategy(make_membership(net, "random"))
    stored = set()
    for origin in (0, 7, 19, 0, 7):
        strategy.advertise(net, origin, stored.add, 14)
    for origin in (3, 0, 7, 3, 19, 0):
        strategy.lookup(net, origin,
                        lambda v: v if v in stored else None, 11)
    assert calls["route"] > len(net._route_cache) > 20  # some were hits
    assert net.counters["network"] > 4 * calls["route"]  # multi-hop
    assert calls["in_range"] == calls["_route_valid"] == 0
    assert calls["charge_unicast"] == 0
    assert calls["charge_path"] == calls["route"]

    relays = {v for path, _ in net._route_cache.values() for v in path[1:-1]}
    relays -= {v for key in net._route_cache for v in key}
    for victim in sorted(relays):  # a relay only, and no cut vertex
        net.fail_node(victim, commit=False)
        if net.is_connected():
            break
        net.revive_node(victim)
    assert not net.is_alive(victim)
    broken = 0
    for (src, dst), (path, _) in list(net._route_cache.items()):
        broken += victim in path
        for expected in (1, 0):  # first use validates, the next does not
            calls["_route_valid"] = 0
            assert net.route(src, dst).success
            assert calls["_route_valid"] == expected
    assert broken > 0
    assert calls["charge_unicast"] == 0


def test_forward_checks_the_hops_of_a_stale_stamp():
    net = SimNetwork(NetworkConfig(n=120, seed=3))
    path = net.route(0, 77).path
    engine, version = net.access_engine, net.topology_version
    frames = net.counters["network"]
    assert engine.forward(net, path, version) == len(path) - 1
    net.fail_node(path[2])
    assert engine.forward(net, path, version) is None  # walked, declined
    assert net.counters["network"] == frames + len(path) - 1
    detour = net.route(0, 77).path
    assert engine.forward(net, detour, version) == len(detour) - 1  # walked, ok


# -- no selection knob -------------------------------------------------------


def test_engine_rejects_unknown_backend():
    # The path is chosen from what the kernels observe; there is no
    # backend argument left to get wrong.
    with pytest.raises(TypeError):
        AccessEngine("sequential")
    for knob in ("access_backend", "neighbor_backend", "grid_refresh"):
        with pytest.raises(TypeError):
            NetworkConfig(n=5, **{knob: "bogus"})


def test_declining_engine_disables_kernels():
    # The reference run must not touch the kernels it is compared with.
    net = SimNetwork(NetworkConfig(n=60, seed=2))
    engine = net.access_engine
    strategy = FloodingStrategy()
    stored = set()
    net.access_engine = DecliningEngine()
    strategy.advertise(net, 0, stored.add, 10)
    assert engine._csr_cache.misses == 0  # kernels never ran
    net.access_engine = engine
    strategy.advertise(net, 0, stored.add, 10)
    assert engine._csr_cache.misses > 0


# -- CSR snapshots + staleness guard -----------------------------------------


def test_true_csr_matches_tables():
    net = SimNetwork(NetworkConfig(n=60, seed=1))
    snap = build_true_csr(net)
    assert snap.n == net.n_alive
    for node in net.alive_nodes():
        assert snap.neighbors(node) == net.true_neighbors(node)
        assert snap.degree(node) == len(net.true_neighbors(node))
    assert snap.row_of(10 ** 9) is None
    assert snap.degree(10 ** 9) == 0
    assert snap.neighbors(10 ** 9) == []


def test_known_csr_preserves_stored_order():
    net = SimNetwork(NetworkConfig(n=60, seed=1))
    net.join_node()  # append-order mutation of neighbors' known lists
    snap = build_known_csr(net)
    for node in net.alive_nodes():
        stored = [v for v in net.known_neighbors(node)
                  if snap.row_of(v) is not None]
        assert snap.neighbors(node) == stored


def test_csr_cache_staleness_guard():
    net = SimNetwork(NetworkConfig(n=60, seed=1))
    cache = CsrCache()
    first = cache.true_snapshot(net)
    assert cache.true_snapshot(net) is first  # same version: cache hit
    assert cache.hits == 1 and cache.misses == 1
    victim = net.alive_nodes()[5]
    net.fail_node(victim)
    second = cache.true_snapshot(net)
    assert second is not first  # stale version can never serve
    assert second.key == net.topology_version
    assert second.row_of(victim) is None
    assert cache.misses == 2


def test_known_csr_cache_rekeys_on_heartbeat():
    net = SimNetwork(NetworkConfig(n=60, seed=1))
    cache = CsrCache()
    first = cache.known_snapshot(net)
    assert cache.known_snapshot(net) is first
    net.advance(net.config.heartbeat_interval + 0.1)  # heartbeat fired
    second = cache.known_snapshot(net)
    assert second is not first
    assert second.key == (net.topology_version, net.known_version)


def test_known_version_counts_known_view_mutations():
    net = SimNetwork(NetworkConfig(n=30, seed=4))
    v0 = net.known_version
    net.fail_node(net.alive_nodes()[0])
    assert net.known_version > v0
    v1 = net.known_version
    net.join_node()
    assert net.known_version > v1
    v2 = net.known_version
    net.suspend_neighbor_refresh()
    net.advance(net.config.heartbeat_interval + 0.1)
    assert net.known_version == v2  # suspended heartbeat is a no-op
    net.resume_neighbor_refresh()
    assert net.known_version > v2


# -- the one BFS -------------------------------------------------------------


def test_bfs_tree_matches_early_exit_oracle():
    # `bfs_tree` is the only tree builder, held to the early-exit BFS and
    # the capped ring count for every destination.
    for n, sources in ((60, (0, 31, 59)), (400, (0, 133, 399)),
                       (2000, (1000,))):
        net = SimNetwork(NetworkConfig(n=n, seed=5))
        tables = net._neighbor_tables()
        for src in sources:
            tree = bfs_tree(net, src)
            assert tree.reachable == n  # deployments are connected
            check_tree(tree, tables, src, net.alive_nodes())


def test_bfs_tree_oracle_after_churn_with_a_dead_source():
    net = SimNetwork(NetworkConfig(n=120, seed=5))
    failed = [7, 40, 41]
    for node in failed:
        net.fail_node(node)
    joined = [net.join_node(), net.join_node()]
    tables = net._neighbor_tables()
    assert sorted(tables) == net.alive_nodes()  # ids are not contiguous
    everyone = list(range(net._next_id))
    for src in (0, 42, 119) + tuple(joined):
        tree = bfs_tree(net, src)
        check_tree(tree, tables, src, everyone)
    for dead in failed:
        tree = bfs_tree(net, dead)
        assert tree.path_to(dead) == [dead]
        check_tree(tree, tables, dead, everyone)


def test_bfs_tree_oracle_on_a_partitioned_graph():
    net = SimNetwork(NetworkConfig(n=150, avg_degree=2.5, seed=5,
                                   require_connected=False))
    tables = net._neighbor_tables()
    unreached = 0
    for src in (0, 75, 149):
        tree = bfs_tree(net, src)
        check_tree(tree, tables, src, net.alive_nodes())
        unreached += sum(tree.path_to(d) is None for d in tables)
    assert unreached  # the deployment really is partitioned


def test_bfs_tree_oracle_at_one_mobile_timestamp():
    net = SimNetwork(NetworkConfig(n=100, seed=5, mobility="waypoint"))
    net.advance(37.5)
    tables = net._neighbor_tables()
    for src in (0, 50, 99):
        tree = net.access_engine.tree(net, src)
        check_tree(tree, tables, src, net.alive_nodes())


def test_engine_tree_memo_keys_on_topology_version():
    net = SimNetwork(NetworkConfig(n=200, seed=5))
    engine = net.access_engine
    t1 = engine.tree(net, 0)
    assert t1 is not None
    assert engine.tree(net, 0) is t1
    assert engine.tree_hits == 1
    net.fail_node(net.alive_nodes()[7])
    t2 = engine.tree(net, 0)
    assert t2 is not t1  # stale version evicted wholesale
    assert engine.tree_misses == 2


class TestRouteTreeWork:
    """Noise-free footprint and build counts of the route-tree memo at
    ``bench/``'s ``kv_live`` size (n = 400, seed 7)."""

    def test_400_memoised_trees_fit_in_4_mib(self):
        net = SimNetwork(NetworkConfig(n=400, seed=7))
        engine = net.access_engine
        gc.collect()
        tracemalloc.start()
        try:
            for src in net.alive_nodes():
                engine.tree(net, src)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.tree_misses == 400 and len(engine._trees) == 400
        assert size <= 4 * 2 ** 20

    def test_rows_are_built_once_per_topology_version(self, monkeypatch):
        builds = []

        def counting_rows(ids, index, adj):
            builds.append(len(ids))
            return NeighborRows(ids, index, adj)

        monkeypatch.setattr(network_module, "NeighborRows", counting_rows)
        net = SimNetwork(NetworkConfig(n=400, seed=7))
        engine = net.access_engine
        for src in net.alive_nodes():
            engine.tree(net, src)
        assert builds == [400]
        net.fail_node(net.alive_nodes()[0])
        for src in net.alive_nodes():
            engine.tree(net, src)
        assert builds == [400, 399]
        assert engine.tree_misses == 799 and engine.tree_hits == 0

    def test_mobile_discovery_runs_no_radius_r_pass(self, monkeypatch):
        # A mobile discovery filters the window's candidate index; no
        # radius-r table pass runs, and within one window no binning
        # pass at all.
        passes = []
        real_pass = kernel_module._pairs_within

        def counting_pass(*args):
            passes.append(args[2])  # the pass radius
            return real_pass(*args)

        monkeypatch.setattr(kernel_module, "_pairs_within", counting_pass)
        net = SimNetwork(NetworkConfig(n=100, seed=7, mobility="waypoint"))
        net.advance(12.5)  # past the first heartbeat
        before = len(passes)
        src, dst = 3, 90
        path, cost = net.discover_path(src, dst)
        tables = net._neighbor_tables()  # the same timestamp's table
        assert len(passes) <= before + 1  # at most one window rebuild
        assert set(passes) == {net._reach}  # never at radius r
        assert path == bfs_path(tables, src, dst) and cost > 0


# -- shared cross-replica state ----------------------------------------------


def test_shared_state_serves_all_replicas():
    state = TopologyRouteOracle()
    nets = [SimNetwork(NetworkConfig(n=200, seed=5))
            for _ in range(2)]
    for net in nets:
        net.access_engine.adopt_shared(net, state)
    t0 = nets[0].access_engine.tree(nets[0], 3)
    t1 = nets[1].access_engine.tree(nets[1], 3)
    assert t1 is t0  # the memoized tree crossed replicas
    assert state.hits == 1 and state.misses == 1
    csr0 = nets[0].access_engine.true_csr(nets[0])
    assert nets[1].access_engine.true_csr(nets[1]) is csr0


def test_shared_state_detaches_on_churn():
    state = TopologyRouteOracle()
    net = SimNetwork(NetworkConfig(n=200, seed=5))
    net.access_engine.adopt_shared(net, state)
    net.access_engine.tree(net, 3)
    net.fail_node(net.alive_nodes()[0])  # workload-divergent mutation
    net.access_engine.tree(net, 3)
    assert state.misses == 1  # second tree came from the private memo


def test_shared_state_rejects_other_deployment():
    state = TopologyRouteOracle()
    a = SimNetwork(NetworkConfig(n=200, seed=5))
    b = SimNetwork(NetworkConfig(n=200, seed=6))
    a.access_engine.adopt_shared(a, state)
    with pytest.raises(ValueError):
        b.access_engine.adopt_shared(b, state)


def test_shared_state_rejects_mismatched_version():
    state = TopologyRouteOracle()
    a = SimNetwork(NetworkConfig(n=200, seed=5))
    b = SimNetwork(NetworkConfig(n=200, seed=5))
    a.access_engine.adopt_shared(a, state)
    b.fail_node(b.alive_nodes()[0])  # same deployment, another graph
    with pytest.raises(ValueError, match="mismatched topology"):
        b.access_engine.adopt_shared(b, state)
    assert b.access_engine.tree(b, 3) is not a.access_engine.tree(a, 3)
    assert state.misses == 1 and b.access_engine.tree_misses == 1


# -- adaptation-exhaustion satellite -----------------------------------------


class _StuckMembership:
    """Membership whose draws always land on the same node (id 7)."""

    def sample_for(self, origin, k, rng):
        rng.random()  # consume like a real draw
        return [7] * k


def test_adaptation_exhausted_signal():
    net = SimNetwork(NetworkConfig(n=30, seed=4))
    net.trace.enable(memory=True)
    strategy = RandomStrategy(_StuckMembership())
    rng = net.rngs.stream("random-strategy")
    assert strategy._replacement(net, 0, {7}, rng) is None
    events = [e for e in net.trace.events()
              if e.kind == "access-adaptation-exhausted"]
    assert len(events) == 1
    assert events[0].fields["strategy"] == "RANDOM"
    assert events[0].fields["draws"] == 4
    assert net.metrics.counter("access.adaptation_exhausted").value == 1
    # An eligible replacement emits no signal and bumps nothing.
    assert strategy._replacement(net, 0, set(), rng) == 7
    assert net.metrics.counter("access.adaptation_exhausted").value == 1


def test_adaptation_exhausted_counts_on_both_backends():
    for net in _pair(n=30, seed=4):
        strategy = RandomStrategy(_StuckMembership(), adaptation_retries=1)
        stored = set()
        strategy.advertise(net, 0, stored.add, 3)
        assert net.metrics.counter("access.adaptation_exhausted").value > 0
