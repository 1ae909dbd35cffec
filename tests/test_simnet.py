"""Tests for the graph-level (protocol-model) network simulator."""

import random

import pytest
from reference import BruteForceNetwork, bfs_path, per_event, ring_size

from repro.simnet import NetworkConfig, SimNetwork, apply_churn


def net_static(n=80, seed=0, **kw):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed, **kw))


def net_mobile(n=80, seed=0, max_speed=2.0, **kw):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed,
                                    mobility="waypoint",
                                    max_speed=max_speed, **kw))


class TestDeployment:
    def test_all_nodes_alive(self):
        net = net_static()
        assert net.n_alive == 80
        assert net.alive_nodes() == list(range(80))

    def test_alive_nodes_follow_every_change_of_the_alive_set(self):
        # The sorted order is cached per change of the alive set: fail,
        # a tentative fail and its rollback, a committed tentative fail,
        # revive and join each drop it, and every call hands out a
        # fresh list.
        net = net_static(n=40)
        steps = [
            lambda: net.fail_node(7),
            lambda: net.fail_node(3, commit=False),
            lambda: net.revive_node(3),
            lambda: net.fail_node(12, commit=False),
            lambda: net.commit_failure(12),
            lambda: net.revive_node(7),
            lambda: net.join_node(),
            lambda: net.fail_node(0),
            lambda: net.fail_node(0),  # already dead: no change
            lambda: net.revive_node(25),  # already alive: no change
            lambda: net.join_node(),
        ]
        assert net.alive_nodes() == sorted(net._alive)
        for step in steps:
            step()
            first = net.alive_nodes()
            assert first == sorted(net._alive)
            first.append(-1)  # a caller's edit never reaches the network
            assert net.alive_nodes() == sorted(net._alive)
        assert 12 not in net.alive_nodes() and 41 in net.alive_nodes()

    def test_connected_by_default(self):
        assert net_static().is_connected()

    def test_deterministic_given_seed(self):
        a, b = net_static(seed=5), net_static(seed=5)
        assert [a.position(i) for i in range(10)] == [
            b.position(i) for i in range(10)]

    def test_different_seeds_differ(self):
        assert net_static(seed=1).position(0) != net_static(seed=2).position(0)

    def test_explicit_positions(self):
        positions = [(float(i * 150), 0.0) for i in range(5)]
        net = SimNetwork(NetworkConfig(n=5, avg_degree=10, seed=0,
                                       require_connected=False),
                         positions=positions)
        assert net.position(0) == (0.0, 0.0)
        assert net.true_neighbors(0) == [1]  # only 150m away

    def test_invalid_mobility_model(self):
        with pytest.raises(ValueError):
            SimNetwork(NetworkConfig(n=5, mobility="teleport"))


class TestNeighborTables:
    def test_known_matches_true_initially(self):
        net = net_static()
        for node in (0, 10, 40):
            assert sorted(net.known_neighbors(node)) == sorted(
                net.true_neighbors(node))

    def test_known_goes_stale_under_mobility(self):
        net = net_mobile(max_speed=20.0, seed=3)
        net.advance(9.0)  # just before the next heartbeat
        stale = {v: set(net.known_neighbors(v)) for v in range(20)}
        diffs = sum(
            1 for v in range(20)
            if stale[v] != set(net.true_neighbors(v)))
        assert diffs > 0  # at 20 m/s, 9 s of movement breaks some links

    def test_heartbeat_refreshes_tables(self):
        def staleness(net):
            return sum(
                1 for v in range(20)
                if set(net.known_neighbors(v)) != set(net.true_neighbors(v)))

        just_refreshed = net_mobile(max_speed=20.0, seed=3)
        just_refreshed.advance(10.5)  # shortly after the 10 s heartbeat
        long_stale = net_mobile(max_speed=20.0, seed=3)
        long_stale.advance(9.5)  # ~9.5 s since the initial snapshot
        assert staleness(just_refreshed) < staleness(long_stale)

    def test_static_network_tables_never_stale(self):
        net = net_static()
        net.advance(100.0)
        for v in (0, 5, 9):
            assert sorted(net.known_neighbors(v)) == sorted(
                net.true_neighbors(v))


class _CopiesEveryHeartbeat(SimNetwork):
    """A network whose heartbeat forgets the version it last copied at."""

    def _refresh_neighbor_tables(self):
        self._known_stamp = -1
        super()._refresh_neighbor_tables()


class TestHeartbeatCopiesOnlyWhatChanged:
    """A static heartbeat re-copies the neighbor table only when the
    topology version moved since the last copy."""

    def test_known_view_equals_the_always_copying_twin(self):
        config = NetworkConfig(n=60, avg_degree=10, seed=2)
        net, twin = SimNetwork(config), _CopiesEveryHeartbeat(config)
        rngs = random.Random(9), random.Random(9)

        def step(net, rng):
            roll = rng.random()
            if roll < 0.40:
                net.advance(rng.choice((3.0, 10.0, 25.0)))  # heartbeats
            elif roll < 0.55:
                net.fail_node(net.random_alive_node(rng))
            elif roll < 0.70:
                node = net.random_alive_node(rng)
                net.fail_node(node, commit=False)  # tentative, rolled back
                net.advance(rng.choice((0.0, 12.0)))
                net.revive_node(node)
            elif roll < 0.80:
                dead = sorted(set(range(net._next_id)) - net._alive)
                if dead:
                    net.revive_node(rng.choice(dead))
            elif roll < 0.90:
                net.join_node()
            elif roll < 0.95:
                net.suspend_neighbor_refresh()
            else:
                net.resume_neighbor_refresh()

        for _ in range(200):
            step(net, rngs[0])
            step(twin, rngs[1])
            assert net.now == twin.now
            assert net.known_version == twin.known_version
            for v in range(net._next_id):
                assert net.known_neighbors(v) == twin.known_neighbors(v)
        assert net._next_id > 60 and net.n_alive < net._next_id

    def test_churn_free_heartbeats_share_one_copy(self):
        net = net_static()
        copies = [net._known_neighbors]

        def heartbeats(k):
            for _ in range(k):
                net.advance(net.config.heartbeat_interval)
                if net._known_neighbors is not copies[-1]:
                    copies.append(net._known_neighbors)

        version = net.known_version
        heartbeats(12)
        assert len(copies) == 1  # the construction-time copy still serves
        assert net.known_version == version + 12  # known-view key still moves
        net.fail_node(5)
        heartbeats(12)
        assert len(copies) == 2  # one copy for the whole stretch after churn
        assert 5 not in copies[-1]
        assert all(5 not in nbrs for nbrs in copies[-1].values())

    def test_mobile_heartbeat_always_copies(self):
        net = net_mobile()
        before = net._known_neighbors
        net.advance(net.config.heartbeat_interval)
        assert net._known_neighbors is not before


class TestOneHopMessaging:
    def test_unicast_to_neighbor_succeeds(self):
        net = net_static()
        v = net.true_neighbors(0)[0]
        assert net.one_hop_unicast(0, v)

    def test_unicast_out_of_range_fails(self):
        net = net_static()
        far = max(net.alive_nodes(),
                  key=lambda u: net.distance(net.position(0), net.position(u)))
        assert not net.one_hop_unicast(0, far)

    def test_unicast_to_dead_node_fails(self):
        net = net_static()
        v = net.true_neighbors(0)[0]
        net.fail_node(v)
        assert not net.one_hop_unicast(0, v)

    def test_unicast_counts_message_even_on_failure(self):
        net = net_static()
        before = net.counters["network"]
        far = max(net.alive_nodes(),
                  key=lambda u: net.distance(net.position(0), net.position(u)))
        net.one_hop_unicast(0, far)
        assert net.counters["network"] == before + 1

    def test_unicast_advances_clock(self):
        net = net_static()
        t0 = net.now
        v = net.true_neighbors(0)[0]
        net.one_hop_unicast(0, v)
        assert net.now == pytest.approx(t0 + net.config.hop_latency)

    def test_broadcast_reaches_current_neighbors(self):
        net = net_static()
        receivers = net.one_hop_broadcast(0)
        assert sorted(receivers) == sorted(net.true_neighbors(0))

    def test_random_drop_probability(self):
        net = net_static(drop_prob=1.0)
        v = net.true_neighbors(0)[0]
        assert not net.one_hop_unicast(0, v)
        assert net.one_hop_broadcast(0) == []

    @pytest.mark.parametrize("drop_prob", [0.0, 0.3])
    def test_static_unicast_matches_brute_force_twin(self, drop_prob):
        # A static hop is answered from the churn-patched neighbor table;
        # the twin answers the same hop from an all-pairs distance test.
        cfg = NetworkConfig(n=60, avg_degree=10, seed=6, drop_prob=drop_prob)
        net, twin = SimNetwork(cfg), BruteForceNetwork(cfg)
        near, far = net.true_neighbors(5)[:2], [
            v for v in net.alive_nodes()
            if v != 5 and v not in net.true_neighbors(5)][:2]
        script = [("hop", 5, near[0]), ("hop", 5, far[0]), ("hop", 5, 5),
                  ("fail", near[0]), ("hop", 5, near[0]), ("hop", near[0], 5),
                  ("fail-tentative", near[1]), ("hop", 5, near[1]),
                  ("revive", near[1]), ("hop", 5, near[1]),
                  ("join",), ("hop", 60, 5), ("hop", far[1], 60)]
        rng = random.Random(8)
        for _ in range(150):
            roll = rng.random()
            if roll < 0.8:
                script.append(("hop", rng.randrange(61), rng.randrange(61)))
            elif roll < 0.9:
                script.append(("fail", rng.randrange(61)))
            else:
                script.append(("revive", rng.randrange(61)))

        def apply(side, op, *args):
            if op == "hop":
                return side.one_hop_unicast(*args)
            if op == "join":
                return side.join_node()
            if op == "revive":
                return side.revive_node(*args)
            return side.fail_node(*args, commit=op == "fail")

        outcomes = set()
        for step in script:
            result = apply(net, *step)
            assert apply(twin, *step) == result, step
            outcomes.add(result)
            assert net.now == twin.now
            assert net.counters == twin.counters
            assert net.energy.per_node == twin.energy.per_node
            assert net.metrics.snapshot() == twin.metrics.snapshot()
        assert outcomes >= {True, False}
        assert net.metrics.counter_value("net.unicast_failures") > 20


class TestRouting:
    def test_route_between_any_pair(self):
        net = net_static(seed=2)
        result = net.route(0, 60)
        assert result.success
        assert result.path[0] == 0 and result.path[-1] == 60

    def test_route_hops_counted_as_messages(self):
        net = net_static(seed=2)
        result = net.route(0, 60)
        assert result.data_messages == result.hops

    def test_first_route_pays_discovery(self):
        net = net_static(seed=2)
        result = net.route(0, 60)
        assert result.routing_messages > 0

    def test_cached_route_is_free_of_discovery(self):
        net = net_static(seed=2)
        net.route(0, 60)
        again = net.route(0, 60)
        assert again.success
        assert again.routing_messages == 0

    def test_route_to_self(self):
        net = net_static()
        result = net.route(5, 5)
        assert result.success and result.hops == 0

    def test_route_to_dead_node_fails(self):
        net = net_static(seed=2)
        net.fail_node(60)
        result = net.route(0, 60)
        assert not result.success

    def test_invalidate_routes_forces_rediscovery(self):
        net = net_static(seed=2)
        net.route(0, 60)
        net.invalidate_routes()
        again = net.route(0, 60)
        assert again.routing_messages > 0

    def test_discover_path_does_not_send_data(self):
        net = net_static(seed=2)
        before = net.counters["network"]
        path, cost = net.discover_path(0, 60)
        assert path is not None and cost > 0
        assert net.counters["network"] == before

    def test_scoped_route_within_ttl(self):
        net = net_static(seed=2)
        v = net.true_neighbors(0)[0]
        result = net.scoped_route(0, v, max_hops=3)
        assert result.success

    def test_scoped_route_fails_beyond_ttl(self):
        net = net_static(seed=2)
        # Find a node more than 3 hops away.
        from collections import deque
        dist = {0: 0}
        q = deque([0])
        while q:
            u = q.popleft()
            for w in net.true_neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        far = [v for v, d in dist.items() if d > 3]
        if far:
            assert not net.scoped_route(0, far[0], max_hops=3).success

    def _far_route(self):
        net = net_static(seed=2)
        far = max(net.alive_nodes(), key=lambda u: net.distance(
            net.position(0), net.position(u)))
        first = net.route(0, far)
        assert first.success and first.hops >= 4
        return net, far, first

    def test_cached_route_rediscovered_when_mid_path_node_fails(self):
        net, far, first = self._far_route()
        for victim in first.path[1:-1]:  # the first that is no cut vertex
            net.fail_node(victim, commit=False)
            if net.is_connected():
                net.commit_failure(victim)
                break
            net.revive_node(victim)
        assert not net.is_alive(victim)
        again = net.route(0, far)
        assert again.success and again.routing_messages > 0
        assert victim not in again.path
        assert net.route(0, far).routing_messages == 0  # re-cached

    def test_cached_route_reused_when_off_path_node_fails(self):
        net, far, first = self._far_route()
        bystander = next(v for v in net.alive_nodes() if v not in first.path)
        net.fail_node(bystander)
        again = net.route(0, far)
        assert again.success and again.routing_messages == 0
        assert again.path == first.path
        assert net.discover_path(0, far) == (first.path, 0)

    def test_invalidate_routes_drops_stamps_with_paths(self):
        net = net_static(seed=2)
        net.route(0, 60)
        net.discover_path(5, 40)
        assert set(net._route_cache) == {(0, 60), (5, 40)}
        assert all(stamp == net.topology_version
                   for _, stamp, _ in net._route_cache.values())
        net.invalidate_routes()
        assert net._route_cache == {}
        assert net.discover_path(5, 40)[1] > 0

    def test_mobile_routes_are_revalidated_on_every_use(self, monkeypatch):
        # Links move with the clock, not with the topology version: a
        # stamp is only ever trusted on a static network.
        validated = []
        original = SimNetwork._route_valid
        monkeypatch.setattr(
            SimNetwork, "_route_valid",
            lambda self, path: validated.append(path) or original(self, path))
        net = net_mobile(seed=3)
        version = net.topology_version
        assert net.route(0, 40).success and not validated
        for uses in (1, 2, 3):
            net.discover_path(0, 40)
            assert len(validated) == uses
        assert net.topology_version == version

    @pytest.mark.parametrize("traced", [False, True])
    def test_static_routing_matches_per_event_twin(self, traced):
        # Version-stamped routes + one bulk forward per message against
        # the twin that sends every hop through `one_hop_unicast`, over
        # a seeded script that keeps moving the topology version under
        # cached routes.  Everything observable is compared every step.
        cfg = NetworkConfig(n=140, avg_degree=10, seed=9)
        net, twin = SimNetwork(cfg), per_event(SimNetwork(cfg))
        if traced:
            for side in (net, twin):
                side.trace.enable(memory=True)
        rng = random.Random(31)
        ends = rng.sample(range(140), 12)  # few endpoints: routes recur
        seen = {"hit": 0, "rediscovered": 0, "declined": 0, "failed": 0}

        def pair():
            return tuple(rng.sample(ends, 2))

        def cached_path():
            paths = [path for path, _, _ in net._route_cache.values()
                     if len(path) > 2 and net.is_alive(path[0])]
            return rng.choice(paths) if paths else None

        def both(op, *args):
            mine, theirs = (getattr(side, op)(*args) for side in (net, twin))
            assert mine == theirs, (op, args)
            return mine

        def check(step):
            assert net.now == twin.now, step
            assert net.counters == twin.counters, step
            assert net.metrics.snapshot() == twin.metrics.snapshot(), step
            assert net.energy.per_node == twin.energy.per_node, step
            assert net.energy.total == twin.energy.total, step
            if traced:
                assert net.trace.events() == twin.trace.events(), step

        for step in range(260):
            roll = rng.random()
            if roll < 0.40:
                src, dst = pair()
                was_cached = (src, dst) in net._route_cache
                result = both("route", src, dst)
                if not result.success:
                    seen["failed"] += 1
                elif was_cached:
                    seen["rediscovered" if result.routing_messages
                         else "hit"] += 1
            elif roll < 0.50:
                both("scoped_route", *pair(), rng.choice((2, 4, 30)))
            elif roll < 0.62:
                both("discover_path", *pair())
            elif roll < 0.70:  # break a cached route mid-path
                path = cached_path()
                if path is not None:
                    both("fail_node", rng.choice(path[1:-1]))
            elif roll < 0.76:  # fail a node no cached route crosses
                used = {v for path, _, _ in net._route_cache.values()
                        for v in path}
                both("fail_node", rng.choice(
                    [v for v in net.alive_nodes()
                     if v not in used and v not in ends]))
            elif roll < 0.84:  # tentative failure, used, then rolled back
                path = cached_path()
                if path is not None:
                    victim = rng.choice(path[1:-1])
                    both("fail_node", victim, False)
                    both("route", path[0], path[-1])
                    both("revive_node", victim)
            elif roll < 0.88:
                both("join_node")
            elif roll < 0.92:
                dead = sorted(set(range(net._next_id)) - set(net.alive_nodes()))
                if dead:
                    both("revive_node", rng.choice(dead))
            elif roll < 0.96:  # a heartbeat lands inside the next route
                gap = net.sim.next_event_time() - net.now
                both("advance", max(0.0, gap - 2.5 * cfg.hop_latency))
                before = net.counters["network"]
                src, dst = pair()
                result = both("route", src, dst)
                if result.hops > 3:
                    seen["declined"] += 1
                assert net.counters["network"] - before >= result.hops
            else:
                both("advance", rng.choice((0.3, 10.0, 25.0)))
            check(step)
        assert min(seen.values()) >= 3, seen
        assert net.n_alive != 140 and net.topology_version > 170

    def test_mobile_discovery_matches_early_exit_bfs(self):
        # Under mobility every discovery builds a BFS tree from the table
        # at that instant; path, control cost and the routing event must
        # be what the early-exit BFS and its capped ring count give.
        net = SimNetwork(NetworkConfig(
            n=70, avg_degree=6, seed=4, mobility="waypoint", max_speed=10.0,
            hop_latency=0.05, require_connected=False))
        net.trace.enable(memory=True)
        rng = random.Random(12)

        def last_routing_event():
            event = [e for e in net.trace.events() if e.kind == "routing"][-1]
            return event.t, event.fields

        found_some = missed_some = 0
        for _ in range(120):
            roll = rng.random()
            if roll < 0.5:
                net.advance(rng.choice((0.05, 0.4, 2.5, 11.0)))
            elif roll < 0.7:
                net.fail_node(rng.randrange(net._next_id))
            elif roll < 0.9:
                net.revive_node(rng.randrange(net._next_id))
            else:
                net.join_node()
            src, dst = rng.sample(net.alive_nodes(), 2)
            tables = {u: list(vs) for u, vs in net._neighbor_tables().items()}
            now = net.now

            path = bfs_path(tables, src, dst)
            if path is None:
                cost = ring_size(tables, src, net.config.n)
                missed_some += 1
            else:
                hops = len(path) - 1
                cost = ring_size(tables, src, hops) + hops
                found_some += 1
            net.invalidate_routes()
            assert net.discover_path(src, dst) == (path, cost)
            assert last_routing_event() == (now, dict(
                src=src, dst=dst, count=cost, found=path is not None))

            ring = ring_size(tables, src, 3)
            in_scope = path is not None and len(path) - 1 <= 3
            result = net.scoped_route(src, dst, max_hops=3)
            assert result.routing_messages == ring
            assert last_routing_event() == (now, dict(
                src=src, dst=dst, count=ring, found=in_scope))
            if result.success:
                assert in_scope and result.path == path
            elif in_scope:  # found, then broken mid-flight by movement
                assert 1 <= result.data_messages <= len(path) - 1
        assert found_some > 30 and missed_some > 5


class TestFlood:
    def test_ttl1_covers_origin_and_neighbors(self):
        net = net_static()
        outcome = net.flood(0, ttl=1)
        assert set(outcome.covered) == {0} | set(net.true_neighbors(0))
        assert outcome.covered[0] == 0

    def test_hop_counts_are_bfs_distances(self):
        net = net_static()
        outcome = net.flood(0, ttl=3)
        for node, hop in outcome.covered.items():
            assert 0 <= hop <= 3

    def test_coverage_monotone_in_ttl(self):
        net = net_static()
        c1 = net.flood(0, ttl=1).coverage
        c3 = net.flood(0, ttl=3).coverage
        assert c3 >= c1

    def test_reverse_path_walks_tree_to_origin(self):
        net = net_static()
        outcome = net.flood(0, ttl=3)
        node = max(outcome.covered, key=outcome.covered.get)
        path = outcome.reverse_path(node)
        assert path[0] == node and path[-1] == 0
        assert len(path) - 1 == outcome.covered[node]

    def test_messages_equal_rebroadcasting_nodes(self):
        net = net_static()
        outcome = net.flood(0, ttl=2)
        inner = sum(1 for hop in outcome.covered.values() if hop < 2)
        assert outcome.messages == inner

    def test_invalid_ttl(self):
        with pytest.raises(ValueError):
            net_static().flood(0, ttl=0)


class TestChurnOperations:
    def test_fail_node_removes_from_alive(self):
        net = net_static()
        net.fail_node(3)
        assert not net.is_alive(3)
        assert 3 not in net.alive_nodes()

    def test_fail_node_idempotent(self):
        net = net_static()
        net.fail_node(3)
        net.fail_node(3)
        assert net.n_alive == 79

    def test_failed_node_leaves_neighbor_ground_truth(self):
        net = net_static()
        v = net.true_neighbors(0)[0]
        net.fail_node(v)
        assert v not in net.true_neighbors(0)

    def test_join_node_gets_fresh_id(self):
        net = net_static()
        new = net.join_node(position=net.position(0))
        assert new == 80
        assert net.is_alive(new)

    def test_joiner_knows_neighbors_immediately(self):
        net = net_static()
        new = net.join_node(position=net.position(0))
        assert sorted(net.known_neighbors(new)) == sorted(
            net.true_neighbors(new))

    def test_apply_churn_batch(self):
        net = net_static(n=100, seed=4)
        outcome = apply_churn(net, fail_fraction=0.2, join_fraction=0.1,
                              rng=random.Random(0), keep_connected=True)
        assert len(outcome.joined) == 10
        assert net.is_connected()
        assert net.n_alive == 100 - len(outcome.failed) + 10

    def test_apply_churn_protected_nodes_survive(self):
        net = net_static(n=60, seed=4)
        apply_churn(net, fail_fraction=0.5, rng=random.Random(0),
                    keep_connected=False, protected={0, 1})
        assert net.is_alive(0) and net.is_alive(1)

    def test_apply_churn_validates_fraction(self):
        with pytest.raises(ValueError):
            apply_churn(net_static(), fail_fraction=1.5)
