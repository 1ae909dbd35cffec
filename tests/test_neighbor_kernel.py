"""Equivalence and regression suite for the performance subsystem.

The numpy neighbor kernel is held to the brute-force O(n²) oracle in
``tests/reference``: identical neighbor tables (not just statistically
similar) on random deployments — static and waypoint, torus on and off,
with churn — and the parallel sweep runner must be bit-identical to
sequential runs.
"""

import copy
import math
import random

import numpy as np
import pytest
from reference import BruteForceNetwork, brute_force_tables, pairwise_tables

from repro.experiments import merge_scenario_stats, run_sweep
from repro.experiments.common import (
    make_membership,
    make_network,
    run_scenario,
    scenario_config,
)
from repro.geometry.kernel import NeighborKernel
from repro.obs.profile import PROFILER
from repro.phy import PhyParams
from repro.simnet.churn import apply_churn
from repro.simnet.network import FloodOutcome, NetworkConfig, SimNetwork
from repro.stack import AdhocStack, PacketQuorumNetwork, StackConfig


def make_pair(**kw):
    """The same deployment on the brute-force oracle and on the kernel."""
    base = dict(n=60, avg_degree=10, seed=3, require_connected=False)
    base.update(kw)
    py = BruteForceNetwork(NetworkConfig(**base))
    vec = SimNetwork(NetworkConfig(**base))
    return py, vec


def tables_of(net):
    return {v: net.true_neighbors(v) for v in net.alive_nodes()}


class TestKernelPrimitive:
    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("n,side,r", [(0, 100.0, 30.0), (1, 100.0, 30.0),
                                          (50, 300.0, 75.0), (120, 500.0, 490.0)])
    def test_matches_brute_force(self, n, side, r, torus):
        import random
        rng = random.Random(n * 7 + int(torus))
        kernel = NeighborKernel(side, r, torus=torus)
        positions = {}
        for i in range(n):
            positions[i] = (rng.uniform(0, side), rng.uniform(0, side))
            kernel.insert(i, positions[i])
        assert kernel.neighbor_tables() == pairwise_tables(
            positions, side, r, torus)

    def test_incremental_remove_insert(self):
        import random
        rng = random.Random(9)
        side, r = 400.0, 90.0
        kernel = NeighborKernel(side, r)
        positions = {}
        for i in range(80):
            positions[i] = (rng.uniform(0, side), rng.uniform(0, side))
            kernel.insert(i, positions[i])
        for victim in (5, 17, 79, 0):
            kernel.remove(victim)
            del positions[victim]
        for i in (200, 201):
            positions[i] = (rng.uniform(0, side), rng.uniform(0, side))
            kernel.insert(i, positions[i])
        assert len(kernel) == len(positions)
        assert kernel.neighbor_tables() == pairwise_tables(positions, side, r)

    @pytest.mark.parametrize("torus", [False, True])
    def test_rebuild_then_row_query_equals_table_row(self, torus):
        rng = random.Random(31 + int(torus))
        side, r, ids = 400.0, 95.0, [4, 9, 10, 27, 33, 41, 58, 60, 61, 77]

        def draw():
            return [(rng.uniform(0, side), rng.uniform(0, side)) for _ in ids]

        kernel = NeighborKernel(side, r, torus=torus)
        kernel.rebuild(ids, draw())
        for _ in range(5):                       # five mobility ticks
            moved = draw()
            kernel.rebuild(ids, moved)
            tables = kernel.neighbor_tables()
            assert tables == pairwise_tables(dict(zip(ids, moved)), side, r,
                                             torus)
            assert {i: kernel.neighbors_of(i) for i in ids} == tables


class TestBackendEquivalence:
    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_static_deployments(self, seed, torus):
        py, vec = make_pair(seed=seed, torus=torus)
        assert tables_of(py) == tables_of(vec)

    @pytest.mark.parametrize("torus", [False, True])
    def test_waypoint_over_time(self, torus):
        py, vec = make_pair(mobility="waypoint", max_speed=15.0, seed=5,
                            torus=torus)
        for dt in (0.4, 3.0, 7.1, 12.0):
            py.advance(dt)
            vec.advance(dt)
            assert tables_of(py) == tables_of(vec)
            assert {v: py.known_neighbors(v) for v in py.alive_nodes()} == \
                   {v: vec.known_neighbors(v) for v in vec.alive_nodes()}

    def test_under_churn(self):
        py, vec = make_pair(seed=7)
        for victim in (3, 31, 55):
            py.fail_node(victim)
            vec.fail_node(victim)
            assert tables_of(py) == tables_of(vec)
        for _ in range(3):
            a = py.join_node()
            b = vec.join_node()
            assert a == b
            assert tables_of(py) == tables_of(vec)
        # Dead node as the query origin: both answer from its last position.
        assert py.true_neighbors(3) == vec.true_neighbors(3)
        assert py._kernel is None  # the oracle never built the kernel

    def test_interleaved_fail_revive_join(self):
        # Revival must restore the exact same incremental state on both
        # backends, including a node that dies and comes back between
        # joins and other failures.
        py, vec = make_pair(seed=17)
        script = [("fail", 4), ("fail", 22), ("revive", 4), ("join", None),
                  ("fail", 40), ("revive", 22), ("join", None), ("fail", 4),
                  ("revive", 40), ("revive", 4)]
        for op, node in script:
            for net in (py, vec):
                if op == "fail":
                    net.fail_node(node)
                elif op == "revive":
                    net.revive_node(node)
                else:
                    net.join_node()
            assert py.alive_nodes() == vec.alive_nodes()
            assert tables_of(py) == tables_of(vec)
        # Final state equals a fresh oracle network replaying the script.
        fresh = BruteForceNetwork(NetworkConfig(n=60, avg_degree=10, seed=17,
                                                require_connected=False))
        for op, node in script:
            if op == "fail":
                fresh.fail_node(node)
            elif op == "revive":
                fresh.revive_node(node)
            else:
                fresh.join_node()
        assert tables_of(vec) == tables_of(fresh)

    def test_revive_restores_tables_exactly(self):
        py, vec = make_pair(seed=19)
        before_py, before_vec = tables_of(py), tables_of(vec)
        for victim in (7, 33):
            py.fail_node(victim)
            vec.fail_node(victim)
        for victim in (33, 7):
            py.revive_node(victim)
            vec.revive_node(victim)
        assert tables_of(py) == before_py
        assert tables_of(vec) == before_vec

    def test_tentative_fail_and_rollback_keep_parity(self):
        py, vec = make_pair(seed=23)
        for net in (py, vec):
            net.fail_node(9, commit=False)
        assert tables_of(py) == tables_of(vec)
        for net in (py, vec):
            net.revive_node(9)  # silent rollback
        assert tables_of(py) == tables_of(vec)
        assert py.is_alive(9) and vec.is_alive(9)

    def test_waypoint_churn_mix(self):
        py, vec = make_pair(mobility="waypoint", max_speed=10.0, seed=11)
        py.advance(2.5)
        vec.advance(2.5)
        py.fail_node(10)
        vec.fail_node(10)
        assert tables_of(py) == tables_of(vec)
        py.advance(4.0)
        vec.advance(4.0)
        py.join_node()
        vec.join_node()
        assert tables_of(py) == tables_of(vec)

    def test_connectivity_and_snapshot_agree(self):
        py, vec = make_pair(seed=2)
        assert py.is_connected() == vec.is_connected()
        everyone = range(vec.ids_assigned)
        assert [py.position(v) for v in everyone] == \
               [vec.position(v) for v in everyone]
        assert [py.true_neighbors(v) for v in everyone] == \
               [vec.true_neighbors(v) for v in everyone]

    def test_apply_churn_same_outcome(self):
        import random
        py, vec = make_pair(seed=13, n=50)
        out_py = apply_churn(py, fail_fraction=0.2, join_fraction=0.1,
                             rng=random.Random(4), keep_connected=True)
        out_vec = apply_churn(vec, fail_fraction=0.2, join_fraction=0.1,
                              rng=random.Random(4), keep_connected=True)
        assert out_py.failed == out_vec.failed
        assert out_py.joined == out_vec.joined
        assert tables_of(py) == tables_of(vec)

    def test_full_scenario_identical_stats(self):
        from repro.core.strategies import RandomStrategy

        results = []
        for network in (BruteForceNetwork, SimNetwork):
            net = network(NetworkConfig(n=80, avg_degree=10, seed=1))
            membership = make_membership(net, "random")
            strategy = RandomStrategy(membership)
            results.append(run_scenario(
                net, advertise_strategy=strategy, lookup_strategy=strategy,
                advertise_size=12, lookup_size=10, n_keys=5, n_lookups=25,
                seed=2))
        assert results[0] == results[1]


MOBILE = dict(n=50, avg_degree=10, seed=21, mobility="waypoint",
              min_speed=2.0, max_speed=30.0, pause_time=1.5,
              heartbeat_interval=4.0, require_connected=False)


def mobile_script(seed, steps=220):
    """Seeded clock moves (hop-sized and heartbeat-crossing), unicasts and
    churn, interleaved; ~90 simulated seconds, several legs per node."""
    rng = random.Random(seed)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55:
            yield "advance", rng.choice((0.05, 0.05, 0.4, 2.5))
        elif roll < 0.70:
            yield "hop", rng.randrange(MOBILE["n"])
        elif roll < 0.80:
            yield "fail", rng.randrange(MOBILE["n"])
        elif roll < 0.90:
            yield "revive", rng.randrange(MOBILE["n"])
        else:
            yield "join", None


def apply_step(net, op, arg):
    if op == "advance":
        net.advance(arg)
    elif op == "hop":
        # in_range() evaluates two positions before the neighbor query.
        stale = net.known_neighbors(arg) if net.is_alive(arg) else []
        if stale:
            net.one_hop_unicast(arg, stale[0])
    elif op == "fail":
        net.fail_node(arg)
    elif op == "revive":
        net.revive_node(arg)
    else:
        net.join_node()


class TestMobileSnapshot:
    """Under waypoint mobility a neighbor query is answered from the
    window's slack index, evaluating only the rows it reads.  Same
    answers, same trajectories."""

    def test_every_query_shape_matches_the_oracle(self):
        net = SimNetwork(NetworkConfig(**MOBILE))
        pick = random.Random(1)
        visited = set()
        for op, arg in mobile_script(seed=2):
            apply_step(net, op, arg)
            visited.add(net.now)
            alive = net.alive_nodes()
            one = pick.choice(alive)
            single = net.true_neighbors(one)      # first query at this state
            truth = brute_force_tables(net)
            assert single == truth[one]
            assert {v: net.true_neighbors(v) for v in alive} == truth
            assert net._neighbor_tables() == truth
            assert net.true_neighbors(one) == truth[one]
        assert len(visited) > 80

    def test_trajectories_match_the_oracle_twin(self):
        # All nodes draw from one mobility stream, so the lazy network
        # must advance expired legs at exactly the queries where the
        # oracle (which rebuilds everything on every query) does.
        lazy = SimNetwork(NetworkConfig(**MOBILE))
        twin = BruteForceNetwork(NetworkConfig(**MOBILE))
        start = dict(lazy.mobility._legs)
        pick = random.Random(3)
        for op, arg in mobile_script(seed=4):
            for net in (lazy, twin):
                apply_step(net, op, arg)
            assert lazy.now == twin.now
            one = pick.randrange(lazy._next_id)   # alive or dead
            assert lazy.true_neighbors(one) == twin.true_neighbors(one)
            assert lazy.mobility._legs == twin.mobility._legs
        assert {v: lazy.known_neighbors(v) for v in lazy.alive_nodes()} == \
               {v: twin.known_neighbors(v) for v in twin.alive_nodes()}
        moved = [v for v, leg in start.items() if lazy.mobility._legs[v] != leg]
        assert len(moved) > 40  # the run did cross leg boundaries

    def test_full_passes_bounded_by_whole_graph_consumers(self, monkeypatch):
        from repro.core.strategies import RandomStrategy, UniquePathStrategy

        net = SimNetwork(scenario_config(120, mobility="waypoint",
                                         max_speed=10.0, hop_latency=0.05,
                                         seed=5))
        membership = make_membership(net, "random")
        monkeypatch.setattr(PROFILER, "enabled", True)
        monkeypatch.setattr(PROFILER, "_stats", {})
        monkeypatch.setattr(PROFILER, "_stack", [])
        run_scenario(net, RandomStrategy(membership),
                     UniquePathStrategy(salvation=True), advertise_size=22,
                     lookup_size=13, n_keys=2, n_lookups=15, seed=2)
        phases = PROFILER.snapshot()

        def calls(name):
            return phases[name]["calls"] if name in phases else 0

        whole_graph = calls("routing.discover") + calls("neighbor.heartbeat")
        assert calls("kernel.batch_pass") <= whole_graph
        # One snapshot per visited timestamp, and most of them never
        # needed the table: a full pass per hop would fail here.
        assert calls("neighbor.rebuild") > 4 * whole_graph

    def test_fig13_point_identical_on_the_oracle(self, monkeypatch):
        import repro.experiments.figures as fig
        import repro.experiments.montecarlo as montecarlo

        seen = []
        run_scenario_real = fig.run_scenario

        def recording(*args, **kw):
            seen.append(run_scenario_real(*args, **kw))
            return seen[-1]

        monkeypatch.setattr(fig, "run_scenario", recording)
        kw = dict(n_keys=3, n_lookups=12, seed=3, jobs=1)
        point = fig.run_figure("fig14", 80, (10.0,), **kw)
        monkeypatch.setattr(montecarlo, "SimNetwork", BruteForceNetwork)
        oracle_point = fig.run_figure("fig14", 80, (10.0,), **kw)
        assert len(seen) == 2 and seen[0] == seen[1]
        assert point == oracle_point


def _scenario_point(n, seed):
    from repro.core.strategies import RandomStrategy

    net = make_network(n, seed=seed % 1000)
    membership = make_membership(net, "random")
    strategy = RandomStrategy(membership)
    return run_scenario(net, strategy, strategy, advertise_size=10,
                        lookup_size=10, n_keys=4, n_lookups=12,
                        seed=seed % 997)


class TestSweepRunner:
    def test_parallel_identical_to_sequential(self):
        seq = run_sweep([50, 70], _scenario_point, replications=2, jobs=1,
                        base_seed=5)
        par = run_sweep([50, 70], _scenario_point, replications=2, jobs=3,
                        base_seed=5)
        assert [r.point for r in seq] == [r.point for r in par]
        assert [r.results for r in seq] == [r.results for r in par]

    def test_seed_derivation_is_positional(self):
        from repro.experiments.runner import derive_task_seed

        seeds = {derive_task_seed(0, i, r) for i in range(4) for r in range(4)}
        assert len(seeds) == 16  # all distinct
        assert derive_task_seed(0, 1, 2) == derive_task_seed(0, 1, 2)

    def test_merge_weights_by_operations(self):
        stats = run_sweep([60], _scenario_point, replications=3,
                          base_seed=9)[0].results
        merged = merge_scenario_stats(stats)
        assert merged.lookups == sum(s.lookups for s in stats)
        assert merged.hits == sum(s.hits for s in stats)
        assert merged.hit_ratio == pytest.approx(
            sum(s.hits for s in stats)
            / sum(s.lookups_present for s in stats))
        # Merging must not mutate its inputs.
        again = merge_scenario_stats(stats)
        assert again == merged

    def test_single_stats_merge_is_identity(self):
        stats = _scenario_point(50, 3)
        assert merge_scenario_stats([copy.deepcopy(stats)]) == stats

    @pytest.mark.parametrize("raw,jobs", [("3", 3), ("0", 1), (" 2 ", 2)])
    def test_repro_jobs_sets_the_default(self, monkeypatch, raw, jobs):
        from repro.config import RunConfig

        monkeypatch.setenv("REPRO_JOBS", raw)
        assert RunConfig.from_env().jobs == jobs

    @pytest.mark.parametrize("raw", ["two", "2.5", ""])
    def test_malformed_repro_jobs_raises(self, monkeypatch, raw):
        from repro.config import RunConfig

        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError, match="REPRO_JOBS") as info:
            RunConfig.from_env()
        assert repr(raw) in str(info.value)


class TestReversePathGuard:
    def test_valid_tree(self):
        out = FloodOutcome(origin=0, ttl=2,
                           covered={0: 0, 1: 1, 2: 2},
                           parent={0: 0, 1: 0, 2: 1})
        assert out.reverse_path(2) == [2, 1, 0]

    def test_cycle_raises(self):
        out = FloodOutcome(origin=0, ttl=2,
                           covered={0: 0, 1: 1, 2: 2},
                           parent={0: 0, 1: 2, 2: 1})
        with pytest.raises(ValueError, match="cyclic"):
            out.reverse_path(2)

    def test_broken_chain_raises(self):
        out = FloodOutcome(origin=0, ttl=2,
                           covered={0: 0, 1: 1, 2: 2, 3: 3},
                           parent={0: 0, 2: 3})
        with pytest.raises(ValueError, match="broken"):
            out.reverse_path(2)

    def test_real_flood_paths_still_work(self):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=10, seed=4))
        outcome = net.flood(0, ttl=3)
        for node in outcome.covered:
            path = outcome.reverse_path(node)
            assert path[0] == node and path[-1] == 0
            assert len(path) == outcome.covered[node] + 1


class TestIncrementalChurn:
    def test_static_vectorized_no_table_rebuild(self, monkeypatch):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=10, seed=6))
        net.true_neighbors(0)
        tables_before = net._tables
        kernel_before = net._kernel
        assert tables_before is not None

        def boom(self, radius=None):  # a full pass would mean a rebuild
            raise AssertionError("full neighbor_tables rebuild on churn")

        monkeypatch.setattr(NeighborKernel, "neighbor_tables", boom)
        victim = net.alive_nodes()[-1]
        net.fail_node(victim)
        assert net.true_neighbors(victim) is not None
        joined = net.join_node()
        assert net._tables is tables_before
        assert net._kernel is kernel_before
        assert victim not in net._tables
        assert all(victim not in nbrs for nbrs in net._tables.values())
        assert joined in net._tables
        for other in net._tables[joined]:
            assert joined in net._tables[other]

    def test_churned_tables_match_fresh_network(self):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=10, seed=8))
        net.true_neighbors(0)  # build tables, then churn incrementally
        for victim in (2, 11, 29):
            net.fail_node(victim)
        fresh = BruteForceNetwork(NetworkConfig(n=60, avg_degree=10, seed=8))
        for victim in (2, 11, 29):
            fresh.fail_node(victim)
        assert tables_of(net) == tables_of(fresh)
        assert tables_of(net) == brute_force_tables(net)


class TestBatchedReplicaTables:
    def _random_positions(self, rng, n, side):
        return [(rng.uniform(0, side), rng.uniform(0, side))
                for _ in range(n)]

    def test_matches_solo_kernel_per_replica(self):
        import random as _random

        from repro.geometry.kernel import batched_neighbor_tables

        side, radius, n, reps = 1000.0, 180.0, 40, 5
        rng = _random.Random(11)
        ids = list(range(n))
        stacks = [self._random_positions(rng, n, side) for _ in range(reps)]
        batched = batched_neighbor_tables(ids, stacks, side=side,
                                          radius=radius)
        assert len(batched) == reps
        for positions, tables in zip(stacks, batched):
            kernel = NeighborKernel(side=side, radius=radius)
            kernel.rebuild(ids, positions)
            assert tables == kernel.neighbor_tables()

    def test_torus_wraparound_matches_solo(self):
        import random as _random

        from repro.geometry.kernel import batched_neighbor_tables

        side, radius, n = 500.0, 170.0, 25
        rng = _random.Random(3)
        ids = list(range(n))
        stacks = [self._random_positions(rng, n, side) for _ in range(3)]
        batched = batched_neighbor_tables(ids, stacks, side=side,
                                          radius=radius, torus=True)
        for positions, tables in zip(stacks, batched):
            kernel = NeighborKernel(side=side, radius=radius, torus=True)
            kernel.rebuild(ids, positions)
            assert tables == kernel.neighbor_tables()

    def test_replicas_stay_isolated(self):
        # Two replicas, same ids, positions arranged so that cross-replica
        # pairs would be neighbors if the batch pass leaked between them.
        from repro.geometry.kernel import batched_neighbor_tables

        ids = [0, 1]
        rep_a = [(10.0, 10.0), (900.0, 900.0)]   # far apart: no edge
        rep_b = [(12.0, 12.0), (13.0, 13.0)]     # co-located: edge
        tables = batched_neighbor_tables(ids, [rep_a, rep_b],
                                         side=1000.0, radius=50.0)
        assert tables[0] == {0: [], 1: []}
        assert tables[1] == {0: [1], 1: [0]}

    def test_single_deployment_matrix_accepted(self):
        import random as _random

        from repro.geometry.kernel import batched_neighbor_tables

        rng = _random.Random(9)
        ids = list(range(20))
        positions = self._random_positions(rng, 20, 600.0)
        tables = batched_neighbor_tables(ids, positions, side=600.0,
                                         radius=150.0)
        kernel = NeighborKernel(side=600.0, radius=150.0)
        kernel.rebuild(ids, positions)
        assert tables == [kernel.neighbor_tables()]

    def test_degenerate_sizes(self):
        import numpy as np

        from repro.geometry.kernel import batched_neighbor_tables

        assert batched_neighbor_tables([], np.zeros((2, 0, 2)), side=100.0,
                                       radius=10.0) == [{}, {}]
        assert batched_neighbor_tables([7], [[(5.0, 5.0)], [(6.0, 6.0)]],
                                       side=100.0, radius=10.0) == [
            {7: []}, {7: []}]

    def test_radius_beyond_side_gives_complete_graph(self):
        # One cell per side: every pair is a candidate, so a radius wider
        # than the cell is accepted (here wider than the diagonal).
        from repro.geometry.kernel import batched_neighbor_tables

        rng = random.Random(4)
        side, ids = 100.0, list(range(12))
        positions = self._random_positions(rng, len(ids), side)
        complete = {i: [j for j in ids if j != i] for i in ids}
        for torus in (False, True):
            assert batched_neighbor_tables(ids, positions, side, 1.5 * side,
                                           torus) == [complete]
            kernel = NeighborKernel(side, 1.5 * side, torus=torus)
            kernel.rebuild(ids, positions)
            assert kernel.neighbor_tables() == complete


def straddling_pair(radius):
    """Two points whose separation the ``hypot`` spellings put on opposite
    sides of ``radius``: ``np.hypot`` against ``math.hypot`` where this
    build has such a pair, else ``math.hypot`` against
    ``sqrt(dx*dx + dy*dy)``."""
    rng = np.random.default_rng(0)
    a = np.array([300.0, 300.0])
    theta = rng.uniform(0.0, 0.5 * np.pi, 20_000)
    b = a + radius * np.column_stack((np.cos(theta), np.sin(theta)))
    d = np.abs(b - a)
    numpy_in = np.hypot(d[:, 0], d[:, 1]) <= radius
    math_in = np.array([math.hypot(x, y) <= radius for x, y in d.tolist()])
    sqrt_in = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= radius
    for split in (numpy_in != math_in, math_in != sqrt_in):
        if split.any():
            return tuple(a.tolist()), tuple(b[np.argmax(split)].tolist())
    raise AssertionError("no straddling pair on the circle")


class TestOneRangePredicate:
    """``in_range`` and the neighbor lists answer "is b in range of a"
    from one distance contract, on both floors, even for a pair that sits
    within an ULP of the radius."""

    def test_boundary_pair_gets_one_answer(self):
        radius = PhyParams().ideal_range_m
        a, b = straddling_pair(radius)
        cfg = dict(n=2, avg_degree=1.0, radio_range=radius,
                   require_connected=False)
        static = SimNetwork(NetworkConfig(**cfg), positions=[a, b])
        mobile = SimNetwork(NetworkConfig(mobility="waypoint", **cfg))
        pairs = [(static, 0, 1),
                 (mobile, mobile.join_node(a), mobile.join_node(b))]

        stack = AdhocStack(StackConfig(n=2, avg_degree=1.0,
                                       channel="protocol"))
        for node, p in enumerate((a, b)):
            stack.env.add_node(node, position=p)
        pairs.append((PacketQuorumNetwork(stack), 0, 1))

        answers = set()
        for net, u, v in pairs:
            assert (net.position(u), net.position(v)) == (a, b)
            assert net.in_range(u, v) == (v in net.true_neighbors(u))
            assert net.in_range(v, u) == (u in net.true_neighbors(v))
            answers.add(net.in_range(u, v))
        assert len(answers) == 1
