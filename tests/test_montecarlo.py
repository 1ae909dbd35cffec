"""Tests for the batched Monte-Carlo replication engine.

The load-bearing guarantee: the ``batched`` backend must be
*statistic-identical* to the ``sequential`` backend for the same seed
list — sharing neighbor tables and BFS route memos across replicas is a
pure optimization, never a semantics change.  These tests assert exact
(field-by-field, not approximate) equality across workloads that stress
every fast-path gate: plain routed scenarios, post-churn routing,
waypoint mobility, and lossy links.
"""

import math
import random
from functools import partial

import numpy as np
import pytest

from repro.core import access_engine
from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.strategies import RandomStrategy, UniquePathStrategy
from repro.experiments.common import (
    ScenarioStats,
    make_membership,
    make_network,
    run_scenario,
    scenario_config,
)
from repro.experiments.montecarlo import (
    ReplicationPlan,
    Welford,
    run_replicated,
    scenario_seed_list,
    summarize_replicas,
    wilson_interval,
)
from repro.services.location import LocationService
from repro.sim.rng import replica_seeds
from repro.simnet import replication
from repro.simnet.churn import apply_churn
from repro.simnet.network import SimNetwork


def _random_run(qa=10, ql=8, n_keys=5, n_lookups=30):
    def run(net, rep_seed):
        strategy = RandomStrategy(make_membership(net, "random"))
        return run_scenario(net, strategy, strategy, advertise_size=qa,
                            lookup_size=ql, n_keys=n_keys,
                            n_lookups=n_lookups, seed=rep_seed)
    return run


def _assert_replicas_identical(a, b):
    assert a.seeds == b.seeds
    assert a.reps == b.reps
    for left, right in zip(a.stats, b.stats):
        assert left == right


class TestStreamingStats:
    def test_welford_matches_numpy(self):
        rng = random.Random(5)
        values = [rng.gauss(3.0, 2.0) for _ in range(200)]
        acc = Welford()
        for v in values:
            acc.update(v)
        assert acc.count == len(values)
        assert acc.mean == pytest.approx(np.mean(values), rel=1e-12)
        assert acc.variance == pytest.approx(np.var(values, ddof=1),
                                             rel=1e-10)

    def test_welford_small_counts(self):
        acc = Welford()
        assert math.isnan(acc.variance)
        acc.update(4.0)
        assert acc.mean == 4.0
        assert math.isnan(acc.halfwidth())
        acc.update(6.0)
        assert acc.mean == 5.0
        assert acc.variance == pytest.approx(2.0)
        assert acc.halfwidth(0.95) > 0

    def test_wilson_interval_contains_proportion(self):
        low, high = wilson_interval(45, 60)
        assert 0.0 <= low < 45 / 60 < high <= 1.0

    def test_wilson_boundaries_stay_informative(self):
        low, high = wilson_interval(60, 60)
        assert high == pytest.approx(1.0) and low < 1.0  # not zero-width
        low0, high0 = wilson_interval(0, 60)
        assert low0 == pytest.approx(0.0) and high0 > 0.0

    def test_wilson_no_trials_is_nan(self):
        low, high = wilson_interval(0, 0)
        assert math.isnan(low) and math.isnan(high)

    def test_wilson_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_wider_confidence_widens_interval(self):
        low95, high95 = wilson_interval(30, 60, confidence=0.95)
        low99, high99 = wilson_interval(30, 60, confidence=0.99)
        assert low99 < low95 and high99 > high95


class TestReplicaSeeds:
    def test_prefix_stable(self):
        # A stopping rule can extend a run without changing earlier seeds.
        assert replica_seeds(7, 4) == replica_seeds(7, 16)[:4]

    def test_deterministic_and_distinct(self):
        seeds = replica_seeds(3, 64)
        assert seeds == replica_seeds(3, 64)
        assert len(set(seeds)) == 64
        assert replica_seeds(4, 64) != seeds

    def test_scenario_seed_list_replica0_is_legacy(self):
        # Replica 0 keeps base_seed+1: one replica == historical run.
        seeds = scenario_seed_list(12, 5)
        assert seeds[0] == 13
        assert seeds[1:] == replica_seeds(12, 4)
        assert scenario_seed_list(12, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            replica_seeds(0, -1)


class TestBackendEquivalence:
    def test_batched_identical_to_sequential(self):
        cfg = scenario_config(60, seed=3)
        run = _random_run()
        seq = run_replicated(cfg, run, reps=4, backend="sequential",
                             base_seed=3)
        bat = run_replicated(cfg, run, reps=4, backend="batched",
                             base_seed=3)
        _assert_replicas_identical(seq, bat)
        assert seq.backend == "sequential" and bat.backend == "batched"

    def test_reps1_reproduces_legacy_single_run(self):
        # The exact run every figure module has always performed.
        net = make_network(60, seed=3)
        strategy = RandomStrategy(make_membership(net, "random"))
        legacy = run_scenario(net, strategy, strategy, advertise_size=10,
                              lookup_size=8, n_keys=5, n_lookups=30,
                              seed=4)
        for backend in ("batched", "sequential"):
            outcome = run_replicated(scenario_config(60, seed=3),
                                     _random_run(), reps=1, backend=backend,
                                     base_seed=3)
            assert legacy == outcome.stats[0]

    def test_identical_under_divergent_churn(self):
        # Post-churn topologies differ per replica (workload-driven churn),
        # so the shared route oracle must stop serving mutated networks.
        def run(net, rep_seed):
            membership = make_membership(net, "random")
            rng = random.Random(rep_seed)
            biq = ProbabilisticBiquorum(
                net, advertise=RandomStrategy(membership),
                lookup=RandomStrategy(membership),
                advertise_size=15, lookup_size=12,
                adjust_to_network_size=False)
            service = LocationService(biq)
            keys = [f"key-{i}" for i in range(5)]
            for key in keys:
                service.advertise(net.random_alive_node(rng), key, key)
            apply_churn(net, fail_fraction=0.3, join_fraction=0.3, rng=rng,
                        keep_connected=True)
            membership.refresh()
            hits = sum(
                bool(service.lookup(net.random_alive_node(rng),
                                    rng.choice(keys)).found)
                for _ in range(25))
            return ScenarioStats(n=net.n_alive, lookups=25, hits=hits)

        cfg = scenario_config(80, avg_degree=15.0, seed=7)
        seq = run_replicated(cfg, run, reps=4, backend="sequential",
                             base_seed=7)
        bat = run_replicated(cfg, run, reps=4, backend="batched",
                             base_seed=7)
        _assert_replicas_identical(seq, bat)

    def test_every_tree_is_built_once_in_the_one_adopted_oracle(
            self, monkeypatch):
        # Count gate for the single shared BFS memo: while a replica
        # stands at the adopted topology version its engine builds
        # nothing; replica 2 churns mid-run and from then on builds in
        # its own LRU, while replica 3 keeps reading the oracle.
        builds = []
        real_bfs_tree = replication.bfs_tree

        def counting_bfs_tree(net, src):
            builds.append(src)
            return real_bfs_tree(net, src)

        for module in (replication, access_engine):
            monkeypatch.setattr(module, "bfs_tree", counting_bfs_tree)
        seen, oracle_reads = {}, []

        def run(net, rep_seed):
            replica = net.trace.context["replica"]
            oracle = net.access_engine._shared  # None when sequential
            rng = random.Random(rep_seed)
            delivered = messages = 0
            for i in range(40):
                if replica == 2 and i in (20, 39) and oracle is not None:
                    oracle_reads.append(oracle.hits + oracle.misses)
                if replica == 2 and i == 20:
                    net.fail_node(net.random_alive_node(rng))
                result = net.route(net.random_alive_node(rng),
                                   net.random_alive_node(rng))
                delivered += result.success
                messages += result.routing_messages
            seen[replica] = net
            return ScenarioStats(n=net.n_alive, lookups=40, hits=delivered,
                                 lookup_routing_total=messages)

        cfg = scenario_config(60, seed=3)
        bat = run_replicated(cfg, run, reps=4, backend="batched",
                             base_seed=3)
        engines = {r: net.access_engine for r, net in seen.items()}
        oracle = engines[0]._shared
        assert all(e._shared is oracle for e in engines.values())
        assert oracle.misses == len(oracle.trees) and oracle.hits > 0
        for replica in (0, 1, 3):
            assert engines[replica].tree_misses == 0
            assert engines[replica].tree_hits == 0
        before_churn, near_the_end = oracle_reads
        assert before_churn == near_the_end and engines[2].tree_misses > 0
        assert len(builds) == oracle.misses + engines[2].tree_misses
        assert not hasattr(SimNetwork, "attach_route_oracle")

        seq = run_replicated(cfg, run, reps=4, backend="sequential",
                             base_seed=3)
        _assert_replicas_identical(seq, bat)
        assert all(net.access_engine._shared is None for net in seen.values())

    @pytest.mark.slow
    def test_identical_under_waypoint_mobility(self):
        cfg = scenario_config(50, mobility="waypoint", max_speed=10.0,
                              seed=2, hop_latency=0.05)

        def run(net, rep_seed):
            membership = make_membership(net, "random")
            return run_scenario(
                net, RandomStrategy(membership),
                UniquePathStrategy(salvation=True),
                advertise_size=12, lookup_size=8,
                n_keys=4, n_lookups=20, seed=rep_seed)

        seq = run_replicated(cfg, run, reps=3, backend="sequential",
                             base_seed=2)
        bat = run_replicated(cfg, run, reps=3, backend="batched",
                             base_seed=2)
        _assert_replicas_identical(seq, bat)

    def test_identical_with_lossy_links(self):
        # drop_prob > 0: one-step sends draw their losses; results must
        # still match exactly (drops draw from the per-replica stream).
        cfg = scenario_config(50, seed=4, drop_prob=0.05)
        run = _random_run(qa=12, ql=9, n_lookups=25)
        seq = run_replicated(cfg, run, reps=3, backend="sequential",
                             base_seed=4)
        bat = run_replicated(cfg, run, reps=3, backend="batched",
                             base_seed=4)
        _assert_replicas_identical(seq, bat)

    def test_replicas_are_decorrelated(self):
        outcome = run_replicated(scenario_config(60, seed=3), _random_run(),
                                 reps=4, backend="batched", base_seed=3)
        totals = [s.lookup_messages_total for s in outcome.stats]
        assert len(set(totals)) > 1  # replicas vary — not clones

    def test_explicit_seed_list_round_trips(self):
        cfg = scenario_config(60, seed=3)
        run = _random_run()
        auto = run_replicated(cfg, run, reps=3, backend="batched",
                              base_seed=3)
        again = run_replicated(cfg, run, reps=3, backend="sequential",
                               base_seed=3)
        # Both backends consume the derived scenario seeds, in order.
        assert auto.seeds == again.seeds == scenario_seed_list(3, 3)
        _assert_replicas_identical(auto, again)


class TestAggregation:
    def test_estimates_and_wilson(self):
        outcome = run_replicated(scenario_config(60, seed=3), _random_run(),
                                 reps=4, backend="batched", base_seed=3)
        est = outcome.estimates["hit_ratio"]
        assert est.reps == 4
        assert est.mean == pytest.approx(
            np.mean([s.hit_ratio for s in outcome.stats]))
        assert est.halfwidth > 0
        low, high = outcome.wilson
        assert 0.0 <= low <= high <= 1.0
        # hit_ratio's half-width is the pooled Wilson half-width.
        assert outcome.halfwidth("hit_ratio") == pytest.approx(
            (high - low) / 2.0)
        merged = outcome.merged
        assert merged.lookups == sum(s.lookups for s in outcome.stats)

    def test_reps0_yields_nan_not_crash(self):
        # Empty-reps guard: zero replicas (or an all-faulted run) must
        # produce NaN rows, never a ZeroDivisionError.
        outcome = run_replicated(scenario_config(60, seed=3), _random_run(),
                                 reps=0, backend="batched", base_seed=3)
        assert outcome.reps == 0
        assert math.isnan(outcome.mean("hit_ratio"))
        assert math.isnan(outcome.halfwidth("hit_ratio"))
        assert math.isnan(outcome.wilson[0])
        assert outcome.merged is None

    def test_summarize_empty_is_all_nan(self):
        estimates, wilson = summarize_replicas([])
        assert all(math.isnan(e.mean) for e in estimates.values())
        assert math.isnan(wilson[0]) and math.isnan(wilson[1])

    def test_on_error_skip_counts_faults(self):
        calls = []

        def flaky(net, rep_seed):
            calls.append(rep_seed)
            if len(calls) == 2:
                raise RuntimeError("replica fault")
            return ScenarioStats(n=10, lookups=10, hits=9)

        outcome = run_replicated(scenario_config(40, seed=1), flaky,
                                 reps=3, backend="sequential", base_seed=1,
                                 on_error="skip")
        assert outcome.faulted == 1
        assert outcome.reps == 2
        assert not math.isnan(outcome.mean("hit_ratio"))

    def test_on_error_raise_propagates(self):
        def boom(net, rep_seed):
            raise RuntimeError("replica fault")

        with pytest.raises(RuntimeError, match="replica fault"):
            run_replicated(scenario_config(40, seed=1), boom, reps=1,
                           backend="sequential", base_seed=1)

    def test_all_faulted_is_nan_not_crash(self):
        def boom(net, rep_seed):
            raise RuntimeError("fault")

        outcome = run_replicated(scenario_config(40, seed=1), boom, reps=3,
                                 backend="sequential", base_seed=1,
                                 on_error="skip")
        assert outcome.reps == 0 and outcome.faulted == 3
        assert math.isnan(outcome.mean("hit_ratio"))


class TestStoppingRule:
    def test_stops_once_target_met(self):
        outcome = run_replicated(
            scenario_config(50, seed=1), _random_run(qa=15, ql=12),
            reps=2, backend="batched", base_seed=1,
            target_halfwidth=0.5, max_reps=12)
        # A 0.5 half-width is trivially met by the mandatory replicas.
        assert outcome.reps == 2
        assert outcome.stopped_early
        assert outcome.halfwidth("hit_ratio") <= 0.5

    def test_extends_up_to_max_reps(self):
        outcome = run_replicated(
            scenario_config(50, seed=1), _random_run(qa=15, ql=12),
            reps=2, backend="batched", base_seed=1,
            target_halfwidth=1e-9, max_reps=5)
        # Unreachable target: runs the whole budget, never past it.
        assert outcome.reps == 5
        assert not outcome.stopped_early

    def test_budget_defaults_to_8x(self):
        plan = ReplicationPlan(reps=3, target_halfwidth=0.01)
        assert plan.replica_budget() == 24
        assert ReplicationPlan(reps=3).replica_budget() == 3

    def test_extension_preserves_mandatory_prefix(self):
        run = _random_run(qa=15, ql=12)
        base = run_replicated(scenario_config(50, seed=1), run, reps=2,
                              backend="batched", base_seed=1)
        extended = run_replicated(scenario_config(50, seed=1), run, reps=2,
                                  backend="batched", base_seed=1,
                                  target_halfwidth=1e-9, max_reps=4)
        for left, right in zip(base.stats, extended.stats[:2]):
            assert left == right


class TestReplicaTracing:
    def test_trace_events_carry_replica_id(self):
        per_replica = {}

        def run(net, rep_seed):
            net.trace.enable(memory=True)
            stats = _random_run(n_keys=2, n_lookups=5)(net, rep_seed)
            replicas = {e.fields.get("replica") for e in net.trace.events()}
            per_replica[net.trace.context["replica"]] = replicas
            return stats

        run_replicated(scenario_config(40, seed=6), run, reps=3,
                       backend="batched", base_seed=6)
        assert set(per_replica) == {0, 1, 2}
        for index, replicas in per_replica.items():
            assert replicas == {index}


class TestPlanValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            run_replicated(scenario_config(40, seed=1), _random_run(),
                           reps=1, backend="gpu", base_seed=1)

    def test_vary_network_is_gone(self):
        # Replicas always share one deployment; nothing ever set this.
        with pytest.raises(TypeError):
            ReplicationPlan(vary_network=True)
        with pytest.raises(TypeError):
            run_replicated(scenario_config(40, seed=1), _random_run(),
                           reps=1, vary_network=True, base_seed=1)

    def test_negative_reps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_replicated(scenario_config(40, seed=1), _random_run(),
                           reps=-1, base_seed=1)

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_replicated(scenario_config(40, seed=1), _random_run(),
                           reps=1, on_error="ignore", base_seed=1)


class TestSweepDeterminism:
    def test_jobs_do_not_change_results(self):
        # The process pool must be a pure throughput knob: per-point
        # results (including replicated ones) are identical at any jobs.
        from repro.experiments.figures import run_figure

        serial = run_figure("fig8c", 40, (0.5, 1.0), n_keys=3, n_lookups=10,
                            jobs=1, reps=2)
        pooled = run_figure("fig8c", 40, (0.5, 1.0), n_keys=3, n_lookups=10,
                            jobs=4, reps=2)
        assert serial == pooled

    def test_backend_does_not_change_figure_points(self, monkeypatch):
        # Figure drivers always share per-deployment work; the oracle is
        # the same driver with sharing switched off underneath it.
        from repro.experiments import figures

        def figure():
            return figures.run_figure("fig8c", 40, (1.0,), n_keys=3,
                                      n_lookups=10, jobs=1, reps=3)

        batched = figure()
        monkeypatch.setattr(
            figures, "run_replicated",
            partial(run_replicated, backend="sequential"))
        assert batched == figure()
