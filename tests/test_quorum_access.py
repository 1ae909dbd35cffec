"""Simulator integration of the algebraic quorum layer.

Covers the PR's acceptance criteria: :class:`AlgebraicStrategy` is
statistic-identical across the batched and sequential access backends,
runs clean under ``REPRO_AUDIT=strict``, and — the headline cross-check —
the optimizer-predicted per-node load matches the simulated load (from
the metrics registry) within the Monte-Carlo CI at R=16 on both the
majority and 3x3 grid systems.  Plus the bugfix satellites: skipped
replicas leave an audit trail instead of vanishing, strict-audit errors
always propagate out of ``run_replicated``, and trace close failures
during GC are counted, not swallowed.
"""

import dataclasses
import math
import random

import pytest
from reference import per_event

from repro.experiments.common import run_scenario, scenario_config
from repro.experiments.fig_quorum import quorum_load_point, quorum_load_sweep
from repro.experiments.montecarlo import (
    WORKLOAD_STREAMS,
    run_replicated,
)
from repro.obs import trace as trace_mod
from repro.obs.audit import AuditError
from repro.obs.watch import ConservationWatcher
from repro.quorum import (
    AlgebraicStrategy,
    Node,
    QuorumSystem,
    build_system,
    majority_system,
    measured_node_loads,
    placement_for,
    solve_strategy,
)
from repro.simnet.network import NetworkConfig, SimNetwork


def _drive(net, strategy, seed=11, ops=12):
    """A deterministic advertise/lookup script; returns all results."""
    rng = random.Random(seed)
    stored = set()
    results = []
    for i in range(ops):
        origin = net.random_alive_node(rng)
        if i % 2 == 0:
            results.append(strategy.advertise(net, origin, stored.add, 0))
        else:
            results.append(strategy.lookup(
                net, origin, lambda v: v if v in stored else None, 0))
    return results


class TestBackendEquality:
    def test_batched_and_sequential_results_identical(self):
        qs = majority_system(range(5))
        sigma = solve_strategy(qs)
        observed = []
        for prepare in (per_event, lambda net: net):
            net = prepare(SimNetwork(NetworkConfig(n=50, seed=4)))
            results = _drive(net, AlgebraicStrategy(qs, strategy=sigma))
            observed.append([dataclasses.asdict(r) for r in results])
        assert observed[0] == observed[1]

    def test_scenario_stats_identical_across_backends(self):
        qs = build_system("grid", range(9))
        sigma = solve_strategy(qs)
        stats = []
        for prepare in (per_event, lambda net: net):
            net = prepare(SimNetwork(NetworkConfig(n=50, seed=4)))
            strategy = AlgebraicStrategy(qs, strategy=sigma)
            stats.append(run_scenario(
                net, advertise_strategy=strategy, lookup_strategy=strategy,
                advertise_size=0, lookup_size=0, n_keys=5, n_lookups=15,
                seed=9))
        assert stats[0] == stats[1]


class TestStrictAudit:
    def test_algebraic_access_is_audit_clean(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "strict")
        net = SimNetwork(NetworkConfig(n=40, seed=6))
        qs = majority_system(range(5))
        results = _drive(net, AlgebraicStrategy(qs, strategy=qs.strategy()))
        assert net.auditor is not None
        audit = next(w for w in net.watch_hub.watchers
                     if isinstance(w, ConservationWatcher))
        assert audit.accesses_checked == len(results)
        assert net.auditor.violations == []
        assert any(r.success for r in results)

    def test_intersecting_quorums_always_hit_on_static_network(self):
        net = SimNetwork(NetworkConfig(n=40, seed=6))
        qs = majority_system(range(5))
        strategy = AlgebraicStrategy(qs, strategy=qs.strategy())
        stats = run_scenario(
            net, advertise_strategy=strategy, lookup_strategy=strategy,
            advertise_size=0, lookup_size=0, n_keys=6, n_lookups=20, seed=2)
        assert stats.hit_ratio == 1.0


class TestLoadCrossCheck:
    """Acceptance: predicted load == simulated load within CI at R=16."""

    @pytest.mark.parametrize("system,m,expected_load", [
        ("majority", 5, 0.6),
        ("grid", 9, 1 / 3),
    ])
    def test_predicted_matches_simulated_at_r16(self, system, m,
                                                expected_load):
        point = quorum_load_point(system, 0.5, n=40, m=m, reps=16,
                                  ops=60, seed=0)
        assert point.reps == 16
        assert point.predicted_load == pytest.approx(expected_load,
                                                     abs=1e-6)
        assert point.within_ci, (
            f"simulated load {point.node_loads_simulated} deviates from "
            f"prediction {point.node_loads_predicted} beyond the CI")
        assert point.max_gap < 0.1
        assert point.hit_ratio == 1.0

    def test_replicas_see_distinct_quorum_draws(self):
        assert "algebra-strategy" in WORKLOAD_STREAMS
        point = quorum_load_point("majority", 0.5, n=30, m=5, reps=4,
                                  ops=40, seed=3)
        # Reseeded workload streams => across-replica variance is real,
        # so the CI half-width cannot collapse to ~0.
        assert point.simulated_load_hw > 0.005


class TestDegenerateInputs:
    def test_all_faulted_yields_nan_row(self):
        point = quorum_load_point("majority", 0.5, n=25, m=3, reps=2,
                                  ops=10, seed=1, faulty={0, 1, 2})
        assert not point.feasible
        assert point.reps == 0
        assert math.isnan(point.predicted_load)
        assert math.isnan(point.simulated_load)

    def test_one_sided_read_fractions_run(self):
        for fr in (0.0, 1.0):
            point = quorum_load_point("majority", fr, n=25, m=3, reps=2,
                                      ops=10, seed=1)
            assert point.feasible
            assert not math.isnan(point.simulated_load)
            assert math.isnan(point.hit_ratio)  # no present lookups

    def test_sweep_renders_all_points(self):
        points = quorum_load_sweep(systems=("chain",),
                                   read_fractions=(0.5,), n=25, m=4,
                                   reps=2, ops=10, seed=1)
        assert len(points) == 1
        assert points[0].feasible


class TestPlacementAndMetrics:
    def test_measured_loads_empty_without_accesses(self):
        net = SimNetwork(NetworkConfig(n=20, seed=1))
        assert measured_node_loads(net) == {}

    def test_placement_maps_symbolic_elements(self):
        qs = QuorumSystem(reads=Node("a") * Node("b") + Node("c"))
        net = SimNetwork(NetworkConfig(n=20, seed=1))
        placement = placement_for(qs, net)
        assert sorted(placement) == ["a", "b", "c"]
        assert sorted(placement.values()) == [0, 1, 2]
        strategy = AlgebraicStrategy(qs, placement=placement)
        results = _drive(net, strategy, ops=4)
        assert all(r.quorum is not None for r in results)

    def test_placement_rejects_oversized_system(self):
        from repro.quorum import Or

        qs = QuorumSystem(reads=Or([Node(i) for i in range(25)]))
        net = SimNetwork(NetworkConfig(n=20, seed=1))
        with pytest.raises(ValueError, match="needs 25 nodes"):
            placement_for(qs, net)


class TestReplicaFaultRouting:
    """The montecarlo bugfix: skipped replicas leave an audit trail."""

    def test_audit_error_propagates_even_under_skip(self):
        def bad(net, rep_seed):
            raise AuditError("strict accounting violation")

        with pytest.raises(AuditError):
            run_replicated(scenario_config(30, seed=1), bad, reps=2,
                           backend="sequential", base_seed=1,
                           on_error="skip")

    def test_unexpected_exception_types_propagate_under_skip(self):
        def bad(net, rep_seed):
            raise TypeError("coding bug, not workload noise")

        with pytest.raises(TypeError):
            run_replicated(scenario_config(30, seed=1), bad, reps=2,
                           backend="sequential", base_seed=1,
                           on_error="skip")

    def test_skipped_replica_is_recorded_on_all_channels(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "record")
        seen = []

        def flaky(net, rep_seed):
            seen.append(net)
            net.trace.enable(memory=True)
            raise RuntimeError("replica fault")

        outcome = run_replicated(scenario_config(30, seed=1), flaky,
                                 reps=1, backend="sequential", base_seed=1,
                                 on_error="skip")
        assert outcome.faulted == 1
        net = seen[0]
        assert net.metrics.counter_value("replication.faulted") == 1
        assert [v.code for v in net.auditor.violations] == ["replica-fault"]
        assert any(e.kind == "replica-fault"
                   for e in net.trace.events())


class TestTraceCloseSafetyNet:
    def test_close_failures_are_counted_not_lost(self, monkeypatch):
        trace = trace_mod.EventTrace()

        def boom():
            raise OSError("fd already closed")

        monkeypatch.setattr(trace, "close", boom)
        before = trace_mod.close_failures()
        trace.__del__()
        assert trace_mod.close_failures() == before + 1


class TestQuorumCli:
    def test_repro_quorum_smoke(self, capsys):
        from repro.cli import main

        code = main(["quorum", "--n", "25", "--reps", "2",
                     "--lookups", "16", "--quorum-nodes", "4",
                     "--systems", "majority", "chain",
                     "--read-fractions", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "majority" in out and "chain" in out
        assert "read fraction" in out  # the ascii chart rendered
