"""Tests for the extension features: promiscuous overhearing, gossip-flood
quorums, network-size estimation, consistency checking, and the CLI."""

import math
import random

import pytest

from repro import (
    CheckedRegister,
    FullMembership,
    GossipFloodStrategy,
    NetworkConfig,
    NetworkSizeEstimator,
    ProbabilisticBiquorum,
    ProbabilisticRegister,
    RandomStrategy,
    SimNetwork,
    UniquePathStrategy,
)
from repro.cli import COMMANDS, build_parser, main


def make_net(n=100, seed=0, **kw):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed, **kw))


class TestOverhearing:
    def probe_for(self, targets):
        hits = set(targets)
        return lambda node: "v" if node in hits else None

    def test_overhearing_halts_on_neighbor_hit(self):
        net = make_net(seed=1)
        # Datum stored ONLY at neighbors of node 0 (not at 0 itself).
        owners = set(net.true_neighbors(0))
        strategy = UniquePathStrategy(overhearing=True,
                                      rng=random.Random(2))
        result = strategy.lookup(net, 0, self.probe_for(owners),
                                 target_size=30)
        assert result.found
        assert result.overheard or result.hit_node in owners

    def test_overhearing_shortens_walks(self):
        net = make_net(seed=3)
        rng_a, rng_b = random.Random(5), random.Random(5)
        owners = set(net.alive_nodes()[60:75])
        plain = UniquePathStrategy(overhearing=False, rng=rng_a)
        hear = UniquePathStrategy(overhearing=True, rng=rng_b)
        plain_res = plain.lookup(net, 0, self.probe_for(owners), 40)
        hear_res = hear.lookup(net, 0, self.probe_for(owners), 40)
        if plain_res.found and hear_res.found:
            assert hear_res.quorum_size <= plain_res.quorum_size

    def test_overhearing_off_by_default(self):
        assert not UniquePathStrategy().overhearing

    def test_no_false_hits_without_data(self):
        net = make_net(seed=1)
        strategy = UniquePathStrategy(overhearing=True,
                                      rng=random.Random(2))
        result = strategy.lookup(net, 0, lambda v: None, target_size=10)
        assert not result.found
        assert not result.overheard


class TestGossipFloodStrategy:
    def test_advertise_selects_about_target_size(self):
        net = make_net(seed=4)
        strategy = GossipFloodStrategy(rng=random.Random(1))
        stored = []
        result = strategy.advertise(net, 0, stored.append, target_size=20)
        assert result.success
        assert 8 <= result.quorum_size <= 40  # binomial around 20
        assert sorted(stored) == result.quorum

    def test_advertise_costs_a_whole_network_flood(self):
        net = make_net(seed=4)
        strategy = GossipFloodStrategy(rng=random.Random(1))
        result = strategy.advertise(net, 0, lambda v: None, target_size=20)
        assert result.messages >= 0.7 * net.n_alive

    def test_members_are_spread_uniformly(self):
        net = make_net(n=120, seed=5)
        strategy = GossipFloodStrategy(rng=random.Random(2))
        counts = {}
        for origin in range(10):
            result = strategy.advertise(net, origin, lambda v: None,
                                        target_size=24)
            for m in result.quorum:
                counts[m] = counts.get(m, 0) + 1
        # Many distinct nodes selected across accesses.
        assert len(counts) >= 70

    def test_uniform_random_flag_enables_mix_and_match(self):
        assert GossipFloodStrategy.uniform_random

    def test_mix_with_unique_path_intersects(self):
        net = make_net(n=120, seed=6)
        bq = ProbabilisticBiquorum(
            net, advertise=GossipFloodStrategy(rng=random.Random(3)),
            lookup=UniquePathStrategy(), epsilon=0.1)
        rng = random.Random(4)
        hits = 0
        for _ in range(12):
            stored = set()
            bq.write(net.random_alive_node(rng), stored.add)
            res = bq.read(net.random_alive_node(rng),
                          lambda v: "x" if v in stored else None)
            hits += bool(res.found)
        assert hits >= 9

    def test_lookup_replies(self):
        net = make_net(seed=7)
        strategy = GossipFloodStrategy(rng=random.Random(5))
        owners = set(net.alive_nodes())
        result = strategy.lookup(net, 0, lambda v: "x", target_size=15)
        assert result.found and result.reply_delivered


class TestNetworkSizeEstimator:
    def test_estimate_in_right_ballpark(self):
        net = make_net(n=100, seed=8)
        est = NetworkSizeEstimator(net, origin=0, rng=random.Random(0))
        result = est.estimate(target_collisions=20)
        assert 45 <= result.estimate <= 300
        assert result.collisions_observed > 0
        assert result.messages > 0

    def test_conservative_rounds_up(self):
        net = make_net(n=100, seed=8)
        est = NetworkSizeEstimator(net, origin=0, safety_factor=1.5,
                                   rng=random.Random(0))
        result = est.estimate(target_collisions=20)
        assert result.conservative >= result.estimate

    def test_quorum_size_from_estimate(self):
        net = make_net(n=100, seed=8)
        est = NetworkSizeEstimator(net, origin=0, rng=random.Random(0))
        q = est.quorum_size_for(epsilon=0.1)
        true_q = math.ceil(math.sqrt(100 * math.log(10)))
        # Overestimation is fine; underestimation capped by the ballpark.
        assert 0.6 * true_q <= q <= 3 * true_q

    def test_estimated_sizing_still_intersects(self):
        net = make_net(n=100, seed=9)
        est = NetworkSizeEstimator(net, origin=0, rng=random.Random(1))
        q = est.quorum_size_for(epsilon=0.1)
        membership = FullMembership(net)
        bq = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=UniquePathStrategy(),
            advertise_size=q, lookup_size=q, adjust_to_network_size=False)
        rng = random.Random(2)
        hits = 0
        for _ in range(10):
            stored = set()
            bq.write(net.random_alive_node(rng), stored.add)
            res = bq.read(net.random_alive_node(rng),
                          lambda v: "x" if v in stored else None)
            hits += bool(res.found)
        assert hits >= 7

    def test_invalid_safety_factor(self):
        with pytest.raises(ValueError):
            NetworkSizeEstimator(make_net(), 0, safety_factor=0.5)


class TestCheckedRegister:
    def make(self, seed=0):
        net = make_net(seed=seed)
        membership = FullMembership(net)
        bq = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=UniquePathStrategy(early_halting=False), epsilon=0.05)
        return CheckedRegister(ProbabilisticRegister(bq))

    def test_history_recorded(self):
        reg = self.make()
        reg.write(0, "a")
        reg.read(10)
        assert [op.kind for op in reg.history] == ["write", "read"]

    def test_consistent_history_passes(self):
        reg = self.make()
        reg.write(0, "a")
        reg.read(10)
        reg.write(5, "b")
        reg.read(60)
        report = reg.check()
        assert report.reads == 2 and report.writes == 2
        assert report.within_epsilon(0.05, slack=0.6)

    def test_violation_rate_tracks_epsilon(self):
        reg = self.make(seed=3)
        rng = random.Random(0)
        net = reg.register.net
        for i in range(6):
            reg.write(net.random_alive_node(rng), f"v{i}")
            for _ in range(3):
                reg.read(net.random_alive_node(rng))
        report = reg.check()
        assert report.reads == 18
        # epsilon = 0.05 per quorum pair; reads do two phases, allow slack.
        assert report.violation_rate <= 0.35

    def test_stale_read_detected(self):
        reg = self.make()
        reg.write(0, "fresh")
        # Forge a stale read into the history.
        from repro.services.consistency import OpRecord
        reg.history.append(OpRecord(index=99, kind="read", origin=1,
                                    value="stale", timestamp=None,
                                    messages=0))
        report = reg.check()
        assert report.stale_reads == 1


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available figures" in capsys.readouterr().out

    def test_every_figure_has_description(self):
        # The command names are an interface: CI and the golden gates
        # call them.
        assert list(COMMANDS) == [
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "maint",
            "quorum", "byz", "kv"]
        assert all(COMMANDS.values())

    def test_parser_accepts_common_flags(self):
        args = build_parser().parse_args(
            ["fig10", "--n", "80", "--lookups", "10"])
        assert args.n == 80 and args.lookups == 10

    def test_fig3_runs_fast(self, capsys):
        assert main(["fig3", "--n", "100"]) == 0
        assert "UNIQUE-PATH" in capsys.readouterr().out

    def test_fig7_runs(self, capsys):
        assert main(["fig7", "--n", "100", "--trials", "50"]) == 0
        assert "failures-constant" in capsys.readouterr().out

    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--n", "60"]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_report_aggregates_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig_test.txt").write_text("Figure T\na | b\n1 | 2\n")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "fig_test" in out and "Figure T" in out

    def test_report_to_file(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "x.txt").write_text("data\n")
        output = tmp_path / "report.md"
        assert main(["report", "--results-dir", str(results),
                     "--output", str(output)]) == 0
        assert "data" in output.read_text()

    def test_report_missing_dir_is_graceful(self, tmp_path, capsys):
        assert main(["report", "--results-dir",
                     str(tmp_path / "nope")]) == 0
        assert "no results" in capsys.readouterr().out
