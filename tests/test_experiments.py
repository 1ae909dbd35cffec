"""Tests for the experiment drivers (small-scale shape checks)."""

import math

import pytest

import repro.experiments as ex


class TestScenarioHarness:
    def make_stats(self, **kw):
        from repro.core import RandomStrategy, UniquePathStrategy
        net = ex.make_network(80, seed=1)
        membership = ex.make_membership(net, "random")
        defaults = dict(
            net=net,
            advertise_strategy=RandomStrategy(membership),
            lookup_strategy=UniquePathStrategy(),
            advertise_size=18, lookup_size=11,
            n_keys=5, n_lookups=20, seed=2,
        )
        defaults.update(kw)
        return ex.run_scenario(**defaults)

    def test_counts_add_up(self):
        stats = self.make_stats()
        assert stats.advertises == 5
        assert stats.lookups == 20
        assert stats.hits <= stats.intersections <= stats.lookups

    def test_hit_ratio_in_unit_interval(self):
        stats = self.make_stats()
        assert 0.0 <= stats.hit_ratio <= 1.0

    def test_miss_fraction_excluded_from_hit_ratio(self):
        stats = self.make_stats(miss_fraction=0.5, n_lookups=20)
        assert stats.lookups_absent == 10
        assert stats.lookups_present == 10
        # A full-size advertise quorum should still intersect most lookups.
        assert stats.hit_ratio >= 0.5

    def test_absent_lookups_record_miss_cost(self):
        stats = self.make_stats(miss_fraction=0.5, n_lookups=20)
        assert len(stats.lookup_messages_miss) >= 10

    def test_message_averages_consistent(self):
        stats = self.make_stats()
        assert stats.avg_advertise_messages > 0
        assert stats.avg_lookup_messages >= 0

    def test_membership_kinds(self):
        net = ex.make_network(40, seed=0)
        assert ex.make_membership(net, "full").view()
        assert ex.make_membership(net, "random").view(0)
        with pytest.raises(ValueError):
            ex.make_membership(net, "psychic")

    def test_format_table(self):
        out = ex.format_table(["a", "b"], [(1, 2.5), (3, 4.0)])
        assert "a" in out and "2.5" in out
        assert len(out.splitlines()) == 4


class TestFigureDrivers:
    def test_fig4_pct_shape(self):
        points = ex.pct_by_network_size(sizes=(50,), walks=3,
                                        coverage_fractions=(1.0,))
        assert len(points) == 2  # simple + unique
        simple = next(p for p in points if not p.unique)
        uniq = next(p for p in points if p.unique)
        # Self-avoiding walks never cost more than simple ones.
        assert uniq.steps_per_unique <= simple.steps_per_unique + 0.2

    def test_fig4_density_effect(self):
        points = ex.pct_by_density(densities=(7, 20), n=100, walks=4)
        sparse = next(p for p in points if p.avg_degree == 7 and not p.unique)
        dense = next(p for p in points if p.avg_degree == 20 and not p.unique)
        assert sparse.steps_per_unique >= dense.steps_per_unique - 0.3

    def test_fig5_coverage_monotone(self):
        points = ex.flooding_coverage(n=80, ttls=(1, 2, 3), floods_per_ttl=3)
        covs = [p.coverage for p in points]
        assert covs == sorted(covs)

    def test_fig5_granularity_above_one(self):
        points = ex.flooding_coverage(n=150, ttls=(1, 2, 3), floods_per_ttl=3)
        assert points[1].granularity > 1.0

    def test_fig7_analytic_matches_simulation(self):
        points = ex.degradation_curves(fractions=(0.0, 0.4), trials=200,
                                       n=300, modes=("both",))
        for p in points:
            # Simulation should not fall far below the analytic bound.
            assert p.simulated_intersection >= p.analytic_intersection - 0.07

    def test_fig7_failures_constant_flat(self):
        points = ex.degradation_curves(fractions=(0.0, 0.5), trials=150,
                                       n=300, modes=("failures-constant",))
        assert all(p.analytic_intersection == pytest.approx(0.95)
                   for p in points)

    def test_fig8_advertise_cost_grows_with_quorum(self):
        points = ex.run_figure("fig8", 80, (0.5, 1.5), n_keys=4)
        assert (points[1]["avg_advertise_messages"]
                > points[0]["avg_advertise_messages"])

    def test_fig8_lookup_hit_grows_with_quorum(self):
        points = ex.run_figure("fig8c", 80, (0.25, 1.5), n_keys=5,
                               n_lookups=25)
        assert points[1]["hit_ratio"] >= points[0]["hit_ratio"]

    def test_fig9_random_opt_hit_grows_with_initiations(self):
        points = ex.run_figure("fig9", 80, (1, 6), n_keys=5, n_lookups=25)
        assert points[1]["hit_ratio"] >= points[0]["hit_ratio"]
        assert points[1]["avg_lookup_quorum_size"] > points[1].point.x

    def test_fig10_unique_path_09_at_115_sqrt_n(self):
        points = ex.run_figure(
            "fig10", 100, (1.15,), mobility="static",
            n_keys=8, n_lookups=40, miss_fraction=0.0)
        assert points[0]["hit_ratio"] >= 0.75

    def test_fig10_messages_below_quorum_size(self):
        points = ex.run_figure(
            "fig10", 100, (1.15,), mobility="static",
            n_keys=8, n_lookups=40, miss_fraction=0.0)
        # The paper's surprise: fewer messages than |Ql| incl. the reply.
        assert points[0]["avg_lookup_messages_on_hit"] <= points[0].ql

    def test_fig11_flooding_hit_grows_with_ttl(self):
        points = ex.run_figure("fig11", 100, (1, 3), n_keys=5, n_lookups=20)
        assert points[1]["hit_ratio"] >= points[0]["hit_ratio"]

    def test_fig12_path_path_needs_linear_sizes(self):
        points = ex.run_figure("fig12", 100, (0.05, 0.3), n_keys=5,
                               n_lookups=20)
        assert points[1]["hit_ratio"] > points[0]["hit_ratio"]

    @pytest.mark.slow
    def test_fig13_mobility_drops_replies_not_intersections(self):
        points = ex.run_figure("fig13", 100, (2.0, 20.0),
                               n_keys=6, n_lookups=30)
        slow, fast = points
        assert fast["reply_drop_ratio"] >= slow["reply_drop_ratio"]
        # Salvation keeps walks alive.
        assert fast["intersection_ratio"] >= 0.6

    @pytest.mark.slow
    def test_fig14_repair_recovers_hit_ratio(self):
        base = ex.run_figure("fig13", 100, (20.0,), n_keys=6,
                             n_lookups=30)[0]
        fixed = ex.run_figure("fig14", 100, (20.0,), n_keys=6,
                              n_lookups=30)[0]
        assert fixed["hit_ratio"] >= base["hit_ratio"]

    def test_fig14f_churn_degrades_slowly(self):
        points = ex.run_figure("fig14f", 100, (0.0, 0.4), n_keys=6,
                               n_lookups=30)
        assert points[0]["hit_ratio"] >= 0.85
        assert points[1]["hit_ratio"] >= 0.5

    def test_fig15_curves_have_all_strategies(self):
        rows = ex.run_figure("fig15", 80, n_keys=4, n_lookups=15)
        curves = {}
        for row in rows:
            curves.setdefault(row.point.x[0], []).append(row)
        assert set(curves) == {"UNIQUE-PATH", "RANDOM-OPT", "FLOODING"}
        assert all(curves.values())

    def test_fig16_summary_rows(self):
        static = [x for x in ex.FIGURES["fig16"].axis if x[2] == "static"]
        rows = ex.run_figure("fig16", 80, static, n_keys=4, n_lookups=15)
        assert len(rows) == 5
        rendered = ex.figure_table("fig16", rows)
        assert "UNIQUE-PATH" in rendered

    def test_ablation_early_halting_reduces_hit_cost(self):
        with_halt, without = (
            ex.run_figure("fig10", 80, (1.15,), n_keys=6, n_lookups=25,
                          miss_fraction=0.0, early_halting=early)[0]
            for early in (True, False))
        assert (with_halt["avg_lookup_messages_on_hit"]
                <= without["avg_lookup_messages_on_hit"])
