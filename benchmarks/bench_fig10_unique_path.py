"""Figure 10 — RANDOM advertise with UNIQUE-PATH lookup (mobile walking
speed), plus the early-halting / reply-reduction ablation.

Paper shape targets: ~0.9 hit ratio at |Ql| = 1.15 sqrt(n); a *hit* costs
fewer than |Ql| messages including the reply (early halting + reply-path
reduction + self-inclusion); performance identical in static and
walking-speed mobile networks.
"""

from conftest import FULL_SCALE, JOBS, N_DEFAULT, N_KEYS, N_LOOKUPS, record_result

from repro.experiments import format_table, run_figure

FACTORS = (0.25, 0.5, 0.75, 1.0, 1.15, 1.5, 2.0) if FULL_SCALE else \
    (0.5, 1.0, 1.15, 1.5)


def run_sweep():
    return run_figure("fig10", N_DEFAULT, FACTORS, mobility="waypoint",
                      n_keys=N_KEYS, n_lookups=N_LOOKUPS, miss_fraction=0.2,
                      jobs=JOBS)


def run_ablation():
    """UNIQUE-PATH lookup with/without early halting and reply-path
    reduction (the Section 7 optimizations) at |Ql| = 1.15 sqrt(n)."""
    return [run_figure("fig10", N_DEFAULT, (1.15,), n_keys=N_KEYS,
                       n_lookups=N_LOOKUPS, miss_fraction=0.0,
                       early_halting=early, reply_reduction=reduction)[0]
            for early, reduction in ((True, True), (False, True),
                                     (True, False), (False, False))]


def test_fig10_unique_path_lookup(benchmark, record):
    points = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    text = format_table(
        ["n", "|Ql|", "factor", "hit ratio", "msgs", "msgs(hit)",
         "msgs(miss)"],
        [(p.point.n, p.ql, p.point.x, p["hit_ratio"],
          p["avg_lookup_messages"], p["avg_lookup_messages_on_hit"],
          p["avg_lookup_messages_on_miss"]) for p in points])
    record("fig10_unique_path", f"Figure 10 (mobile 0.5-2 m/s)\n{text}")
    series = sorted(points, key=lambda p: p.point.x)
    assert series[-1]["hit_ratio"] >= series[0]["hit_ratio"]
    at_115 = next(p for p in series if abs(p.point.x - 1.15) < 0.01)
    # Mix-and-match validation: non-random lookup intersects like random.
    assert at_115["hit_ratio"] >= 0.8
    # The paper's surprise: a hit needs fewer than |Ql| messages in total.
    assert at_115["avg_lookup_messages_on_hit"] < at_115.ql
    # A miss pays for the whole walk.
    assert at_115["avg_lookup_messages_on_miss"] >= at_115.ql - 2


def test_fig10_ablation_optimizations(benchmark, record):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    text = format_table(
        ["early halting", "reply reduction", "hit ratio", "msgs(hit)"],
        [(r.point.toggles["early_halting"], r.point.toggles["reply_reduction"],
          r["hit_ratio"], r["avg_lookup_messages_on_hit"]) for r in rows])
    record("fig10_ablation", f"Section 7 optimizations ablation\n{text}")
    full = next(r for r in rows
                if r.point.toggles["early_halting"]
                and r.point.toggles["reply_reduction"])
    none = next(r for r in rows
                if not r.point.toggles["early_halting"]
                and not r.point.toggles["reply_reduction"])
    # Early halting roughly halves the walk on a hit.
    assert (full["avg_lookup_messages_on_hit"]
            < none["avg_lookup_messages_on_hit"])
