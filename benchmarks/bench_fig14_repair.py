"""Figure 14 — reply-path local repair under fast mobility, the proactive
larger-advertise variant, and churn survivability (14f).

Paper shape targets: local repair (TTL-3 scoped + global fallback) restores
the hit ratio lost to reply drops, at a routing cost that grows with speed;
|Qa| = 3 sqrt(n) also improves the hit ratio by shortening lookups; under
batch churn with adjusted |Ql|, intersection degrades only slowly
(0.95 -> ~0.87 at 50%).
"""

from conftest import FULL_SCALE, JOBS, N_DEFAULT, N_KEYS, N_LOOKUPS, record_result

from repro.experiments import format_table, run_figure

SPEEDS = (2.0, 5.0, 10.0, 20.0)
CHURN = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def run_repair():
    return run_figure("fig14", N_DEFAULT, SPEEDS, n_keys=N_KEYS,
                      n_lookups=N_LOOKUPS, jobs=JOBS)


def run_no_repair():
    return run_figure("fig13", N_DEFAULT, (20.0,), n_keys=N_KEYS,
                      n_lookups=N_LOOKUPS, jobs=JOBS)


def run_bigger_advertise():
    return run_figure("fig13", N_DEFAULT, (20.0,), advertise_factor=3.0,
                      n_keys=N_KEYS, n_lookups=N_LOOKUPS, jobs=JOBS)


def run_churn():
    return run_figure("fig14f", N_DEFAULT, CHURN, n_keys=N_KEYS,
                      n_lookups=N_LOOKUPS, jobs=JOBS)


def test_fig14_reply_path_repair(benchmark, record):
    points = benchmark.pedantic(run_repair, rounds=1, iterations=1)
    text = format_table(
        ["speed m/s", "hit ratio", "intersection", "reply drops",
         "msgs", "routing"],
        [(p.point.x, p["hit_ratio"], p["intersection_ratio"],
          p["reply_drop_ratio"], p["avg_lookup_messages"],
          p["avg_lookup_routing"]) for p in points])
    record("fig14_repair", f"Figure 14(a-d) with local repair\n{text}")
    base = run_no_repair()[0]
    fast = points[-1]
    # Repair restores the hit ratio at 20 m/s...
    assert fast["hit_ratio"] >= base["hit_ratio"]
    # ...by spending routing on repairs.
    assert fast["avg_lookup_routing"] >= points[0]["avg_lookup_routing"]


def test_fig14e_bigger_advertise_quorum(benchmark, record):
    points = benchmark.pedantic(run_bigger_advertise, rounds=1, iterations=1)
    base = run_no_repair()[0]
    text = format_table(
        ["advertise factor", "speed", "hit ratio", "reply drops"],
        [(p.point.toggles["advertise_factor"], p.point.x, p["hit_ratio"],
          p["reply_drop_ratio"]) for p in points + [base]])
    record("fig14e_bigger_advertise",
           f"Figure 14(e): |Qa|=3sqrt(n) vs 2sqrt(n) @ 20 m/s\n{text}")
    # A larger advertise quorum shortens lookups -> higher hit ratio.
    assert points[0]["hit_ratio"] >= base["hit_ratio"] - 0.02


def test_fig14f_churn(benchmark, record):
    points = benchmark.pedantic(run_churn, rounds=1, iterations=1)
    text = format_table(
        ["churn fraction", "hit ratio", "analytic floor"],
        [(p.point.x, p["hit_ratio"], 1.0 - 0.05 ** (1.0 - p.point.x))
         for p in points])
    record("fig14f_churn", f"Figure 14(f) (eps=0.05, d_avg=15)\n{text}")
    series = sorted(points, key=lambda p: p.point.x)
    # Outstanding survivability: slow degradation with churn.
    assert series[0]["hit_ratio"] >= 0.85
    assert series[-1]["hit_ratio"] >= 0.55
    # Monotone-ish decline.
    assert series[-1]["hit_ratio"] <= series[0]["hit_ratio"] + 0.05
