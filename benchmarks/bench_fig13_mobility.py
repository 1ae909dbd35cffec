"""Figure 13 — fast mobility WITHOUT reply-path repair.

Paper shape targets: the hit ratio deteriorates as max speed grows 2 -> 20
m/s, but the *intersection probability itself* does not (RW salvation
keeps the walks alive); the loss is reply messages dropped on the broken
reverse path, and it worsens with speed.
"""

from conftest import FULL_SCALE, JOBS, N_DEFAULT, N_KEYS, N_LOOKUPS, record_result

from repro.experiments import format_table, run_figure

SPEEDS = (2.0, 5.0, 10.0, 20.0)


def run():
    return run_figure("fig13", N_DEFAULT, SPEEDS, n_keys=N_KEYS,
                      n_lookups=N_LOOKUPS, jobs=JOBS)


def run_no_salvation():
    return run_figure("fig13", N_DEFAULT, (20.0,), salvation=False,
                      n_keys=N_KEYS, n_lookups=N_LOOKUPS, jobs=JOBS)


def test_fig13_mobility_without_repair(benchmark, record):
    points = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["speed m/s", "hit ratio", "intersection", "reply drops", "msgs"],
        [(p.point.x, p["hit_ratio"], p["intersection_ratio"],
          p["reply_drop_ratio"], p["avg_lookup_messages"]) for p in points])
    record("fig13_mobility", f"Figure 13 (no reply repair)\n{text}")
    slow = points[0]
    fast = points[-1]
    # Hit ratio deteriorates with speed...
    assert fast["hit_ratio"] <= slow["hit_ratio"]
    # ...but the intersection itself holds up (salvation at work)...
    assert fast["intersection_ratio"] >= 0.7
    # ...because the loss is in dropped replies.
    assert fast["reply_drop_ratio"] >= slow["reply_drop_ratio"]


def test_fig13_ablation_salvation(benchmark, record):
    points = benchmark.pedantic(run_no_salvation, rounds=1, iterations=1)
    text = format_table(
        ["speed m/s", "hit ratio", "intersection", "reply drops"],
        [(p.point.x, p["hit_ratio"], p["intersection_ratio"],
          p["reply_drop_ratio"]) for p in points])
    record("fig13_ablation_salvation",
           f"RW salvation ablation @ 20 m/s\n{text}")
    # Without salvation, walks die before completing: intersection drops
    # well below the salvaged ~0.9.
    assert points[0]["intersection_ratio"] < 0.85
