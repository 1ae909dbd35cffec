"""Figure 9 — RANDOM advertise with RANDOM-OPT lookup, static and mobile.

Paper shape targets: ~ln(n) initiations give a ~0.9 hit ratio; the probed
en-route quorum is much larger than the initiation count; mobile networks
cost more messages/routing for a slightly lower hit ratio.
"""

from conftest import FULL_SCALE, JOBS, N_DEFAULT, N_KEYS, N_LOOKUPS, record_result

from repro.experiments import format_table, run_figure

INITIATIONS = (1, 2, 3, 4, 6, 8) if FULL_SCALE else (1, 2, 4, 6)


def run(mobility: str):
    return run_figure("fig9", N_DEFAULT, INITIATIONS, mobility=mobility,
                      n_keys=N_KEYS, n_lookups=N_LOOKUPS, jobs=JOBS)


def test_fig9_random_opt_static(benchmark, record):
    points = benchmark.pedantic(run, args=("static",), rounds=1, iterations=1)
    text = format_table(
        ["n", "X (initiations)", "hit ratio", "msgs", "routing", "probed"],
        [(p.point.n, p.point.x, p["hit_ratio"], p["avg_lookup_messages"],
          p["avg_lookup_routing"], p["avg_lookup_quorum_size"])
         for p in points])
    record("fig9_random_opt_static", f"Figure 9 static\n{text}")
    series = sorted(points, key=lambda p: p.point.x)
    assert series[-1]["hit_ratio"] >= series[0]["hit_ratio"]
    # The cross-layer trick: en-route probing multiplies the effective
    # quorum well past the initiation count.
    assert all(p["avg_lookup_quorum_size"] >= 1.5 * p.point.x
               for p in series)
    # ~ln(n) initiations reach ~0.9.
    import math
    near_ln = min(series, key=lambda p: abs(p.point.x
                                            - math.log(N_DEFAULT)))
    assert near_ln["hit_ratio"] >= 0.75


def test_fig9_random_opt_mobile(benchmark, record):
    points = benchmark.pedantic(run, args=("waypoint",), rounds=1,
                                iterations=1)
    text = format_table(
        ["n", "X (initiations)", "hit ratio", "msgs", "routing", "probed"],
        [(p.point.n, p.point.x, p["hit_ratio"], p["avg_lookup_messages"],
          p["avg_lookup_routing"], p["avg_lookup_quorum_size"])
         for p in points])
    record("fig9_random_opt_mobile", f"Figure 9 mobile\n{text}")
    series = sorted(points, key=lambda p: p.point.x)
    assert series[-1]["hit_ratio"] >= 0.6  # slightly degraded vs static
