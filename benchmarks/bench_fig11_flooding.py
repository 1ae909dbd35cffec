"""Figure 11 — RANDOM advertise with FLOODING lookup.

Paper shape targets: hit ratio grows superlinearly with TTL; crossing into
the >= 0.9 regime requires a TTL step whose message cost grows
disproportionately (coarse coverage granularity).
"""

from conftest import FULL_SCALE, JOBS, N_DEFAULT, N_KEYS, N_LOOKUPS, record_result

from repro.experiments import format_table, run_figure

TTLS = (1, 2, 3, 4, 5, 6) if FULL_SCALE else (1, 2, 3, 4)


def run(mobility: str):
    return run_figure("fig11", N_DEFAULT, TTLS, mobility=mobility,
                      n_keys=N_KEYS, n_lookups=N_LOOKUPS, jobs=JOBS)


def test_fig11_flooding_lookup_static(benchmark, record):
    points = benchmark.pedantic(run, args=("static",), rounds=1, iterations=1)
    text = format_table(
        ["n", "ttl", "hit ratio", "msgs/lookup", "coverage"],
        [(p.point.n, p.point.x, p["hit_ratio"], p["avg_lookup_messages"],
          p["avg_lookup_quorum_size"]) for p in points])
    record("fig11_flooding_static", f"Figure 11 static\n{text}")
    series = sorted(points, key=lambda p: p.point.x)
    hits = [p["hit_ratio"] for p in series]
    assert hits == sorted(hits) or hits[-1] >= 0.9
    # The message cost of the extra TTL needed to cross 0.9 is steep:
    # each TTL step multiplies messages substantially.
    for a, b in zip(series, series[1:]):
        if a["hit_ratio"] < 0.99:
            assert b["avg_lookup_messages"] > a["avg_lookup_messages"]


def test_fig11_flooding_lookup_mobile(benchmark, record):
    points = benchmark.pedantic(run, args=("waypoint",), rounds=1,
                                iterations=1)
    text = format_table(
        ["n", "ttl", "hit ratio", "msgs/lookup", "coverage"],
        [(p.point.n, p.point.x, p["hit_ratio"], p["avg_lookup_messages"],
          p["avg_lookup_quorum_size"]) for p in points])
    record("fig11_flooding_mobile", f"Figure 11 mobile\n{text}")
    # Flooding is broadcast based: mobility barely hurts it (the paper even
    # sees slightly higher coverage due to waypoint center clustering).
    series = sorted(points, key=lambda p: p.point.x)
    assert series[-1]["hit_ratio"] >= 0.75
