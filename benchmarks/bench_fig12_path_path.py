"""Figure 12 — UNIQUE-PATH advertise with UNIQUE-PATH lookup.

Paper shape targets: 0.9 hit ratio needs a *combined* walk length around
n/2 (each quorum ~1.5 n / ln n) — far larger than the sqrt(n ln n) sizes
that suffice whenever one side is RANDOM (the crossing-time price).
"""

import math

from conftest import FULL_SCALE, JOBS, N_DEFAULT, N_KEYS, N_LOOKUPS, record_result

from repro.analysis import symmetric_quorum_size
from repro.experiments import format_table, run_figure

FRACTIONS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3) if FULL_SCALE else \
    (0.05, 0.1, 0.2, 0.3)


def run():
    return run_figure("fig12", N_DEFAULT, FRACTIONS, n_keys=N_KEYS,
                      n_lookups=N_LOOKUPS, jobs=JOBS)


def test_fig12_path_x_path(benchmark, record):
    points = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["n", "|Q| per side", "combined/n", "hit ratio", "adv msgs",
         "lookup msgs"],
        [(p.point.n, p.qa, (p.qa + p.ql) / p.point.n, p["hit_ratio"],
          p["avg_advertise_messages"], p["avg_lookup_messages"])
         for p in points])
    record("fig12_path_x_path", f"Figure 12\n{text}")
    series = sorted(points, key=lambda p: p.qa)
    assert series[-1]["hit_ratio"] >= series[0]["hit_ratio"]
    # Crossing 0.9 requires combined length a constant fraction of n —
    # much more than the sqrt-sized quorums of the asymmetric mixes.
    sqrt_size = symmetric_quorum_size(N_DEFAULT, 0.1)
    crossing = [p for p in series if p["hit_ratio"] >= 0.85]
    if crossing:
        assert crossing[0].qa + crossing[0].ql > 2 * sqrt_size
