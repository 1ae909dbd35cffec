"""Figure 16 — the summary cost table (intersection 0.9).

Paper shape targets (n=800, d=10): RANDOM advertise costs hundreds of
messages (x3 in mobile networks); UNIQUE-PATH lookup hits cost less than
|Ql| while RANDOM lookups cost an order of magnitude more; the
UP x UP combination has cheap per-message costs but huge quorums.
"""

from conftest import JOBS, N_DEFAULT, N_KEYS, N_LOOKUPS, record_result

from repro.experiments import figure_table, run_figure


def run():
    return run_figure("fig16", N_DEFAULT, n_keys=N_KEYS,
                      n_lookups=N_LOOKUPS, jobs=JOBS)


def test_fig16_summary_table(benchmark, record):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record("fig16_summary", f"Figure 16 @ n={N_DEFAULT}\n"
           + figure_table("fig16", rows))

    def get(advertise, lookup, mobility):
        return next(r for r in rows
                    if r.point.x == (advertise, lookup, mobility))

    rr = get("RANDOM", "RANDOM", "static")
    rup = get("RANDOM", "UNIQUE-PATH", "static")
    # UNIQUE-PATH lookups are far cheaper than RANDOM lookups.
    assert (rup["avg_lookup_messages_on_hit"]
            < rr["avg_lookup_messages_on_hit"] / 2)
    # Both reach a solid hit ratio at the paper's sizes.
    assert rup["hit_ratio"] >= 0.8
    # Mobile advertising over routing costs more than static.
    rr_mobile = get("RANDOM", "RANDOM", "waypoint")
    assert (rr_mobile["avg_advertise_messages"]
            + rr_mobile["avg_advertise_routing"]
            >= 0.8 * (rr["avg_advertise_messages"]
                      + rr["avg_advertise_routing"]))
