"""Access engine — batched numpy kernels vs the per-event code.

Produces the ``access_engine`` block of ``BENCH_simnet.json``:

* the R=32 replication gate (mixed flood + RANDOM workload), asserting
  statistic identity replica for replica against the per-event oracle
  of ``tests/reference``;
* an n=10,000 flood micro-bench (one TTL-scoped flood, per-event vs
  batched, exact-equality checked);
* an n=10,000 Figure-8-style RANDOM lookup smoke run, proving the
  large-n sweep point completes in CI smoke time on the batched
  backend.
"""

import json
import math
import time

from conftest import (
    BENCH_TIMINGS_PATH,
    FULL_SCALE,
    record_result,
)
from reference import per_event

from repro.core.strategies import FloodingStrategy, RandomStrategy
from repro.experiments import format_table, run_replicated, scenario_config
from repro.experiments.common import make_membership, run_scenario
from repro.simnet.network import SimNetwork

GATE_REPS = 32
#: The mixed workload spends roughly half its per-event time in flood
#: broadcasts, so every kernel carries real weight in the comparison.
GATE_N = 800 if FULL_SCALE else 500

#: Supercritical RGG connectivity needs avg_degree > ln(n) ~ 9.2 at
#: n=10,000; the fig-8 deployment pins avg_degree=10, so a giant
#: component is overwhelmingly likely but full connectivity is not —
#: the large-n points therefore skip the connectivity retry loop.
BIG_N = 10_000


def _merge_block(key, entry):
    payload = {}
    if BENCH_TIMINGS_PATH.exists():
        try:
            payload = json.loads(BENCH_TIMINGS_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            payload = {}
    block = payload.setdefault("access_engine", {})
    block[key] = entry
    BENCH_TIMINGS_PATH.write_text(json.dumps(payload, indent=2,
                                             sort_keys=True) + "\n")


def _mixed_workload(n):
    """Flood advertises + RANDOM lookups: exercises every kernel."""
    root = math.sqrt(n)
    qa, ql = round(1.5 * root), round(1.15 * root)

    def run(net, rep_seed):
        adv = FloodingStrategy()  # size unused: analytic TTL floods
        lookup = RandomStrategy(make_membership(net, "random"))
        # 4 floods + 100 routed lookups: every kernel runs.
        return run_scenario(net, adv, lookup, advertise_size=qa,
                            lookup_size=ql, n_keys=4,
                            n_lookups=100, seed=rep_seed)
    return run


def test_access_engine_replication_gate(record):
    """R=32 gate: the batched access engine must reproduce the per-event
    oracle bit for bit.  Its speed is guarded by the ``replicated_mixed``
    row of ``bench/``."""
    n = GATE_N
    cfg = scenario_config(n, seed=8)
    run = _mixed_workload(n)

    seq = run_replicated(cfg, lambda net, seed: run(per_event(net), seed),
                         reps=GATE_REPS, backend="sequential", base_seed=8)

    start = time.perf_counter()
    bat = run_replicated(cfg, run, reps=GATE_REPS,
                         backend="batched", base_seed=8)
    bat_s = time.perf_counter() - start

    assert seq.seeds == bat.seeds
    assert seq.stats == bat.stats

    entry = {
        "n": n,
        "reps": GATE_REPS,
        "workload": "flood-advertise + random-lookup",
        "batched_seconds": round(bat_s, 3),
        "statistic_identical": True,
    }
    _merge_block("replication_gate", entry)
    record("access_engine_gate", format_table(
        ["n", "reps", "batched (s)", "identical"],
        [(n, GATE_REPS, entry["batched_seconds"], True)]))
    print(f"\n[access-engine] R={GATE_REPS} n={n}: batched {bat_s:.2f}s, "
          f"identical to the per-event oracle")


def _big_network():
    return SimNetwork(scenario_config(BIG_N, seed=2,
                                      require_connected=False))


def test_access_engine_flood_10k():
    """One n=10k flood: batched rounds vs the python broadcast loop.

    The two sides are ~15% apart and a flood takes ~25 ms, so a single
    shot loses to one GC pause or a cold first run: the gate compares
    the best of three rounds, alternating which side goes first.
    """
    ttl = 64
    seq_s = bat_s = math.inf
    for round_no in range(3):
        sides = [("seq", per_event), ("bat", lambda net: net)]
        if round_no % 2:
            sides.reverse()
        ran = {}
        for side, prepare in sides:
            net = prepare(_big_network())
            start = time.perf_counter()
            out = net.flood(0, ttl)
            ran[side] = (time.perf_counter() - start, net, out)
        (seq_round, seq_net, seq_out), (bat_round, bat_net, bat_out) = (
            ran["seq"], ran["bat"])
        seq_s, bat_s = min(seq_s, seq_round), min(bat_s, bat_round)

        assert list(seq_out.covered.items()) == list(bat_out.covered.items())
        assert seq_out.parent == bat_out.parent
        assert seq_out.messages == bat_out.messages
        assert seq_net.sim.now == bat_net.sim.now

    entry = {
        "n": BIG_N,
        "ttl": ttl,
        "covered": len(bat_out.covered),
        "messages": bat_out.messages,
        "timing": "min of 3 alternating rounds",
        "sequential_seconds": round(seq_s, 3),
        "batched_seconds": round(bat_s, 3),
        "speedup": round(seq_s / bat_s, 2),
        "statistic_identical": True,
    }
    _merge_block("flood_10k", entry)
    print(f"\n[access-engine] n={BIG_N} flood: sequential {seq_s:.3f}s, "
          f"batched {bat_s:.3f}s ({seq_s / bat_s:.2f}x), "
          f"{len(bat_out.covered)} covered")
    assert bat_s < seq_s


def test_access_engine_fig8_lookup_10k():
    """Figure-8-style RANDOM point at n=10k on the batched backend.

    The acceptance bar is completion inside CI smoke time; the full
    membership view keeps one shared O(n) view (EXPERIMENTS.md's
    large-n knobs).
    """
    net = _big_network()
    strategy = RandomStrategy(make_membership(net, "full"))
    root = math.sqrt(BIG_N)
    qa, ql = round(1.5 * root), round(1.15 * root)
    start = time.perf_counter()
    stats = run_scenario(net, strategy, strategy, advertise_size=qa,
                         lookup_size=ql, n_keys=2, n_lookups=6, seed=1)
    wall = time.perf_counter() - start
    entry = {
        "n": BIG_N,
        "advertise_size": qa,
        "lookup_size": ql,
        "n_keys": 2,
        "n_lookups": 6,
        "hit_ratio": round(stats.hit_ratio, 3),
        "seconds": round(wall, 3),
    }
    _merge_block("fig8_lookup_10k", entry)
    record_result("access_engine_fig8_10k", format_table(
        ["n", "|Qa|", "|Ql|", "hit ratio", "seconds"],
        [(BIG_N, qa, ql, entry["hit_ratio"], entry["seconds"])]))
    print(f"\n[access-engine] n={BIG_N} fig8 point: {wall:.2f}s, "
          f"hit ratio {stats.hit_ratio:.3f}")
    assert wall < 120.0, f"n=10k lookup point too slow for CI: {wall:.1f}s"
    assert stats.hit_ratio > 0.5
