"""Quorum-algebra bench: optimizer cost and predicted-vs-simulated load.

Produces the ``quorum_algebra`` block of ``BENCH_simnet.json``:

* per-system LP solve time plus the predicted load at fr=0.5 (majority-5
  must hit 3/5, the 3x3 grid 1/3 — the known Naor–Wool optima);
* the exact-vs-multiplicative-weights solver gap (the numpy fallback
  must track the scipy optimum to ~1e-2);
* the simulator cross-check: max per-node |predicted - simulated| load
  across a replicated run, with the within-CI verdict the strict-audit
  CI lane enforces.
"""

import json
import time

import numpy as np
from conftest import BENCH_TIMINGS_PATH, FULL_SCALE

from repro.experiments import format_table
from repro.experiments.fig_quorum import quorum_load_point
from repro.quorum import build_system, solve_strategy
from repro.quorum.strategy import _membership_matrix, _minimax_mw

REPS = 16 if FULL_SCALE else 8
OPS = 100 if FULL_SCALE else 60
SYSTEMS = (("majority", 5), ("grid", 9), ("chain", 7))


def _merge_block(key, entry):
    payload = {}
    if BENCH_TIMINGS_PATH.exists():
        try:
            payload = json.loads(BENCH_TIMINGS_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            payload = {}
    block = payload.setdefault("quorum_algebra", {})
    block[key] = entry
    BENCH_TIMINGS_PATH.write_text(json.dumps(payload, indent=2,
                                             sort_keys=True) + "\n")


def _mw_load(qs):
    """Load at fr = 0.5 of the pure-numpy solver's strategy, the one
    ``solve_strategy`` falls back to when scipy does not import."""
    elements = sorted(qs.elements(), key=repr)
    ar = 0.5 * _membership_matrix(elements, qs.read_quorums())
    aw = 0.5 * _membership_matrix(elements, qs.write_quorums())
    pr, pw = _minimax_mw(ar, aw)
    return float(np.max(ar @ pr + aw @ pw))


def test_quorum_optimizer_and_cross_check(record):
    rows = []
    for name, m in SYSTEMS:
        qs = build_system(name, range(m))
        started = time.perf_counter()
        sigma = solve_strategy(qs)
        solve_s = time.perf_counter() - started
        mw_load = _mw_load(qs)
        mw_delta = abs(mw_load - sigma.load())
        assert mw_delta < 0.03, (
            f"{name}: numpy-MW load {mw_load:.4f} drifts from exact "
            f"{sigma.load():.4f}")
        point = quorum_load_point(name, 0.5, n=40, m=m, reps=REPS,
                                  ops=OPS, seed=0)
        assert point.within_ci, (
            f"{name}: simulated load beyond the CI of the prediction")
        assert point.hit_ratio == 1.0
        rows.append((name, m, len(sigma.read_quorums),
                     round(sigma.load(), 4), round(mw_delta, 4),
                     round(point.simulated_load, 4),
                     round(point.max_gap, 4), round(solve_s * 1e3, 2)))
        _merge_block(name, {
            "m": m,
            "read_quorums": len(sigma.read_quorums),
            "solver": sigma.solver,
            "predicted_load": round(sigma.load(), 6),
            "mw_delta": round(mw_delta, 6),
            "simulated_load": round(point.simulated_load, 6),
            "max_node_gap": round(point.max_gap, 6),
            "within_ci": bool(point.within_ci),
            "reps": point.reps,
            "ops_per_replica": OPS,
            "solve_ms": round(solve_s * 1e3, 3),
        })
    known = {"majority": 3 / 5, "grid": 1 / 3}
    for row in rows:
        if row[0] in known:
            assert abs(row[3] - known[row[0]]) < 1e-4
    record("quorum_algebra", format_table(
        ["system", "m", "|reads|", "pred load", "mw delta", "sim load",
         "max gap", "solve ms"], rows))
