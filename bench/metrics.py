"""Metric catalogue and the small statistics the harness needs.

``END_TO_END`` lists the eleven end-to-end metrics a user of the system
would see.  *sim* metrics come from the simulated clock and counters, so
they repeat exactly for one seed on one commit; host metrics are
wall-clock measurements.  The four that every workload produces, that are
never zero and that are steady across seeds are declared to the driver in ``BENCHMARK.json``, which
also holds their regression bounds (a share of the baseline value); the
other seven carry theirs here: ``("rel", x)`` a share of the baseline,
``("abs", x)`` an absolute difference.
"""

from __future__ import annotations

import hashlib
import json
import math
from statistics import mean, median
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: name -> (unit, better, bound, sim?, meaning)
END_TO_END: Dict[str, Tuple[str, str, Optional[Tuple[str, float]], bool, str]] = {
    "setup_s": ("s", "lower", None, False,
                "child start to first timed op: imports, build, warm-up"),
    "ops_per_s": ("ops/s", "higher", None, False,
                  "workload ops (kv ops or accesses) per second of pass wall"),
    "peak_rss_mb": ("MiB", "lower", None, False,
                    "ru_maxrss of the child process"),
    "fail_frac": ("ratio", "lower", ("abs", 0.02), True,
                  "ops failed or refused / ops attempted"),
    "hit_ratio": ("ratio", "higher", None, True,
                  "reads/lookups that returned a value / eligible"),
    "stale_frac": ("ratio", "lower", ("abs", 0.02), True,
                   "eligible reads not returning the newest commit"),
    "sim_p50_s": ("s", "lower", ("rel", 0.05), True,
                  "simulated service latency, median"),
    "sim_p99_s": ("s", "lower", ("rel", 0.05), True,
                  "simulated service latency, tail percentile"),
    "msgs_per_op": ("msgs", "lower", ("rel", 0.05), True,
                    "(network + routing messages) / op"),
    "model_gap": ("ratio", "lower", ("abs", 0.005), True,
                  "distance from the analytic reference"),
    "check_fail": ("count", "lower", ("abs", 0.0), True,
                   "checker + watcher violations + failed assertions"),
}

#: Percentiles tried for the latency tail, highest first.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0)
MIN_BEYOND = 10


def tail_percentile(samples: int) -> Optional[float]:
    """Highest ladder percentile with >= 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return None


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(pct / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def latency_summary(samples: Sequence[float]) -> Dict[str, Any]:
    """``{p50, tail, tail_pct, samples}`` of simulated latencies."""
    ordered = sorted(samples)
    out: Dict[str, Any] = {"samples": len(ordered),
                           "p50": percentile(ordered, 50.0)}
    pct = tail_percentile(len(ordered))
    if pct is not None:
        out["tail"] = percentile(ordered, pct)
        out["tail_pct"] = pct
    return out


def stat_digest(stats: Any) -> str:
    """sha256 over a run's simulated statistics (floats by ``repr``)."""
    text = json.dumps(stats, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pass_spread(walls: Sequence[float]) -> float:
    """(max - min) / median of pass wall times."""
    return (max(walls) - min(walls)) / median(walls)


def pool_instances(instances: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end row of one run from its instances' results.

    Ratios pool numerators and denominators; latencies and set-up time
    take the median over instances, peak memory the mean; ``ops_per_s`` divides
    the pooled ops by the pooled per-instance median pass walls.  A
    metric no instance produced is absent from the row.
    """
    sims = [inst["sim"] for inst in instances]
    ops = sum(s["ops"] for s in sims)
    row: Dict[str, float] = {
        "setup_s": median(inst["setup_s"] for inst in instances),
        "ops_per_s": ops / sum(median(inst["walls"]) for inst in instances),
        # ru_maxrss sits on one of two allocator plateaus per input; the
        # mean over instances moves in small steps where a median jumps.
        "peak_rss_mb": mean(inst["peak_rss_mb"] for inst in instances),
        "fail_frac": sum(s["failed"] for s in sims) / ops,
        "check_fail": float(sum(len(inst["check_fail"])
                                for inst in instances)),
    }
    for name, key in (("hit_ratio", "hit"), ("stale_frac", "stale")):
        pairs = [s[key] for s in sims if s.get(key) is not None]
        denom = sum(d for _, d in pairs)
        if denom:
            row[name] = sum(n for n, _ in pairs) / denom
    lats = [s["latency"] for s in sims]
    row["sim_p50_s"] = median(lat["p50"] for lat in lats)
    if all("tail" in lat for lat in lats):
        row["sim_p99_s"] = median(lat["tail"] for lat in lats)
    if all(s.get("msgs") is not None for s in sims):
        row["msgs_per_op"] = sum(s["msgs"] for s in sims) / ops
    gaps = [s["model_gap"] for s in sims if s.get("model_gap") is not None]
    if gaps:
        row["model_gap"] = max(gaps)
    return row
