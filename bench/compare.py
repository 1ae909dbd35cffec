#!/usr/bin/env python3
"""Compare two result files of ``run.py``: one row per (workload, metric).

    python3 bench/compare.py A.json B.json

A is the baseline, B the candidate.  Each row shows both values, the
delta, the regression bound and a verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   B is worse than A by more than the bound and by more
                  than the pass-to-pass spread of either run;
* ``unresolved``  the spread of a host metric is wider than its bound (or
                  than the delta that exceeds the bound), so the runs
                  cannot tell, or one file lacks the metric.

Bounds come from ``BENCHMARK.json`` for the metrics it declares and from
``metrics.END_TO_END`` for the rest.  Two runs of one commit on one seed
must agree exactly on every simulated metric and on ``stat_digest``; a
digest change is printed as "simulated behaviour changed".  The exit
code is non-zero when any row regressed.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from metrics import END_TO_END

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds() -> Dict[str, Tuple[str, float]]:
    bounds = {name: spec[2] for name, spec in END_TO_END.items() if spec[2]}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        for spec in json.load(handle)["end_to_end"]:
            bounds[spec["name"]] = ("rel", spec["bound"])
    return bounds


def worsening(name: str, a: float, b: float, kind: str) -> float:
    """How much worse B is than A, in the bound's terms (negative = better)."""
    worse = (a - b) if END_TO_END[name][1] == "higher" else (b - a)
    if kind == "rel":
        return worse / abs(a) if a else (0.0 if worse == 0 else float("inf"))
    return worse


def verdict(name: str, a: Optional[float], b: Optional[float],
            bound: Tuple[str, float], spread: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one row.

    ``spread`` is the wider of the two runs' pass-to-pass spreads (0 for
    metrics that have none: simulated ones repeat exactly).
    """
    if a is None or b is None:
        return "unresolved"
    kind, limit = bound
    worse = worsening(name, a, b, kind)
    if worse > limit:
        return "regressed" if worse > spread else "unresolved"
    return "ok" if spread <= limit or kind == "abs" else "unresolved"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], int]:
    bounds = load_bounds()
    same_inputs = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    lines = [f"{'workload':17s} {'metric':12s} {'A':>12s} {'B':>12s} "
             f"{'delta':>10s} {'bound':>10s}  verdict"]
    regressed = 0
    for workload, row_a in a["workloads"].items():
        row_b = b["workloads"].get(workload)
        if row_b is None or "end_to_end" not in row_a:
            continue
        changed = row_a["stat_digest"] != row_b["stat_digest"]
        if same_inputs and changed:
            lines.append(f"{workload:17s} simulated behaviour changed "
                         f"({row_a['stat_digest']} -> {row_b['stat_digest']})")
        for name in END_TO_END:
            cell_a = row_a["end_to_end"].get(name)
            cell_b = row_b["end_to_end"].get(name)
            if cell_a is None and cell_b is None:
                continue
            val_a = cell_a["value"] if cell_a else None
            val_b = cell_b["value"] if cell_b else None
            # Only the pass walls repeat one input inside a run, so only
            # ops_per_s has a measured spread.
            spread = (max(row["harness"]["bench.pass_spread_frac"]
                          for row in (row_a, row_b))
                      if name == "ops_per_s" else 0.0)
            word = verdict(name, val_a, val_b, bounds[name], spread)
            regressed += word == "regressed"
            kind, limit = bounds[name]
            delta = ("" if val_a is None or val_b is None
                     else f"{val_b - val_a:+.4g}")
            lines.append(
                f"{workload:17s} {name:12s} "
                f"{'-' if val_a is None else format(val_a, '.6g'):>12s} "
                f"{'-' if val_b is None else format(val_b, '.6g'):>12s} "
                f"{delta:>10s} {limit:>6g} {kind}  {word}"
                + (f" (spread {spread:.3f})" if spread > limit else ""))
    return lines, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as handle_a, open(argv[1]) as handle_b:
        lines, regressed = compare(json.load(handle_a), json.load(handle_b))
    print("\n".join(lines))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
