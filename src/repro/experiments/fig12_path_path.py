"""Figure 12 — UNIQUE-PATH advertise with UNIQUE-PATH lookup.

The symmetric routing-free combination.  The paper's finding (for n=800):
0.9 hit ratio needs a *combined* walk length of ~n/2 — each quorum around
``1.5 n / ln n`` — reflecting the crossing-time lower bound (Theorem 5.5),
and the constants are topology/density dependent, unlike the
RANDOM x UNIQUE-PATH mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.strategies import UniquePathStrategy
from repro.experiments.common import run_scenario, scenario_config
from repro.experiments.montecarlo import run_replicated
from repro.experiments.runner import run_sweep


@dataclass
class PathPathPoint:
    """Symmetric UNIQUE-PATH biquorum at one per-quorum target size."""

    n: int
    quorum_size: int            # per side (|Qa| = |Ql|)
    combined_size: int
    combined_fraction: float    # combined / n
    hit_ratio: float
    avg_advertise_messages: float
    avg_lookup_messages: float
    reps: int = 1
    ci: Dict[str, float] = field(default_factory=dict)  # metric -> half-width


def _path_path_point(frac, task_seed, *, n: int, n_keys: int, n_lookups: int,
                     mobility: str, seed: int, reps: int = 1,
                     ci_target: Optional[float] = None) -> PathPathPoint:
    """One size-fraction sweep point (process-pool worker)."""
    q = max(2, int(round(frac * n)))

    def run(net, rep_seed):
        return run_scenario(
            net,
            advertise_strategy=UniquePathStrategy(),
            lookup_strategy=UniquePathStrategy(),
            advertise_size=q, lookup_size=q,
            n_keys=n_keys, n_lookups=n_lookups, seed=rep_seed,
        )

    outcome = run_replicated(
        scenario_config(n, mobility=mobility, seed=seed), run,
        base_seed=seed, reps=reps,
        target_halfwidth=ci_target)
    return PathPathPoint(
        n=n, quorum_size=q, combined_size=2 * q,
        combined_fraction=2 * q / n,
        hit_ratio=outcome.mean("hit_ratio"),
        avg_advertise_messages=outcome.mean("avg_advertise_messages"),
        avg_lookup_messages=outcome.mean("avg_lookup_messages"),
        reps=outcome.reps, ci=outcome.ci_dict())


def path_x_path(
    n: int = 200,
    size_fractions: Sequence[float] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
    n_keys: int = 8,
    n_lookups: int = 40,
    mobility: str = "static",
    seed: int = 0,
    jobs: Optional[int] = None,
    reps: int = 1,
    ci_target: Optional[float] = None,
) -> List[PathPathPoint]:
    """Hit ratio vs per-quorum size (as a fraction of n) for UP x UP."""
    return run_sweep(
        list(size_fractions),
        partial(_path_path_point, n=n, n_keys=n_keys, n_lookups=n_lookups,
                mobility=mobility, seed=seed, reps=reps,
                ci_target=ci_target),
        jobs=jobs, base_seed=seed, combine=lambda results: results[0])
