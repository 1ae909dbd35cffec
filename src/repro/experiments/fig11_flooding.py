"""Figure 11 — RANDOM advertise with FLOODING lookup.

The paper's findings: the hit ratio grows superlinearly with TTL (0.5 at
TTL 2, ~0.85 at TTL 3 for n=800); pushing it to 0.9 needs TTL 4, which
inflates the message count disproportionately — the coarse coverage
granularity that makes FLOODING hard to tune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.strategies import FloodingStrategy, RandomStrategy
from repro.experiments.common import (
    make_membership,
    run_scenario,
    scenario_config,
)
from repro.experiments.montecarlo import run_replicated
from repro.experiments.runner import run_sweep


@dataclass
class FloodingLookupPoint:
    """FLOODING lookup performance at one TTL."""

    n: int
    mobility: str
    ttl: int
    hit_ratio: float
    avg_messages: float
    avg_coverage: float
    reps: int = 1
    ci: Dict[str, float] = field(default_factory=dict)  # metric -> half-width


def _flooding_point(ttl, task_seed, *, n: int, mobility: str,
                    max_speed: float, advertise_factor: float, n_keys: int,
                    n_lookups: int, seed: int, reps: int = 1,
                    ci_target: Optional[float] = None) -> FloodingLookupPoint:
    """One TTL sweep point (process-pool worker)."""
    qa = max(1, int(round(advertise_factor * math.sqrt(n))))

    def run(net, rep_seed):
        membership = make_membership(net, "random")
        return run_scenario(
            net,
            advertise_strategy=RandomStrategy(membership),
            lookup_strategy=FloodingStrategy(ttl=ttl),
            advertise_size=qa, lookup_size=qa,  # size unused (fixed TTL)
            n_keys=n_keys, n_lookups=n_lookups, seed=rep_seed,
        )

    outcome = run_replicated(
        scenario_config(n, mobility=mobility, max_speed=max_speed, seed=seed),
        run, base_seed=seed, reps=reps,
        target_halfwidth=ci_target)
    sizes = [size for s in outcome.stats for size in s.lookup_quorum_sizes]
    return FloodingLookupPoint(
        n=n, mobility=mobility, ttl=ttl,
        hit_ratio=outcome.mean("hit_ratio"),
        avg_messages=outcome.mean("avg_lookup_messages"),
        avg_coverage=sum(sizes) / len(sizes) if sizes else 0.0,
        reps=outcome.reps, ci=outcome.ci_dict())


def flooding_lookup(
    n: int = 200,
    ttls: Sequence[int] = (1, 2, 3, 4, 5),
    mobility: str = "static",
    max_speed: float = 2.0,
    advertise_factor: float = 2.0,
    n_keys: int = 10,
    n_lookups: int = 40,
    seed: int = 0,
    jobs: Optional[int] = None,
    reps: int = 1,
    ci_target: Optional[float] = None,
) -> List[FloodingLookupPoint]:
    """Hit ratio / message cost of FLOODING lookup vs TTL."""
    return run_sweep(
        list(ttls),
        partial(_flooding_point, n=n, mobility=mobility, max_speed=max_speed,
                advertise_factor=advertise_factor, n_keys=n_keys,
                n_lookups=n_lookups, seed=seed, reps=reps,
                ci_target=ci_target),
        jobs=jobs, base_seed=seed, combine=lambda results: results[0])
