"""Figure 9 — RANDOM advertise with RANDOM-OPT lookup (static and mobile).

The paper's findings: ~ln(n) routed lookup initiations already give a 0.9
hit ratio because every en-route node performs a local lookup (the
effective quorum is ~sqrt(n ln n)); in mobile networks the hit ratio drops
slightly (~10% message loss, mostly replies) while messages and especially
routing overhead increase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.strategies import RandomOptStrategy, RandomStrategy
from repro.experiments.common import (
    make_membership,
    run_scenario,
    scenario_config,
)
from repro.experiments.montecarlo import run_replicated
from repro.experiments.runner import run_sweep


@dataclass
class RandomOptPoint:
    """RANDOM-OPT lookup performance at one initiation count."""

    n: int
    mobility: str
    initiations: int
    hit_ratio: float
    avg_messages: float
    avg_routing: float
    avg_quorum_size: float       # en-route nodes actually probed
    reps: int = 1
    ci: Dict[str, float] = field(default_factory=dict)  # metric -> half-width


def _random_opt_point(x, task_seed, *, n: int, mobility: str,
                      max_speed: float, advertise_factor: float, n_keys: int,
                      n_lookups: int, seed: int, reps: int = 1,
                      ci_target: Optional[float] = None) -> RandomOptPoint:
    """One initiation-count sweep point (process-pool worker)."""
    qa = max(1, int(round(advertise_factor * math.sqrt(n))))

    def run(net, rep_seed):
        membership = make_membership(net, "random")
        return run_scenario(
            net,
            advertise_strategy=RandomStrategy(membership),
            lookup_strategy=RandomOptStrategy(membership, initiations=x),
            advertise_size=qa, lookup_size=qa,  # lookup size unused by OPT
            n_keys=n_keys, n_lookups=n_lookups, seed=rep_seed,
        )

    outcome = run_replicated(
        scenario_config(n, mobility=mobility, max_speed=max_speed, seed=seed),
        run, base_seed=seed, reps=reps,
        target_halfwidth=ci_target)
    sizes = [size for s in outcome.stats for size in s.lookup_quorum_sizes]
    return RandomOptPoint(
        n=n, mobility=mobility, initiations=x,
        hit_ratio=outcome.mean("hit_ratio"),
        avg_messages=outcome.mean("avg_lookup_messages"),
        avg_routing=outcome.mean("avg_lookup_routing"),
        avg_quorum_size=sum(sizes) / len(sizes) if sizes else 0.0,
        reps=outcome.reps, ci=outcome.ci_dict())


def random_opt_lookup(
    n: int = 200,
    initiations: Sequence[int] = (1, 2, 3, 4, 6, 8),
    mobility: str = "static",
    max_speed: float = 2.0,
    advertise_factor: float = 2.0,
    n_keys: int = 10,
    n_lookups: int = 60,
    seed: int = 0,
    jobs: Optional[int] = None,
    reps: int = 1,
    ci_target: Optional[float] = None,
) -> List[RandomOptPoint]:
    """Hit ratio / cost of RANDOM-OPT lookup vs the number of initiations."""
    return run_sweep(
        list(initiations),
        partial(_random_opt_point, n=n, mobility=mobility,
                max_speed=max_speed, advertise_factor=advertise_factor,
                n_keys=n_keys, n_lookups=n_lookups, seed=seed,
                reps=reps, ci_target=ci_target),
        jobs=jobs, base_seed=seed, combine=lambda results: results[0])
