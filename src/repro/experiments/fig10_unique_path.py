"""Figure 10 — RANDOM advertise with UNIQUE-PATH lookup.

The paper's headline result: a 0.9 hit ratio at target quorum size
``~1.15 sqrt(n)`` (validating the mix-and-match Lemma 5.2 — a non-random
lookup quorum intersects like a random one), with *fewer than* ``|Ql|``
messages per lookup including the reply, thanks to early halting, the
reply-path reduction, and the originator counting itself into the quorum.

Also hosts the ablations for early halting and reply reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.strategies import RandomStrategy, UniquePathStrategy
from repro.experiments.common import (
    make_membership,
    run_scenario,
    scenario_config,
)
from repro.experiments.montecarlo import run_replicated
from repro.experiments.runner import run_sweep


@dataclass
class UniquePathPoint:
    """UNIQUE-PATH lookup performance at one target quorum size."""

    n: int
    mobility: str
    lookup_size: int
    lookup_size_factor: float
    hit_ratio: float
    avg_messages: float
    avg_messages_on_hit: float
    avg_messages_on_miss: float
    early_halting: bool
    reply_reduction: bool
    avg_latency: float = 0.0    # simulated seconds per lookup
    reps: int = 1
    ci: Dict[str, float] = field(default_factory=dict)  # metric -> half-width


def _unique_path_point(factor, task_seed, *, n: int, mobility: str,
                       max_speed: float, advertise_factor: float,
                       n_keys: int, n_lookups: int, miss_fraction: float,
                       early_halting: bool, reply_reduction: bool,
                       seed: int, reps: int = 1,
                       ci_target: Optional[float] = None) -> UniquePathPoint:
    """One lookup-factor sweep point (process-pool worker)."""
    qa = max(1, int(round(advertise_factor * math.sqrt(n))))
    ql = max(1, int(round(factor * math.sqrt(n))))

    def run(net, rep_seed):
        membership = make_membership(net, "random")
        return run_scenario(
            net,
            advertise_strategy=RandomStrategy(membership),
            lookup_strategy=UniquePathStrategy(
                early_halting=early_halting,
                reply_reduction=reply_reduction),
            advertise_size=qa, lookup_size=ql,
            n_keys=n_keys, n_lookups=n_lookups,
            miss_fraction=miss_fraction, seed=rep_seed,
        )

    outcome = run_replicated(
        scenario_config(n, mobility=mobility, max_speed=max_speed, seed=seed),
        run, base_seed=seed, reps=reps,
        target_halfwidth=ci_target)
    return UniquePathPoint(
        n=n, mobility=mobility, lookup_size=ql,
        lookup_size_factor=factor,
        hit_ratio=outcome.mean("hit_ratio"),
        avg_messages=outcome.mean("avg_lookup_messages"),
        avg_messages_on_hit=outcome.mean("avg_lookup_messages_on_hit"),
        avg_messages_on_miss=outcome.mean("avg_lookup_messages_on_miss"),
        early_halting=early_halting, reply_reduction=reply_reduction,
        avg_latency=outcome.mean("avg_lookup_latency"),
        reps=outcome.reps, ci=outcome.ci_dict())


def unique_path_lookup(
    n: int = 200,
    lookup_factors: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.15, 1.5, 2.0),
    mobility: str = "waypoint",
    max_speed: float = 2.0,
    advertise_factor: float = 2.0,
    n_keys: int = 10,
    n_lookups: int = 60,
    miss_fraction: float = 0.15,
    early_halting: bool = True,
    reply_reduction: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    reps: int = 1,
    ci_target: Optional[float] = None,
) -> List[UniquePathPoint]:
    """Hit ratio / message cost of UNIQUE-PATH lookup vs target size."""
    return run_sweep(
        list(lookup_factors),
        partial(_unique_path_point, n=n, mobility=mobility,
                max_speed=max_speed, advertise_factor=advertise_factor,
                n_keys=n_keys, n_lookups=n_lookups,
                miss_fraction=miss_fraction, early_halting=early_halting,
                reply_reduction=reply_reduction, seed=seed,
                reps=reps, ci_target=ci_target),
        jobs=jobs, base_seed=seed, combine=lambda results: results[0])


def ablation_early_halting(
    n: int = 200,
    lookup_factor: float = 1.15,
    seed: int = 0,
    n_keys: int = 10,
    n_lookups: int = 60,
) -> List[UniquePathPoint]:
    """Ablation: UNIQUE-PATH lookup with/without early halting and
    reply-path reduction (Section 7 optimizations)."""
    results: List[UniquePathPoint] = []
    for early, reduction in ((True, True), (False, True), (True, False),
                             (False, False)):
        results.extend(unique_path_lookup(
            n=n, lookup_factors=(lookup_factor,), mobility="static",
            early_halting=early, reply_reduction=reduction,
            n_keys=n_keys, n_lookups=n_lookups, miss_fraction=0.0,
            seed=seed))
    return results
