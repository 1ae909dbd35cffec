"""Figure 8 — cost of RANDOM advertise and hit ratio of RANDOM lookup.

The paper's findings to reproduce:

* advertise cost per request ~ ``|Q| * sqrt(n) / ln(n)`` network messages,
  flattening at ``|Q| >= 2 sqrt(n)`` (the random membership view size);
* a dramatic extra overhead from AODV routing (route establishment);
* RANDOM lookup reaches 0.9 hit ratio at ``|Ql| ~ 1.15 sqrt(n)``
  (Lemma 5.1 in action).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.strategies import RandomStrategy
from repro.experiments.common import (
    make_membership,
    run_scenario,
    scenario_config,
)
from repro.experiments.montecarlo import run_replicated
from repro.experiments.runner import run_sweep


@dataclass
class RandomAdvertisePoint:
    """Cost of one RANDOM advertise configuration."""

    n: int
    quorum_size: int
    avg_messages: float
    avg_routing: float
    avg_latency: float = 0.0    # simulated seconds per advertise
    reps: int = 1
    ci: Dict[str, float] = field(default_factory=dict)  # metric -> half-width


@dataclass
class RandomLookupPoint:
    """Hit ratio of RANDOM lookup at one quorum size."""

    n: int
    lookup_size: int
    lookup_size_factor: float    # |Ql| / sqrt(n)
    hit_ratio: float
    avg_messages: float
    avg_routing: float
    avg_latency: float = 0.0    # simulated seconds per lookup
    reps: int = 1
    ci: Dict[str, float] = field(default_factory=dict)  # metric -> half-width


def _advertise_point(point, task_seed, *, n_keys: int, seed: int,
                     reps: int = 1,
                     ci_target: Optional[float] = None
                     ) -> RandomAdvertisePoint:
    """One (n, quorum factor) sweep point (process-pool worker)."""
    n, factor = point
    qa = max(1, int(round(factor * math.sqrt(n))))

    def run(net, rep_seed):
        strategy = RandomStrategy(make_membership(net, "random"))
        return run_scenario(
            net, advertise_strategy=strategy, lookup_strategy=strategy,
            advertise_size=qa, lookup_size=1, n_keys=n_keys, n_lookups=0,
            seed=rep_seed,
        )

    outcome = run_replicated(
        scenario_config(n, seed=seed), run, base_seed=seed,
        reps=reps, target_halfwidth=ci_target)
    return RandomAdvertisePoint(
        n=n, quorum_size=qa,
        avg_messages=outcome.mean("avg_advertise_messages"),
        avg_routing=outcome.mean("avg_advertise_routing"),
        avg_latency=outcome.mean("avg_advertise_latency"),
        reps=outcome.reps, ci=outcome.ci_dict())


def random_advertise_cost(
    sizes: Sequence[int] = (50, 100, 200),
    quorum_factors: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5),
    n_keys: int = 10,
    seed: int = 0,
    jobs: Optional[int] = None,
    reps: int = 1,
    ci_target: Optional[float] = None,
) -> List[RandomAdvertisePoint]:
    """Figure 8(a)/(b): messages per advertise vs |Q|, per network size."""
    grid = [(n, factor) for n in sizes for factor in quorum_factors]
    return run_sweep(
        grid, partial(_advertise_point, n_keys=n_keys, seed=seed,
                      reps=reps,
                      ci_target=ci_target),
        jobs=jobs, base_seed=seed, combine=lambda results: results[0])


def _lookup_point(point, task_seed, *, advertise_factor: float, n_keys: int,
                  n_lookups: int, seed: int, reps: int = 1,
                  ci_target: Optional[float] = None) -> RandomLookupPoint:
    """One (n, lookup factor) sweep point (process-pool worker)."""
    n, factor = point
    qa = max(1, int(round(advertise_factor * math.sqrt(n))))
    ql = max(1, int(round(factor * math.sqrt(n))))

    def run(net, rep_seed):
        strategy = RandomStrategy(make_membership(net, "random"))
        return run_scenario(
            net, advertise_strategy=strategy, lookup_strategy=strategy,
            advertise_size=qa, lookup_size=ql,
            n_keys=n_keys, n_lookups=n_lookups, seed=rep_seed,
        )

    outcome = run_replicated(
        scenario_config(n, seed=seed), run, base_seed=seed,
        reps=reps, target_halfwidth=ci_target)
    return RandomLookupPoint(
        n=n, lookup_size=ql, lookup_size_factor=factor,
        hit_ratio=outcome.mean("hit_ratio"),
        avg_messages=outcome.mean("avg_lookup_messages"),
        avg_routing=outcome.mean("avg_lookup_routing"),
        avg_latency=outcome.mean("avg_lookup_latency"),
        reps=outcome.reps, ci=outcome.ci_dict())


def random_lookup_hit_ratio(
    sizes: Sequence[int] = (100, 200),
    lookup_factors: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.15, 1.5, 2.0),
    advertise_factor: float = 2.0,
    n_keys: int = 10,
    n_lookups: int = 60,
    seed: int = 0,
    jobs: Optional[int] = None,
    reps: int = 1,
    ci_target: Optional[float] = None,
) -> List[RandomLookupPoint]:
    """Figure 8(c): RANDOM lookup hit ratio vs |Ql| (advertise 2*sqrt(n))."""
    grid = [(n, factor) for n in sizes for factor in lookup_factors]
    return run_sweep(
        grid,
        partial(_lookup_point, advertise_factor=advertise_factor,
                n_keys=n_keys, n_lookups=n_lookups, seed=seed,
                reps=reps, ci_target=ci_target),
        jobs=jobs, base_seed=seed, combine=lambda results: results[0])
