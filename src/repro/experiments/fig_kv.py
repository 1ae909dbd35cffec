"""Replicated kv serving benchmark (the ``repro kv`` figure).

Sweeps lease TTL x arrival rate over the open-loop workload engine and
reports, per cell: tail latency (p50/p99/p999), stale-read fraction with
its analytic prediction, availability, and the consistency checker's
verdict.  Replication across scenario seeds gives a CI on the stale
fraction; the ``ok`` column says whether the analytic curve from
:func:`repro.analysis.leases.stale_read_probability_exact` falls inside
it.

Two backends (same generated op stream, see
:mod:`repro.experiments.workload`):

* ``batched`` — the numpy kernel; the default, ~1M ops per point in
  seconds.  Strategy column reads ``uniform`` (the kernel models uniform
  quorum sampling, the regime the lease analysis covers).
* ``sequential`` — the real :class:`~repro.services.kvstore.QuorumKVStore`
  on a live network, one op at a time, per access strategy (``random``
  or ``masking:<b>``); thousands of ops, full audit/trace/watcher
  machinery active.

A TTL of 0 in the sweep means "derive it": the cell uses
:func:`repro.analysis.leases.lease_ttl_for_churn` at the configured
churn rate, exercising the sizing rule end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.leases import lease_ttl_for_churn
from repro.experiments.montecarlo import Welford, wilson_interval
from repro.experiments.runner import run_sweep
from repro.experiments.workload import (
    KVPointConfig,
    KVRunStats,
    WorkloadSpec,
    run_workload_batched,
    run_workload_sequential,
)

#: Absolute slack added to the replication CI when checking the analytic
#: prediction — covers the CI's own estimation noise at small rep counts.
PREDICTION_SLACK = 2e-3


@dataclass(frozen=True)
class KVSweepPoint:
    """One (strategy, ttl, rate) cell of the kv sweep (picklable)."""

    backend: str              # "batched" | "sequential"
    strategy: str             # "uniform" | "random" | "masking:<b>"
    ttl: float                # requested TTL; 0 = derive from churn
    rate: float               # open-loop arrival rate (ops/s)
    ops: int
    n: int
    n_keys: int
    read_fraction: float
    cas_fraction: float
    zipf_s: float
    churn_rate: float
    epsilon: float
    min_survival: float

    @property
    def effective_ttl(self) -> float:
        if self.ttl > 0:
            return self.ttl
        return lease_ttl_for_churn(self.churn_rate, self.min_survival)


@dataclass
class KVCell:
    """Aggregated replicas of one sweep point."""

    point: KVSweepPoint
    reps: int
    p50: float
    p99: float
    p999: float
    stale: float              # mean stale fraction across replicas
    stale_hw: float           # replication CI half-width (nan if reps<2)
    wilson_low: float         # pooled Wilson interval over all reads
    wilson_high: float
    predicted: float          # mean analytic prediction (nan sequential)
    availability: float
    cas_ok: float             # cas success ratio (nan with no cas)
    violations: int           # consistency-checker hard violations
    clean: bool

    @property
    def tracks_prediction(self) -> Optional[bool]:
        """Does the analytic curve fall inside the replication CI?

        None when there is no prediction (sequential backend) or no CI.
        """
        if self.predicted != self.predicted or self.stale != self.stale:
            return None
        hw = self.stale_hw if self.stale_hw == self.stale_hw else 0.0
        return abs(self.stale - self.predicted) <= hw + PREDICTION_SLACK


def evaluate_kv_point(point: KVSweepPoint, seed: int) -> KVRunStats:
    """One replica of one sweep cell (module-level: pool-picklable)."""
    spec = WorkloadSpec(
        ops=point.ops, n_keys=point.n_keys,
        read_fraction=point.read_fraction,
        cas_fraction=point.cas_fraction, zipf_s=point.zipf_s,
        arrival_rate=point.rate, seed=seed)
    if point.backend == "batched":
        config = KVPointConfig(
            n=point.n, epsilon=point.epsilon,
            lease_ttl=point.effective_ttl,
            churn_rate=point.churn_rate)
        return run_workload_batched(spec, config)
    return _run_sequential_replica(point, spec, seed)


def _run_sequential_replica(point: KVSweepPoint, spec: WorkloadSpec,
                            seed: int) -> KVRunStats:
    from repro.analysis.intersection import (
        masking_quorum_size,
        symmetric_quorum_size,
    )
    from repro.core.biquorum import ProbabilisticBiquorum
    from repro.core.masking import MaskingStrategy
    from repro.core.strategies import RandomStrategy
    from repro.membership.service import RandomMembership
    from repro.services.consistency import KVHistoryChecker
    from repro.services.kvstore import QuorumKVStore
    from repro.simnet.network import NetworkConfig, SimNetwork

    net = SimNetwork(NetworkConfig(n=point.n, avg_degree=10.0, seed=seed))
    masking_b = 0
    if point.strategy.startswith("masking"):
        _, _, raw = point.strategy.partition(":")
        masking_b = max(1, int(raw or "1"))
        size = masking_quorum_size(point.n, point.epsilon, masking_b)
    else:
        size = symmetric_quorum_size(point.n, point.epsilon)
    view = max(size, int(round(2.0 * math.sqrt(point.n))))
    membership = RandomMembership(net, view_size=view)
    advertise = RandomStrategy(membership)
    lookup = RandomStrategy(membership)
    if masking_b:
        lookup = MaskingStrategy(lookup, masking_b)
    biquorum = ProbabilisticBiquorum(
        net, advertise=advertise, lookup=lookup,
        advertise_size=size, lookup_size=size,
        adjust_to_network_size=False)
    store = QuorumKVStore(biquorum, lease_ttl=point.effective_ttl,
                          checker=KVHistoryChecker())
    try:
        return run_workload_sequential(store, spec)
    finally:
        membership.stop()


def _combine(point: KVSweepPoint, runs: Sequence[KVRunStats]) -> KVCell:
    stale = Welford()
    p50 = Welford()
    p99 = Welford()
    p999 = Welford()
    avail = Welford()
    pred = Welford()
    not_newest = eligible = 0
    cas_attempts = cas_ok = violations = 0
    for run in runs:
        if run.stale_fraction == run.stale_fraction:
            stale.update(run.stale_fraction)
        if run.availability == run.availability:
            avail.update(run.availability)
        if run.predicted_stale == run.predicted_stale:
            pred.update(run.predicted_stale)
        p50.update(run.p50)
        p99.update(run.p99)
        p999.update(run.p999)
        not_newest += run.stale_or_missed
        eligible += run.eligible_reads
        cas_attempts += run.cas_attempts
        cas_ok += run.cas_successes
        violations += run.report.total_violations
    low, high = wilson_interval(not_newest, eligible)
    return KVCell(
        point=point, reps=len(runs),
        p50=p50.mean, p99=p99.mean, p999=p999.mean,
        stale=stale.mean if stale.count else math.nan,
        stale_hw=stale.halfwidth(),
        wilson_low=low, wilson_high=high,
        predicted=pred.mean if pred.count else math.nan,
        availability=avail.mean if avail.count else math.nan,
        cas_ok=(cas_ok / cas_attempts) if cas_attempts else math.nan,
        violations=violations, clean=(violations == 0))


def kv_sweep(
    backend: str = "batched",
    strategies: Sequence[str] = ("uniform",),
    ttls: Sequence[float] = (5.0, 20.0, 80.0),
    rates: Sequence[float] = (2000.0,),
    ops: int = 200_000,
    n: int = 400,
    n_keys: int = 128,
    read_fraction: float = 0.92,
    cas_fraction: float = 0.05,
    zipf_s: float = 0.99,
    churn_rate: float = 0.01,
    epsilon: float = 0.05,
    reps: int = 3,
    jobs: Optional[int] = None,
    seed: int = 7,
) -> List[KVCell]:
    """The ``repro kv`` sweep: strategy x TTL x arrival rate."""
    if backend not in ("batched", "sequential"):
        raise ValueError(f"unknown kv backend {backend!r}")
    if backend == "batched":
        strategies = ("uniform",)
    points = [
        KVSweepPoint(
            backend=backend, strategy=strategy, ttl=ttl, rate=rate,
            ops=ops, n=n, n_keys=n_keys, read_fraction=read_fraction,
            cas_fraction=cas_fraction, zipf_s=zipf_s,
            churn_rate=churn_rate, epsilon=epsilon,
            min_survival=0.9)
        for strategy in strategies
        for ttl in ttls
        for rate in rates
    ]
    results = run_sweep(points, evaluate_kv_point, replications=reps,
                        jobs=jobs, base_seed=seed)
    return [_combine(res.point, res.results) for res in results]
