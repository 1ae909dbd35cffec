"""Batched Monte-Carlo replication with streaming confidence statistics.

Every figure in the paper is a Monte-Carlo estimate — hit ratio, cost,
intersection probability — so point estimates from a single run are not
statistically honest.  This module runs R independent replicas of a
scenario and reports ``mean ± CI`` for every metric:

* **Replica seeds** come from one counter-based Philox draw
  (:func:`repro.sim.rng.replica_seeds`), prefix-stable so a sequential
  stopping rule can extend a run without perturbing earlier replicas.
* **Backends** — ``"sequential"`` runs each replica exactly the way the
  figure modules always have (fresh network, fresh scenario).
  ``"batched"`` shares the deterministic per-deployment computations
  across replicas: one replica-axis cell-binning pass builds every
  replica's neighbor tables (:func:`~repro.geometry.kernel.batched_neighbor_tables`),
  and a shared :class:`~repro.simnet.replication.TopologyRouteOracle`
  memoizes BFS route discovery over the common static topology.  The two
  backends are **statistic-identical** for the same seed list (asserted
  in ``tests/test_montecarlo.py``); batched is just faster.
* **Aggregation** — Welford streaming mean/variance per metric, a Wilson
  score interval for the pooled hit ratio (valid even at one replica,
  since it pools individual lookups), and an optional sequential
  stopping rule: run replicas until the hit-ratio CI half-width drops
  below ``target_halfwidth`` (bounded by ``max_reps``).

Replica 0 always uses the legacy scenario seed (``base_seed + 1``) and the
network's own named workload streams, so ``reps=1`` reproduces the
single-run numbers every figure has always reported.  Replicas 1..R-1
reseed the workload streams (quorum draws, walk choices, backoff jitter,
random drops) from their Philox seed so replicas are statistically
independent, while deployment streams (placement, mobility, churn,
membership views) stay tied to the network seed — same world, different
workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import ScenarioStats
from repro.geometry.kernel import batched_neighbor_tables
from repro.obs.audit import AuditError, AuditViolation
from repro.obs.profile import PROFILER
from repro.obs.trace import record_event
from repro.sim.rng import derive_stream_seed, replica_seeds
from repro.simnet.network import NetworkConfig, SimNetwork
from repro.simnet.replication import TopologyRouteOracle

#: Named RNG streams that carry *workload* randomness and are reseeded
#: per replica (replica 0 keeps the legacy network-derived streams).
#: Deployment streams — placement, mobility, membership, churn — are NOT
#: listed: replicas share the world and vary only the workload.
WORKLOAD_STREAMS: Tuple[str, ...] = (
    "random-strategy", "sampling-strategy", "path-strategy",
    "random-opt-strategy", "algebra-strategy", "access-policy", "drops",
)

#: Exception types a replica may raise for *workload* reasons and that
#: ``on_error="skip"`` is allowed to absorb.  Anything else — including
#: every :class:`~repro.obs.audit.AuditError`, which subclasses
#: ``RuntimeError`` and is re-raised explicitly — propagates.  The old
#: bare ``except Exception`` silently discarded strict-audit failures
#: and coding bugs alike as "faulted replicas".
REPLICA_ERRORS: Tuple[type, ...] = (
    ArithmeticError, LookupError, OSError, RuntimeError, ValueError)

#: ScenarioStats metrics aggregated across replicas.
SCENARIO_METRICS: Tuple[str, ...] = (
    "hit_ratio", "intersection_ratio", "reply_drop_ratio",
    "avg_advertise_messages", "avg_advertise_routing",
    "avg_advertise_latency", "avg_lookup_messages", "avg_lookup_routing",
    "avg_lookup_latency", "avg_lookup_messages_on_hit",
    "avg_lookup_messages_on_miss",
)

_NAN = float("nan")


# -- streaming statistics ---------------------------------------------------


class Welford:
    """Streaming mean/variance (Welford's online algorithm)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (nan below two observations)."""
        if self.count < 2:
            return _NAN
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else _NAN

    def halfwidth(self, confidence: float = 0.95) -> float:
        """Normal-approximation CI half-width of the mean."""
        if self.count < 2:
            return _NAN
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        return z * self.std / math.sqrt(self.count)


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the boundaries (0 or ``trials`` successes) where the
    normal approximation collapses to a zero-width interval.  Returns
    ``(nan, nan)`` when there are no trials.
    """
    if trials <= 0:
        return (_NAN, _NAN)
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, "
                         f"got {successes}/{trials}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    spread = (z / denom) * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (max(0.0, center - spread), min(1.0, center + spread))


@dataclass(frozen=True)
class MetricEstimate:
    """Across-replica estimate of one scenario metric."""

    mean: float
    halfwidth: float    # CI half-width (nan below two replicas)
    std: float
    reps: int


# -- the replication plan and outcome ---------------------------------------


@dataclass
class ReplicationPlan:
    """How to replicate one scenario point."""

    reps: int = 1
    #: "batched" shares per-deployment work across replicas;
    #: "sequential" builds each replica alone (the tests' sharing oracle).
    backend: str = "batched"
    confidence: float = 0.95
    #: Sequential stopping: add replicas until the pooled hit-ratio
    #: Wilson half-width drops below this (None disables the rule).
    target_halfwidth: Optional[float] = None
    #: Replica budget for the stopping rule (defaults to 8x ``reps``).
    max_reps: Optional[int] = None
    #: "raise" propagates replica exceptions; "skip" drops the replica
    #: (the outcome records it in ``faulted``).
    on_error: str = "raise"

    def replica_budget(self) -> int:
        if self.target_halfwidth is None:
            return self.reps
        if self.max_reps is not None:
            return max(self.max_reps, self.reps)
        return max(8 * self.reps, self.reps + 1, 8)


@dataclass
class ReplicationOutcome:
    """Per-replica stats plus streaming across-replica estimates."""

    stats: List[ScenarioStats]
    seeds: List[int]
    requested_reps: int
    backend: str
    confidence: float
    estimates: Dict[str, MetricEstimate] = field(default_factory=dict)
    wilson: Tuple[float, float] = (_NAN, _NAN)  # pooled hit-ratio CI
    stopped_early: bool = False
    faulted: int = 0

    @property
    def reps(self) -> int:
        """Replicas that actually completed."""
        return len(self.stats)

    def mean(self, metric: str) -> float:
        """Across-replica mean of a metric (nan with zero replicas)."""
        est = self.estimates.get(metric)
        return est.mean if est is not None else _NAN

    def halfwidth(self, metric: str) -> float:
        """CI half-width: Wilson (pooled) for hit_ratio, normal otherwise."""
        if metric == "hit_ratio":
            low, high = self.wilson
            if low == low:  # not nan
                return (high - low) / 2.0
            return _NAN
        est = self.estimates.get(metric)
        return est.halfwidth if est is not None else _NAN

    @property
    def merged(self) -> Optional[ScenarioStats]:
        """Pooled ScenarioStats over all replicas (None with zero)."""
        if not self.stats:
            return None
        from repro.experiments.runner import merge_scenario_stats
        return merge_scenario_stats(self.stats)


def summarize_replicas(stats: Sequence[ScenarioStats],
                       confidence: float = 0.95
                       ) -> Tuple[Dict[str, MetricEstimate],
                                  Tuple[float, float]]:
    """Across-replica estimates + pooled hit-ratio Wilson interval.

    Zero replicas (``reps=0`` or every replica faulted) yield all-NaN
    estimates rather than raising — figures render NaN rows.
    """
    estimates: Dict[str, MetricEstimate] = {}
    for metric in SCENARIO_METRICS:
        acc = Welford()
        for s in stats:
            acc.update(float(getattr(s, metric)))
        if acc.count == 0:
            estimates[metric] = MetricEstimate(_NAN, _NAN, _NAN, 0)
        else:
            estimates[metric] = MetricEstimate(
                mean=acc.mean, halfwidth=acc.halfwidth(confidence),
                std=acc.std, reps=acc.count)
    hits = sum(s.hits for s in stats)
    present = sum(s.lookups_present for s in stats)
    return estimates, wilson_interval(hits, present, confidence)


def _pooled_hit_halfwidth(stats: Sequence[ScenarioStats],
                          confidence: float) -> float:
    hits = sum(s.hits for s in stats)
    present = sum(s.lookups_present for s in stats)
    low, high = wilson_interval(hits, present, confidence)
    if low != low:
        return math.inf
    return (high - low) / 2.0


# -- replica seeds ----------------------------------------------------------


def scenario_seed_list(base_seed: int, reps: int) -> List[int]:
    """Per-replica scenario seeds.

    Replica 0 gets the legacy ``base_seed + 1`` (so one replica
    reproduces the numbers the figures have always reported); the rest
    come from a prefix-stable Philox draw keyed on ``base_seed``.
    """
    if reps <= 0:
        return []
    return [base_seed + 1] + replica_seeds(base_seed, reps - 1)


def _record_faulted_replica(net: SimNetwork, index: int,
                            exc: BaseException) -> None:
    """Leave an audit trail for a replica skipped by ``on_error="skip"``.

    The fault is recorded on every channel so none silently loses it: a
    ``replica-fault`` trace event, the ``replication.faulted`` metrics
    counter, and a violation on the network's auditor.  The violation is
    appended directly rather than through ``flag()``: ``on_error="skip"``
    is an explicit request to keep the campaign running, so strict mode
    surfaces it in the violation summary instead of aborting — whereas a
    genuine :class:`AuditError` from inside the replica is always
    re-raised by the caller.
    """
    record_event(net, "replica-fault", replica=index,
                 error=type(exc).__name__, detail=str(exc)[:200])
    metrics = getattr(net, "metrics", None)
    if metrics is not None:
        metrics.counter("replication.faulted").inc()
    auditor = getattr(net, "auditor", None)
    if auditor is not None:
        auditor.violations.append(AuditViolation(
            code="replica-fault",
            message=f"replica {index} skipped: {type(exc).__name__}: {exc}",
            strategy="replication", kind="replica"))


def _seed_workload_streams(net: SimNetwork, replica_index: int,
                           replica_seed: int) -> None:
    """Reseed the workload streams of one replica's network.

    Replica 0 keeps the network-derived streams (legacy behaviour); later
    replicas get independent streams derived from their replica seed, so
    quorum draws, walks, backoff jitter and random drops decorrelate
    across replicas.  Both backends apply the identical reseeding.
    """
    if replica_index == 0:
        return
    for name in WORKLOAD_STREAMS:
        net.rngs.seed_stream(
            name, derive_stream_seed(replica_seed, f"replica:{name}"))


# -- network builders -------------------------------------------------------


class _ReplicaNetworkBuilder:
    """Constructs per-replica networks; the batched flavour shares the
    deterministic per-deployment work (neighbor tables, BFS/CSR memo)."""

    def __init__(self, config: NetworkConfig, plan: ReplicationPlan) -> None:
        self.config = config
        # Replicas share one graph only while it never moves.
        self._share = (plan.backend == "batched"
                       and config.mobility == "static")
        self._oracle = TopologyRouteOracle()
        self._tables: Optional[Dict[int, List[int]]] = None

    def build_chunk(self, count: int) -> List[SimNetwork]:
        """Networks for the next ``count`` replicas."""
        if not self._share:
            return [SimNetwork(self.config) for _ in range(count)]
        with PROFILER.phase("replication.build"):
            nets = [SimNetwork(self.config, defer_neighbor_init=True)
                    for _ in range(count)]
            if self._tables is None:
                # Every replica has the same placement: one kernel pass
                # serves the whole replication run.
                ids = nets[0].alive_nodes()
                stack = np.array([[nets[0].position(i) for i in ids]],
                                 dtype=np.float64)
                self._tables = batched_neighbor_tables(
                    ids, stack, side=self.config.side,
                    radius=self.config.radio_range,
                    torus=self.config.torus)[0]
            for net in nets:
                net.finish_deferred_init(self._tables)
                # The same CSR snapshot + BFS memo serves every replica
                # (sound while its topology stays at the adopted version).
                net.access_engine.adopt_shared(net, self._oracle)
        return nets


# -- the engine -------------------------------------------------------------


def run_replicated(
    config: NetworkConfig,
    run_replica: Callable[[SimNetwork, int], ScenarioStats],
    base_seed: int = 0,
    **plan_overrides,
) -> ReplicationOutcome:
    """Run ``run_replica(net, seed)`` over R replicas of one deployment.

    ``config`` is the network template (the engine owns construction so
    the batched backend can share geometry work across replicas);
    ``run_replica`` receives a freshly built network plus that replica's
    scenario seed and returns a :class:`ScenarioStats`.

    Both backends consume the same scenario seeds, so the
    batched/sequential switch cannot change a single reported statistic.
    Extra keyword arguments are :class:`ReplicationPlan` fields.
    """
    plan = ReplicationPlan(**plan_overrides)
    if plan.reps < 0:
        raise ValueError("reps must be non-negative")
    if plan.on_error not in ("raise", "skip"):
        raise ValueError(f"unknown on_error mode {plan.on_error!r}")
    if plan.backend not in ("batched", "sequential"):
        raise ValueError(f"unknown replication backend {plan.backend!r}")
    budget = plan.replica_budget()
    seed_list = scenario_seed_list(base_seed, budget)

    builder = _ReplicaNetworkBuilder(config, plan)
    stats: List[ScenarioStats] = []
    used_seeds: List[int] = []
    faulted = 0
    done = 0
    stopped_early = False
    while done < budget:
        if done < min(plan.reps, budget):
            # Mandatory replicas: build the whole remaining block at once
            # so the batched backend amortizes construction.
            chunk = min(plan.reps, budget) - done
        elif plan.target_halfwidth is not None:
            halfwidth = _pooled_hit_halfwidth(stats, plan.confidence)
            if halfwidth <= plan.target_halfwidth:
                stopped_early = True
                break
            chunk = min(max(1, plan.reps), budget - done)
        else:
            break
        nets = builder.build_chunk(chunk)
        for offset, net in enumerate(nets):
            index = done + offset
            seed = seed_list[index]
            _seed_workload_streams(net, index, seed)
            net.trace.context["replica"] = index
            try:
                with PROFILER.phase("replication.replica"):
                    result = run_replica(net, seed)
            except AuditError:
                # An accounting violation is never workload noise; even
                # on_error="skip" must not bury a strict-audit failure.
                raise
            except REPLICA_ERRORS as exc:
                if plan.on_error == "raise":
                    raise
                faulted += 1
                _record_faulted_replica(net, index, exc)
                continue
            stats.append(result)
            used_seeds.append(seed)
        done += chunk
    if (plan.target_halfwidth is not None and not stopped_early
            and _pooled_hit_halfwidth(stats, plan.confidence)
            <= plan.target_halfwidth):
        stopped_early = done < budget
    estimates, wilson = summarize_replicas(stats, plan.confidence)
    return ReplicationOutcome(
        stats=stats, seeds=used_seeds, requested_reps=plan.reps,
        backend=plan.backend, confidence=plan.confidence, estimates=estimates,
        wilson=wilson, stopped_early=stopped_early, faulted=faulted)
