"""Quorum-algebra figure: optimizer-predicted vs simulated load.

For each read fraction the optimizer picks quorum-selection
probabilities for an algebraic system (majority / grid / chain) and the
same distribution is then *executed* on the simulated network through
:class:`~repro.quorum.access.AlgebraicStrategy` under Monte-Carlo
replication.  The figure overlays:

* **predicted load** — the LP optimum ``max_x load(x)`` and the per-node
  load vector;
* **simulated load** — per-node access frequencies from the metrics
  registry (``quorum.node_load.<id>``), averaged across replicas with a
  normal CI.

The two must agree node-for-node within the Monte-Carlo CI: each access
samples a quorum from exactly the optimized distribution, and on a
static connected deployment every member is reached.  A gap beyond the
CI (plus a small absolute guard) is reported through the accounting
auditor (``quorum-load-mismatch``), so ``REPRO_AUDIT=strict`` turns the
cross-check into a hard failure — the obs-layer treatment of every
other accounting invariant.

Degenerate inputs yield NaN rows instead of raising (the PR 5 ``reps=0``
convention): read fractions 0 and 1 run one-sided workloads, a
single-node system collapses to load 1.0, and a ``faulty`` set that
kills every quorum produces an infeasible strategy whose row is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.common import run_scenario, scenario_config
from repro.experiments.montecarlo import Welford, run_replicated
from repro.obs.audit import auditor_from_env
from repro.quorum import AlgebraicStrategy, build_system, solve_strategy

_NAN = float("nan")

#: Absolute slack added to the CI half-width before the auditor flags a
#: predicted-vs-simulated gap: a 95% CI alone would false-alarm on ~5%
#: of node comparisons by construction.
LOAD_TOLERANCE = 0.05


@dataclass
class QuorumLoadPoint:
    """Predicted and simulated behaviour of one (system, read mix)."""

    system: str
    read_fraction: float
    optimize: str
    n: int                      # deployment size
    m: int                      # replicas in the algebraic system
    reps: int
    predicted_load: float = _NAN
    load_lower_bound: float = _NAN
    expected_read_size: float = _NAN
    expected_write_size: float = _NAN
    predicted_network: float = _NAN   # expected accessed-quorum size
    simulated_load: float = _NAN      # max over nodes of across-rep mean
    simulated_load_hw: float = _NAN   # CI half-width at that node
    max_gap: float = _NAN             # max_x |simulated(x) - predicted(x)|
    within_ci: bool = True            # every node inside its CI + slack
    hit_ratio: float = _NAN
    hit_ratio_hw: float = _NAN
    avg_messages: float = _NAN
    node_loads_predicted: Dict[int, float] = field(default_factory=dict)
    node_loads_simulated: Dict[int, Tuple[float, float]] = \
        field(default_factory=dict)  # node -> (mean, half-width)
    feasible: bool = True


def _split_ops(read_fraction: float, ops: int) -> Tuple[int, int]:
    """Writes/reads per replica realising the read mix exactly."""
    reads = int(round(read_fraction * ops))
    return ops - reads, reads


def quorum_load_point(
    system_name: str,
    read_fraction: float,
    n: int = 40,
    m: int = 9,
    optimize: str = "load",
    reps: int = 8,
    ops: int = 80,
    seed: int = 0,
    faulty: Optional[Set[int]] = None,
    confidence: float = 0.95,
) -> QuorumLoadPoint:
    """Run one (system, read_fraction) point; see module docstring."""
    config = scenario_config(n, seed=seed)
    point = QuorumLoadPoint(system=system_name,
                            read_fraction=read_fraction,
                            optimize=optimize, n=n, m=m, reps=0)
    # The algebraic system lives on the m lowest node ids; the rest of
    # the deployment only forwards traffic.
    ids = list(range(m))
    qs = build_system(system_name, ids)
    sigma = solve_strategy(qs, read_fraction=read_fraction,
                           optimize=optimize, faulty=faulty)
    point.feasible = sigma.feasible
    if not sigma.feasible:
        # All-faulted (or otherwise infeasible) side: NaN row, no sim.
        return point
    point.predicted_load = sigma.load()
    point.load_lower_bound = sigma.load_lower_bound()
    point.expected_read_size = sigma.expected_read_size()
    point.expected_write_size = sigma.expected_write_size()
    point.predicted_network = sigma.network_load()
    point.node_loads_predicted = {
        int(x): load for x, load in sigma.node_loads().items()}

    n_keys, n_lookups = _split_ops(read_fraction, ops)
    load_samples: List[Dict[int, float]] = []

    def run(net, rep_seed):
        from repro.quorum.access import measured_node_loads

        strategy = AlgebraicStrategy(qs, strategy=sigma)
        stats = run_scenario(
            net, advertise_strategy=strategy, lookup_strategy=strategy,
            advertise_size=0, lookup_size=0,
            n_keys=n_keys, n_lookups=n_lookups,
            miss_fraction=1.0 if n_keys == 0 else 0.0,
            seed=rep_seed)
        load_samples.append(measured_node_loads(net))
        return stats

    outcome = run_replicated(config, run, base_seed=seed, reps=reps,
                             confidence=confidence)
    point.reps = outcome.reps
    if n_lookups and n_keys:
        point.hit_ratio = outcome.mean("hit_ratio")
        point.hit_ratio_hw = outcome.halfwidth("hit_ratio")
    point.avg_messages = (outcome.mean("avg_lookup_messages")
                          if n_lookups else
                          outcome.mean("avg_advertise_messages"))

    if not load_samples:
        return point
    accumulators: Dict[int, Welford] = {}
    for sample in load_samples:
        for node in point.node_loads_predicted:
            acc = accumulators.setdefault(node, Welford())
            acc.update(sample.get(node, 0.0))
    worst_gap = 0.0
    max_mean, max_mean_hw = -math.inf, _NAN
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    samples = max(1, point.reps * ops)
    for node, acc in accumulators.items():
        hw = acc.halfwidth(confidence)
        point.node_loads_simulated[node] = (acc.mean, hw)
        if acc.mean > max_mean:
            max_mean, max_mean_hw = acc.mean, hw
        predicted = point.node_loads_predicted[node]
        gap = abs(acc.mean - predicted)
        worst_gap = max(worst_gap, gap)
        # Theoretical binomial half-width of the pooled estimate: each
        # of the reps*ops accesses touches the node with the predicted
        # probability, so this bound is exact under H0 and — unlike the
        # empirical Welford half-width — not itself a noisy estimate at
        # small replica counts.
        theory_hw = z * math.sqrt(predicted * (1.0 - predicted) / samples)
        if gap > theory_hw + LOAD_TOLERANCE:
            point.within_ci = False
    point.simulated_load = max_mean if max_mean > -math.inf else _NAN
    point.simulated_load_hw = max_mean_hw
    point.max_gap = worst_gap

    if not point.within_ci:
        auditor = auditor_from_env()
        if auditor is not None:
            auditor.flag(
                "quorum-load-mismatch",
                f"{system_name} fr={read_fraction}: simulated node load "
                f"deviates from the optimizer prediction by "
                f"{point.max_gap:.4f} (> CI + {LOAD_TOLERANCE})",
                strategy="ALGEBRAIC", kind="load-cross-check")
    return point


def quorum_load_sweep(
    systems: Sequence[str] = ("majority", "grid"),
    read_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    n: int = 40,
    m: int = 9,
    optimize: str = "load",
    reps: int = 8,
    ops: int = 80,
    seed: int = 0,
    faulty: Optional[Set[int]] = None,
) -> List[QuorumLoadPoint]:
    """The ``repro quorum`` figure: read-fraction sweep per system."""
    points = []
    for system_name in systems:
        size = m if m % 2 == 1 else m + 1
        if system_name == "grid":
            side = max(2, int(round(math.sqrt(m))))
            size = side * side
        for fr in read_fractions:
            points.append(quorum_load_point(
                system_name, fr, n=n, m=size, optimize=optimize,
                reps=reps, ops=ops, seed=seed,
                faulty=faulty))
    return points
