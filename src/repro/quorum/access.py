"""Run algebraic quorum systems on the simulated network.

:class:`AlgebraicStrategy` adapts a :class:`~repro.quorum.algebra.QuorumSystem`
plus its optimized :class:`~repro.quorum.strategy.Strategy` to the
:class:`~repro.core.strategies.AccessStrategy` template, so majority /
grid / chained systems run under the batched access engine, the strict
accounting audit, fault campaigns, and Monte-Carlo replication exactly
like the paper's probabilistic strategies:

* ``advertise`` draws a **write** quorum from the strategy distribution
  and contacts every member through multi-hop routing (the RANDOM
  transport); the access succeeds only if *all* members were reached —
  algebraic quorums are all-or-nothing, unlike probabilistic targets;
* ``lookup`` draws a **read** quorum, probes every member, and a hit is
  shipped back to the originator via a routed reply.

Each touched member bumps the ``quorum.node_load.<id>`` counter in the
network's metrics registry (plus ``quorum.accesses``), so the simulated
per-node load can be cross-checked against the optimizer's prediction
(see :mod:`repro.experiments.fig_quorum`).

The expression elements must be live simulator node ids.
"""

from __future__ import annotations

from typing import Dict

from repro.core.strategies import (
    AccessResult,
    AccessStrategy,
    ProbeFn,
    StoreFn,
    routed_reach,
    routed_reply,
)
from repro.obs.trace import record_event
from repro.quorum.algebra import QuorumSystem
from repro.quorum.strategy import Strategy
from repro.simnet.network import SimNetwork


class AlgebraicStrategy(AccessStrategy):
    """Quorum access driven by an algebraic system's strategy.

    ``strategy`` is typically the optimizer's output
    (``system.strategy(read_fraction=..., optimize=...)``).  The
    ``target_size`` argument of ``advertise``/``lookup`` is ignored —
    the algebra, not the caller, defines the quorums — but the drawn
    quorum's size is recorded in ``AccessResult.target_size`` so audits
    and metrics stay meaningful.
    """

    name = "ALGEBRAIC"
    uniform_random = False

    def __init__(self, system: QuorumSystem, strategy: Strategy) -> None:
        self.system = system
        self.strategy = strategy

    def _count_load(self, net: SimNetwork, nodes) -> None:
        metrics = getattr(net, "metrics", None)
        if metrics is None:
            return
        metrics.counter("quorum.accesses").inc()
        for node in nodes:
            metrics.counter(f"quorum.node_load.{node}").inc()

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        members = self.strategy.sample_write(
            net.rngs.stream("algebra-strategy"))
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=len(members or ()))
        if members is None:  # degenerate (all-faulted) system
            return result
        targets = [int(x) for x in members]
        reached = []
        for target in targets:
            if target == origin or routed_reach(net, origin, target, result):
                reached.append(target)
                store_fn(target)
        result.quorum = sorted(reached)
        # All-or-nothing: a partial write quorum does not intersect
        # every read quorum, so it must not count as success.
        result.success = len(reached) == len(targets)
        self._count_load(net, reached)
        return result

    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        members = self.strategy.sample_read(
            net.rngs.stream("algebra-strategy"))
        result = AccessResult(strategy=self.name, kind="lookup",
                              target_size=len(members or ()))
        if members is None:
            return result
        targets = [int(x) for x in members]
        reached = []
        for target in targets:
            if target != origin and not routed_reach(net, origin, target,
                                                     result):
                continue
            reached.append(target)
            value = probe_fn(target)
            if value is None:
                continue
            result.found = True
            if result.hit_node is None:
                result.hit_node = target
                result.hit_value = value
            if target == origin:
                result.reply_delivered = True
                record_event(net, "reply", src=origin, dst=origin,
                             success=True, mechanism="local")
            else:
                routed_reply(net, target, origin, result)
        result.quorum = sorted(reached)
        if result.found:
            result.success = bool(result.reply_delivered)
        else:
            result.success = len(reached) == len(targets)
        self._count_load(net, reached)
        return result


def measured_node_loads(net: SimNetwork) -> Dict[int, float]:
    """Per-node load observed by the metrics registry.

    ``touches(x) / accesses`` over every node with a recorded counter;
    empty dict when no algebraic access ran.
    """
    metrics = getattr(net, "metrics", None)
    if metrics is None:
        return {}
    total = metrics.counter_value("quorum.accesses")
    if total <= 0:
        return {}
    prefix = "quorum.node_load."
    loads: Dict[int, float] = {}
    for name, value in metrics.snapshot().items():
        if isinstance(value, int) and name.startswith(prefix):
            loads[int(name[len(prefix):])] = value / total
    return loads
