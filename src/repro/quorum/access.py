"""Run algebraic quorum systems on the simulated network.

:class:`AlgebraicStrategy` adapts a :class:`~repro.quorum.algebra.QuorumSystem`
plus its optimized :class:`~repro.quorum.strategy.Strategy` to the
:class:`~repro.core.strategies.AccessStrategy` template, so majority /
grid / chained systems run under the batched access engine, the strict
accounting audit, fault campaigns, and Monte-Carlo replication exactly
like the paper's probabilistic strategies:

* ``advertise`` draws a **write** quorum from the strategy distribution,
  ``lookup`` a **read** quorum; both reach the members through RANDOM's
  transport, :func:`~repro.core.strategies.routed_contact`, without
  adaptation, and a lookup hit replies locally or by a routed reply;
* the access counts only if *all* members were reached — algebraic
  quorums are all-or-nothing, unlike probabilistic targets.

Only that law lives here: the draw from the ``algebra-strategy`` stream,
the all-or-nothing rule and the load counters.

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
    local_reply,
    record_hit,
    routed_contact,
    routed_reply,
    settle_lookup,
)
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

    def _contact(self, net: SimNetwork, origin: int, kind: str,
                 visit) -> AccessResult:
        """Draw a ``kind`` quorum from σ and reach it by routed contact;
        the quorum counts only when every member was reached."""
        rng = net.rngs.stream("algebra-strategy")
        members = (self.strategy.sample_write(rng) if kind == "advertise"
                   else self.strategy.sample_read(rng))
        result = AccessResult(strategy=self.name, kind=kind,
                              target_size=len(members or ()))
        if members is None:  # degenerate (all-faulted) system
            return result
        reached = routed_contact(net, origin, [int(x) for x in members],
                                 result, lambda node: visit(result, node))
        result.quorum = sorted(reached)
        # All-or-nothing: a partial quorum does not intersect every
        # quorum of the other kind, so it must not count as complete.
        complete = len(reached) == len(members)
        if kind == "advertise":
            result.success = complete
        else:
            settle_lookup(result, complete)
        self._count_load(net, reached)
        return result

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        def visit(result: AccessResult, node: int) -> bool:
            store_fn(node)
            return False

        return self._contact(net, origin, "advertise", visit)

    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        def visit(result: AccessResult, node: int) -> bool:
            value = probe_fn(node)
            if value is not None:
                record_hit(result, node, value)
                if node == origin:
                    local_reply(net, origin, result)
                else:
                    routed_reply(net, node, origin, result)
            return False

        return self._contact(net, origin, "lookup", visit)


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
