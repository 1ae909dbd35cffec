"""Churn: node failures, departures, and joins (Sections 3, 6.1, 8.7).

Two interfaces are provided:

* :func:`apply_churn` — the batch form used in the paper's Figure 14(f)
  experiment: after all advertisements complete, fail each node with a given
  probability and/or add new nodes, optionally requiring the survivor graph
  to stay connected.
* :class:`ChurnProcess` — a continuous Poisson churn process for long-running
  scenarios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.simnet.network import SimNetwork


@dataclass
class ChurnOutcome:
    """What a batch churn application actually did."""

    failed: List[int] = field(default_factory=list)
    joined: List[int] = field(default_factory=list)
    skipped_for_connectivity: int = 0


def apply_churn(
    net: SimNetwork,
    fail_fraction: float = 0.0,
    join_fraction: float = 0.0,
    rng: Optional[random.Random] = None,
    keep_connected: bool = True,
    protected: Optional[Set[int]] = None,
) -> ChurnOutcome:
    """Fail a fraction of the current nodes and/or join new ones.

    ``fail_fraction``/``join_fraction`` are relative to the network size at
    call time.  With ``keep_connected`` (the paper requires the network to
    remain connected), a failure that would disconnect the survivors is
    skipped and another victim is tried.  ``protected`` nodes are never
    failed (e.g. the measurement origin).  Without ``rng`` the draws come
    from the network's ``"churn.apply"`` stream.
    """
    if not 0.0 <= fail_fraction <= 1.0:
        raise ValueError("fail_fraction must be in [0, 1]")
    if join_fraction < 0.0:
        raise ValueError("join_fraction must be >= 0")
    if rng is None:
        rng = net.rngs.stream("churn.apply")
    protected = protected or set()
    outcome = ChurnOutcome()

    initial = net.alive_nodes()
    n0 = len(initial)
    target_failures = int(round(fail_fraction * n0))
    candidates = [v for v in initial if v not in protected]
    rng.shuffle(candidates)
    for victim in candidates:
        if len(outcome.failed) >= target_failures:
            break
        # Tentative failure: geometry updates so is_connected() sees the
        # survivor graph, but the fail event / metrics / state-eviction
        # listeners only run once the failure commits.
        net.fail_node(victim, commit=False)
        if keep_connected and not net.is_connected():
            # Undo by re-joining the same node id is not possible (crash
            # semantics); instead re-admit it as itself via mobility state.
            net.revive_node(victim)
            outcome.skipped_for_connectivity += 1
            continue
        net.commit_failure(victim)
        outcome.failed.append(victim)

    target_joins = int(round(join_fraction * n0))
    for _ in range(target_joins):
        outcome.joined.append(net.join_node())

    net.invalidate_routes()
    return outcome


class ChurnProcess:
    """Continuous Poisson failure/join process.

    ``failure_rate`` and ``join_rate`` are events per second over the whole
    network.  Each event picks a uniform victim (never ``protected``) or
    joins a fresh node at a uniform position.  Without ``rng`` the
    process draws from the network's ``"churn.process"`` stream.
    """

    def __init__(
        self,
        net: SimNetwork,
        failure_rate: float = 0.0,
        join_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        keep_connected: bool = False,
        protected: Optional[Set[int]] = None,
    ) -> None:
        if failure_rate < 0 or join_rate < 0:
            raise ValueError("rates must be non-negative")
        self.net = net
        self.failure_rate = failure_rate
        self.join_rate = join_rate
        self.rng = rng if rng is not None else net.rngs.stream(
            "churn.process")
        self.keep_connected = keep_connected
        self.protected = protected or set()
        self.failures = 0
        self.joins = 0
        self._stopped = False
        self._pending_failure = None
        self._pending_join = None
        if failure_rate > 0:
            self._schedule_failure()
        if join_rate > 0:
            self._schedule_join()

    def stop(self) -> None:
        """Halt the process and cancel queued callbacks.

        Without the cancellation, the already-scheduled failure/join
        events would sit in the sim queue firing no-ops (and keeping the
        network reachable) for the rest of the run.
        """
        self._stopped = True
        for event in (self._pending_failure, self._pending_join):
            if event is not None:
                event.cancel()
        self._pending_failure = None
        self._pending_join = None

    def _schedule_failure(self) -> None:
        delay = self.rng.expovariate(self.failure_rate)
        self._pending_failure = self.net.sim.schedule(delay, self._do_failure)

    def _schedule_join(self) -> None:
        delay = self.rng.expovariate(self.join_rate)
        self._pending_join = self.net.sim.schedule(delay, self._do_join)

    def _do_failure(self) -> None:
        if self._stopped:
            return
        candidates = [v for v in self.net.alive_nodes()
                      if v not in self.protected]
        if len(candidates) > 1:
            victim = self.rng.choice(candidates)
            net = self.net
            net.fail_node(victim, commit=False)
            if self.keep_connected and not net.is_connected():
                net.revive_node(victim)
            else:
                net.commit_failure(victim)
                self.failures += 1
        self._schedule_failure()

    def _do_join(self) -> None:
        if self._stopped:
            return
        self.net.join_node()
        self.joins += 1
        self._schedule_join()
