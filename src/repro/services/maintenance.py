"""Quorum maintenance daemon (Section 6.1, "handling quorum degradation").

Probabilistic quorums never need *reconfiguration* after churn — only a
periodic *refresh* (readvertising every data item) to restore the
intersection probability.  The refresh interval comes straight from the
degradation-rate analysis: given the initial epsilon, the minimum
acceptable intersection probability, and the observed churn rate, refresh
every ``f_max / churn_rate`` seconds.

Two scheduling modes:

* **static** — the construction-time churn rate is trusted for the whole
  run (the paper's setting);
* **adaptive** (``adaptive=True``) — the daemon measures the churn rate
  actually observed (committed failures + joins in the network's metrics
  registry) and re-derives the Section 6.1 interval after every round,
  so a mis-estimated or drifting churn rate converges to an appropriate
  refresh frequency online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis.degradation import RefreshPlan, refresh_schedule
from repro.services.location import LocationService
from repro.sim.kernel import PeriodicTimer
from repro.simnet.churn import ChurnMeter

#: The Section 6.1 churn model the interval is derived for: failures and
#: joins together.
CHURN_MODE = "both"


@dataclass
class RefreshStats:
    """Bookkeeping of refresh rounds performed."""

    rounds: int = 0
    readvertised: int = 0
    lost: int = 0  # keys with no surviving owner at refresh time
    interval_updates: int = 0  # adaptive re-derivations that changed it


class RefreshDaemon:
    """Periodically readvertises every mapping of a location service."""

    def __init__(
        self,
        service: LocationService,
        interval: Optional[float] = None,
        epsilon: Optional[float] = None,
        min_intersection: Optional[float] = None,
        churn_fraction_per_second: Optional[float] = None,
        adaptive: bool = False,
        min_interval: float = 1.0,
        max_interval: float = 86400.0,
    ) -> None:
        """Either give ``interval`` directly, or give the degradation
        parameters (epsilon, floor, churn rate) and let the Section 6.1
        analysis derive the interval.

        With ``adaptive=True`` (requires ``epsilon`` and
        ``min_intersection``), every round re-estimates the churn rate
        from the committed churn counters and re-derives the interval,
        clamped to ``[min_interval, max_interval]``.
        """
        if interval is None:
            if None in (epsilon, min_intersection, churn_fraction_per_second):
                raise ValueError(
                    "provide interval, or epsilon + min_intersection + "
                    "churn_fraction_per_second")
            plan = refresh_schedule(epsilon, min_intersection,
                                    churn_fraction_per_second, CHURN_MODE)
            interval = plan.refresh_interval_seconds
            self.plan: Optional[RefreshPlan] = plan
        else:
            self.plan = None
        if not interval > 0:
            raise ValueError("refresh interval must be positive")
        if adaptive:
            if epsilon is None or min_intersection is None:
                raise ValueError(
                    "adaptive refresh needs epsilon and min_intersection "
                    "to re-derive the schedule")
            if not 0 < min_interval <= max_interval:
                raise ValueError("need 0 < min_interval <= max_interval")
            interval = min(max_interval, max(min_interval, interval))
        self.service = service
        self.interval = interval
        self.epsilon = epsilon
        self.min_intersection = min_intersection
        self.adaptive = adaptive
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.stats = RefreshStats()
        self._lost_keys: set = set()
        self.churn = ChurnMeter(service.net)
        self._timer = PeriodicTimer(service.net.sim, interval, self._tick)

    # -- adaptive interval ------------------------------------------------

    def _adapt_interval(self) -> None:
        rate = self.churn.rate()
        if rate <= 0:
            return
        plan = refresh_schedule(self.epsilon, self.min_intersection,
                                rate, CHURN_MODE)
        derived = plan.refresh_interval_seconds
        if math.isinf(derived):
            derived = self.max_interval
        new_interval = min(self.max_interval, max(self.min_interval, derived))
        if new_interval != self.interval:
            self.interval = new_interval
            self.plan = plan
            self._timer.set_interval(new_interval)
            self.stats.interval_updates += 1

    # -- refresh rounds ---------------------------------------------------

    def _tick(self) -> None:
        self.stats.rounds += 1
        # Per-key accounting: a key is *lost* when it was advertised at
        # snapshot time yet produced no receipt.  (The old
        # ``len(keys) - len(receipts)`` went negative whenever keys were
        # advertised between the snapshot and readvertise_all, and
        # double-counted transient losses across rounds.)
        keys = set(self.service.advertised_keys())
        receipts = self.service.readvertise_all()
        self.stats.readvertised += len(receipts)
        refreshed = {receipt.key for receipt in receipts}
        lost_now = keys - refreshed
        # Count each loss once until the key recovers (back-to-back
        # rounds must not re-count the same stuck key).
        self.stats.lost += len(lost_now - self._lost_keys)
        self._lost_keys = lost_now
        if self.adaptive:
            self._adapt_interval()

    def stop(self) -> None:
        self._timer.stop()
