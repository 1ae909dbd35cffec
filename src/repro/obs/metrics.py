"""Uniform counters and histograms for experiments and benchmarks.

Every :class:`~repro.simnet.network.SimNetwork` owns a
:class:`MetricsRegistry`; the simulator core and the access strategies
populate a fixed, documented set of metric names (see DESIGN.md,
Observability layer) so figure drivers and benchmarks can report audited
numbers instead of re-deriving them ad hoc:

* ``net.unicasts`` / ``net.broadcasts`` / ``net.unicast_failures`` /
  ``net.routing`` — transmission-level counters;
* ``access.<kind>.count|messages|routing|hits|reply_drops`` — per-access
  counters, ``<kind>`` in ``advertise``/``lookup``;
* ``access.<kind>.latency|quorum_size`` — per-access histograms.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union


class P2Quantile:
    """Streaming quantile estimator (Jain & Chlamtac's P² algorithm).

    O(1) memory and O(1) per observation: five markers track the target
    quantile, its neighbours, and the extremes, adjusted with a
    piecewise-parabolic fit.  Exact for the first five observations
    (they are simply sorted); the estimate converges for larger streams.
    The SLO monitor's percentile windows use it.
    """

    __slots__ = ("q", "_n", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self._n = 0
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._rates = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    @property
    def count(self) -> int:
        return self._n

    def observe(self, value: float) -> None:
        self._n += 1
        if self._n <= 5:
            self._heights.append(value)
            self._heights.sort()
            if self._n == 5:
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0 + 4.0 * r for r in self._rates]
            return
        h, pos = self._heights, self._positions
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= h[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._rates[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - pos[i]
            if ((delta >= 1.0 and pos[i + 1] - pos[i] > 1.0)
                    or (delta <= -1.0 and pos[i - 1] - pos[i] < -1.0)):
                step = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] += step * ((h[i + int(step)] - h[i])
                                    / (pos[i + int(step)] - pos[i]))
                pos[i] += step
        return

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1]))

    def value(self) -> float:
        """Current estimate of the target quantile; NaN when empty."""
        if self._n == 0:
            return math.nan
        if self._n <= 5:
            ordered = self._heights
            rank = max(0, min(len(ordered) - 1,
                              int(math.ceil(self.q * len(ordered))) - 1))
            return ordered[rank]
        return self._heights[2]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A value distribution with summary statistics.

    Raw observations are retained (simulation scale makes this cheap)
    and quantiles are exact — nearest-rank over a sorted order that is
    **cached** between observations, so repeated ``percentile()`` calls
    do not re-sort.  An **empty** histogram reports ``nan`` for
    mean/min/max/percentiles (never raises), so summaries of runs with
    zero observations — e.g. a trace with no lookups — render cleanly
    instead of inventing a 0.0 latency.
    """

    __slots__ = ("name", "values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        self._sorted = None
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        count = self.count
        return self.sum / count if count else math.nan

    @property
    def min(self) -> float:
        return min(self.values) if self.values else math.nan

    @property
    def max(self) -> float:
        return max(self.values) if self.values else math.nan

    def percentile(self, q: float) -> float:
        """q-th percentile (nearest-rank), q in [0, 100].

        ``nan`` on an empty histogram (range checking still applies).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.values:
            return math.nan
        if self._sorted is None:
            self._sorted = sorted(self.values)
        ordered = self._sorted
        rank = max(0, min(len(ordered) - 1,
                          int(math.ceil(q / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Histogram({self.name}: n={self.count}, "
                f"mean={self.mean:.4g})")


class MetricsRegistry:
    """Named counters and histograms with a stable snapshot format."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def counter_value(self, name: str) -> int:
        """Current value of a counter; 0 if it was never created.

        Unlike :meth:`counter`, reading never materialises the counter,
        so observers (e.g. the churn-adaptive refresh daemon) do not
        perturb the snapshot key set.
        """
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()

    def snapshot(self) -> Dict[str, Union[int, Dict[str, float]]]:
        """Flat dict: counters as ints, histograms as summary dicts."""
        out: Dict[str, Union[int, Dict[str, float]]] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._histograms):
            h = self._histograms[name]
            out[name] = {
                "count": h.count, "sum": h.sum, "mean": h.mean,
                "min": h.min, "max": h.max,
                "p50": h.percentile(50), "p99": h.percentile(99),
            }
        return out

    def render(self) -> str:
        """Aligned ASCII table of the snapshot (for reports/CLI)."""
        lines = []
        snap = self.snapshot()
        width = max((len(n) for n in snap), default=0)
        for name, value in snap.items():
            if isinstance(value, dict):
                detail = (f"n={value['count']} mean={value['mean']:.4g} "
                          f"p50={value['p50']:.4g} p99={value['p99']:.4g} "
                          f"max={value['max']:.4g}")
            else:
                detail = str(value)
            lines.append(f"{name.ljust(width)}  {detail}")
        return "\n".join(lines)
