"""Declarative streaming SLOs over the trace stream.

"Timed Quorum Systems for Large-Scale and Dynamic Environments"
motivates treating staleness and availability as *first-class service
levels* rather than end-of-run figures; this module does that for the
simulator: a JSON spec like ::

    [{"metric": "lookup.latency", "p": 99, "max": 0.25, "window": 100},
     {"metric": "lookup.hit_rate", "min": 0.85, "window": 200}]

is evaluated **live** over tumbling windows of the trace stream.  Each
spec watches one derived metric; percentile specs (``p``) use the O(1)
:class:`~repro.obs.metrics.P2Quantile` streaming estimator (no window
buffer, however large the window), plain specs use a running mean.
When a window fills — or the stream ends with a partial window — the
window's value is checked against ``max`` / ``min``; a breach is an
``slo-violation`` routed exactly like any invariant watcher violation
(strict auditor raises, record survives, the CLI reports).

Derived metrics (from ``access-start``/``access-end`` pairs):

* ``<kind>.latency`` — simulated seconds between the access's start and
  end events (``<kind>`` in ``advertise`` / ``lookup``);
* ``<kind>.messages`` / ``<kind>.routing`` / ``<kind>.quorum_size`` —
  the per-access accounting fields;
* ``lookup.hit_rate`` — 1.0/0.0 per lookup from the ``found`` flag
  (use with a ``min`` threshold and no ``p``).

And from ``kv-op`` serving events (the quorum key-value store):

* ``kv.<op>.latency`` — per-op simulated latency (``<op>`` in ``put`` /
  ``get`` / ``cas``);
* ``kv.availability`` — 1.0/0.0 per get from the ``ok`` flag;
* ``kv.stale_rate`` — 1.0/0.0 per get from the ``stale`` flag (reads
  that returned an older-than-newest committed version).

The monitor's machine-readable verdict (:meth:`SloMonitor.slo_report`)
is written beside the run manifest by the CLI (``<trace>.verdict.json``)
so CI can gate on it and archive it as an artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import P2Quantile
from repro.obs.trace import TraceEvent
from repro.obs.watch import Watcher

#: Verdict report layout version.
SLO_REPORT_SCHEMA = 1

_ACCESS_FIELD_METRICS = (
    ("messages", "{kind}.messages"),
    ("routing", "{kind}.routing"),
    ("quorum", "{kind}.quorum_size"),
)


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a derived trace metric."""

    metric: str
    p: Optional[float] = None          # percentile (0..100); None = mean
    max: Optional[float] = None
    min: Optional[float] = None
    window: Optional[int] = None       # observations per window; None = run

    def __post_init__(self) -> None:
        if not self.metric:
            raise ValueError("SLO spec needs a 'metric'")
        if self.p is not None and not 0.0 < self.p < 100.0:
            raise ValueError("SLO percentile 'p' must be in (0, 100)")
        if self.max is None and self.min is None:
            raise ValueError(
                f"SLO spec for {self.metric!r} needs 'max' and/or 'min'")
        if self.window is not None and self.window < 1:
            raise ValueError("SLO 'window' must be >= 1")

    @property
    def label(self) -> str:
        stat = f"p{self.p:g}" if self.p is not None else "mean"
        bounds = []
        if self.max is not None:
            bounds.append(f"<= {self.max:g}")
        if self.min is not None:
            bounds.append(f">= {self.min:g}")
        win = f" per {self.window} obs" if self.window else " per run"
        return f"{self.metric} {stat} {' and '.join(bounds)}{win}"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"metric": self.metric}
        if self.p is not None:
            out["p"] = self.p
        if self.max is not None:
            out["max"] = self.max
        if self.min is not None:
            out["min"] = self.min
        if self.window is not None:
            out["window"] = self.window
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "SloSpec":
        known = {"metric", "p", "max", "min", "window"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown SLO spec field(s) {sorted(unknown)}; "
                f"valid: {sorted(known)}")
        return cls(metric=str(raw["metric"]) if "metric" in raw else "",
                   p=raw.get("p"), max=raw.get("max"), min=raw.get("min"),
                   window=raw.get("window"))


def load_slo_specs(source: Any) -> List[SloSpec]:
    """Parse SLO specs from a JSON file path, JSON text, or list.

    Accepts a bare list of spec objects or ``{"slos": [...]}``.
    """
    if isinstance(source, str):
        if source.lstrip().startswith(("[", "{")):
            data = json.loads(source)
        else:
            with open(source) as handle:
                data = json.load(handle)
    else:
        data = source
    if isinstance(data, dict):
        data = data.get("slos", [])
    if not isinstance(data, list):
        raise ValueError("SLO spec file must hold a list (or {'slos': []})")
    specs = []
    for raw in data:
        if isinstance(raw, SloSpec):
            specs.append(raw)
        elif isinstance(raw, dict):
            specs.append(SloSpec.from_dict(raw))
        else:
            raise ValueError(f"SLO spec entries must be objects, got {raw!r}")
    return specs


class _MeanEstimator:
    """Windowed running mean (the non-percentile estimator)."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value

    def value(self) -> float:
        return self.total / self.count if self.count else math.nan


class _SloSeries:
    """One spec's windowed evaluation state."""

    __slots__ = ("spec", "observations", "windows", "violations",
                 "worst", "_estimator")

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.observations = 0
        self.windows: List[Dict[str, Any]] = []
        self.violations = 0
        self.worst: Optional[float] = None
        self._estimator = self._fresh()

    def _fresh(self):
        if self.spec.p is not None:
            return P2Quantile(self.spec.p / 100.0)
        return _MeanEstimator()

    def observe(self, value: float) -> Optional[Dict[str, Any]]:
        """Feed one observation; returns a window verdict when one closes."""
        self.observations += 1
        self._estimator.observe(value)
        if (self.spec.window is not None
                and self._estimator.count >= self.spec.window):
            return self._close(partial=False)
        return None

    def flush(self) -> Optional[Dict[str, Any]]:
        """End-of-stream: evaluate a pending partial window."""
        if self._estimator.count == 0:
            return None
        return self._close(partial=True)

    def _close(self, partial: bool) -> Dict[str, Any]:
        value = self._estimator.value()
        ok = True
        if self.spec.max is not None and value > self.spec.max:
            ok = False
        if self.spec.min is not None and value < self.spec.min:
            ok = False
        verdict = {"window": len(self.windows),
                   "count": self._estimator.count,
                   "value": value, "ok": ok, "partial": partial}
        self.windows.append(verdict)
        if not ok:
            self.violations += 1
        if self.worst is None or self._is_worse(value):
            self.worst = value
        self._estimator = self._fresh()
        return verdict

    def _is_worse(self, value: float) -> bool:
        if math.isnan(value):
            return False
        if self.worst is None or math.isnan(self.worst):
            return True
        if self.spec.max is not None:
            return value > self.worst
        return value < self.worst

    def to_dict(self) -> Dict[str, Any]:
        def clean(v):
            if isinstance(v, float) and math.isnan(v):
                return None
            return v
        return {
            "spec": self.spec.to_dict(),
            "label": self.spec.label,
            "observations": self.observations,
            "violations": self.violations,
            "worst": clean(self.worst),
            "windows": [dict(w, value=clean(w["value"]))
                        for w in self.windows],
            "ok": self.violations == 0,
        }


class SloMonitor(Watcher):
    """A :class:`~repro.obs.watch.Watcher` evaluating SLO specs live.

    Plugs into a :class:`~repro.obs.watch.WatcherHub` like any invariant
    watcher: live on ``EventTrace`` subscriptions, or offline through
    ``repro obs watch TRACE --slo FILE``.  Window breaches surface as
    ``slo-violation`` watcher violations; :meth:`slo_report` returns the
    machine-readable verdict block.
    """

    name = "slo"
    kinds = frozenset({"access-start", "access-end", "kv-op"})

    def __init__(self, specs: Any) -> None:
        super().__init__()
        if isinstance(specs, (str, dict)):
            specs = load_slo_specs(specs)
        self.series = [
            _SloSeries(s if isinstance(s, SloSpec)
                       else SloSpec.from_dict(s))
            for s in specs]
        self._by_metric: Dict[str, List[_SloSeries]] = {}
        for series in self.series:
            self._by_metric.setdefault(series.spec.metric, []).append(series)
        # (strategy, access, origin) -> stack of start timestamps
        # (LIFO per key: the summarizer's nesting-safe pairing).
        self._open: Dict[Tuple[Any, Any, Any], List[float]] = {}

    # -- event consumption --------------------------------------------------

    def handler_for(self, kind: str) -> Callable[[TraceEvent], None]:
        if kind == "kv-op":
            return self._on_kv_op
        if kind == "access-start":
            return self._on_start
        return self._on_end  # access-end by self.kinds construction

    def _on_kv_op(self, event: TraceEvent) -> None:
        f = event.fields
        op = str(f.get("op", "?"))
        if "latency" in f:
            self._feed(f"kv.{op}.latency", float(f["latency"]))
        if op == "get":
            self._feed("kv.availability", 1.0 if f.get("ok") else 0.0)
            self._feed("kv.stale_rate", 1.0 if f.get("stale") else 0.0)

    def _on_start(self, event: TraceEvent) -> None:
        f = event.fields
        key = (f.get("strategy"), f.get("access"), f.get("origin"))
        self._open.setdefault(key, []).append(event.t)

    def _on_end(self, event: TraceEvent) -> None:
        f = event.fields
        key = (f.get("strategy"), f.get("access"), f.get("origin"))
        kind = str(f.get("access", "?"))
        stack = self._open.get(key)
        if stack:
            self._feed(f"{kind}.latency", event.t - stack.pop())
            if not stack:
                del self._open[key]
        for field_name, template in _ACCESS_FIELD_METRICS:
            if field_name in f:
                self._feed(template.format(kind=kind),
                           float(f[field_name]))
        if kind == "lookup" and "found" in f:
            self._feed("lookup.hit_rate", 1.0 if f.get("found") else 0.0)

    def _feed(self, metric: str, value: float) -> None:
        for series in self._by_metric.get(metric, ()):
            verdict = series.observe(value)
            if verdict is not None and not verdict["ok"]:
                self._breach(series, verdict)

    def _breach(self, series: _SloSeries, verdict: Dict[str, Any]) -> None:
        self.violation(
            "slo-violation",
            f"{series.spec.label}: window #{verdict['window']} "
            f"({verdict['count']} obs"
            + (", partial" if verdict["partial"] else "")
            + f") measured {verdict['value']:.6g}")

    def finish(self) -> None:
        for series in self.series:
            verdict = series.flush()
            if verdict is not None and not verdict["ok"]:
                self._breach(series, verdict)

    # -- reporting ----------------------------------------------------------

    def slo_report(self) -> Dict[str, Any]:
        """Machine-readable verdict block (written beside the manifest)."""
        results = [series.to_dict() for series in self.series]
        return {
            "schema": SLO_REPORT_SCHEMA,
            "specs": len(self.series),
            "violations": sum(r["violations"] for r in results),
            "ok": all(r["ok"] for r in results),
            "slos": results,
        }


def write_verdict_report(path: str, payload: Dict[str, Any]) -> str:
    """Write a verdict report as JSON; returns the path written."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def verdict_path_for(trace_path: str) -> str:
    """Where a trace's verdict report lives (beside its manifest)."""
    return trace_path + ".verdict.json"
