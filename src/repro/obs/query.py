"""Offline trace analysis: summarize, timeline, diff.

Consumes the JSONL event traces written by
:class:`~repro.obs.trace.EventTrace` (``--trace`` / ``REPRO_TRACE``)
**streamingly** — one line at a time, O(accesses) memory — so multi-GB
sweep traces work.  Three queries, surfaced as the ``repro obs`` CLI
namespace:

* :func:`summarize_trace` — per-event-kind counts, network/routing
  message totals, and per-access-kind aggregates (count, messages,
  routing, hits, reply drops, latency/quorum-size percentiles).  The
  access aggregates use the same :class:`~repro.obs.metrics.Histogram`
  and key names as the in-process ``MetricsRegistry.snapshot()``, so a
  trace summary of a seeded run reproduces the live metrics exactly.
* :func:`access_timeline` — the ordered event slice of one access,
  identified by its ordinal (the N-th ``access-start`` in the file).
* :func:`diff_summaries` — metric deltas between two runs; the building
  block for perf/behaviour regression gating (CI runs it over two
  seeded fig8 traces and expects zero delta).

Corrupt lines (a crashed run, a truncated tail) are *counted*, never
fatal: the tooling must degrade gracefully.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import Histogram
from repro.obs.trace import MESSAGE_KINDS, ROUTING_KINDS, TRACE_SCHEMA

PathOrLines = Union[str, Iterable[str]]


def _iter_lines(source: PathOrLines) -> Iterator[str]:
    if isinstance(source, str):
        if source == "-":
            # Live pipe: `repro fig8 --trace /dev/stdout | repro obs
            # summarize -` (and friends).
            yield from sys.stdin
            return
        with open(source, "r") as handle:
            yield from handle
    else:
        yield from source


def check_trace_schema(trace_path: str) -> Optional[int]:
    """Warn on stderr when a trace was recorded under another schema.

    Reads the sibling ``<trace>.manifest.json``; silent when there is
    no manifest (or no path — stdin).  Manifests predating the stamp
    count as schema 1.  Returns the recorded schema, or ``None`` when
    unknown.
    """
    if not isinstance(trace_path, str) or trace_path == "-":
        return None
    try:
        with open(trace_path + ".manifest.json") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(manifest, dict):
        return None
    recorded = manifest.get("trace_schema", 1)
    if recorded != TRACE_SCHEMA:
        print(f"warning: trace {trace_path} was recorded under trace "
              f"schema {recorded}; these tools expect {TRACE_SCHEMA} — "
              f"fields added since may be missing from old events",
              file=sys.stderr)
    return recorded


def iter_trace(source: PathOrLines) -> Iterator[Optional[Dict[str, Any]]]:
    """Yield one parsed event dict per line; ``None`` for corrupt lines."""
    for line in _iter_lines(source):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            yield None
            continue
        if not isinstance(event, dict) or "kind" not in event:
            yield None
            continue
        yield event


@dataclass
class AccessAggregate:
    """Per-access-kind totals mirroring the ``access.<kind>.*`` metrics."""

    count: int = 0
    messages: int = 0
    routing: int = 0
    hits: int = 0
    reply_drops: int = 0
    unmatched: int = 0               # ends closing no innermost start
    latency: Histogram = field(
        default_factory=lambda: Histogram("latency"))
    quorum_size: Histogram = field(
        default_factory=lambda: Histogram("quorum_size"))


@dataclass
class KvOpAggregate:
    """Per-op rollup of ``kv-op`` serving events (schema 3)."""

    count: int = 0
    ok: int = 0
    stale: int = 0
    messages: int = 0
    latency: Histogram = field(
        default_factory=lambda: Histogram("latency"))


@dataclass
class TraceSummary:
    """Streaming aggregation of one JSONL trace."""

    events: int = 0
    corrupt_lines: int = 0
    kind_counts: Dict[str, int] = field(default_factory=dict)
    access: Dict[str, AccessAggregate] = field(default_factory=dict)
    kv_ops: Dict[str, KvOpAggregate] = field(default_factory=dict)
    traced_messages: int = 0         # hop + broadcast + virtual-msg counts
    traced_routing: int = 0
    replies: int = 0
    replies_delivered: int = 0
    open_accesses: int = 0           # starts never matched by an end
    access_retries: int = 0          # policy retry launches
    deadline_misses: int = 0         # policy deadline violations
    churn_actions: Dict[str, int] = field(default_factory=dict)
    t_min: float = math.inf
    t_max: float = -math.inf

    def snapshot(self) -> Dict[str, Any]:
        """Flat dict in ``MetricsRegistry.snapshot()`` key format."""
        out: Dict[str, Any] = {}
        # Policy/churn counters are created lazily in the live registry
        # (only on first increment), so mirror them only when nonzero to
        # keep the offline snapshot key-identical to the live one.
        if self.access_retries:
            out["access.retries"] = self.access_retries
        if self.deadline_misses:
            out["access.deadline_misses"] = self.deadline_misses
        for action, metric in (("fail", "churn.failures"),
                               ("join", "churn.joins"),
                               ("revive", "churn.revives")):
            count = self.churn_actions.get(action, 0)
            if count:
                out[metric] = count
        for kind in sorted(self.access):
            agg = self.access[kind]
            prefix = f"access.{kind}"
            out[prefix + ".count"] = agg.count
            out[prefix + ".messages"] = agg.messages
            out[prefix + ".routing"] = agg.routing
            if kind == "lookup":
                out[prefix + ".hits"] = agg.hits
                out[prefix + ".reply_drops"] = agg.reply_drops
            for name, h in (("latency", agg.latency),
                            ("quorum_size", agg.quorum_size)):
                out[f"{prefix}.{name}"] = {
                    "count": h.count, "sum": h.sum, "mean": h.mean,
                    "min": h.min, "max": h.max,
                    "p50": h.percentile(50), "p99": h.percentile(99),
                }
        for op in sorted(self.kv_ops):
            agg = self.kv_ops[op]
            prefix = f"kv.{op}"
            out[prefix + ".count"] = agg.count
            out[prefix + ".ok"] = agg.ok
            out[prefix + ".stale"] = agg.stale
            out[prefix + ".messages"] = agg.messages
            h = agg.latency
            out[prefix + ".latency"] = {
                "count": h.count, "sum": h.sum, "mean": h.mean,
                "min": h.min, "max": h.max,
                "p50": h.percentile(50), "p99": h.percentile(99),
            }
        return out


def summarize_trace(source: PathOrLines) -> TraceSummary:
    """One streaming pass over a trace (path or line iterable).

    A trace has one writer, so accesses nest: each ``access-end``
    pairs with the innermost open ``access-start`` (a span stack, as in
    :func:`access_timeline`).  An end whose (strategy, access kind,
    origin) differs from that start's — an interleaved trace — or that
    finds no open start is counted ``unmatched`` and leaves the stack
    as it is.
    """
    summary = TraceSummary()
    # Open accesses, innermost last: ((strategy, kind, origin), start t).
    open_starts: List[Tuple[Tuple[Any, Any, Any], float]] = []

    for event in iter_trace(source):
        if event is None:
            summary.corrupt_lines += 1
            continue
        summary.events += 1
        kind = event["kind"]
        summary.kind_counts[kind] = summary.kind_counts.get(kind, 0) + 1
        t = event.get("t")
        if isinstance(t, (int, float)):
            summary.t_min = min(summary.t_min, t)
            summary.t_max = max(summary.t_max, t)

        if kind in MESSAGE_KINDS:
            summary.traced_messages += int(event.get("count", 1))
        elif kind in ROUTING_KINDS:
            summary.traced_routing += int(event.get("count", 1))
        elif kind == "reply":
            summary.replies += 1
            if event.get("success"):
                summary.replies_delivered += 1
        elif kind == "access-retry":
            summary.access_retries += 1
        elif kind == "access-deadline-miss":
            summary.deadline_misses += 1
        elif kind == "churn":
            action = str(event.get("action", "?"))
            summary.churn_actions[action] = (
                summary.churn_actions.get(action, 0) + 1)
        elif kind == "kv-op":
            op = str(event.get("op", "?"))
            agg_kv = summary.kv_ops.get(op)
            if agg_kv is None:
                agg_kv = summary.kv_ops[op] = KvOpAggregate()
            agg_kv.count += 1
            if event.get("ok"):
                agg_kv.ok += 1
            if event.get("stale"):
                agg_kv.stale += 1
            agg_kv.messages += int(event.get("messages", 0))
            if "latency" in event:
                agg_kv.latency.observe(float(event["latency"]))
        elif kind == "access-start":
            open_starts.append(((event.get("strategy"),
                                 event.get("access"), event.get("origin")),
                                float(event.get("t", 0.0))))
        elif kind == "access-end":
            access_kind = event.get("access", "?")
            agg = summary.access.get(access_kind)
            if agg is None:
                agg = summary.access[access_kind] = AccessAggregate()
            agg.count += 1
            agg.messages += int(event.get("messages", 0))
            agg.routing += int(event.get("routing", 0))
            if event.get("found"):
                agg.hits += 1
                if event.get("reply") is False:
                    agg.reply_drops += 1
            if "quorum" in event:
                agg.quorum_size.observe(float(event["quorum"]))
            key = (event.get("strategy"), event.get("access"),
                   event.get("origin"))
            if open_starts and open_starts[-1][0] == key:
                agg.latency.observe(float(event.get("t", 0.0))
                                    - open_starts.pop()[1])
            else:
                agg.unmatched += 1
    summary.open_accesses = len(open_starts)
    return summary


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_summary(summary: TraceSummary) -> str:
    """Human-readable summary table (the ``repro obs summarize`` output)."""
    lines = [f"events: {summary.events}   "
             f"corrupt lines: {summary.corrupt_lines}"]
    if summary.events and summary.t_max >= summary.t_min:
        lines[0] += (f"   sim time: {summary.t_min:.4g} .. "
                     f"{summary.t_max:.4g} s")
    if summary.kind_counts:
        lines.append("")
        lines.append("event kinds:")
        width = max(len(k) for k in summary.kind_counts)
        for kind in sorted(summary.kind_counts):
            lines.append(f"  {kind.ljust(width)}  "
                         f"{summary.kind_counts[kind]}")
    lines.append("")
    lines.append(f"network messages traced: {summary.traced_messages}   "
                 f"routing: {summary.traced_routing}   "
                 f"replies: {summary.replies_delivered}/{summary.replies} "
                 f"delivered")
    if summary.access_retries or summary.deadline_misses:
        lines.append(f"access policy: retries={summary.access_retries}   "
                     f"deadline misses={summary.deadline_misses}")
    if summary.churn_actions:
        detail = " ".join(f"{action}={count}" for action, count
                          in sorted(summary.churn_actions.items()))
        lines.append(f"churn: {detail}")
    for kind in sorted(summary.access):
        agg = summary.access[kind]
        lines.append("")
        lines.append(f"access.{kind}: count={agg.count} "
                     f"messages={agg.messages} routing={agg.routing}"
                     + (f" hits={agg.hits} reply_drops={agg.reply_drops}"
                        if kind == "lookup" else ""))
        lat, qs = agg.latency, agg.quorum_size
        lines.append(f"  latency      n={lat.count} mean={_fmt(lat.mean)} "
                     f"p50={_fmt(lat.percentile(50))} "
                     f"p99={_fmt(lat.percentile(99))} max={_fmt(lat.max)}")
        lines.append(f"  quorum size  n={qs.count} mean={_fmt(qs.mean)} "
                     f"p50={_fmt(qs.percentile(50))} "
                     f"p99={_fmt(qs.percentile(99))} max={_fmt(qs.max)}")
        if agg.unmatched:
            lines.append(f"  (unpaired access-ends: {agg.unmatched})")
    for op in sorted(summary.kv_ops):
        agg = summary.kv_ops[op]
        lines.append("")
        lines.append(f"kv.{op}: count={agg.count} ok={agg.ok} "
                     f"stale={agg.stale} messages={agg.messages}")
        lat = agg.latency
        lines.append(f"  latency      n={lat.count} mean={_fmt(lat.mean)} "
                     f"p50={_fmt(lat.percentile(50))} "
                     f"p99={_fmt(lat.percentile(99))} max={_fmt(lat.max)}")
    if summary.open_accesses:
        lines.append("")
        lines.append(f"open accesses (start without end): "
                     f"{summary.open_accesses}")
    return "\n".join(lines)


def summary_to_jsonable(summary: TraceSummary) -> Dict[str, Any]:
    """JSON-safe dict (NaN percentiles become null)."""
    def clean(value):
        if isinstance(value, float) and math.isnan(value):
            return None
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        return value

    return {
        "events": summary.events,
        "corrupt_lines": summary.corrupt_lines,
        "kind_counts": dict(sorted(summary.kind_counts.items())),
        "traced_messages": summary.traced_messages,
        "traced_routing": summary.traced_routing,
        "replies": summary.replies,
        "replies_delivered": summary.replies_delivered,
        "open_accesses": summary.open_accesses,
        "access_retries": summary.access_retries,
        "deadline_misses": summary.deadline_misses,
        "churn_actions": dict(sorted(summary.churn_actions.items())),
        "metrics": clean(summary.snapshot()),
    }


# -- timeline ---------------------------------------------------------------


def access_timeline(source: PathOrLines, access_index: int
                    ) -> List[Dict[str, Any]]:
    """Ordered events of the ``access_index``-th access (0-based ordinal
    of its ``access-start`` line), including any nested access's events,
    from start to the matching end.  Streaming: stops reading once the
    access closes.
    """
    if access_index < 0:
        raise ValueError("access index must be >= 0")
    seen_starts = -1
    depth = 0
    capturing = False
    events: List[Dict[str, Any]] = []
    for event in iter_trace(source):
        if event is None:
            continue
        kind = event["kind"]
        if kind == "access-start":
            seen_starts += 1
            if capturing:
                depth += 1
            elif seen_starts == access_index:
                capturing = True
                depth = 0
        if not capturing:
            continue
        events.append(event)
        if kind == "access-end":
            if depth == 0:
                break
            depth -= 1
    if not events:
        raise ValueError(
            f"trace has no access #{access_index} "
            f"(found {seen_starts + 1} accesses)")
    return events


def render_timeline(events: List[Dict[str, Any]],
                    access_index: Optional[int] = None) -> str:
    lines = []
    if access_index is not None and events:
        head = events[0]
        lines.append(
            f"access #{access_index}: {head.get('strategy', '?')} "
            f"{head.get('access', '?')} from node "
            f"{head.get('origin', '?')} ({len(events)} events)")
    depth = 0
    for event in events:
        kind = event["kind"]
        if kind == "access-end" and depth > 0:
            depth -= 1
        payload = {k: v for k, v in event.items()
                   if k not in ("seq", "t", "kind")}
        detail = " ".join(f"{k}={v}" for k, v in payload.items())
        indent = "  " * depth
        lines.append(f"{event.get('seq', '?'):>8}  "
                     f"{float(event.get('t', 0.0)):>12.6f}  "
                     f"{indent}{kind}  {detail}".rstrip())
        if kind == "access-start":
            depth += 1
    return "\n".join(lines)


# -- diff -------------------------------------------------------------------


def _flatten(snapshot: Dict[str, Any]) -> Dict[str, float]:
    flat: Dict[str, float] = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                flat[f"{name}.{sub}"] = v
        else:
            flat[name] = value
    return flat


def diff_summaries(a: TraceSummary, b: TraceSummary
                   ) -> List[Tuple[str, float, float]]:
    """Changed metrics between two summaries: ``[(name, a, b), ...]``.

    Compares the scalar totals plus the flattened access metric
    snapshots.  NaN == NaN here (two empty histograms are not a
    difference).
    """
    flat_a = {"events": a.events, "corrupt_lines": a.corrupt_lines,
              "traced_messages": a.traced_messages,
              "traced_routing": a.traced_routing,
              "replies": a.replies,
              "replies_delivered": a.replies_delivered}
    flat_b = {"events": b.events, "corrupt_lines": b.corrupt_lines,
              "traced_messages": b.traced_messages,
              "traced_routing": b.traced_routing,
              "replies": b.replies,
              "replies_delivered": b.replies_delivered}
    flat_a.update(_flatten(a.snapshot()))
    flat_b.update(_flatten(b.snapshot()))
    changes: List[Tuple[str, float, float]] = []
    for name in sorted(set(flat_a) | set(flat_b)):
        va = flat_a.get(name, math.nan)
        vb = flat_b.get(name, math.nan)
        both_nan = (isinstance(va, float) and math.isnan(va)
                    and isinstance(vb, float) and math.isnan(vb))
        if va != vb and not both_nan:
            changes.append((name, va, vb))
    return changes


def render_diff(changes: List[Tuple[str, float, float]],
                label_a: str = "a", label_b: str = "b") -> str:
    if not changes:
        return "no differences"
    width = max(len(name) for name, _, _ in changes)
    lines = [f"{len(changes)} metrics differ ({label_a} -> {label_b}):"]
    for name, va, vb in changes:
        delta = ""
        if (isinstance(va, (int, float)) and isinstance(vb, (int, float))
                and not (isinstance(va, float) and math.isnan(va))
                and not (isinstance(vb, float) and math.isnan(vb))):
            delta = f"  ({vb - va:+.6g})"
        lines.append(f"  {name.ljust(width)}  {_fmt(va)} -> "
                     f"{_fmt(vb)}{delta}")
    return "\n".join(lines)
