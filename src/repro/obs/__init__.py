"""Observability layer: event tracing, metrics, accounting audit,
run manifests, phase profiling, and offline trace analysis.

See DESIGN.md (Observability layer) for the event schema, the metric
name catalogue, the manifest schema, the profiler phase catalogue, and
the audit invariants.
"""

from repro.obs.audit import (
    AccountingAuditor,
    AuditError,
    AuditViolation,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    collect_manifest,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, P2Quantile
from repro.obs.profile import (
    PROFILER,
    PhaseProfiler,
    profiled,
)
from repro.obs.query import (
    AccessAggregate,
    TraceSummary,
    access_timeline,
    check_trace_schema,
    diff_summaries,
    iter_trace,
    render_diff,
    render_summary,
    render_timeline,
    summarize_trace,
    summary_to_jsonable,
)
from repro.obs.slo import (
    SloMonitor,
    SloSpec,
    load_slo_specs,
)
from repro.obs.trace import (
    MESSAGE_KINDS,
    ROUTING_KINDS,
    TRACE_SCHEMA,
    EventTrace,
    HopRun,
    TraceEvent,
    record_event,
)
from repro.obs.watch import (
    ConservationWatcher,
    MonotonicityWatcher,
    NoFabricationWatcher,
    QuorumIntersectionWatcher,
    ReplayResult,
    Watcher,
    WatcherHub,
    attach_watchers,
    builtin_watchers,
    replay_trace,
)

__all__ = [
    "AccessAggregate",
    "AccountingAuditor",
    "AuditError",
    "AuditViolation",
    "ConservationWatcher",
    "Counter",
    "EventTrace",
    "Histogram",
    "HopRun",
    "MANIFEST_SCHEMA",
    "MESSAGE_KINDS",
    "MetricsRegistry",
    "MonotonicityWatcher",
    "NoFabricationWatcher",
    "P2Quantile",
    "PROFILER",
    "PhaseProfiler",
    "QuorumIntersectionWatcher",
    "ROUTING_KINDS",
    "ReplayResult",
    "RunManifest",
    "SloMonitor",
    "SloSpec",
    "TRACE_SCHEMA",
    "TraceEvent",
    "TraceSummary",
    "Watcher",
    "WatcherHub",
    "access_timeline",
    "attach_watchers",
    "builtin_watchers",
    "check_trace_schema",
    "collect_manifest",
    "diff_summaries",
    "iter_trace",
    "load_slo_specs",
    "profiled",
    "record_event",
    "render_diff",
    "render_summary",
    "render_timeline",
    "replay_trace",
    "summarize_trace",
    "summary_to_jsonable",
]
