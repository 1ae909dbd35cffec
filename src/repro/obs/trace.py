"""Structured event tracing for the simulation core.

The trace is the observability ground truth: every network-level action
(hop, broadcast, routing discovery, walk step, reply, store, probe,
churn, access boundaries) is recorded as one typed :class:`TraceEvent`
with its simulated timestamp.  Live subscribers — the invariant watchers
of :mod:`repro.obs.watch`, among them the accounting audit — consume the
events as they are recorded (a bulk-forwarded path as one
:class:`HopRun`, for those that take runs), and the ``--trace`` CLI flag
streams them to a JSONL file for offline analysis — the
structured-event-log practice of ns-3 trace sources and JiST/SWANS
stats.

Tracing is **off by default** and costs one attribute check per call
site when disabled.  Event kinds and their payload fields are documented
in DESIGN.md (Observability layer).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, IO, List, Optional

try:  # POSIX-only; Windows falls back to unlocked appends.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Event kinds whose ``count`` field (default 1) is a network-layer
#: message claimable by an access's ``AccessResult.messages``.
#: ``virtual-msg`` covers modeled-but-not-transmitted messages (flood
#: acks, overheard one-hop replies) so the audit ledger still balances.
MESSAGE_KINDS = frozenset({"hop", "broadcast", "virtual-msg"})

#: Event kinds counting toward ``AccessResult.routing_messages``.
ROUTING_KINDS = frozenset({"routing"})

#: Default in-memory retention (events); old events fall off the left.
DEFAULT_RETENTION = 262_144

#: Version of the traced event vocabulary/payloads.  Bumped whenever the
#: emitted event stream changes shape (new kinds, new or renamed payload
#: fields); manifests stamp it so ``obs`` tools can warn before
#: diagnosing a trace recorded under an older schema.
#:
#: History: 1 = PR 2-7 event set; 2 = ``key`` payload on
#: store/probe/access-start/access-end events (live invariant watchers);
#: 3 = ``kv-op`` serving events (op/key/ok/stale/version/latency) from
#: the quorum key-value store.
TRACE_SCHEMA = 3

#: Trace close failures absorbed during GC (see ``Trace.__del__``).  The
#: auditor is unreachable from a finalizer, so a module counter is the
#: ledger; it should stay 0 in any healthy run.
_CLOSE_FAILURES = 0


def close_failures() -> int:
    """Trace close errors swallowed by the GC safety net so far."""
    return _CLOSE_FAILURES


@dataclass(slots=True)
class TraceEvent:
    """One typed simulation event."""

    seq: int
    t: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def count(self) -> int:
        """Message multiplicity (events may batch identical messages)."""
        return int(self.fields.get("count", 1))

    def to_json(self) -> str:
        # Envelope keys win over same-named payload fields.
        record = dict(self.fields)
        record.update({"seq": self.seq, "t": round(self.t, 9),
                       "kind": self.kind})
        return json.dumps(record, default=str, separators=(",", ":"))


class HopRun:
    """A bulk-forwarded path as one trace record.

    It stands for the ``len(path) - 1`` ``hop`` events that a per-hop
    loop from time ``t`` would record, one ``latency`` apart (each time
    by repeated addition), and, when ``route`` holds its payload, the
    ``route`` event that followed them at the last hop's time.  The
    events carry the seqs from ``seq`` on.  :meth:`events` materialises
    exactly the :class:`TraceEvent` objects that
    :meth:`EventTrace.record` would have built.  A run is only valid
    while it is being delivered: it reads the trace's live ``context``.
    """

    __slots__ = ("seq", "t", "latency", "path", "route", "context",
                 "_events")

    def __init__(self, seq: int, t: float, latency: float, path: List[int],
                 route: Optional[Dict[str, Any]],
                 context: Dict[str, Any]) -> None:
        self.seq = seq
        self.t = t
        self.latency = latency
        self.path = path
        self.route = route
        self.context = context
        self._events: Optional[List[TraceEvent]] = None

    def __len__(self) -> int:
        """Events in the run: the hops, plus the route event if folded."""
        return len(self.path) - (self.route is None)

    def events(self) -> List[TraceEvent]:
        """The per-event form of the run, oldest first."""
        events = self._events
        if events is None:
            context = self.context
            seq, t, latency = self.seq, self.t, self.latency
            events = []
            path = self.path
            for a, b in zip(path, path[1:]):
                t += latency
                fields = {"src": a, "dst": b, "ok": True}
                if context:
                    fields = {**context, **fields}
                events.append(TraceEvent(seq, t, "hop", fields))
                seq += 1
            if self.route is not None:
                fields = self.route
                if context:
                    fields = {**context, **fields}
                events.append(TraceEvent(seq, t, "route", fields))
            self._events = events
        return events


class EventTrace:
    """An event sink with optional in-memory retention, JSONL output and
    live subscribers."""

    def __init__(self) -> None:
        self.enabled = False
        self._seq = 0
        self._memory = False
        self._events: Deque[TraceEvent] = deque()
        self._writer: Optional[IO[str]] = None
        self._jsonl_path: Optional[str] = None
        self._lock_writes = False
        #: Live subscribers: each registered callable receives every
        #: recorded :class:`TraceEvent`, synchronously, after it has been
        #: retained/written.  This is the watcher delivery path (see
        #: :mod:`repro.obs.watch`); exception isolation is the
        #: *subscriber's* job — a raise from here propagates into the
        #: simulation (which is exactly what strict-mode watchers want).
        self._subscribers: List[Any] = []
        #: Run handlers by subscriber: a subscriber registered with one
        #: receives each :class:`HopRun` whole instead of its events.
        self._run_handlers: Dict[Any, Any] = {}
        #: The subscribers without a run handler, in subscription order.
        self._per_event: List[Any] = []
        #: Ambient fields stamped onto every recorded event (payload
        #: fields win on collision).  The replication engine sets
        #: ``{"replica": r}`` here so multi-replica traces stay
        #: attributable per replica.
        self.context: Dict[str, Any] = {}

    # -- lifecycle ---------------------------------------------------------

    def enable(self, memory: bool = True, jsonl_path: Optional[str] = None,
               retention: int = DEFAULT_RETENTION,
               lock: Optional[bool] = None) -> "EventTrace":
        """Turn the sink on (idempotent; combines with prior settings).

        ``lock`` guards each JSONL write with an OS-level advisory lock
        (``flock``), so sweep-pool workers appending to one shared
        ``REPRO_TRACE`` file can never interleave mid-record.  It
        defaults to on whenever a JSONL path is given (the lock is
        uncontended — and cheap — in the single-process case).
        """
        self.enabled = True
        if memory:
            self._memory = True
            self._events = deque(self._events, maxlen=retention)
        if jsonl_path and jsonl_path != self._jsonl_path:
            self.close()
            # O_APPEND + one write()+flush per event: each JSON line
            # lands in the file atomically relative to other writers.
            self._writer = open(jsonl_path, "a", buffering=1)
            self._jsonl_path = jsonl_path
        if jsonl_path:
            self._lock_writes = lock if lock is not None else True
        return self

    def disable(self) -> None:
        self.enabled = False
        self.close()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._jsonl_path = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        global _CLOSE_FAILURES
        try:
            self.close()
        except (OSError, ValueError):
            # Flushing a trace during interpreter teardown can hit a
            # closed fd; that is the only failure this net is allowed to
            # absorb.  Anything else (a coding bug) propagates to the
            # unraisable hook instead of vanishing, and absorbed ones
            # are still counted so tests can assert none occurred.
            _CLOSE_FAILURES += 1

    # -- subscribers -------------------------------------------------------

    def subscribe(self, callback: Any, runs: Any = None) -> Any:
        """Register a live event subscriber; returns the callback.

        The callback is invoked synchronously with every recorded
        :class:`TraceEvent` (retention and JSONL output have already
        happened).  ``runs``, when given, receives each
        :class:`HopRun` of :meth:`record_hops` in one call instead, so
        a bulk-forwarded path costs that subscriber no per-hop events.
        Subscribing does not enable the trace — call :meth:`enable`
        (``memory=False`` suffices) so events flow.
        """
        if callback not in self._subscribers:
            self._subscribers.append(callback)
            if runs is not None:
                self._run_handlers[callback] = runs
            self._sync_per_event()
        return callback

    def unsubscribe(self, callback: Any) -> None:
        """Remove a subscriber; missing callbacks are ignored."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            return
        self._run_handlers.pop(callback, None)
        self._sync_per_event()

    def _sync_per_event(self) -> None:
        self._per_event = [s for s in self._subscribers
                           if s not in self._run_handlers]

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, t: float, /, **fields: Any) -> int:
        """Append one event; returns its sequence number.

        ``kind`` and ``t`` are positional-only so payload fields may
        reuse those names (the JSONL envelope keys win on collision).
        """
        seq = self._seq
        self._seq += 1
        if self.context:
            fields = {**self.context, **fields}
        event = TraceEvent(seq, t, kind, fields)
        if self._memory:
            self._events.append(event)
        if self._writer is not None:
            self._write_line(event.to_json() + "\n")
        if self._subscribers:
            for subscriber in self._subscribers:
                subscriber(event)
        return seq

    #: Alias: ``emit`` is the subscriber-facing name for :meth:`record`.
    emit = record

    def record_hops(self, t: float, latency: float, path: List[int],
                    route: Optional[Dict[str, Any]] = None) -> int:
        """Record a forwarded path as one :class:`HopRun`; its first seq.

        Equivalent to one ``record("hop", ...)`` per hop of ``path``
        from time ``t`` (``src``/``dst``/``ok=True``, ``latency`` apart)
        followed, when ``route`` is given, by ``record("route", ...)``
        with that payload at the last hop's time.  Retention, the JSONL
        writer and subscribers without a run handler get exactly those
        events; run handlers get the run once, after them.
        """
        seq = self._seq
        run = HopRun(seq, t, latency, path, route, self.context)
        self._seq = seq + len(path) - (route is None)
        if self._memory or self._writer is not None or self._per_event:
            for event in run.events():
                if self._memory:
                    self._events.append(event)
                if self._writer is not None:
                    self._write_line(event.to_json() + "\n")
                for subscriber in self._per_event:
                    subscriber(event)
        if self._run_handlers:
            for handler in self._run_handlers.values():
                handler(run)
        return seq

    def _write_line(self, line: str) -> None:
        """One whole JSONL record, written atomically w.r.t. co-writers."""
        writer = self._writer
        if self._lock_writes and fcntl is not None:
            fcntl.flock(writer.fileno(), fcntl.LOCK_EX)
            try:
                writer.write(line)
                writer.flush()
            finally:
                fcntl.flock(writer.fileno(), fcntl.LOCK_UN)
        else:
            writer.write(line)
            writer.flush()

    # -- querying ----------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


def record_event(net: Any, kind: str, /, **fields: Any) -> None:
    """Record one event on ``net``'s trace, if it has an enabled one.

    Duck-type safe: network facades without a ``trace`` attribute (e.g.
    the packet-level :class:`~repro.stack.adapter.PacketQuorumNetwork`)
    are silently skipped, so instrumented code runs against any backend.
    """
    trace = getattr(net, "trace", None)
    if trace is not None and trace.enabled:
        trace.record(kind, net.now, **fields)
