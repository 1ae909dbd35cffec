"""Live invariant watchers on the trace stream.

Watchers are **streaming**: a :class:`WatcherHub` subscribes to
:meth:`~repro.obs.trace.EventTrace.record` and delivers
every :class:`~repro.obs.trace.TraceEvent` to its registered
:class:`Watcher` objects the moment it is recorded — so a safety
invariant broken halfway through a fault campaign stops the run *there*,
not at the post-mortem.  A bulk-forwarded path arrives as one
:class:`~repro.obs.trace.HopRun` (:meth:`Watcher.on_hops`), which the
hub counts as the events it stands for.

Builtin invariant catalogue (see DESIGN.md §13):

* :class:`MonotonicityWatcher` — sim clock, event sequence numbers, and
  (when stamped) ``topology_version`` never regress;
* :class:`ConservationWatcher` — the per-access accounting audit: a
  streaming ledger per access span (messages, routing cost, replies,
  probe hits) balanced against what every ``access-end`` claims.  A
  network with an accounting auditor (``REPRO_AUDIT``) always runs it;
* :class:`NoFabricationWatcher` — no probe ever hits a key that no
  prior advertise stored (the Byzantine-campaign safety gate: a faulty
  replica cannot invent values);
* :class:`QuorumIntersectionWatcher` — the empirical advertise∩lookup
  hit rate never falls *statistically* below the exact hypergeometric
  bound of Lemma 5.2 (an anytime-valid sequential test, so a transient
  unlucky streak does not fire it but systematic degradation does).

Failure routing: a watcher that detects a violation — or crashes —
is routed through ``auditor.flag`` when the network carries an
accounting auditor: ``REPRO_AUDIT=strict`` raises
:class:`~repro.obs.audit.AuditError` (gating CI fault campaigns),
``record`` keeps the run alive with the violation on the ledger.
Without an auditor the hub collects violations locally and the CLI
reports them.  A crashing watcher can never corrupt the simulation:
only :class:`~repro.obs.audit.AuditError` (the deliberate strict-mode
signal) propagates out of the hub.

The same watchers replay recorded JSONL traces through
:func:`replay_trace` (the ``repro obs watch`` CLI), so a committed
golden trace or a CI artifact — accounting audit included — can be
re-judged offline with the live run's verdict.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.intersection import (
    masking_miss_probability_exact,
    miss_probability_exact,
)
from repro.config import WATCH_ALL, RunConfig, run_ledger
from repro.obs.audit import AuditError, AuditViolation
from repro.obs.query import iter_trace
from repro.obs.trace import MESSAGE_KINDS, ROUTING_KINDS, HopRun, TraceEvent

#: Advertise strategies whose quorums are uniform-without-replacement
#: samples — the precondition for the Lemma 5.2 structure-free bound.
UNIFORM_ADVERTISE_STRATEGIES = frozenset({"RANDOM", "RANDOM-SAMPLING"})

#: Shape of :class:`repro.core.masking.MaskingStrategy` names.  Defined
#: here, the lower layer (core imports obs), so the watchers, the kv store
#: and ``repro.core``'s re-export share one parser.
_MASKING_NAME_RE = re.compile(r"^MASKING\[b=(?P<b>\d+),(?P<inner>[^\]]+)\]$")


def parse_masking_name(name: str) -> Optional[Tuple[int, str]]:
    """``(b, inner_strategy)`` when ``name`` is a MaskingStrategy name."""
    match = _MASKING_NAME_RE.match(name or "")
    if match is None:
        return None
    return int(match.group("b")), match.group("inner")


def _uniform_advertise(name: str) -> bool:
    """Whether an advertise strategy samples uniformly (Lemma 5.2).

    A masking wrapper is uniform exactly when its inner strategy is.
    """
    if name in UNIFORM_ADVERTISE_STRATEGIES:
        return True
    parts = parse_masking_name(name)
    return parts is not None and parts[1] in UNIFORM_ADVERTISE_STRATEGIES


def _noop(event: TraceEvent) -> None:
    """Dispatch target for kinds no watcher is interested in."""


class Watcher:
    """One streaming invariant over the trace event stream.

    Subclasses implement :meth:`handler_for` (and optionally
    :meth:`finish` for end-of-stream checks, and :meth:`on_hops` to
    judge a hop run without its events) and report violations via
    ``self.violation(code, message)``.  ``kinds`` restricts delivery to
    the listed event kinds (``None`` = every event) so hop-heavy traces
    do not pay for watchers that only care about access boundaries.
    """

    name: str = "?"
    #: Event kinds this watcher wants; None = all.
    kinds: Optional[FrozenSet[str]] = None

    def __init__(self) -> None:
        self.events_seen = 0
        self.violations: List[AuditViolation] = []
        self._sink: Optional[Callable[..., None]] = None

    def handler_for(self, kind: str) -> Callable[[TraceEvent], None]:
        """The delivery target for events of ``kind`` (one of ``kinds``).

        The only per-kind dispatch: the hub asks once per kind and
        fuses the answers into its table; :meth:`on_event` asks per
        event.  The default ignores the event (a watcher that only
        judges at :meth:`finish`).
        """
        return _noop

    def bind(self, sink: Callable[..., None]) -> "Watcher":
        """Attach the hub's violation sink (auditor-routed)."""
        self._sink = sink
        return self

    def violation(self, code: str, message: str) -> None:
        """Report one invariant violation.

        Retained on the watcher, then routed through the hub sink —
        which may raise :class:`AuditError` in strict mode; the raise
        deliberately propagates out of the watcher.
        """
        self.violations.append(AuditViolation(
            code=code, message=message, strategy=self.name, kind="watch"))
        if self._sink is not None:
            self._sink(code, message, strategy=self.name, kind="watch")

    def on_event(self, event: TraceEvent) -> None:
        """Deliver one event outside a hub (which counts in bulk)."""
        kinds = self.kinds
        if kinds is None or event.kind in kinds:
            self.events_seen += 1
            self.handler_for(event.kind)(event)

    def on_hops(self, run: HopRun) -> None:
        """Deliver a bulk-forwarded run (from a hub, which counts it).

        The default materialises the run's events and hands each one
        this watcher wants to its :meth:`handler_for` target, exactly
        as per-event delivery would.  Builtin watchers that read hops
        override it to judge the run without building events.
        """
        kinds = self.kinds
        handlers: Dict[str, Callable[[TraceEvent], None]] = {}
        for event in run.events():
            kind = event.kind
            if kinds is None or kind in kinds:
                handler = handlers.get(kind)
                if handler is None:
                    handler = handlers[kind] = self.handler_for(kind)
                handler(event)

    def finish(self) -> None:
        """End-of-stream hook (replay and explicit hub.finish only)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(events={self.events_seen}, "
                f"violations={len(self.violations)})")


class MonotonicityWatcher(Watcher):
    """Sim clock / seq / topology_version never regress.

    ``seq`` must advance by exactly one between consecutive events of
    one trace, ``t`` must be non-decreasing, and a ``topology_version``
    payload field (when present) must never shrink.  Replay resets at
    segment boundaries (``seq == 0``) before events reach the watcher,
    so a multi-run trace file does not trip it.
    """

    name = "monotonicity"
    kinds = None  # every event

    def __init__(self) -> None:
        super().__init__()
        # Sentinels instead of None: the hot path (every event) then
        # needs no is-None branches.
        self._next_seq: int = -1
        self._prev_t: float = -math.inf
        self._prev_topology: Optional[int] = None

    def handler_for(self, kind: str) -> Callable[[TraceEvent], None]:
        # Message/routing kinds are point transmissions — they never
        # carry a topology_version payload, so the hop-heavy bulk of
        # the stream skips even the field-presence test.
        if kind in MESSAGE_KINDS or kind in ROUTING_KINDS:
            return self._on_bulk
        return self._on_fast

    def _on_bulk(self, event: TraceEvent) -> None:
        seq = event.seq
        next_seq = self._next_seq
        if seq != next_seq and next_seq >= 0:
            self.violation(
                "monotonicity-seq",
                f"seq went {next_seq - 1} -> {seq} "
                f"(kind {event.kind}); sequence numbers must be contiguous")
        self._next_seq = seq + 1
        t = event.t
        if t < self._prev_t:
            self.violation(
                "monotonicity-clock",
                f"sim clock regressed {self._prev_t!r} -> {t!r} "
                f"at seq {seq} (kind {event.kind})")
        self._prev_t = t

    def _on_fast(self, event: TraceEvent) -> None:
        self._on_bulk(event)
        if "topology_version" in event.fields:
            self._check_topology(event)

    def on_hops(self, run: HopRun) -> None:
        # O(1) when nothing can be flagged: a run's seqs are contiguous
        # by construction, its folded routing event is at its start and
        # its route event at its end, and hops a non-negative latency
        # apart never go back in time.  Anything else (a seq gap, a
        # regression, a negative latency, a topology stamp) replays the
        # run's events through the per-event checks.
        next_seq = self._next_seq
        route = run.route
        if (run.t >= self._prev_t and run.latency >= 0
                and (run.seq == next_seq or next_seq < 0)
                and "topology_version" not in run.context
                and (route is None or "topology_version" not in route)):
            count = (len(run.path) - (route is None)
                     + (run.routing is not None))
            if count:
                self._prev_t = run.end
                self._next_seq = run.seq + count
            return
        for event in run.events():
            self.handler_for(event.kind)(event)

    def _check_topology(self, event: TraceEvent) -> None:
        topo = event.fields["topology_version"]
        if topo is None:
            return
        if self._prev_topology is not None and topo < self._prev_topology:
            self.violation(
                "monotonicity-topology",
                f"topology_version regressed {self._prev_topology} -> "
                f"{topo} at seq {event.seq}")
        self._prev_topology = topo


class ConservationWatcher(Watcher):
    """The per-access accounting audit, as a streaming ledger.

    Every open access span keeps one frame of traced evidence; at its
    ``access-end`` the event's claims must match it:

    * ``messages`` == traced hop + broadcast + virtual-msg counts, and
      ``routing`` == traced routing cost;
    * ``reply`` True ⇔ some traced reply succeeded; False only when
      every traced reply failed; None only when no reply was traced;
    * a lookup reporting ``found`` is backed by a traced probe hit, and
      a probe hit implies ``found`` — except when the verdict is
      ``masked`` (the masking vote filter legitimately discards hits).

    Events accrue to the innermost open frame, so a nested access (a
    maintenance refresh firing on a timer inside an outer access) is
    audited at its own level and excluded from its parent's.
    """

    name = "conservation"
    kinds = frozenset({"access-start", "access-end", "reply", "probe"}
                      | MESSAGE_KINDS | ROUTING_KINDS)

    def __init__(self) -> None:
        super().__init__()
        # One [messages, routing, replies, replies delivered, probe
        # hits] frame per open access, innermost last.
        self._frames: List[List[int]] = []
        self.accesses_checked = 0

    def handler_for(self, kind: str) -> Callable[[TraceEvent], None]:
        if kind == "access-start":
            return self._on_start
        if kind == "access-end":
            return self._on_end
        if kind == "reply":
            return self._on_reply
        if kind == "probe":
            return self._on_probe
        if kind in MESSAGE_KINDS:
            # hop/broadcast are one transmission per event; only
            # virtual-msg batches (``count``).  Update this table if a
            # recorder ever starts batching the unit kinds.
            if kind == "virtual-msg":
                return self._on_message
            return self._on_message_unit
        return self._on_routing  # ROUTING_KINDS by self.kinds construction

    def _on_start(self, event: TraceEvent) -> None:
        self._frames.append([0, 0, 0, 0, 0])

    def _on_reply(self, event: TraceEvent) -> None:
        frames = self._frames
        if frames:
            frame = frames[-1]
            frame[2] += 1
            if event.fields.get("success"):
                frame[3] += 1

    def _on_probe(self, event: TraceEvent) -> None:
        frames = self._frames
        if frames and event.fields.get("hit"):
            frames[-1][4] += 1

    def _on_message(self, event: TraceEvent) -> None:
        frames = self._frames
        if frames:
            count = event.fields.get("count")
            frames[-1][0] += 1 if count is None else int(count)

    def _on_message_unit(self, event: TraceEvent) -> None:
        frames = self._frames
        if frames:
            frames[-1][0] += 1

    def on_hops(self, run: HopRun) -> None:
        # A folded route event is not a kind this watcher reads.
        frames = self._frames
        if frames:
            frame = frames[-1]
            frame[0] += len(run.path) - 1
            if run.routing is not None:
                frame[1] += int(run.routing["count"])

    def _on_routing(self, event: TraceEvent) -> None:
        frames = self._frames
        if frames:
            count = event.fields.get("count")
            frames[-1][1] += 1 if count is None else int(count)

    def _on_end(self, event: TraceEvent) -> None:
        frames = self._frames
        if not frames:
            self.violation(
                "conservation-unmatched-end",
                f"access-end at seq {event.seq} with no open "
                f"access-start")
            return
        messages, routing, replies, delivered, hits = frames.pop()
        self.accesses_checked += 1
        f = event.fields
        claimed = int(f.get("messages", 0))
        if claimed != messages:
            self._flag(event, "conservation-messages",
                       f"claimed {claimed} network messages, "
                       f"traced {messages}")
        claimed = int(f.get("routing", 0))
        if claimed != routing:
            self._flag(event, "conservation-routing",
                       f"claimed {claimed} routing messages, "
                       f"traced {routing}")
        reply = f.get("reply")
        if reply is None:
            if replies:
                self._flag(event, "reply-unclaimed",
                           f"{replies} reply events traced but the access "
                           f"claims no reply was needed")
        elif reply:
            if not delivered:
                self._flag(event, "reply-mismatch",
                           "reply=True but no successful reply was traced")
        elif not replies:
            self._flag(event, "reply-mismatch",
                       "reply=False but no reply attempt was traced")
        elif delivered:
            self._flag(event, "reply-mismatch",
                       "reply=False but a traced reply succeeded")
        if f.get("access") == "lookup":
            found = f.get("found")
            if found and not hits:
                self._flag(event, "found-without-probe",
                           "found=True but no probe hit was traced")
            elif hits and not found and f.get("verdict") != "masked":
                self._flag(event, "probe-without-found",
                           f"{hits} probe hits traced but found=False")

    def _flag(self, event: TraceEvent, code: str, detail: str) -> None:
        self.violation(code, f"{event.fields.get('strategy', '?')}/"
                             f"{event.fields.get('access', '?')} at seq "
                             f"{event.seq} {detail}")

    def finish(self) -> None:
        if self._frames:
            # Open accesses at end-of-stream are normal for a live trace
            # cut mid-access, but a *finished* replay should balance.
            self._frames.clear()


class NoFabricationWatcher(Watcher):
    """No probe hit for a key never stored by a prior advertise.

    The Byzantine-campaign safety gate ("The Load and Availability of
    Byzantine Quorum Systems"): a faulty replica may deny a value, but
    the system must never *invent* one.  Store events brand (key) as
    legitimately advertised; a probe event with ``hit=true`` whose key
    was never stored — or that carries no hit at all on a found access —
    is a fabrication.  Events recorded without a ``key`` payload
    (pre-schema-2 traces, bare-strategy tests) are skipped.

    Versioned services additionally stamp store events and lookup
    ``access-end`` events with the written/accepted version.  The
    *accepted* version of a found lookup must have been legitimately
    stored for its key: a lying replica that fabricates a plausible
    value for a real key is caught the moment its fabrication wins an
    access, because its invented version was never written.  Raw probe
    events are deliberately *not* version-checked — under a masking
    strategy, fabricated probe replies are expected and harmless (the
    vote filter discards them); the invariant is about what the system
    accepts, not what an adversary says.
    """

    name = "no-fabricated-value"
    kinds = frozenset({"store", "probe", "access-end"})

    def __init__(self) -> None:
        super().__init__()
        self._stored_keys: set = set()
        self._stored_versions: set = set()   # (key, version) pairs
        self._hit_keys: set = set()

    def handler_for(self, kind: str) -> Callable[[TraceEvent], None]:
        if kind == "store":
            return self._on_store
        if kind == "probe":
            return self._on_probe
        return self._on_end  # access-end by self.kinds construction

    def _on_store(self, event: TraceEvent) -> None:
        key = event.fields.get("key")
        if key is not None:
            self._stored_keys.add(key)
            version = event.fields.get("version")
            if version is not None:
                self._stored_versions.add((key, version))

    def _on_probe(self, event: TraceEvent) -> None:
        fields = event.fields
        if fields.get("hit"):
            key = fields.get("key")
            if key is not None:
                if key not in self._stored_keys:
                    self.violation(
                        "fabricated-value",
                        f"probe at node {fields.get('node', '?')} "
                        f"(seq {event.seq}) hit key {key!r} which no "
                        f"prior advertise ever stored")
                self._hit_keys.add(key)

    def _on_end(self, event: TraceEvent) -> None:
        fields = event.fields
        if (fields.get("access") == "lookup"
                and fields.get("found")):
            key = fields.get("key")
            if key is None:
                return
            if key not in self._stored_keys:
                self.violation(
                    "fabricated-value",
                    f"lookup access-end at seq {event.seq} claims "
                    f"found=True for never-stored key {key!r}")
                return
            version = fields.get("version")
            if (version is not None
                    and (key, version) not in self._stored_versions):
                self.violation(
                    "fabricated-value",
                    f"lookup access-end at seq {event.seq} accepted "
                    f"version {version!r} for key {key!r}, which no "
                    f"prior advertise ever wrote")


@dataclass
class _LookupFrame:
    key: Any
    strategy: str


class QuorumIntersectionWatcher(Watcher):
    """Empirical hit rate vs the exact hypergeometric bound, sequentially.

    For every lookup of an advertised key the exact Lemma 5.2 /
    Corollary 5.3 intersection probability is computed from the live
    state — ``n`` alive nodes, ``q_a`` surviving stored copies of the
    key, ``q_l`` nodes the lookup actually reached — and accumulated
    into an expected-hits floor.  An anytime-valid sequential test
    (Hoeffding radius with a union-bound alpha spend, so checking after
    every lookup stays honest) fires when the observed hit count drops
    statistically below that floor:

        ``H_k < sum_i p_i  -  sqrt(k/2 * ln(k(k+1)/alpha))``

    The bound only applies when the advertise side samples uniformly
    (Lemma 5.2's precondition), so the watcher arms itself only while
    every observed advertise strategy is in
    :data:`UNIFORM_ADVERTISE_STRATEGIES`, and needs the network size
    ``n`` (live: from the attached network; replay: from the run
    manifest or ``--n``).  Without ``n`` it stays dormant.
    """

    name = "quorum-intersection"
    kinds = frozenset({"access-start", "access-end", "store", "churn"})

    #: The sequential test's false-alarm budget over the whole run.
    alpha = 1e-4

    def __init__(self, n: Optional[int] = None) -> None:
        super().__init__()
        self.n = n
        self.armed = True             # disarmed on non-uniform advertise
        self.lookups_counted = 0
        self.hits = 0
        self.expected_floor = 0.0     # sum of per-lookup p_intersection
        self._stored: Dict[Any, set] = {}     # key -> nodes ever storing it
        self._p_hit_memo: Dict[Tuple[int, int, int, int], float] = {}
        self._dead: set = set()
        self._joined = 0              # net alive-count delta from churn
        self._open_lookups: List[_LookupFrame] = []

    # -- live state tracking ------------------------------------------------

    def _alive_copies(self, key: Any) -> int:
        nodes = self._stored.get(key)
        if not nodes:
            return 0
        if not self._dead:
            return len(nodes)
        return len(nodes - self._dead)

    def _current_n(self) -> Optional[int]:
        if self.n is None:
            return None
        return self.n + self._joined - len(self._dead)

    def handler_for(self, kind: str) -> Callable[[TraceEvent], None]:
        return {"store": self._on_store, "churn": self._on_churn,
                "access-start": self._on_access_start,
                "access-end": self._on_access_end}[kind]

    def _on_store(self, event: TraceEvent) -> None:
        f = event.fields
        key = f.get("key")
        node = f.get("node")
        if key is not None and node is not None:
            self._stored.setdefault(key, set()).add(node)

    def _on_churn(self, event: TraceEvent) -> None:
        f = event.fields
        action = f.get("action")
        node = f.get("node")
        if node is None:
            return
        if action == "fail":
            self._dead.add(node)
        elif action == "revive":
            self._dead.discard(node)
        elif action == "join":
            self._joined += 1

    def _on_access_start(self, event: TraceEvent) -> None:
        f = event.fields
        access = f.get("access")
        if access == "advertise":
            if not _uniform_advertise(str(f.get("strategy", "?"))):
                self.armed = False
        elif access == "lookup":
            self._open_lookups.append(_LookupFrame(
                key=f.get("key"), strategy=str(f.get("strategy", "?"))))

    def _on_access_end(self, event: TraceEvent) -> None:
        f = event.fields
        if f.get("access") == "lookup":
            frame = (self._open_lookups.pop()
                     if self._open_lookups else _LookupFrame(None, "?"))
            self._observe_lookup(frame, f)

    def _observe_lookup(self, frame: _LookupFrame, f: Dict[str, Any]) -> None:
        n = self._current_n()
        if not self.armed or n is None or frame.key is None:
            return
        q_a = self._alive_copies(frame.key)
        if q_a == 0:
            # Key never stored / all copies dead: intersection floor is
            # zero, the lookup carries no statistical information.
            return
        q_l = int(f.get("quorum", 0))
        if q_l <= 0 or n < 2:
            return
        q_a = min(q_a, n)
        q_l = min(q_l, n)
        # Masked lookups only report found when b+1 replies agree, so
        # their success floor is the masking bound Pr[|Qa ∩ Ql| >= 2b+1]
        # (sound for any adversary of size <= b — the honest part of the
        # intersection still corroborates the true value).
        masking = parse_masking_name(frame.strategy)
        b = masking[0] if masking is not None else 0
        # Lookup sizes repeat across a run; memoize the O(q_a) product.
        memo_key = (q_a, q_l, n, b)
        p_hit = self._p_hit_memo.get(memo_key)
        if p_hit is None:
            if b > 0:
                p_hit = 1.0 - masking_miss_probability_exact(q_a, q_l, n, b)
            else:
                p_hit = 1.0 - miss_probability_exact(q_a, q_l, n)
            self._p_hit_memo[memo_key] = p_hit
        self.lookups_counted += 1
        self.expected_floor += p_hit
        if f.get("found"):
            self.hits += 1
        self._check()

    def _radius(self) -> float:
        k = self.lookups_counted
        return math.sqrt(
            k / 2.0 * math.log(k * (k + 1) / self.alpha))

    def _check(self) -> None:
        k = self.lookups_counted
        if k == 0:
            return
        shortfall = self.expected_floor - self._radius() - self.hits
        if shortfall > 0:
            self.violation(
                "intersection-below-bound",
                f"after {k} lookups: {self.hits} hits, hypergeometric "
                f"floor {self.expected_floor:.2f} "
                f"(sequential radius {self._radius():.2f}, "
                f"alpha={self.alpha:g}) — empirical intersection is "
                f"statistically below the Lemma 5.2 bound")


# ---------------------------------------------------------------------------
# Hub: subscription, dispatch, exception isolation, reporting
# ---------------------------------------------------------------------------


class WatcherHub:
    """Delivers trace events to watchers with exception isolation.

    One hub per :class:`~repro.obs.trace.EventTrace` (i.e. per network).
    Violations — and crashing watchers — are routed through
    ``auditor.flag`` when an auditor is attached (strict raises, record
    survives); otherwise collected on ``self.violations``.  Only
    :class:`AuditError` (the deliberate strict-mode raise) may propagate
    out of :meth:`on_event` / :meth:`on_hops`; any other watcher
    exception is converted into a ``watcher-crashed`` violation and the
    simulation continues (a watcher that crashes inside a hop run misses
    the rest of that run).
    """

    def __init__(self, watchers: List[Watcher],
                 auditor: Optional[Any] = None,
                 session_ledger: Optional[List[AuditViolation]] = None
                 ) -> None:
        self.watchers = list(watchers)
        self.auditor = auditor
        self.violations: List[AuditViolation] = []
        self.events_seen = 0
        self.crashes = 0
        self._session_ledger = session_ledger
        self._trace: Optional[Any] = None
        for watcher in self.watchers:
            watcher.bind(self._sink)
        # Per-kind dispatch entries ``[count, fused, watchers]``: one
        # fused closure calling every interested watcher's handler,
        # plus a bulk delivery counter — this path runs for every
        # traced hop, so per-event bookkeeping is kept to a single list
        # increment and counts are distributed to the watchers in
        # :meth:`_flush`.  ``on_event`` is built as a closure over the
        # entry table: delivery pays no bound-method or ``self``
        # attribute lookups.
        self._entries: Dict[str, list] = {}
        self.on_event = self._make_on_event()
        # Hop-run delivery entries ``[runs, hops, fused]`` per run shape
        # (whether the run folds a routing and a route event): one fused
        # ``on_hops`` call per interested watcher, and the counts of the
        # events the shape's runs stand for, folded into the per-kind
        # entries by :meth:`_flush`.
        self._runs: Dict[Tuple[bool, bool], list] = {}
        self.on_hops = self._make_on_hops()

    # -- violation routing --------------------------------------------------

    def _sink(self, code: str, message: str, strategy: str = "?",
              kind: str = "watch") -> None:
        violation = AuditViolation(code=code, message=message,
                                   strategy=strategy, kind=kind)
        self.violations.append(violation)
        if self._session_ledger is not None:
            self._session_ledger.append(violation)
        if self.auditor is not None:
            # strict: raises AuditError; record: retained on the ledger.
            self.auditor.flag(code, message, strategy=strategy, kind=kind)

    # -- dispatch -----------------------------------------------------------

    def _build_entry(self, kind: str) -> list:
        pairs = [(w.handler_for(kind), w) for w in self.watchers
                 if w.kinds is None or kind in w.kinds]
        entry = [0, self._fuse(pairs), tuple(w for _, w in pairs)]
        self._entries[kind] = entry
        return entry

    def _build_run(self, shape: Tuple[bool, bool]) -> list:
        """The delivery entry of runs of one ``shape``: whether they fold
        a routing event and a route event."""
        wanted = ["hop"] + [kind for kind, held in
                            zip(("routing", "route"), shape) if held]
        pairs = [(w.on_hops, w) for w in self.watchers
                 if w.kinds is None
                 or any(kind in w.kinds for kind in wanted)]
        entry = self._runs[shape] = [0, 0, self._fuse(pairs)]
        return entry

    def _fuse(self, pairs: List[Tuple[Callable[[Any], None], Watcher]]
              ) -> Callable[[Any], None]:
        """One closure calling every handler with exception isolation.

        Arity-specialized: the common 1-4 watcher cases get straight-
        line calls with a zero-cost (Python >= 3.11) try per handler —
        no loop machinery on the hot path.  Only AuditError (the
        deliberate strict-audit raise) propagates; anything else turns
        into a ``watcher-crashed`` violation and delivery continues
        with the remaining watchers.
        """
        crash = self._crash
        if not pairs:
            return _noop
        if len(pairs) == 1:
            (f0, w0), = pairs

            def fused(event: TraceEvent) -> None:
                try:
                    f0(event)
                except AuditError:
                    raise
                except Exception as exc:
                    crash(w0, exc)
        elif len(pairs) == 2:
            (f0, w0), (f1, w1) = pairs

            def fused(event: TraceEvent) -> None:
                try:
                    f0(event)
                except AuditError:
                    raise
                except Exception as exc:
                    crash(w0, exc)
                try:
                    f1(event)
                except AuditError:
                    raise
                except Exception as exc:
                    crash(w1, exc)
        else:
            def fused(event: TraceEvent) -> None:
                for fn, watcher in pairs:
                    try:
                        fn(event)
                    except AuditError:
                        raise
                    except Exception as exc:
                        crash(watcher, exc)
        return fused

    def _make_on_event(self) -> Callable[[TraceEvent], None]:
        """Build the per-event delivery closure (``self.on_event``)."""
        build = self._build_entry

        def on_event(event: TraceEvent,
                     _get=self._entries.get) -> None:
            entry = _get(event.kind)
            if entry is None:
                entry = build(event.kind)
            entry[0] += 1
            entry[1](event)
        return on_event

    def _make_on_hops(self) -> Callable[[HopRun], None]:
        """Build the per-run delivery closure (``self.on_hops``).

        A run counts into its shape's entry; :meth:`_flush` folds those
        counts into the same per-kind entries as :meth:`on_event` counts
        into, so ``events_seen`` is what per-event delivery of the run
        would give.
        """
        build_run = self._build_run

        def on_hops(run: HopRun, _get=self._runs.get) -> None:
            shape = (run.routing is not None, run.route is not None)
            entry = _get(shape) or build_run(shape)
            entry[0] += 1
            entry[1] += len(run.path) - 1
            entry[2](run)
        return on_hops

    def _flush(self) -> None:
        """Fold run and per-kind delivery counts into the event counters."""
        for (with_routing, with_route), entry in self._runs.items():
            runs, hops = entry[0], entry[1]
            entry[0] = entry[1] = 0
            for kind, count in (("hop", hops),
                                ("routing", runs if with_routing else 0),
                                ("route", runs if with_route else 0)):
                if count:
                    kind_entry = (self._entries.get(kind)
                                  or self._build_entry(kind))
                    kind_entry[0] += count
        for entry in self._entries.values():
            count = entry[0]
            if count:
                entry[0] = 0
                self.events_seen += count
                for watcher in entry[2]:
                    watcher.events_seen += count

    def _crash(self, watcher: Watcher, exc: Exception) -> None:
        self.crashes += 1
        self._sink("watcher-crashed",
                   f"{type(exc).__name__}: {exc}",
                   strategy=watcher.name)

    def finish(self) -> None:
        """End-of-stream: run every watcher's final checks."""
        self._flush()
        for watcher in self.watchers:
            try:
                watcher.finish()
            except AuditError:
                raise
            except Exception as exc:
                self._crash(watcher, exc)

    # -- trace lifecycle ----------------------------------------------------

    def attach(self, trace: Any) -> "WatcherHub":
        """Subscribe to a live :class:`EventTrace`; returns self."""
        trace.subscribe(self.on_event, runs=self.on_hops)
        self._trace = trace
        return self

    def detach(self) -> None:
        self._flush()
        if self._trace is not None:
            self._trace.unsubscribe(self.on_event)
            self._trace = None

    # -- reporting ----------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def result(self) -> Dict[str, Any]:
        """Machine-readable verdict block (one hub / trace segment)."""
        self._flush()
        return {
            "events": self.events_seen,
            "crashes": self.crashes,
            "watchers": [
                {"name": w.name, "events": w.events_seen,
                 "violations": [str(v) for v in w.violations]}
                for w in self.watchers
            ],
            "violations": [str(v) for v in self.violations],
            "ok": self.clean,
        }

    def report(self) -> str:
        self._flush()
        if self.clean:
            return (f"watch clean: {self.events_seen} events through "
                    f"{len(self.watchers)} watchers")
        lines = [f"watch: {len(self.violations)} violations over "
                 f"{self.events_seen} events"]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builtin sets, live attachment, the run config's hook
# ---------------------------------------------------------------------------


def builtin_watchers(n: Optional[int] = None,
                     slo_specs: Optional[List[Any]] = None,
                     names: Optional[List[str]] = None) -> List[Watcher]:
    """The builtin invariant set (+ an SLO monitor when specs given).

    ``names`` restricts to a subset (``REPRO_WATCH=conservation,slo``);
    unknown names raise so typos cannot silently disable a gate.
    """
    factories: Dict[str, Callable[[], Watcher]] = {
        "monotonicity": MonotonicityWatcher,
        "conservation": ConservationWatcher,
        "no-fabricated-value": NoFabricationWatcher,
        "quorum-intersection": lambda: QuorumIntersectionWatcher(n=n),
    }
    if names:
        unknown = [x for x in names if x not in factories and x != "slo"]
        if unknown:
            raise ValueError(
                f"unknown watcher(s) {unknown}; valid: "
                f"{sorted(factories)} + ['slo']")
        selected = [factories[x]() for x in names if x in factories]
    else:
        selected = [factory() for factory in factories.values()]
    if slo_specs:
        from repro.obs.slo import SloMonitor
        selected.append(SloMonitor(slo_specs))
    return selected


def attach_watchers(net: Any,
                    watchers: Optional[List[Watcher]] = None,
                    slo_specs: Optional[List[Any]] = None,
                    session_ledger: Optional[List[AuditViolation]] = None
                    ) -> WatcherHub:
    """Attach a watcher hub to a live network's trace; returns the hub.

    Enables the trace in subscriber-only mode when it is off (no memory
    retention, no JSONL — the watchers are the only consumer), wires
    violations through the network's auditor, and stores the hub as
    ``net.watch_hub``, replacing any hub attached before.  A network
    with an auditor always runs a :class:`ConservationWatcher` — it is
    the accounting audit — so one is added when ``watchers`` has none.
    """
    if watchers is None:
        watchers = builtin_watchers(n=getattr(net, "n_alive", None),
                                    slo_specs=slo_specs)
    elif slo_specs:
        from repro.obs.slo import SloMonitor
        watchers = list(watchers) + [SloMonitor(slo_specs)]
    auditor = getattr(net, "auditor", None)
    if auditor is not None and not any(
            isinstance(w, ConservationWatcher) for w in watchers):
        watchers = list(watchers) + [ConservationWatcher()]
    previous = getattr(net, "watch_hub", None)
    if previous is not None:
        previous.detach()
    hub = WatcherHub(watchers, auditor=auditor,
                     session_ledger=session_ledger)
    trace = net.trace
    if not trace.enabled:
        trace.enable(memory=False)
    hub.attach(trace)
    net.watch_hub = hub
    return hub


def attach_run_watchers(net: Any, config: RunConfig) -> WatcherHub:
    """The run config's hook of ``SimNetwork.__init__``.

    An audited network gets the conservation watcher.  ``config.watch``
    adds every builtin or the named subset, and the ``config.slo``
    monitor when all or ``"slo"`` is named; violations also land on the
    run's ledger, which the CLI reports after a watched command.
    """
    watchers: List[Watcher] = []
    slo_specs = None
    if config.watch:
        names = None if config.watch == WATCH_ALL else list(config.watch)
        if config.slo and (names is None or "slo" in names):
            from repro.obs.slo import load_slo_specs
            slo_specs = load_slo_specs(config.slo)
        watchers = builtin_watchers(
            n=getattr(net, "n_alive", None) or None, names=names)
    return attach_watchers(net, watchers=watchers, slo_specs=slo_specs,
                           session_ledger=run_ledger())


# ---------------------------------------------------------------------------
# Offline replay (the `repro obs watch` CLI)
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of replaying one JSONL trace through the watchers."""

    events: int = 0
    corrupt_lines: int = 0
    segments: int = 0
    violations: List[AuditViolation] = field(default_factory=list)
    segment_results: List[Dict[str, Any]] = field(default_factory=list)
    slo_reports: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "corrupt_lines": self.corrupt_lines,
            "segments": self.segments,
            "ok": self.clean,
            "violations": [str(v) for v in self.violations],
            "segment_results": self.segment_results,
            "slo": self.slo_reports,
        }

    def report(self) -> str:
        head = (f"watched {self.events} events in {self.segments} trace "
                f"segment(s); corrupt lines: {self.corrupt_lines}")
        if self.clean:
            return head + "\nno violations"
        lines = [head, f"{len(self.violations)} violations:"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def _event_from_dict(raw: Dict[str, Any]) -> TraceEvent:
    payload = {k: v for k, v in raw.items()
               if k not in ("seq", "t", "kind")}
    version = payload.get("version")
    if isinstance(version, list):
        # Versions are tuples live (hashable watcher state) and come
        # back as JSON lists: restore the live payload.
        payload["version"] = tuple(version)
    return TraceEvent(seq=int(raw.get("seq", 0)),
                      t=float(raw.get("t", 0.0)),
                      kind=str(raw["kind"]), fields=payload)


def replay_trace(source: Any,
                 n: Optional[int] = None,
                 slo_specs: Optional[List[Any]] = None) -> ReplayResult:
    """Stream a recorded trace through fresh watchers, segment-aware.

    A trace file holds back-to-back runs (sweep points, Monte-Carlo
    replicas), one writer at a time: every time ``seq`` restarts at 0 a
    *new simulation* began, so watcher state (stored keys, clocks,
    ledgers) is reset per segment.  Each segment gets a fresh builtin
    watcher set for the given ``n`` / SLO specs.
    """

    result = ReplayResult()
    hub: Optional[WatcherHub] = None

    def close_hub(hub: WatcherHub) -> None:
        hub.finish()
        result.segment_results.append(hub.result())
        result.violations.extend(hub.violations)
        for watcher in hub.watchers:
            report = getattr(watcher, "slo_report", None)
            if report is not None:
                result.slo_reports.append(report())

    for raw in iter_trace(source):
        if raw is None:
            result.corrupt_lines += 1
            continue
        result.events += 1
        event = _event_from_dict(raw)
        if hub is None or event.seq == 0:
            if hub is not None:
                close_hub(hub)
            hub = WatcherHub(builtin_watchers(n=n, slo_specs=slo_specs))
            result.segments += 1
        hub.on_event(event)
    if hub is not None:
        close_hub(hub)
    return result


def resolve_trace_n(trace_path: str) -> Optional[int]:
    """Network size for a recorded trace, from its sibling manifest.

    ``<trace>.manifest.json`` is what the CLI writes next to every
    ``--trace`` output; its ``params.n`` arms the intersection watcher
    on replay.  Returns None when no manifest (or no ``n``) is found.
    """
    manifest_path = trace_path + ".manifest.json"
    if not os.path.exists(manifest_path):
        return None
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    n = manifest.get("params", {}).get("n")
    return int(n) if isinstance(n, (int, float)) else None
