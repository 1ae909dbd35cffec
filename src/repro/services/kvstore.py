"""Replicated key-value service with timed-quorum leases.

The ROADMAP's serving-system layer: a :class:`QuorumKVStore` exposes
``put`` / ``get`` / ``cas`` over a probabilistic biquorum, with per-key
versioning (the :class:`~repro.services.register.Timestamp` lattice of
the ABD register) and *timed-quorum leases* ("Timed Quorum Systems for
Large-Scale and Dynamic Environments", PAPERS.md): every stored entry
carries a TTL stamped at store time, expired entries are excluded from
probe replies (and votes — lease filtering composes with
:class:`~repro.core.masking.MaskingStrategy`) and reclaimed lazily by
the next touch.

Lease duration is derivable from the observed churn rate the same way
:class:`~repro.services.maintenance.RefreshDaemon`'s adaptive mode
re-derives the Section 6.1 refresh interval: ``adaptive=True``
re-estimates the committed churn rate from the metrics counters and
inverts the holder-survival floor
(:func:`repro.analysis.leases.lease_ttl_for_churn`).

Operations follow the register's phase structure:

* ``get`` — one *query* access collecting ``(value, version, expiry)``
  from a lookup quorum; the newest unexpired reply wins (under masking,
  the vote-confirmed winner).
* ``put`` — query for the latest version, then a *propagate* access
  storing ``(counter+1, origin)`` to an advertise quorum.  A per-(key,
  writer) counter floor keeps versions unique even when the query
  missed the newest commit.
* ``cas`` — query, compare the observed value with ``expected``, and
  propagate only on match.  Success off a stale view is possible with
  probability ~epsilon (and separately accounted); the history checker
  treats it as staleness, not a violation.

Every operation emits one ``kv-op`` trace event (op, key, version, ok,
stale, latency) — the stream the SLO monitor derives ``kv.*`` metrics
from — and can be recorded into a
:class:`~repro.services.consistency.KVHistoryChecker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.analysis.leases import lease_ttl_for_churn
from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.leases import LeasedEntry, LeaseTable
from repro.obs.watch import parse_masking_name
from repro.core.strategies import AccessResult
from repro.obs.trace import record_event
from repro.services.consistency import KVHistoryChecker
from repro.services.register import Timestamp


def _kv_reply_version(reply: Tuple[Any, Tuple[int, int], float]) -> Tuple[int, int]:
    """Version of a ``(value, (counter, writer), expires_at)`` reply.

    The ``(counter, writer)`` tuple orders like the Timestamp it mirrors
    and serializes to a JSON array, so offline trace replay compares
    versions correctly (lists order lexicographically too).
    """
    return reply[1]


def _kv_reply_value(reply: Tuple[Any, Tuple[int, int], float]) -> Any:
    """Vote identity of a reply: the value (versions order candidates)."""
    return reply[0]


@dataclass
class KVOpResult:
    """Outcome of one kv operation with accounting."""

    kind: str                    # "put" | "get" | "cas"
    key: Hashable
    ok: bool                     # put committed / get found / cas succeeded
    value: Any
    version: Optional[Timestamp]
    stale: bool                  # returned/acted on an out-of-date version
    latency: float
    messages: int
    routing_messages: int
    accesses: List[AccessResult] = field(default_factory=list)


class QuorumKVStore:
    """``put/get/cas`` over a probabilistic biquorum with timed leases."""

    def __init__(
        self,
        biquorum: ProbabilisticBiquorum,
        lease_ttl: Optional[float] = None,
        churn_rate: Optional[float] = None,
        min_survival: float = 0.9,
        adaptive: bool = False,
        min_ttl: float = 1.0,
        max_ttl: float = 1e6,
        checker: Optional[KVHistoryChecker] = None,
    ) -> None:
        """Give ``lease_ttl`` directly, or a ``churn_rate`` estimate and
        let the lease analysis derive the TTL keeping per-holder survival
        above ``min_survival``.  ``adaptive=True`` re-estimates the churn
        rate from the committed churn counters before every store, the
        :class:`RefreshDaemon` adaptive-mode pattern.
        """
        if lease_ttl is None and churn_rate is None and not adaptive:
            raise ValueError(
                "provide lease_ttl, or churn_rate (+ min_survival), or "
                "adaptive=True")
        if lease_ttl is not None and lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.biquorum = biquorum
        self.net = biquorum.net
        self.lease_ttl = lease_ttl
        self.churn_rate = churn_rate
        self.min_survival = min_survival
        self.adaptive = adaptive
        self.min_ttl = min_ttl
        self.max_ttl = max_ttl
        self.checker = checker
        self.table = LeaseTable(self.net)
        # Per-(key, writer) counter floors: a writer never reuses a
        # counter for a key, so (counter, writer) versions stay unique
        # even when the pre-write query missed the latest commit.
        self._floors: Dict[Tuple[Hashable, int], int] = {}
        # Commit oracle: key -> (ts, value) of the newest committed
        # write, used for staleness accounting (not by the protocol).
        self._commits: Dict[Hashable, Tuple[Timestamp, Any]] = {}
        self._churn_baseline = self._churn_events()
        self._started_at = self.net.now

    # -- adaptive lease sizing --------------------------------------------

    def _churn_events(self) -> int:
        metrics = getattr(self.net, "metrics", None)
        if metrics is None:
            return 0
        return (metrics.counter_value("churn.failures")
                + metrics.counter_value("churn.joins"))

    def observed_churn_rate(self) -> float:
        """Committed churn events per node-second since construction."""
        elapsed = self.net.now - self._started_at
        if elapsed <= 0:
            return 0.0
        events = self._churn_events() - self._churn_baseline
        return events / elapsed / max(1, self.net.n_alive)

    def current_ttl(self) -> float:
        """The lease TTL stores stamp *now*.

        Fixed when ``lease_ttl`` was given; otherwise derived from the
        churn rate (adaptive mode prefers the observed rate, falling
        back to the construction-time estimate before any churn)."""
        if self.lease_ttl is not None and not self.adaptive:
            return self.lease_ttl
        rate = self.observed_churn_rate() if self.adaptive else 0.0
        if rate <= 0.0:
            rate = self.churn_rate or 0.0
        if rate <= 0.0 and self.lease_ttl is not None:
            return self.lease_ttl
        return lease_ttl_for_churn(rate, self.min_survival,
                                   min_ttl=self.min_ttl,
                                   max_ttl=self.max_ttl)

    # -- phases ------------------------------------------------------------

    def _query_phase(self, origin: int, key: Hashable) -> Tuple[
            Optional[Tuple[Any, Tuple[int, int], float]], AccessResult]:
        """Probe a lookup quorum; return the winning reply (or None).

        Replies are ``(value, (counter, writer), expires_at)``.  Expired
        entries never reply (lease filtering happens replica-side in the
        :class:`LeaseTable`), so masking vote tallies only ever see live
        leases.  Under a plain strategy the newest reply wins; under
        masking the vote-confirmed winner does.
        """
        best: List[Optional[Tuple[Any, Tuple[int, int], float]]] = [None]

        def probe_fn(node: int) -> Optional[Tuple[Any, Tuple[int, int], float]]:
            entry = self.table.visible(node, key)
            if entry is None:
                return None
            reply = (entry.value, (entry.ts.counter, entry.ts.writer),
                     entry.expires_at)
            if best[0] is None or best[0][1] < reply[1]:
                best[0] = reply
            return reply

        probe_fn.access_key = key
        probe_fn.access_version_of = _kv_reply_version
        probe_fn.access_vote_key = _kv_reply_value

        access = self.biquorum.read(origin, probe_fn)
        delivered = (access.reply_delivered is None
                     or access.reply_delivered)
        if not access.found or not delivered:
            return None, access
        if parse_masking_name(access.strategy) is not None:
            # Masking verdict: only the vote-confirmed reply counts.
            return access.hit_value, access
        return best[0], access

    def _propagate_phase(self, origin: int, key: Hashable, value: Any,
                         ts: Timestamp, ttl: float
                         ) -> Tuple[AccessResult, bool]:
        """Store to an advertise quorum; return ``(access, committed)``.

        Committed means some replica executed the store.  The access is
        only the *last* policy attempt — its quorum can be empty while an
        earlier attempt's replicas hold the version — so stores are
        counted here, beneath any Byzantine ack-and-discard wrapper.
        """
        stored = [0]

        def store_fn(node: int) -> None:
            self.table.store(node, LeasedEntry(
                key=key, value=value, ts=ts, stored_at=self.net.now,
                ttl=ttl))
            stored[0] += 1

        store_fn.access_key = key
        store_fn.access_version = (ts.counter, ts.writer)
        access = self.biquorum.write(origin, store_fn)
        return access, stored[0] > 0

    def _next_version(self, origin: int, key: Hashable,
                      seen: Optional[Tuple[int, int]]) -> Timestamp:
        floor = self._floors.get((key, origin), 0)
        counter = max(seen[0] if seen is not None else 0, floor) + 1
        self._floors[(key, origin)] = counter
        return Timestamp(counter=counter, writer=origin)

    def _record_commit(self, key: Hashable, ts: Timestamp,
                       value: Any) -> None:
        current = self._commits.get(key)
        if current is None or current[0] < ts:
            self._commits[key] = (ts, value)

    def _emit(self, result: KVOpResult) -> None:
        metrics = getattr(self.net, "metrics", None)
        if metrics is not None:
            prefix = f"kv.{result.kind}"
            metrics.counter(prefix + ".count").inc()
            if result.ok:
                metrics.counter(prefix + ".ok").inc()
            if result.stale:
                metrics.counter(prefix + ".stale").inc()
            metrics.histogram(prefix + ".latency").observe(result.latency)
        version = (None if result.version is None
                   else (result.version.counter, result.version.writer))
        record_event(self.net, "kv-op", op=result.kind, key=result.key,
                     ok=result.ok, stale=result.stale, version=version,
                     latency=round(result.latency, 9),
                     messages=result.messages)

    # -- operations --------------------------------------------------------

    def put(self, origin: int, key: Hashable, value: Any) -> KVOpResult:
        """Query for the latest version, then store ``(counter+1, origin)``
        with a fresh lease to an advertise quorum."""
        started = self.net.now
        chosen, query = self._query_phase(origin, key)
        ts = self._next_version(origin, key,
                                chosen[1] if chosen is not None else None)
        ttl = self.current_ttl()
        prop, committed = self._propagate_phase(origin, key, value, ts, ttl)
        if committed:
            self._record_commit(key, ts, value)
        if self.checker is not None:
            self.checker.record_put(key=key, origin=origin, version=ts,
                                    value=value, started_at=started,
                                    committed=committed)
        result = KVOpResult(
            kind="put", key=key, ok=committed, value=value, version=ts,
            stale=False, latency=query.latency + prop.latency,
            messages=query.messages + prop.messages,
            routing_messages=query.routing_messages + prop.routing_messages,
            accesses=[query, prop])
        self._emit(result)
        return result

    def get(self, origin: int, key: Hashable) -> KVOpResult:
        """Collect from a lookup quorum; newest unexpired reply wins."""
        started = self.net.now
        chosen, access = self._query_phase(origin, key)
        found = chosen is not None
        value = chosen[0] if found else None
        version = (Timestamp(*chosen[1]) if found else None)
        expires_at = chosen[2] if found else None
        latest = self._commits.get(key)
        stale = bool(found and latest is not None and version < latest[0])
        if self.checker is not None:
            self.checker.record_get(key=key, origin=origin, found=found,
                                    value=value, version=version,
                                    started_at=started,
                                    expires_at=expires_at)
        result = KVOpResult(
            kind="get", key=key, ok=found, value=value, version=version,
            stale=stale, latency=access.latency, messages=access.messages,
            routing_messages=access.routing_messages, accesses=[access])
        self._emit(result)
        return result

    def cas(self, origin: int, key: Hashable, expected: Any,
            new_value: Any) -> KVOpResult:
        """Store ``new_value`` only if the observed value == ``expected``.

        ``expected=None`` is insert-if-absent.  Atomicity is
        probabilistic: with probability ~epsilon the query view is stale
        and the cas decides against an old version (accounted as
        ``stale``, and by the history checker as ``stale_cas``).
        """
        started = self.net.now
        chosen, query = self._query_phase(origin, key)
        observed_value = chosen[0] if chosen is not None else None
        observed_ts = (Timestamp(*chosen[1]) if chosen is not None else None)
        success = observed_value == expected
        latest = self._commits.get(key)
        stale = bool(latest is not None
                     and (observed_ts is None or observed_ts < latest[0]))
        accesses = [query]
        messages = query.messages
        routing = query.routing_messages
        latency = query.latency
        ts: Optional[Timestamp] = None
        committed = False
        if success:
            ts = self._next_version(origin, key,
                                    chosen[1] if chosen is not None else None)
            prop, committed = self._propagate_phase(
                origin, key, new_value, ts, self.current_ttl())
            accesses.append(prop)
            messages += prop.messages
            routing += prop.routing_messages
            latency += prop.latency
            if committed:
                self._record_commit(key, ts, new_value)
        if self.checker is not None:
            self.checker.record_cas(
                key=key, origin=origin, success=success and committed,
                version=ts, value=new_value,
                expected_version=observed_ts, started_at=started,
                committed=committed)
        result = KVOpResult(
            kind="cas", key=key, ok=success and committed,
            value=new_value if success else observed_value, version=ts,
            stale=stale and success, latency=latency, messages=messages,
            routing_messages=routing, accesses=accesses)
        self._emit(result)
        return result

    # -- introspection -----------------------------------------------------

    def latest_committed(self, key: Hashable) -> Optional[Tuple[Timestamp, Any]]:
        """Commit-oracle view of the newest committed write (accounting)."""
        return self._commits.get(key)
