"""Quorum access strategies (Section 4): RANDOM, RANDOM-OPT, PATH,
UNIQUE-PATH, FLOODING.

Every strategy implements the same two operations against a live
:class:`~repro.simnet.network.SimNetwork`:

* ``advertise(net, origin, store_fn, target_size)`` — contact a quorum of
  nodes and have each run ``store_fn(node)`` (e.g. store an advertisement);
* ``lookup(net, origin, probe_fn, target_size)`` — contact a quorum of
  nodes, running ``probe_fn(node)`` at each; a non-None probe result is a
  *hit*, which (for reply-carrying strategies) is shipped back to the
  originator.

All message accounting follows the paper's convention (Section 8): the
``messages`` field counts network-layer transmissions (a 4-hop routed
application message counts 4), while routing control traffic (AODV
discovery/maintenance) is reported separately in ``routing_messages``.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set

from repro.analysis.flooding import DEFAULT_KAPPA, ttl_for_coverage
from repro.obs.profile import PROFILER
from repro.obs.trace import record_event
from repro.randomwalk.reply import reverse_path_of, send_reply
from repro.randomwalk.walker import max_degree_walk_sample, random_walk
from repro.simnet.network import SimNetwork

StoreFn = Callable[[int], None]
ProbeFn = Callable[[int], Optional[Any]]


def _live_trace(net: SimNetwork):
    """The network's event trace, or None when absent/disabled."""
    trace = getattr(net, "trace", None)
    if trace is not None and trace.enabled:
        return trace
    return None


def _traced_store(net: SimNetwork, trace, store_fn: StoreFn) -> StoreFn:
    # Services annotate callbacks with the key they operate on
    # (``access_key``) and, when versioned, the version being written
    # (``access_version``); watchers use these to cross-check replies
    # against prior stores.  Absent on bare callbacks — events stay
    # keyless/versionless.
    key = getattr(store_fn, "access_key", None)
    version = getattr(store_fn, "access_version", None)

    def wrapped(node: int) -> None:
        store_fn(node)
        if key is None:
            trace.record("store", net.now, node=node)
        elif version is None:
            trace.record("store", net.now, node=node, key=key)
        else:
            trace.record("store", net.now, node=node, key=key,
                         version=version)
    return wrapped


def _traced_probe(net: SimNetwork, trace, probe_fn: ProbeFn) -> ProbeFn:
    key = getattr(probe_fn, "access_key", None)
    version_of = getattr(probe_fn, "access_version_of", None)

    def wrapped(node: int) -> Optional[Any]:
        value = probe_fn(node)
        if key is None:
            trace.record("probe", net.now, node=node, hit=value is not None)
            return value
        version = _reply_version(version_of, value)
        if version is None:
            trace.record("probe", net.now, node=node,
                         hit=value is not None, key=key)
        else:
            trace.record("probe", net.now, node=node, hit=True, key=key,
                         version=version)
        return value
    # Masking reads its vote identity off the callback it is handed.
    wrapped.access_version_of = version_of
    wrapped.access_vote_key = getattr(probe_fn, "access_vote_key", None)
    return wrapped


def _reply_version(version_of, value) -> Optional[Any]:
    """Extract a reply's version via the service annotation, if any."""
    if version_of is None or value is None:
        return None
    try:
        return version_of(value)
    except (TypeError, IndexError, KeyError, AttributeError):
        return None


def _publish_access_metrics(net: SimNetwork, result: "AccessResult") -> None:
    """Populate the uniform per-access metrics (see DESIGN.md)."""
    metrics = getattr(net, "metrics", None)
    if metrics is None:
        return
    prefix = f"access.{result.kind}"
    metrics.counter(prefix + ".count").inc()
    metrics.counter(prefix + ".messages").inc(result.messages)
    metrics.counter(prefix + ".routing").inc(result.routing_messages)
    if result.kind == "lookup" and result.found:
        metrics.counter(prefix + ".hits").inc()
        if result.reply_delivered is False:
            metrics.counter(prefix + ".reply_drops").inc()
    if result.kind == "lookup":
        if result.masked:
            metrics.counter(prefix + ".masked").inc()
        if result.found_corrupt:
            metrics.counter(prefix + ".found_corrupt").inc()
    metrics.histogram(prefix + ".latency").observe(result.latency)
    metrics.histogram(prefix + ".quorum_size").observe(result.quorum_size)


@dataclass(frozen=True)
class AccessPolicy:
    """Deadline/retry/backoff envelope for quorum accesses (robustness
    layer; the paper assumes accesses always complete).

    ``deadline`` bounds the whole access including retries, in simulated
    seconds.  A failed attempt is retried up to ``max_retries`` times
    after an exponential backoff ``backoff_base * backoff_factor**(i-1)``
    (capped at ``backoff_max``), desynchronised by a proportional jitter
    drawn from the dedicated ``access-policy`` RNG stream.  A retry is
    only launched when the backoff still fits inside the deadline.
    """

    deadline: Optional[float] = None     # seconds; None = unbounded
    max_retries: int = 0                 # extra attempts after the first
    backoff_base: float = 0.05           # seconds before the first retry
    backoff_factor: float = 2.0          # exponential growth per retry
    backoff_max: float = 5.0             # backoff ceiling, pre-jitter
    jitter: float = 0.1                  # +U(0, jitter) fraction of backoff

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base <= 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base > 0 and backoff_factor >= 1 required")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @property
    def active(self) -> bool:
        """Whether the policy changes anything over the bare access."""
        return self.max_retries > 0 or self.deadline is not None

    def backoff_before(self, retry_index: int,
                       rng: random.Random) -> float:
        """Backoff (seconds) before retry ``retry_index`` (1-based)."""
        base = min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** (retry_index - 1))
        if self.jitter > 0:
            base += base * self.jitter * rng.random()
        return base


@dataclass
class AccessResult:
    """Outcome and cost accounting of one quorum access."""

    strategy: str
    kind: str                        # "advertise" | "lookup"
    quorum: List[int] = field(default_factory=list)  # distinct nodes reached
    messages: int = 0                # network-layer messages (incl. replies)
    routing_messages: int = 0        # routing control overhead
    success: bool = False            # access achieved its goal
    found: bool = False              # lookup: some probed node had the datum
    hit_node: Optional[int] = None
    hit_value: Any = None
    reply_delivered: Optional[bool] = None  # None if no reply was needed
    target_size: int = 0
    overheard: bool = False          # hit came from promiscuous overhearing
    latency: float = 0.0             # simulated seconds the access took
    attempts: int = 1                # policy attempts consumed (1 = no retry)
    deadline_missed: bool = False    # policy deadline was blown
    found_corrupt: bool = False      # masking: conflicting confirmed values
    masked: bool = False             # masking: no reply reached the threshold

    @property
    def quorum_size(self) -> int:
        return len(self.quorum)

    @property
    def total_messages(self) -> int:
        return self.messages + self.routing_messages

    @property
    def verdict(self) -> str:
        """Reply-filter verdict: found / found_corrupt / masked / miss.

        Plain (non-masking) strategies only ever report ``found`` or
        ``miss``; :class:`repro.core.masking.MaskingStrategy` sets
        ``masked`` when replies exist but none gathered ``b + 1`` votes,
        and ``found_corrupt`` when two conflicting values both did.
        """
        if self.masked:
            return "masked"
        if self.found_corrupt:
            return "found_corrupt"
        return "found" if self.found else "miss"


class AccessStrategy(ABC):
    """Base class for quorum access strategies.

    ``advertise``/``lookup`` are template methods: they stamp
    ``AccessResult.latency`` from the network clock at entry/exit (so
    direct-strategy callers get real latencies, not just those routed
    through :class:`~repro.core.biquorum.ProbabilisticBiquorum`), trace
    the access boundaries plus store/probe events, and publish the
    uniform per-access metrics.  The ``access-end`` event carries the
    result's accounting, which the conservation watcher (the accounting
    audit, :mod:`repro.obs.watch`) checks against the traced span.
    Subclasses implement ``_advertise``/``_lookup``.
    """

    #: Strategy name (matches :mod:`repro.analysis.costs` constants).
    name: str = "?"
    #: Whether accesses hit uniformly random nodes — i.e. whether this
    #: strategy can serve as the RANDOM side of the mix-and-match lemma.
    uniform_random: bool = False
    #: Optional deadline/retry envelope applied by ``_run_access``.
    policy: Optional[AccessPolicy] = None

    def set_policy(self, policy: Optional[AccessPolicy]) -> "AccessStrategy":
        """Attach (or clear) a retry/deadline policy; returns self."""
        self.policy = policy
        return self

    def advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                  target_size: int) -> AccessResult:
        """Contact an advertise quorum, storing at each member."""
        return self._run_access(net, "advertise", self._advertise,
                                origin, store_fn, target_size)

    def lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
               target_size: int) -> AccessResult:
        """Contact a lookup quorum, probing each member."""
        return self._run_access(net, "lookup", self._lookup,
                                origin, probe_fn, target_size)

    def _run_access(self, net: SimNetwork, kind: str, impl: Callable,
                    origin: int, callback: Callable,
                    target_size: int) -> AccessResult:
        """Run the access under the attached :class:`AccessPolicy`.

        Each *attempt* is a fully audited/traced/metered access (see
        :meth:`_run_attempt`); the policy loop sits above the per-attempt
        accounting, waiting out backoffs on the simulated clock, so
        per-attempt audits stay balanced.  The returned result carries
        the *cumulative* message cost and total elapsed latency.
        """
        policy = self.policy
        if policy is None or not policy.active:
            return self._run_attempt(net, kind, impl, origin, callback,
                                     target_size)
        started = net.now
        rng = net.rngs.stream("access-policy")
        metrics = getattr(net, "metrics", None)
        result = self._run_attempt(net, kind, impl, origin, callback,
                                   target_size)
        attempts = 1
        messages = result.messages
        routing = result.routing_messages
        deadline_abandoned = False
        while not result.success and attempts <= policy.max_retries:
            backoff = policy.backoff_before(attempts, rng)
            if (policy.deadline is not None
                    and (net.now - started) + backoff >= policy.deadline):
                deadline_abandoned = True
                break
            record_event(net, "access-retry", strategy=self.name,
                         access=kind, origin=origin, attempt=attempts,
                         backoff=backoff)
            if metrics is not None:
                metrics.counter("access.retries").inc()
            net.advance(backoff)
            result = self._run_attempt(net, kind, impl, origin, callback,
                                       target_size)
            attempts += 1
            messages += result.messages
            routing += result.routing_messages
        result.attempts = attempts
        result.messages = messages
        result.routing_messages = routing
        result.latency = net.now - started
        if policy.deadline is not None and (
                result.latency > policy.deadline
                or deadline_abandoned
                or not result.success):
            result.deadline_missed = True
            record_event(net, "access-deadline-miss", strategy=self.name,
                         access=kind, origin=origin, attempts=attempts,
                         elapsed=result.latency)
            if metrics is not None:
                metrics.counter("access.deadline_misses").inc()
        return result

    def _run_attempt(self, net: SimNetwork, kind: str, impl: Callable,
                     origin: int, callback: Callable,
                     target_size: int) -> AccessResult:
        trace = _live_trace(net)
        started = net.now
        access_key = getattr(callback, "access_key", None)
        version_of = getattr(callback, "access_version_of", None)
        byzantine = getattr(net, "byzantine", None)
        if byzantine is not None and byzantine.active:
            # Interpose the adversary *under* the tracing wrappers: the
            # trace then records the protocol's deceived view (acked
            # stores that were discarded, fabricated probe hits).
            if kind == "advertise":
                callback = byzantine.wrap_store(callback)
            else:
                callback = byzantine.wrap_probe(callback)
        if trace is not None:
            extra = {} if access_key is None else {"key": access_key}
            trace.record("access-start", started, strategy=self.name,
                         access=kind, origin=origin,
                         target_size=target_size, **extra)
            if kind == "advertise":
                callback = _traced_store(net, trace, callback)
            else:
                callback = _traced_probe(net, trace, callback)
        with PROFILER.phase(f"access.{kind}"):
            result = impl(net, origin, callback, target_size)
        result.latency = net.now - started
        if trace is not None:
            extra = {} if access_key is None else {"key": access_key}
            if kind == "lookup" and result.found:
                # Stamp the *accepted* reply's version so watchers can
                # verify the returned value was once legitimately stored
                # (fabrications carry versions no one ever wrote).
                version = _reply_version(version_of, result.hit_value)
                if version is not None:
                    extra["version"] = version
            if result.masked or result.found_corrupt:
                extra["verdict"] = result.verdict
            trace.record("access-end", net.now, strategy=self.name,
                         access=kind, origin=origin,
                         messages=result.messages,
                         routing=result.routing_messages,
                         success=result.success,
                         found=result.found,
                         reply=result.reply_delivered,
                         quorum=result.quorum_size, **extra)
        _publish_access_metrics(net, result)
        return result

    @abstractmethod
    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        """Strategy-specific advertise implementation."""

    @abstractmethod
    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        """Strategy-specific lookup implementation."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# Routed-unicast access primitives (shared by membership-based strategies
# and the algebraic systems in repro.quorum.access)
# ---------------------------------------------------------------------------


def routed_reach(net: SimNetwork, origin: int, target: int,
                 result: AccessResult) -> bool:
    """Route one application message ``origin -> target``, charging the
    data and routing cost to ``result``; True on delivery."""
    route = net.route(origin, target)
    result.messages += route.data_messages
    result.routing_messages += route.routing_messages
    return route.success


def routed_reply(net: SimNetwork, src: int, origin: int,
                 result: AccessResult) -> bool:
    """A storing node replies to the originator via routing.

    Charges the reply cost, records the ``reply`` trace event, and
    updates ``result.reply_delivered`` with sticky-success semantics (a
    later failed reply never clears an earlier delivery).
    """
    reply = net.route(src, origin)
    result.messages += reply.data_messages
    result.routing_messages += reply.routing_messages
    record_event(net, "reply", src=src, dst=origin,
                 success=reply.success, mechanism="routed")
    if reply.success:
        result.reply_delivered = True
    elif result.reply_delivered is None:
        result.reply_delivered = False
    return reply.success


# ---------------------------------------------------------------------------
# RANDOM (membership-based, Section 4.1)
# ---------------------------------------------------------------------------


class RandomStrategy(AccessStrategy):
    """Uniform-random quorum via a membership service plus unicast routing.

    The method of Malkhi et al.: pick ``|Q|`` uniformly random node ids
    from the membership view and contact each through multi-hop routing.
    On a routing failure the strategy *adapts* (Section 6.2): it picks a
    replacement random node rather than retrying the dead one.

    ``serial_lookup=True`` contacts lookup targets one at a time and stops
    at the first delivered hit (the early-halting variant the paper notes
    would halve the accessed nodes at a latency cost); the default is the
    paper's parallel access.
    """

    name = "RANDOM"
    uniform_random = True

    def __init__(self, membership: Any, rng: Optional[random.Random] = None,
                 serial_lookup: bool = False,
                 adaptation_retries: int = 2) -> None:
        self.membership = membership
        self.rng = rng
        self.serial_lookup = serial_lookup
        self.adaptation_retries = adaptation_retries

    def _rng(self, net: SimNetwork) -> random.Random:
        return self.rng or net.rngs.stream("random-strategy")

    def _pick_targets(self, net: SimNetwork, origin: int, k: int) -> List[int]:
        return self.membership.sample_for(origin, k, self._rng(net))

    def _reach(self, net: SimNetwork, origin: int, target: int,
               result: AccessResult) -> bool:
        return routed_reach(net, origin, target, result)

    def _replacement(self, net: SimNetwork, origin: int, reached: Set[int],
                     rng: random.Random, draws: int = 4) -> Optional[int]:
        """Draw an adaptation replacement target (Section 6.2).

        Already-reached nodes are excluded at sampling time: a duplicate
        draw costs no transmission, so it must not burn a retry attempt
        — the retry budget counts actual adaptation transmissions.
        Exhausting the draw budget on duplicates truncates adaptation;
        that is no longer silent: it emits an
        ``access-adaptation-exhausted`` trace event and bumps the
        ``access.adaptation_exhausted`` counter so audits can see it.
        """
        for _ in range(draws):
            replacements = self.membership.sample_for(origin, 1, rng)
            if not replacements:
                return None
            if replacements[0] not in reached:
                return replacements[0]
        record_event(net, "access-adaptation-exhausted", strategy=self.name,
                     origin=origin, reached=len(reached), draws=draws)
        metrics = getattr(net, "metrics", None)
        if metrics is not None:
            metrics.counter("access.adaptation_exhausted").inc()
        return None

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=target_size)
        reached: Set[int] = set()
        targets = self._pick_targets(net, origin, target_size)
        rng = self._rng(net)
        for target in targets:
            attempts = 0
            current: Optional[int] = target
            while current is not None and attempts <= self.adaptation_retries:
                if current in reached:
                    # Duplicate target: nothing was sent, swap it out
                    # without consuming the retry budget.
                    current = self._replacement(net, origin, reached, rng)
                    continue
                if self._reach(net, origin, current, result):
                    reached.add(current)
                    store_fn(current)
                    break
                attempts += 1
                current = self._replacement(net, origin, reached, rng)
        result.quorum = sorted(reached)
        result.success = len(reached) >= min(target_size,
                                             max(1, net.n_alive - 1))
        return result

    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="lookup",
                              target_size=target_size)
        reached: Set[int] = set()
        targets = self._pick_targets(net, origin, target_size)
        rng = self._rng(net)
        for target in targets:
            attempts = 0
            current: Optional[int] = target
            while current is not None and attempts <= self.adaptation_retries:
                if current in reached:
                    current = self._replacement(net, origin, reached, rng)
                    continue
                if self._reach(net, origin, current, result):
                    reached.add(current)
                    value = probe_fn(current)
                    if value is not None:
                        result.found = True
                        if result.hit_node is None:
                            result.hit_node = current
                            result.hit_value = value
                        # Hit: the storing node replies via routing.
                        routed_reply(net, current, origin, result)
                    break
                attempts += 1
                current = self._replacement(net, origin, reached, rng)
            if (self.serial_lookup and result.found
                    and result.reply_delivered):
                break
        result.quorum = sorted(reached)
        result.success = bool(result.found and result.reply_delivered) or (
            not result.found and len(reached) >= min(target_size,
                                                     max(1, net.n_alive - 1)))
        return result


# ---------------------------------------------------------------------------
# RANDOM (direct sampling via max-degree walks, Section 4.1)
# ---------------------------------------------------------------------------


class RandomSamplingStrategy(AccessStrategy):
    """Uniform-random quorum with no membership service: each member is the
    end node of a max-degree random walk of ~mixing-time length (RaWMS).

    Expensive (Theta(|Q| * T_mix) messages) but fully routing-free.
    Replies travel back over the sampling walk's reverse path.
    """

    name = "RANDOM-SAMPLING"
    uniform_random = True

    def __init__(self, walk_length: Optional[int] = None,
                 rng: Optional[random.Random] = None,
                 max_extra_walks: int = 8) -> None:
        self.walk_length = walk_length
        self.rng = rng
        self.max_extra_walks = max_extra_walks

    def _rng(self, net: SimNetwork) -> random.Random:
        return self.rng or net.rngs.stream("sampling-strategy")

    def _collect(self, net: SimNetwork, origin: int, k: int,
                 result: AccessResult,
                 on_member: Callable[[int, List[int]], bool]) -> None:
        """Run MD walks until ``k`` distinct members were accessed.

        ``on_member(node, walk_path)`` returns True to halt the access.
        """
        rng = self._rng(net)
        members: Set[int] = set()
        budget = k + self.max_extra_walks
        walks = 0
        while len(members) < k and walks < budget:
            walks += 1
            sample = max_degree_walk_sample(
                net, origin, walk_length=self.walk_length, rng=rng)
            result.messages += sample.messages
            if sample.node is None or sample.node in members:
                continue  # collision or dropped walk: start another
            members.add(sample.node)
            if on_member(sample.node, sample.path):
                break
        result.quorum = sorted(members)

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=target_size)

        def on_member(node: int, _path: List[int]) -> bool:
            store_fn(node)
            return False

        self._collect(net, origin, target_size, result, on_member)
        result.success = len(result.quorum) >= min(target_size,
                                                   max(1, net.n_alive - 1))
        return result

    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="lookup",
                              target_size=target_size)

        def on_member(node: int, path: List[int]) -> bool:
            value = probe_fn(node)
            if value is None:
                return False
            result.found = True
            if result.hit_node is None:
                # Keep the first hit: a later hit whose reply fails must
                # not clobber a datum the originator already received
                # (same semantics as RandomStrategy).
                result.hit_node = node
                result.hit_value = value
            reply = send_reply(net, reverse_path_of(path), reduction=True)
            result.messages += reply.messages
            result.routing_messages += reply.routing_messages
            if reply.success:
                result.reply_delivered = True
            elif result.reply_delivered is None:
                result.reply_delivered = False
            return False  # paper's parallel semantics: no early halt

        self._collect(net, origin, target_size, result, on_member)
        result.success = bool(result.found and result.reply_delivered) or (
            not result.found
            and len(result.quorum) >= min(target_size,
                                          max(1, net.n_alive - 1)))
        return result


# ---------------------------------------------------------------------------
# PATH / UNIQUE-PATH (Sections 4.2, 4.3)
# ---------------------------------------------------------------------------


class PathStrategy(AccessStrategy):
    """Random-walk quorum access.

    ``unique=True`` gives UNIQUE-PATH (self-avoiding walk, Section 4.3).
    Lookup walks halt early on the first hit (Section 7.1) when
    ``early_halting`` is set, and the hit node replies over the reverse
    walk path with optional path reduction (Section 7.2) and local repair
    (Section 6.2).
    """

    name = "PATH"
    uniform_random = False

    def __init__(self, unique: bool = False, salvation: bool = True,
                 early_halting: bool = True, reply_reduction: bool = True,
                 local_repair: bool = False, repair_ttl: int = 3,
                 allow_global_repair: bool = True,
                 overhearing: bool = False,
                 rng: Optional[random.Random] = None) -> None:
        self.unique = unique
        self.salvation = salvation
        self.early_halting = early_halting
        self.reply_reduction = reply_reduction
        self.local_repair = local_repair
        self.repair_ttl = repair_ttl
        self.allow_global_repair = allow_global_repair
        #: Section 7.2: nodes overhear walk frames in promiscuous mode; a
        #: neighbor of the walk's current node that holds the datum replies
        #: immediately, effectively widening the quorum to the walk's whole
        #: one-hop neighborhood (the paper left evaluating this to future
        #: work; we implement and ablate it).
        self.overhearing = overhearing
        self.rng = rng
        if unique:
            self.name = "UNIQUE-PATH"

    def _rng(self, net: SimNetwork) -> random.Random:
        return self.rng or net.rngs.stream("path-strategy")

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=target_size)
        walk = random_walk(net, origin, target_unique=target_size,
                           unique=self.unique, salvation=self.salvation,
                           visit=store_fn, rng=self._rng(net))
        result.quorum = sorted(walk.visited)
        result.messages = walk.messages
        result.success = walk.completed
        return result

    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="lookup",
                              target_size=target_size)

        def stop(node: int) -> bool:
            value = probe_fn(node)
            if value is not None:
                result.found = True
                result.hit_node = node
                result.hit_value = value
                return self.early_halting
            if self.overhearing:
                # Promiscuous neighbors heard the walk frame; any that
                # stores the datum unicasts it to the current node, which
                # halts the walk (Section 7.2).
                for neighbor in net.true_neighbors(node):
                    value = probe_fn(neighbor)
                    if value is not None:
                        result.messages += 1  # neighbor -> current node
                        record_event(net, "virtual-msg", reason="overhear",
                                     src=neighbor, dst=node)
                        result.found = True
                        result.overheard = True
                        result.hit_node = node  # reply continues from here
                        result.hit_value = value
                        return self.early_halting
            return False

        walk = random_walk(net, origin, target_unique=target_size,
                           unique=self.unique, salvation=self.salvation,
                           stop_predicate=stop, rng=self._rng(net))
        result.quorum = sorted(walk.visited)
        result.messages += walk.messages
        if result.found:
            hit = result.hit_node
            assert hit is not None
            if hit == origin:
                result.reply_delivered = True
                record_event(net, "reply", src=origin, dst=origin,
                             success=True, mechanism="local")
            else:
                # Reply travels the reverse walk path (no routing).
                cut = walk.path.index(hit) if hit in walk.path else len(walk.path) - 1
                reply = send_reply(
                    net, reverse_path_of(walk.path[:cut + 1]),
                    reduction=self.reply_reduction,
                    local_repair=self.local_repair,
                    repair_ttl=self.repair_ttl,
                    allow_global_repair=self.allow_global_repair,
                )
                result.messages += reply.messages
                result.routing_messages += reply.routing_messages
                result.reply_delivered = reply.success
            result.success = bool(result.reply_delivered)
        else:
            result.success = walk.completed
        return result


class UniquePathStrategy(PathStrategy):
    """Self-avoiding random-walk access (UNIQUE-PATH, Section 4.3)."""

    def __init__(self, **kwargs: Any) -> None:
        kwargs.pop("unique", None)
        super().__init__(unique=True, **kwargs)


# ---------------------------------------------------------------------------
# FLOODING (Section 4.4)
# ---------------------------------------------------------------------------


class FloodingStrategy(AccessStrategy):
    """TTL-scoped flooding access.

    Two TTL selection modes from the paper:

    * *analytic* (default): the deployment density is known, so the TTL for
      a target quorum size comes from the coverage model
      (:func:`repro.analysis.flooding.ttl_for_coverage`);
    * *expanding ring* (``expanding_ring=True``): successive floods with
      growing TTL until enough nodes acked, robust to unknown density but
      costlier.

    A fixed ``ttl`` overrides both (used by the Figure 11 sweeps).
    Lookup hits reply along the reverse flood tree.
    """

    name = "FLOODING"
    uniform_random = False

    def __init__(self, ttl: Optional[int] = None, expanding_ring: bool = False,
                 kappa: float = DEFAULT_KAPPA,
                 count_acks: bool = True) -> None:
        self.ttl = ttl
        self.expanding_ring = expanding_ring
        self.kappa = kappa
        self.count_acks = count_acks

    def _analytic_ttl(self, net: SimNetwork, target_size: int) -> int:
        target = min(target_size, net.n_alive)
        return max(1, ttl_for_coverage(net.n_alive, net.config.avg_degree,
                                       target, self.kappa))

    def _flood_to_target(self, net: SimNetwork, origin: int, target_size: int,
                         result: AccessResult):
        if self.ttl is not None:
            outcome = net.flood(origin, self.ttl)
            result.messages += outcome.messages
            return outcome
        if not self.expanding_ring:
            outcome = net.flood(origin, self._analytic_ttl(net, target_size))
            result.messages += outcome.messages
            return outcome
        # Expanding ring: grow the TTL until coverage suffices.  Covered
        # nodes acknowledge so the originator can count them; acks are
        # combined along the reverse tree (one message per covered node).
        ttl = 1
        outcome = net.flood(origin, ttl)
        result.messages += outcome.messages
        self._count_acks(net, result, outcome)
        while outcome.coverage < min(target_size, net.n_alive) and ttl < 64:
            ttl += 1
            outcome = net.flood(origin, ttl)
            result.messages += outcome.messages
            self._count_acks(net, result, outcome)
        return outcome

    def _count_acks(self, net: SimNetwork, result: AccessResult,
                    outcome) -> None:
        """Charge the per-covered-node ack messages (modeled, not sent)."""
        if not self.count_acks:
            return
        acks = max(0, outcome.coverage - 1)
        if acks:
            result.messages += acks
            record_event(net, "virtual-msg", reason="flood-ack", count=acks)

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=target_size)
        outcome = self._flood_to_target(net, origin, target_size, result)
        for node in outcome.covered:
            store_fn(node)
        result.quorum = sorted(outcome.covered)
        result.success = outcome.coverage >= min(target_size, net.n_alive)
        return result

    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="lookup",
                              target_size=target_size)
        outcome = self._flood_to_target(net, origin, target_size, result)
        result.quorum = sorted(outcome.covered)
        delivered_any = False
        for node in outcome.covered:
            value = probe_fn(node)
            if value is None:
                continue
            result.found = True
            if result.hit_node is None:
                result.hit_node = node
                result.hit_value = value
            # Every hit node replies along the reverse flood tree
            # (FLOODING sends multiple redundant replies, Section 4.4).
            if node == origin:
                delivered_any = True
                record_event(net, "reply", src=origin, dst=origin,
                             success=True, mechanism="local")
                continue
            reply = send_reply(net, outcome.reverse_path(node),
                               reduction=True)
            result.messages += reply.messages
            result.routing_messages += reply.routing_messages
            delivered_any = delivered_any or reply.success
        if result.found:
            result.reply_delivered = delivered_any
            result.success = delivered_any
        else:
            result.success = outcome.coverage >= min(target_size,
                                                     net.n_alive)
        return result


# ---------------------------------------------------------------------------
# RANDOM-OPT (Section 4.5)
# ---------------------------------------------------------------------------


class RandomOptStrategy(AccessStrategy):
    """Cross-layer optimised RANDOM (Section 4.5).

    Messages are still routed to uniformly random targets, but every
    *intermediate* node on the route passes the message to the location
    layer: lookups probe (and halt the forwarding on a hit, replying to the
    originator), advertisements are stored en route.  Reaching an effective
    quorum of ``sqrt(n ln n)`` nodes only takes ~``ln n`` routed messages.

    Note (paper): RANDOM-OPT accesses are *not* uniformly random, so it
    cannot serve as the RANDOM side of the mix-and-match lemma.
    """

    name = "RANDOM-OPT"
    uniform_random = False

    def __init__(self, membership: Any, initiations: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.membership = membership
        self.initiations = initiations
        self.rng = rng

    def _rng(self, net: SimNetwork) -> random.Random:
        return self.rng or net.rngs.stream("random-opt-strategy")

    def default_initiations(self, net: SimNetwork) -> int:
        """The paper's finding: ~ln(n) initiations give 0.9 intersection."""
        return max(1, int(round(math.log(max(2, net.n_alive)))))

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=target_size)
        rng = self._rng(net)
        stored: Set[int] = set()
        initiations = self.initiations or self.default_initiations(net)
        sent = 0
        # Keep initiating routed sends until both the initiation budget is
        # used AND the en-route quorum reached the target size.
        while sent < initiations or len(stored) < target_size:
            targets = self.membership.sample_for(origin, 1, rng)
            if not targets:
                break
            target = targets[0]
            sent += 1
            path, routing_cost = net.discover_path(origin, target)
            result.routing_messages += routing_cost
            if path is None:
                continue
            for a, b in zip(path, path[1:]):
                result.messages += 1
                if not net.one_hop_unicast(a, b):
                    break
                if b not in stored:
                    stored.add(b)
                    store_fn(b)
            if sent > initiations + 4 * target_size:
                break  # safety: degenerate topologies
        if origin not in stored:
            stored.add(origin)
            store_fn(origin)
        result.quorum = sorted(stored)
        result.success = len(stored) >= min(target_size, net.n_alive)
        return result

    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        """Send ``initiations`` lookup messages to random targets; every
        en-route node performs a local lookup and a hit halts forwarding."""
        result = AccessResult(strategy=self.name, kind="lookup",
                              target_size=target_size)
        rng = self._rng(net)
        probed: Set[int] = set()
        initiations = self.initiations or self.default_initiations(net)

        def probe(node: int) -> Optional[Any]:
            if node in probed:
                return None
            probed.add(node)
            return probe_fn(node)

        # The originator itself is part of the lookup quorum.
        value = probe(origin)
        if value is not None:
            result.found = True
            result.hit_node = origin
            result.hit_value = value
            result.reply_delivered = True
            record_event(net, "reply", src=origin, dst=origin,
                         success=True, mechanism="local")

        delivered_any = bool(result.found)
        for _ in range(initiations):
            targets = self.membership.sample_for(origin, 1, rng)
            if not targets:
                break
            target = targets[0]
            path, routing_cost = net.discover_path(origin, target)
            result.routing_messages += routing_cost
            if path is None:
                continue
            for a, b in zip(path, path[1:]):
                result.messages += 1
                if not net.one_hop_unicast(a, b):
                    break
                value = probe(b)
                if value is not None:
                    result.found = True
                    if result.hit_node is None:
                        result.hit_node = b
                        result.hit_value = value
                    # The hit node replies via routing and instructs its
                    # network layer to stop forwarding the lookup.
                    reply = net.route(b, origin)
                    result.messages += reply.data_messages
                    result.routing_messages += reply.routing_messages
                    record_event(net, "reply", src=b, dst=origin,
                                 success=reply.success, mechanism="routed")
                    delivered_any = delivered_any or reply.success
                    break
        result.quorum = sorted(probed)
        if result.found:
            result.reply_delivered = delivered_any
            result.success = delivered_any
        else:
            result.success = True  # access completed (miss is a valid outcome)
        return result
