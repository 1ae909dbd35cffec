"""Adversarial (Byzantine) replica behaviors for fault campaigns.

The crash-fault campaigns in :mod:`repro.faults.campaign` perturb the
*network*; the behaviors here corrupt the *replicas themselves*, in the
style of "The Load and Availability of Byzantine Quorum Systems"
(Malkhi et al.).  A :class:`ByzantineRegistry` hangs off the network as
``net.byzantine`` and interposes on every advertise/lookup callback in
:meth:`AccessStrategy._run_attempt` — *inside* the tracing wrappers, so
the event trace records the protocol's (deceived) view of the world:

* ``lie`` — replies to every probe with a fabricated ``(value,
  version)`` (node-salted, so two liars never corroborate each other);
  stores pass through untouched.
* ``stale`` — acknowledges stores but discards them, freezing the
  replica at its pre-attach snapshot; probes serve the frozen state.
* ``drop`` — acknowledges stores, discards them, *and* denies probes
  (returns a miss).  A silent storage black hole.
* ``capture`` — targeted quorum capture: as advertise sets form, each
  new member is captured with probability ``fraction`` (optionally for
  a single key, optionally capped at ``max_nodes`` per key); captured
  replicas serve fabricated replies for the captured key.

Detection story: ``lie``/``capture`` fabricate versions that were never
stored, tripping the ``no-fabricated-value`` watcher the moment a
fabrication wins an access; ``drop``/``stale`` silently shrink the
effective advertise quorum, tripping the sequential
``quorum-intersection`` test.  Masking quorums
(:class:`repro.core.masking.MaskingStrategy`) defeat all four provided
the per-lookup adversary count stays at or below the masking budget
``b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

#: Fabricated versions live far above anything the services hand out, so
#: a fabrication is recognisable in traces (and can never collide with a
#: legitimately stored version in tests).
FABRICATED_VERSION_BASE = 10 ** 9

BYZANTINE_BEHAVIORS = ("lie", "stale", "drop", "capture")


def fabricated_reply(node: int) -> Tuple[str, int]:
    """The ``(value, version)`` a lying replica invents.

    Salted with the node id: independent liars never agree on a value,
    so a fabrication can gather at most one vote per corrupt replica —
    the premise of the ``b + 1`` masking vote threshold.
    """
    return (f"<byz:{node}>", FABRICATED_VERSION_BASE + int(node))


class CaptureSpec:
    """State for one targeted-capture injection.

    Capture decisions are drawn lazily, at store time, from the
    campaign's dedicated ``faults`` RNG stream: each ``(key, node)``
    pair is decided at most once (re-advertising to the same replica
    does not re-roll), and ``max_nodes`` caps the captured set per key
    so a masking budget sized for the campaign stays sufficient.
    """

    def __init__(self, fraction: float, rng: Any,
                 key: Optional[str] = None,
                 max_nodes: Optional[int] = None) -> None:
        self.fraction = fraction
        self.rng = rng
        self.key = key
        self.max_nodes = max_nodes
        self._decided: Set[Tuple[Any, int]] = set()
        self.marks: Dict[Any, Set[int]] = {}

    def on_store(self, registry: "ByzantineRegistry", key: Any,
                 node: int) -> None:
        if self.key is not None and key != self.key:
            return
        if (key, node) in self._decided:
            return
        self._decided.add((key, node))
        captured = self.marks.setdefault(key, set())
        if self.max_nodes is not None and len(captured) >= self.max_nodes:
            return
        if self.rng.random() < self.fraction:
            captured.add(node)
            registry.captured.setdefault(key, set()).add(node)
            registry.net.metrics.counter("byz.captures").inc()


class ByzantineRegistry:
    """The set of currently-adversarial replicas on one network.

    Attached lazily as ``net.byzantine`` (``None`` on honest networks,
    so the access hot path pays a single attribute check).  Node modes
    are exclusive — attaching a node to a second behavior overwrites the
    first — and every wrapper preserves the ``access_key`` /
    ``access_version`` / ``access_version_of`` / ``access_vote_key``
    annotations the tracing layer and masking filter read.
    """

    def __init__(self, net: Any) -> None:
        self.net = net
        self.modes: Dict[int, str] = {}
        self.captured: Dict[Any, Set[int]] = {}
        self.capture_specs: List[CaptureSpec] = []

    @property
    def active(self) -> bool:
        return bool(self.modes or self.capture_specs)

    def attach(self, nodes: Sequence[int], mode: str) -> None:
        if mode not in ("lie", "stale", "drop"):
            raise ValueError(f"unknown byzantine node mode {mode!r}")
        for node in nodes:
            self.modes[int(node)] = mode

    def detach(self, nodes: Sequence[int], mode: str) -> None:
        for node in nodes:
            if self.modes.get(int(node)) == mode:
                del self.modes[int(node)]

    def add_capture(self, spec: CaptureSpec) -> None:
        self.capture_specs.append(spec)

    def remove_capture(self, spec: CaptureSpec) -> None:
        if spec in self.capture_specs:
            self.capture_specs.remove(spec)
        for key, nodes in spec.marks.items():
            remaining = self.captured.get(key)
            if remaining is None:
                continue
            remaining -= nodes
            if not remaining:
                del self.captured[key]
        spec.marks.clear()

    # -- access-path interposition ------------------------------------

    def wrap_store(self, store_fn: Callable[[int], Any]) -> Callable[[int], Any]:
        """Interpose on an advertise callback (ack-then-discard, capture)."""
        key = getattr(store_fn, "access_key", None)
        registry = self

        def byzantine_store(node: int) -> Any:
            mode = registry.modes.get(node)
            if mode in ("stale", "drop"):
                # Acknowledge upstream (the traced store event is still
                # recorded) but never apply the write.
                registry.net.metrics.counter("byz.stores_discarded").inc()
                return None
            result = store_fn(node)
            if key is not None and registry.capture_specs:
                for spec in registry.capture_specs:
                    spec.on_store(registry, key, node)
            return result

        byzantine_store.access_key = key
        version = getattr(store_fn, "access_version", None)
        if version is not None:
            byzantine_store.access_version = version
        return byzantine_store

    def wrap_probe(self, probe_fn: Callable[[int], Any]) -> Callable[[int], Any]:
        """Interpose on a lookup callback (fabrications, denials)."""
        key = getattr(probe_fn, "access_key", None)
        registry = self

        def byzantine_probe(node: int) -> Any:
            mode = registry.modes.get(node)
            if mode == "lie":
                registry.net.metrics.counter("byz.lies").inc()
                return fabricated_reply(node)
            if mode == "drop":
                registry.net.metrics.counter("byz.denials").inc()
                return None
            if key is not None and node in registry.captured.get(key, ()):
                registry.net.metrics.counter("byz.lies").inc()
                return fabricated_reply(node)
            return probe_fn(node)

        byzantine_probe.access_key = key
        for attr in ("access_version_of", "access_vote_key"):
            value = getattr(probe_fn, attr, None)
            if value is not None:
                setattr(byzantine_probe, attr, value)
        return byzantine_probe


def ensure_byzantine(net: Any) -> ByzantineRegistry:
    """The network's registry, created on first use."""
    registry = getattr(net, "byzantine", None)
    if registry is None:
        registry = ByzantineRegistry(net)
        net.byzantine = registry
    return registry


@dataclass(frozen=True)
class ByzantineBehavior:
    """Campaign injection: turn a fraction of replicas adversarial.

    For ``lie``/``stale``/``drop`` the victims are drawn once at
    ``begin`` from the alive nodes (``faults`` RNG
    stream); for ``capture`` the corruption is drawn lazily per
    advertise-set member (see :class:`CaptureSpec`).  ``duration = 0``
    means the behavior persists until ``CampaignRunner.stop()`` unwinds
    it; either way ``end`` restores every mark this injection made.
    """

    at: float
    behavior: str
    fraction: float = 0.1
    duration: float = 0.0
    key: Optional[str] = None
    max_nodes: Optional[int] = None
    type: str = "byzantine"

    def begin(self, runner: Any) -> None:
        if self.behavior not in BYZANTINE_BEHAVIORS:
            raise ValueError(
                f"unknown byzantine behavior {self.behavior!r}; pick from "
                f"{BYZANTINE_BEHAVIORS}")
        registry = ensure_byzantine(runner.net)
        if self.behavior == "capture":
            spec = CaptureSpec(self.fraction, runner.rng, key=self.key,
                               max_nodes=self.max_nodes)
            registry.add_capture(spec)
            runner.byzantine_state[id(self)] = spec
            runner.net.record_event("fault", inject=self.type,
                                    phase="attach", behavior=self.behavior,
                                    nodes=[])
            return
        eligible = sorted(runner.net.alive_nodes())
        count = min(len(eligible), max(1, round(self.fraction * len(eligible))))
        victims = sorted(runner.rng.sample(eligible, count)) if count else []
        registry.attach(victims, self.behavior)
        runner.byzantine_state[id(self)] = victims
        runner.net.record_event("fault", inject=self.type, phase="attach",
                                behavior=self.behavior, nodes=list(victims))

    def end(self, runner: Any) -> None:
        registry = getattr(runner.net, "byzantine", None)
        state = runner.byzantine_state.pop(id(self), None)
        if registry is None or state is None:
            return
        if self.behavior == "capture":
            registry.remove_capture(state)
        else:
            registry.detach(state, self.behavior)
        runner.net.record_event("fault", inject=self.type, phase="detach",
                                behavior=self.behavior)
