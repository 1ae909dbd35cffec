"""Fault-campaign schema and the deterministic campaign runner.

Campaign schema (JSON-serialisable via ``FaultCampaign.to_dict``)::

    {"name": "smoke",
     "injections": [
       {"type": "drop-burst",  "at": 5.0,  "duration": 10.0, "drop_prob": 0.3},
       {"type": "failure-wave", "at": 20.0, "fraction": 0.1,
        "keep_connected": true},
       {"type": "join-wave",   "at": 30.0, "fraction": 0.1},
       {"type": "partition",   "at": 40.0, "duration": 15.0, "axis": "x",
        "position": 0.5, "width": null},
       {"type": "staleness",   "at": 60.0, "duration": 20.0},
       {"type": "byzantine",   "at": 80.0, "duration": 20.0,
        "behavior": "lie", "fraction": 0.05}]}

Every injection fires at an absolute simulated time ``at``; injections
with a ``duration`` schedule a matching *end* action.  The runner draws
all randomness (failure-wave victims) from the deployment's dedicated
``faults`` RNG stream and timestamps come from the shared simulation
clock, so a campaign replayed on an identically-seeded network produces
an identical trace.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.byzantine import ByzantineBehavior
from repro.simnet.churn import apply_churn
from repro.simnet.network import SimNetwork, check_drop_prob


@dataclass(frozen=True)
class DropBurst:
    """Raise the per-hop drop probability for a window (interference).

    Overlapping bursts stack: each ``begin`` pushes its probability,
    each ``end`` removes its own entry and re-exposes whichever burst
    is still active (or the baseline), so an inner burst's end never
    clobbers an outer burst that is still running.
    """

    at: float
    duration: float
    drop_prob: float
    type: str = "drop-burst"

    def __post_init__(self) -> None:
        check_drop_prob(self.drop_prob)

    def begin(self, runner: "CampaignRunner") -> None:
        runner.drop_stack.append((id(self), self.drop_prob))
        runner.net.config.drop_prob = self.drop_prob

    def end(self, runner: "CampaignRunner") -> None:
        runner.drop_stack[:] = [entry for entry in runner.drop_stack
                                if entry[0] != id(self)]
        runner.net.config.drop_prob = (runner.drop_stack[-1][1]
                                       if runner.drop_stack
                                       else runner.baseline_drop_prob)


@dataclass(frozen=True)
class FailureWave:
    """Mass failure: a fraction of the alive nodes crash at once."""

    at: float
    fraction: float
    keep_connected: bool = True
    type: str = "failure-wave"

    def begin(self, runner: "CampaignRunner") -> None:
        apply_churn(runner.net, fail_fraction=self.fraction,
                    rng=runner.rng, keep_connected=self.keep_connected)


@dataclass(frozen=True)
class JoinWave:
    """Mass arrival: a fraction of the network size joins at once."""

    at: float
    fraction: float
    type: str = "join-wave"

    def begin(self, runner: "CampaignRunner") -> None:
        apply_churn(runner.net, join_fraction=self.fraction,
                    rng=runner.rng)


@dataclass(frozen=True)
class Partition:
    """Spatial partition: fail every node inside a band across the area.

    The band is perpendicular to ``axis`` at ``position`` (a fraction of
    the deployment side), ``width`` meters wide (default: the radio
    range, the narrowest band that actually severs geometric links).
    The partition heals after ``duration``: the band nodes revive.
    """

    at: float
    duration: float
    axis: str = "x"
    position: float = 0.5
    width: Optional[float] = None
    type: str = "partition"

    def band_nodes(self, net: SimNetwork) -> List[int]:
        side = net.config.side
        width = self.width if self.width is not None else net.config.radio_range
        center = self.position * side
        lo, hi = center - width / 2.0, center + width / 2.0
        coord = 0 if self.axis == "x" else 1
        return [node for node in net.alive_nodes()
                if lo <= net.position(node)[coord] <= hi]

    def begin(self, runner: "CampaignRunner") -> None:
        victims = self.band_nodes(runner.net)
        for node in victims:
            runner.net.fail_node(node)
        runner.net.invalidate_routes()
        runner.partition_victims[id(self)] = victims

    def end(self, runner: "CampaignRunner") -> None:
        for node in runner.partition_victims.pop(id(self), ()):
            runner.net.revive_node(node)
        runner.net.invalidate_routes()


@dataclass(frozen=True)
class StalenessWindow:
    """Membership staleness: freeze heartbeats and membership refreshes.

    The freeze is depth-counted on the runner: overlapping windows only
    thaw when the *last* one ends, so an inner window's end cannot
    silently resume refreshes under an outer window.
    """

    at: float
    duration: float
    type: str = "staleness"

    def begin(self, runner: "CampaignRunner") -> None:
        runner.staleness_depth += 1
        if runner.staleness_depth == 1:
            runner.net.suspend_neighbor_refresh()
            for membership in runner.memberships:
                membership.freeze()

    def end(self, runner: "CampaignRunner") -> None:
        runner.staleness_depth = max(0, runner.staleness_depth - 1)
        if runner.staleness_depth == 0:
            runner.net.resume_neighbor_refresh()
            for membership in runner.memberships:
                membership.thaw()


_INJECTION_TYPES = {
    "byzantine": ByzantineBehavior,
    "drop-burst": DropBurst,
    "failure-wave": FailureWave,
    "join-wave": JoinWave,
    "partition": Partition,
    "staleness": StalenessWindow,
}

Injection = Any  # any of the dataclasses above


@dataclass(frozen=True)
class FaultCampaign:
    """A named, ordered schedule of fault injections."""

    name: str
    injections: Tuple[Injection, ...]

    @property
    def duration(self) -> float:
        """Simulated time at which the last injection action happens."""
        end = 0.0
        for inj in self.injections:
            end = max(end, inj.at + getattr(inj, "duration", 0.0))
        return end

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "injections": [asdict(inj) for inj in self.injections]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultCampaign":
        injections = []
        for spec in data.get("injections", ()):
            spec = dict(spec)
            type_name = spec.pop("type", None)
            klass = _INJECTION_TYPES.get(type_name)
            if klass is None:
                raise ValueError(
                    f"unknown injection type {type_name!r}; pick from "
                    f"{sorted(_INJECTION_TYPES)}")
            injections.append(klass(**spec))
        return cls(name=str(data.get("name", "custom")),
                   injections=tuple(injections))


BUILTIN_CAMPAIGNS: Dict[str, FaultCampaign] = {
    "smoke": FaultCampaign("smoke", (
        DropBurst(at=5.0, duration=8.0, drop_prob=0.25),
        FailureWave(at=16.0, fraction=0.08),
        JoinWave(at=22.0, fraction=0.08),
        StalenessWindow(at=26.0, duration=6.0),
    )),
    "waves": FaultCampaign("waves", (
        FailureWave(at=10.0, fraction=0.1),
        FailureWave(at=30.0, fraction=0.1),
        FailureWave(at=50.0, fraction=0.1),
    )),
    "join-surge": FaultCampaign("join-surge", (
        JoinWave(at=10.0, fraction=0.15),
        JoinWave(at=25.0, fraction=0.15),
        JoinWave(at=40.0, fraction=0.15),
        JoinWave(at=55.0, fraction=0.15),
    )),
    "partition": FaultCampaign("partition", (
        Partition(at=10.0, duration=20.0, axis="x", position=0.5),
    )),
    "stress": FaultCampaign("stress", (
        DropBurst(at=5.0, duration=15.0, drop_prob=0.35),
        FailureWave(at=12.0, fraction=0.12),
        JoinWave(at=20.0, fraction=0.12),
        Partition(at=30.0, duration=15.0, axis="y", position=0.4),
        StalenessWindow(at=50.0, duration=15.0),
        FailureWave(at=58.0, fraction=0.1),
    )),
    "capture": FaultCampaign("capture", (
        ByzantineBehavior(at=1.0, duration=50.0, behavior="capture",
                          fraction=0.4, max_nodes=4),
        ByzantineBehavior(at=4.0, duration=40.0, behavior="lie",
                          fraction=0.02),
    )),
    "byzantine": FaultCampaign("byzantine", (
        ByzantineBehavior(at=2.0, duration=18.0, behavior="lie",
                          fraction=0.05),
        ByzantineBehavior(at=12.0, duration=16.0, behavior="drop",
                          fraction=0.05),
        ByzantineBehavior(at=24.0, duration=14.0, behavior="stale",
                          fraction=0.05),
        ByzantineBehavior(at=40.0, duration=14.0, behavior="capture",
                          fraction=0.3, max_nodes=3),
    )),
}


def load_campaign(name_or_path: str) -> FaultCampaign:
    """Resolve a builtin campaign name or a JSON schema file path."""
    if name_or_path in BUILTIN_CAMPAIGNS:
        return BUILTIN_CAMPAIGNS[name_or_path]
    try:
        with open(name_or_path, "r") as handle:
            return FaultCampaign.from_dict(json.load(handle))
    except FileNotFoundError:
        raise ValueError(
            f"unknown campaign {name_or_path!r}: not a builtin "
            f"({sorted(BUILTIN_CAMPAIGNS)}) and no such file")


class CampaignRunner:
    """Drives a :class:`FaultCampaign` through a live network.

    All begin/end actions are scheduled on the network's simulation
    clock at :meth:`start`; victim selection draws from the dedicated
    ``faults`` RNG stream.  Every action records a ``fault`` trace event
    (``inject``/``phase``/``index`` fields) so offline summaries show
    the campaign timeline alongside the protocol events.
    """

    def __init__(self, net: SimNetwork, campaign: FaultCampaign,
                 memberships: Sequence[Any] = ()) -> None:
        self.net = net
        self.campaign = campaign
        self.memberships = tuple(memberships)
        self.rng = net.rngs.stream("faults")
        self.baseline_drop_prob = net.config.drop_prob
        self.partition_victims: Dict[int, List[int]] = {}
        self.drop_stack: List[Tuple[int, float]] = []
        self.staleness_depth = 0
        self.byzantine_state: Dict[int, Any] = {}
        self.injections_applied = 0
        self._events: List[Any] = []
        self._active: List[int] = []
        self._started = False

    def start(self) -> "CampaignRunner":
        """Schedule every injection; idempotent."""
        if self._started:
            return self
        self._started = True
        now = self.net.now
        for index, inj in enumerate(self.campaign.injections):
            self._events.append(self.net.sim.schedule_at(
                max(now, inj.at), self._begin, index))
        return self

    def _begin(self, index: int) -> None:
        inj = self.campaign.injections[index]
        self.net.record_event("fault", inject=inj.type, phase="begin",
                              index=index)
        inj.begin(self)
        self.injections_applied += 1
        if hasattr(inj, "end"):
            # Track by schedule index (frozen dataclasses compare by
            # value, so identical injections would alias each other).
            # duration == 0 means "until stop()": active, no end event.
            self._active.append(index)
            if getattr(inj, "duration", 0.0) > 0:
                self._events.append(self.net.sim.schedule(
                    inj.duration, self._end, index))

    def _end(self, index: int) -> None:
        inj = self.campaign.injections[index]
        self.net.record_event("fault", inject=inj.type, phase="end",
                              index=index)
        inj.end(self)
        if index in self._active:
            self._active.remove(index)

    def stop(self) -> None:
        """Cancel pending actions and unwind still-active injections.

        Unwinding pops in reverse-begin order (LIFO), so nested
        injections restore state inside-out regardless of how their
        scheduled ends would have interleaved.
        """
        for event in self._events:
            event.cancel()
        self._events.clear()
        while self._active:
            index = self._active.pop()
            self.campaign.injections[index].end(self)
