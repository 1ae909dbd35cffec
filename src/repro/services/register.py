"""Probabilistically linearizable read/write register (Section 10).

The classic quorum register construction (Attiya–Bar-Noy–Dolev) on top of a
probabilistic biquorum: every operation runs a *query phase* against a
lookup quorum to learn the latest (timestamp, value), and writes run a
*propagate phase* storing the new version to an advertise quorum.  Reads
also write back what they return (the ABD read-repair), so a read that saw
a value makes it visible to subsequent reads.

With probabilistic quorums the intersection — hence the register's
linearizability — holds with probability ``1 - eps`` per operation pair
(the paper: "these protocols in fact implement what is known as
probabilistic linearizability").

Note: the register needs the *collecting* semantics, so lookup strategies
should be constructed with early halting disabled — the query phase must
gather versions from the whole quorum, not stop at the first owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.strategies import AccessResult


@dataclass(frozen=True)
class Timestamp:
    """Lamport-style version: (counter, writer id) with lexicographic order."""

    counter: int
    writer: int

    def __lt__(self, other: "Timestamp") -> bool:
        return (self.counter, self.writer) < (other.counter, other.writer)

    def next_for(self, writer: int) -> "Timestamp":
        return Timestamp(counter=self.counter + 1, writer=writer)


ZERO_TS = Timestamp(counter=0, writer=-1)


@dataclass
class RegisterOpResult:
    """Outcome of one register operation with message accounting."""

    value: Any
    timestamp: Timestamp
    messages: int
    routing_messages: int
    phases: List[AccessResult]


class ProbabilisticRegister:
    """A single shared read/write register over a probabilistic biquorum."""

    def __init__(self, biquorum: ProbabilisticBiquorum) -> None:
        self.biquorum = biquorum
        self.net = biquorum.net
        # replica state: node -> (timestamp, value)
        self._replicas: Dict[int, Tuple[Timestamp, Any]] = {}

    # -- replica plumbing --------------------------------------------------

    def _store(self, node: int, ts: Timestamp, value: Any) -> None:
        current = self._replicas.get(node)
        if current is None or current[0] < ts:
            self._replicas[node] = (ts, value)

    def _read_replica(self, node: int) -> Optional[Tuple[Timestamp, Any]]:
        if not self.net.is_alive(node):
            return None
        return self._replicas.get(node)

    # -- phases ------------------------------------------------------------

    def _query_phase(self, origin: int) -> Tuple[Timestamp, Any, AccessResult]:
        """Collect (ts, value) from a lookup quorum; return the maximum."""
        best: List[Tuple[Timestamp, Any]] = [(ZERO_TS, None)]

        def probe_fn(node: int) -> None:
            state = self._read_replica(node)
            if state is not None and best[0][0] < state[0]:
                best[0] = state
            return None  # collecting probe: never 'hits', never halts

        access = self.biquorum.read(origin, probe_fn)
        ts, value = best[0]
        return ts, value, access

    def _propagate_phase(self, origin: int, ts: Timestamp,
                         value: Any) -> AccessResult:
        def store_fn(node: int) -> None:
            self._store(node, ts, value)

        return self.biquorum.write(origin, store_fn)

    # -- operations ----------------------------------------------------------

    def write(self, origin: int, value: Any) -> RegisterOpResult:
        """Query for the latest timestamp, then store (ts+1, value)."""
        ts, _old, query = self._query_phase(origin)
        new_ts = ts.next_for(origin)
        self._store(origin, new_ts, value)
        prop = self._propagate_phase(origin, new_ts, value)
        return RegisterOpResult(
            value=value, timestamp=new_ts,
            messages=query.messages + prop.messages,
            routing_messages=query.routing_messages + prop.routing_messages,
            phases=[query, prop],
        )

    def read(self, origin: int) -> RegisterOpResult:
        """Query for the latest value, then write it back (read repair)."""
        ts, value, query = self._query_phase(origin)
        phases = [query]
        messages = query.messages
        routing = query.routing_messages
        if ts != ZERO_TS:
            prop = self._propagate_phase(origin, ts, value)
            phases.append(prop)
            messages += prop.messages
            routing += prop.routing_messages
        return RegisterOpResult(value=value, timestamp=ts, messages=messages,
                                routing_messages=routing, phases=phases)
