"""Probabilistically linearizable read/write register (Section 10).

The classic quorum register construction (Attiya–Bar-Noy–Dolev) on top of a
probabilistic biquorum, as a one-key :class:`QuorumKVStore` whose leases
never expire: a write is a ``put`` (query a lookup quorum for the latest
timestamp, then propagate ``(counter+1, writer)`` to an advertise quorum),
and a read is a ``get`` followed by the ABD write-back of what it returns,
so a read that saw a value makes it visible to subsequent reads.

With probabilistic quorums the intersection — hence the register's
linearizability — holds with probability ``1 - eps`` per operation pair
(the paper: "these protocols in fact implement what is known as
probabilistic linearizability").

Note: the register needs the *collecting* semantics, so lookup strategies
should be constructed with early halting disabled — the query phase must
gather versions from the whole quorum, not stop at the first owner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List

from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.leases import ZERO_TS, Timestamp
from repro.core.strategies import AccessResult
from repro.services.kvstore import QuorumKVStore


@dataclass
class RegisterOpResult:
    """Outcome of one register operation with message accounting."""

    value: Any
    timestamp: Timestamp
    messages: int
    routing_messages: int
    phases: List[AccessResult]


def _result(value: Any, timestamp: Timestamp,
            phases: List[AccessResult]) -> RegisterOpResult:
    return RegisterOpResult(
        value=value, timestamp=timestamp,
        messages=sum(phase.messages for phase in phases),
        routing_messages=sum(phase.routing_messages for phase in phases),
        phases=phases)


class ProbabilisticRegister:
    """A single shared read/write register over a probabilistic biquorum."""

    #: The one kv key the register's value lives under.
    KEY = "register"

    def __init__(self, biquorum: ProbabilisticBiquorum) -> None:
        self.biquorum = biquorum
        self.net = biquorum.net
        self.kv = QuorumKVStore(biquorum, lease_ttl=math.inf)

    def write(self, origin: int, value: Any) -> RegisterOpResult:
        """Query for the latest timestamp, then store (ts+1, value)."""
        put = self.kv.put(origin, self.KEY, value)
        return _result(value, put.version, put.accesses)

    def read(self, origin: int) -> RegisterOpResult:
        """Query for the latest value, then write it back (read repair)."""
        got = self.kv.get(origin, self.KEY)
        if not got.ok:
            return _result(None, ZERO_TS, got.accesses)
        back = self.kv.write_back(origin, self.KEY, got.value, got.version)
        return _result(got.value, got.version, got.accesses + [back])
