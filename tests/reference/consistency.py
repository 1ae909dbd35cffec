"""The sequential register check: a test oracle for the ABD register.

With probabilistic quorums the ABD register construction implements
*probabilistic linearizability*: each operation pair misses the
linearization order with probability at most epsilon.
:class:`CheckedRegister` records a ``ProbabilisticRegister``'s operation
history and checks it against the sequential specification of a
read/write register, so tests can compare the empirical stale-read rate
with the epsilon the quorum sizing promised.

Operations in this simulator execute one at a time (the simulated clock
advances inside each), so the history is sequential and the check is
exact: a read is consistent iff it returns the value of the latest
preceding write (or the initial value if none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List

from repro.services.register import ProbabilisticRegister, RegisterOpResult


@dataclass
class OpRecord:
    """One completed register operation."""

    index: int
    kind: str            # "read" | "write"
    origin: int
    value: Any
    timestamp: Any
    messages: int


@dataclass
class ConsistencyReport:
    """Outcome of checking a recorded history."""

    reads: int
    stale_reads: int     # reads that returned an out-of-date value
    writes: int

    @property
    def stale_fraction(self) -> float:
        """Stale reads per read; NaN with no reads (the repo's degenerate
        -input convention — an empty history carries no evidence either
        way, which 0.0 would misreport as "perfectly consistent")."""
        if self.reads == 0:
            return math.nan
        return self.stale_reads / self.reads


class CheckedRegister:
    """A :class:`ProbabilisticRegister` wrapper that records its history."""

    def __init__(self, register: ProbabilisticRegister) -> None:
        self.register = register
        self.history: List[OpRecord] = []

    def write(self, origin: int, value: Any) -> RegisterOpResult:
        result = self.register.write(origin, value)
        self.history.append(OpRecord(
            index=len(self.history), kind="write", origin=origin,
            value=value, timestamp=result.timestamp,
            messages=result.messages))
        return result

    def read(self, origin: int) -> RegisterOpResult:
        result = self.register.read(origin)
        self.history.append(OpRecord(
            index=len(self.history), kind="read", origin=origin,
            value=result.value, timestamp=result.timestamp,
            messages=result.messages))
        return result

    def check(self, initial_value: Any = None) -> ConsistencyReport:
        """Validate every read against the latest *committed* write.

        Sequential histories only (which is what this simulator
        produces).  A read is stale iff the version it returned is
        strictly older than the version of the latest write committed
        before the read started — comparing *versions*, not values, so
        a read that races a write's delivery window but still returns
        the new (or a newer helper-propagated) timestamp is not
        miscounted as stale.  Records without timestamps (forged
        histories, pre-version traces) fall back to value equality.
        """
        latest_value = initial_value
        latest_ts = None
        reads = stale = writes = 0
        for op in self.history:
            if op.kind == "write":
                writes += 1
                latest_value = op.value
                if op.timestamp is not None and (
                        latest_ts is None or latest_ts < op.timestamp):
                    latest_ts = op.timestamp
            else:
                reads += 1
                if op.timestamp is not None and latest_ts is not None:
                    if op.timestamp < latest_ts:
                        stale += 1
                elif op.value != latest_value:
                    stale += 1
        return ConsistencyReport(reads=reads, stale_reads=stale,
                                 writes=writes)
