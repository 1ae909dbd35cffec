"""Timed-quorum lease tables (PAPERS.md: "Timed Quorum Systems").

Every replica-held kv entry carries a lease: a TTL stamped at store
time.  An expired entry no longer answers probes — it is excluded from
votes (so lease filtering composes with
:class:`repro.core.masking.MaskingStrategy`, which only tallies replies
the probe function actually returns) — and is reclaimed *lazily*: the
next probe or store touching the replica's table drops it, there is no
background sweeper.

The table is strategy-agnostic: :class:`repro.services.kvstore.QuorumKVStore`
owns one and builds annotated probe/store callbacks over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Hashable, Optional

if TYPE_CHECKING:  # annotation-only; a runtime import would be circular
    from repro.services.register import Timestamp

__all__ = ["LeasedEntry", "LeaseTable"]


@dataclass
class LeasedEntry:
    """One replica-held versioned value with its lease window."""

    key: Hashable
    value: Any
    ts: Timestamp
    stored_at: float
    ttl: float

    @property
    def expires_at(self) -> float:
        return self.stored_at + self.ttl

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class LeaseTable:
    """Per-node ``key -> LeasedEntry`` stores with lazy expiry reclamation."""

    def __init__(self, net: Any) -> None:
        self.net = net
        self._tables: Dict[int, Dict[Hashable, LeasedEntry]] = {}

    # -- storing -----------------------------------------------------------

    def store(self, node: int, entry: LeasedEntry) -> None:
        """Install ``entry`` at ``node``; newest timestamp wins.

        A store also renews the slot: an expired older entry never blocks
        a fresh one, and re-storing the same timestamp extends the lease
        (the refresh path).
        """
        table = self._tables.setdefault(node, {})
        current = table.get(entry.key)
        if (current is None or current.ts < entry.ts
                or current.expired(self.net.now)
                or (current.ts == entry.ts
                    and entry.expires_at >= current.expires_at)):
            table[entry.key] = entry

    # -- probing -----------------------------------------------------------

    def visible(self, node: int, key: Hashable) -> Optional[LeasedEntry]:
        """The entry ``node`` may answer with *now*, or ``None``.

        Dead nodes and expired leases yield ``None``; an expired entry is
        reclaimed on the spot (lazy reclamation) and counted in the
        ``kv.lease.reclaimed`` metric.
        """
        table = self._tables.get(node)
        if table is None:
            return None
        entry = table.get(key)
        if entry is None:
            return None
        if entry.expired(self.net.now):
            del table[key]
            metrics = getattr(self.net, "metrics", None)
            if metrics is not None:
                metrics.counter("kv.lease.reclaimed").inc()
            return None
        if not self.net.is_alive(node):
            return None
        return entry
