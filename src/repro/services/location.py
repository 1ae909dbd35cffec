"""Data location service / distributed dictionary on top of a biquorum
(Sections 2.1, 7.1 and the paper's driving application).

Publishing a (key, value) mapping stores it at every member of an advertise
quorum; looking a key up probes a lookup quorum.  The probabilistic
intersection of the two quorums is what makes lookups succeed.

Implements the location-service-specific optimizations of Section 7.1:

* **early halting** comes for free from the PATH strategies (the probe
  functions given to the strategies return the stored value, letting the
  walk stop on the first hit);
* **caching**: nodes distinguish *owners* (advertise quorum members, which
  must retain the entry) from *bystanders* (nodes that merely saw the reply
  pass by, which cache it in a bounded LRU and may forget it any time).

Owners keep their entries in the services' one replica store, a
:class:`~repro.core.leases.LeaseTable` whose leases never expire; an
entry's timestamp is ``(version, origin)`` with versions from one
counter, so the newest advertise wins.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.leases import (LeasedEntry, LeaseTable, Timestamp,
                               reply_value, reply_version)
from repro.core.strategies import AccessResult


@dataclass
class AdvertiseReceipt:
    """Result of publishing a mapping."""

    key: Hashable
    version: int
    access: AccessResult

    @property
    def quorum(self) -> List[int]:
        return self.access.quorum

    @property
    def messages(self) -> int:
        return self.access.messages


@dataclass
class LookupReceipt:
    """Result of a lookup."""

    key: Hashable
    found: bool
    value: Any
    version: Optional[int]
    from_cache: bool
    access: Optional[AccessResult]

    @property
    def messages(self) -> int:
        return self.access.messages if self.access is not None else 0


class LocationService:
    """Advertise/lookup dictionary with owner stores and bystander caches."""

    def __init__(self, biquorum: ProbabilisticBiquorum,
                 enable_caching: bool = False,
                 cache_capacity: int = 64) -> None:
        self.biquorum = biquorum
        self.net = biquorum.net
        self.enable_caching = enable_caching
        self.cache_capacity = cache_capacity
        # React to *committed* failures only — a churn rollback
        # (connectivity-preserving probe) must not wipe bystander caches.
        register = getattr(self.net, "add_failure_listener", None)
        if register is not None:
            register(self.evict_bystander_state)
        self.table = LeaseTable(self.net)
        # bystander caches: node -> LRU of key -> (value, version)
        self._caches: Dict[int, OrderedDict] = {}
        self._versions = itertools.count(1)
        self._advertised: Dict[Hashable, Tuple[int, Any, int]] = {}
        # key -> (origin, value, version): used by refresh/readvertise

    # -- node-local storage ------------------------------------------------

    def owner_lookup(self, node: int, key: Hashable) -> Optional[LeasedEntry]:
        return self.table.visible(node, key)

    def cache_at(self, node: int, key: Hashable, value: Any,
                 version: int) -> None:
        if not self.enable_caching:
            return
        cache = self._caches.setdefault(node, OrderedDict())
        cache[key] = (value, version)
        cache.move_to_end(key)
        while len(cache) > self.cache_capacity:
            cache.popitem(last=False)

    def cache_lookup(self, node: int, key: Hashable) -> Optional[Tuple[Any, int]]:
        if not self.enable_caching:
            return None
        cache = self._caches.get(node)
        if cache is None or key not in cache:
            return None
        cache.move_to_end(key)
        return cache[key]

    def evict_bystander_state(self, node: int) -> None:
        """Simulate a node running low on memory: forget all cached entries
        for which it is a mere bystander (it keeps its owned entries)."""
        self._caches.pop(node, None)

    def owners_of(self, key: Hashable) -> List[int]:
        """Alive nodes currently owning the mapping (debug/metrics)."""
        return self.table.holders(key)

    # -- the service API --------------------------------------------------

    def advertise(self, origin: int, key: Hashable, value: Any) -> AdvertiseReceipt:
        """Publish ``key -> value`` to an advertise quorum."""
        version = next(self._versions)
        ts = Timestamp(version, origin)

        def store_fn(node: int) -> None:
            self.table.store(node, LeasedEntry(
                key=key, value=value, ts=ts, stored_at=self.net.now,
                ttl=math.inf))

        # Key/version context for trace events (read by the invariant
        # watchers, which cross-check replies against prior stores).
        store_fn.access_key = key
        store_fn.access_version = version

        access = self.biquorum.write(origin, store_fn)
        self._advertised[key] = (origin, value, version)
        return AdvertiseReceipt(key=key, version=version, access=access)

    def lookup(self, origin: int, key: Hashable) -> LookupReceipt:
        """Find a value for ``key`` by probing a lookup quorum."""
        # Local owner store and bystander cache first (free).
        local = self.owner_lookup(origin, key)
        if local is not None:
            return LookupReceipt(key=key, found=True, value=local.value,
                                 version=local.ts.counter, from_cache=False,
                                 access=None)
        cached = self.cache_lookup(origin, key)
        if cached is not None:
            return LookupReceipt(key=key, found=True, value=cached[0],
                                 version=cached[1], from_cache=True,
                                 access=None)

        def probe_fn(node: int) -> Optional[Any]:
            entry = self.owner_lookup(node, key)
            if entry is not None:
                return (entry.value, entry.ts.counter)
            hit = self.cache_lookup(node, key)
            if hit is not None:
                return hit
            return None

        probe_fn.access_key = key
        # Replies are (value, version) pairs: tell the tracing layer how
        # to extract the version, and the masking filter which component
        # identifies a candidate (votes aggregate across versions of the
        # same value, so refresh-skewed honest replicas still agree).
        probe_fn.access_version_of = reply_version
        probe_fn.access_vote_key = reply_value

        access = self.biquorum.read(origin, probe_fn)
        found = bool(access.found and (access.reply_delivered
                                       or access.reply_delivered is None))
        value = None
        version = None
        if found and access.hit_value is not None:
            value, version = access.hit_value
            self.cache_at(origin, key, value, version)
        return LookupReceipt(key=key, found=found, value=value,
                             version=version, from_cache=False,
                             access=access)

    # -- maintenance (Section 6.1) ------------------------------------------

    def advertised_keys(self) -> List[Hashable]:
        return list(self._advertised)

    def readvertise(self, key: Hashable) -> Optional[AdvertiseReceipt]:
        """Refresh one mapping (quorum refresh after churn).

        Re-publishes from the original origin if it is still alive,
        otherwise from any surviving owner.
        """
        if key not in self._advertised:
            return None
        origin, value, _version = self._advertised[key]
        if not self.net.is_alive(origin):
            owners = self.owners_of(key)
            if not owners:
                return None
            origin = owners[0]
        return self.advertise(origin, key, value)

    def readvertise_all(self) -> List[AdvertiseReceipt]:
        """Refresh every known mapping (the degradation-rate-driven refresh)."""
        receipts = []
        for key in self.advertised_keys():
            receipt = self.readvertise(key)
            if receipt is not None:
                receipts.append(receipt)
        return receipts
