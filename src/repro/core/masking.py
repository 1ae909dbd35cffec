"""Masking probabilistic quorums: a vote-threshold reply filter.

Crash-fault probabilistic quorums accept the first reply a lookup quorum
returns; a single Byzantine replica can therefore hand back a fabricated
value.  Masking quorums (Malkhi–Reiter, and the probabilistic variant of
Malkhi–Reiter–Wright) size quorums so the advertise/lookup intersection
holds at least ``2b + 1`` members with probability ``1 - eps``; with at
most ``b`` adversarial replicas the *honest* part of the intersection
(``>= b + 1``) then outvotes every fabrication, which can gather at most
``b`` votes.

:class:`MaskingStrategy` wraps any :class:`AccessStrategy` (typically
``RandomStrategy`` — the inner strategy must probe its whole quorum, not
halt early, for votes to accumulate) and applies the ``b + 1`` threshold
to the collected replies:

* a reply with ``>= b + 1`` matching votes wins (``found``; the highest
  version among confirmed candidates is returned),
* two *conflicting* confirmed candidates mark the result
  ``found_corrupt`` (only possible when the threshold is under-sized
  for the live adversary),
* replies exist but none reach the threshold: the result is ``masked``
  — the lookup reports a miss rather than risk a fabrication.

Votes aggregate by *value* (via the service's ``access_vote_key``
annotation), not by (value, version) pair, so honest replicas skewed
across refresh epochs still corroborate each other; versions order the
confirmed candidates.  Sizing lives in
:mod:`repro.analysis.intersection` (``masking_quorum_size``,
``masking_vote_threshold``).
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.analysis.intersection import masking_vote_threshold
from repro.core.strategies import (
    AccessResult,
    AccessStrategy,
    SimNetwork,
    _reply_version,
)


class MaskingStrategy(AccessStrategy):
    """Vote-threshold (b-masking) filter over an inner access strategy.

    Advertises delegate untouched; lookups collect every probe reply and
    only accept a value corroborated by ``b+1`` distinct replicas.  The
    filter only observes the probe callback,
    which the batched kernels and the per-event code drive identically.
    """

    def __init__(self, inner: AccessStrategy, b: int) -> None:
        if b < 0:
            raise ValueError("b must be non-negative")
        self.inner = inner
        self.b = b
        self.threshold = masking_vote_threshold(b)
        self.name = f"MASKING[b={b},{inner.name}]"
        self.uniform_random = inner.uniform_random

    def _advertise(self, net: SimNetwork, origin: int,
                   store_fn: Callable[[int], Any],
                   target_size: int) -> AccessResult:
        result = self.inner._advertise(net, origin, store_fn, target_size)
        result.strategy = self.name
        return result

    def _lookup(self, net: SimNetwork, origin: int,
                probe_fn: Callable[[int], Any],
                target_size: int) -> AccessResult:
        vote_key = getattr(probe_fn, "access_vote_key", None)
        version_of = getattr(probe_fn, "access_version_of", None)
        # Tally rows: [identity, best_version, votes, best_node, best_reply]
        tally: List[List[Any]] = []

        def collecting(node: int) -> Any:
            reply = probe_fn(node)
            if reply is None:
                return None
            identity = vote_key(reply) if vote_key is not None else reply
            version = _reply_version(version_of, reply)
            for row in tally:
                if row[0] == identity:
                    row[2] += 1
                    if version is not None and (row[1] is None
                                                or version > row[1]):
                        row[1], row[3], row[4] = version, node, reply
                    return reply
            tally.append([identity, version, 1, node, reply])
            return reply

        for attr in ("access_key", "access_version_of", "access_vote_key"):
            value = getattr(probe_fn, attr, None)
            if value is not None:
                setattr(collecting, attr, value)

        result = self.inner._lookup(net, origin, collecting, target_size)
        result.strategy = self.name

        confirmed = [row for row in tally if row[2] >= self.threshold]
        if confirmed:
            confirmed.sort(key=lambda row: (row[1] is not None,
                                            row[1] if row[1] is not None
                                            else 0, row[2]),
                           reverse=True)
            winner = confirmed[0]
            result.found = True
            result.hit_node = winner[3]
            result.hit_value = winner[4]
            result.found_corrupt = len(confirmed) > 1
        elif tally:
            # Replies exist but none is corroborated: mask the read.
            result.found = False
            result.masked = True
            result.hit_node = None
            result.hit_value = None
        return result
