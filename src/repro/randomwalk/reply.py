"""Reverse-path replies for random-walk lookups (Sections 6.2, 7.2).

When a PATH/UNIQUE-PATH lookup hits an advertisement, the storing node
sends the reply back along the reverse of the recorded walk path — no
routing involved.  Three mechanisms from the paper are implemented:

* **reply-path reduction** (Section 7.2): before forwarding to the next
  reverse hop ``u``, node ``v`` checks whether any *later* node on the
  reverse path is currently a neighbor, and if so skips straight to the one
  nearest the origin, shortening the reply path;
* **reply-path local repair** (Section 6.2): if the MAC reports the next
  reverse hop unreachable, ``v`` tries to reach subsequent path nodes with
  TTL-3 scoped routing instead of dropping the reply;
* **global fallback**: if even the last hop (the origin) cannot be reached
  within TTL 3, a full routed send is attempted (the paper: "v has no
  choice but to invoke routing to w with a large TTL"), unless disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.obs.profile import profiled
from repro.obs.trace import record_event
from repro.simnet.network import SimNetwork

DEFAULT_REPAIR_TTL = 3


@dataclass
class ReplyResult:
    """Outcome of sending one reply along a reverse walk path."""

    success: bool
    messages: int = 0           # network-layer data messages
    routing_messages: int = 0   # control messages spent on repairs
    local_repairs: int = 0
    global_repairs: int = 0
    dropped_at: Optional[int] = None
    hops_taken: int = 0
    nodes_traversed: Optional[List[int]] = None  # reply's actual path


def reverse_path_of(walk_path: Sequence[int]) -> List[int]:
    """Reverse path for a reply: from the hit node back to the originator.

    Loops in the walk are *erased* (when a node reappears, the detour
    between its occurrences is cut), so every consecutive pair in the
    result was an actual walk hop — the reply only traverses links the
    walk itself used.
    """
    rpath: List[int] = []
    index: dict = {}
    for node in reversed(list(walk_path)):
        if node in index:
            cut = index[node]
            for removed in rpath[cut + 1:]:
                del index[removed]
            del rpath[cut + 1:]
        else:
            index[node] = len(rpath)
            rpath.append(node)
    return rpath


@profiled("reply.deliver")
def send_reply(
    net: SimNetwork,
    reverse_path: Sequence[int],
    reduction: bool = True,
    local_repair: bool = False,
    repair_ttl: int = DEFAULT_REPAIR_TTL,
    allow_global_repair: bool = True,
) -> ReplyResult:
    """Deliver a reply from ``reverse_path[0]`` to ``reverse_path[-1]``.

    Returns the delivery outcome plus the full message accounting.  With
    both repairs disabled this reproduces the fragile behaviour of
    Figure 13 (replies dropped under fast mobility); with
    ``local_repair=True`` it reproduces Figure 14.
    """
    rpath = list(reverse_path)
    if not rpath:
        empty = ReplyResult(success=False)
        record_event(net, "reply", src=None, dst=None, success=False,
                     mechanism="reverse-path", hops=0)
        return empty
    origin = rpath[-1]
    result = ReplyResult(success=False, nodes_traversed=[rpath[0]])

    def _trace() -> None:
        record_event(net, "reply", src=rpath[0], dst=origin,
                     success=result.success, mechanism="reverse-path",
                     hops=result.hops_taken)

    pos = 0
    current = rpath[0]
    if current == origin:
        result.success = True
        _trace()
        return result

    while current != origin:
        # Choose the next target: reduction jumps to the latest path node
        # that is currently a direct neighbor.
        next_index = pos + 1
        if reduction:
            neighbors = set(net.known_neighbors(current))
            for j in range(len(rpath) - 1, pos, -1):
                if rpath[j] in neighbors:
                    next_index = j
                    break
        target = rpath[next_index]
        result.messages += 1
        if net.one_hop_unicast(current, target):
            current = target
            pos = next_index
            result.hops_taken += 1
            result.nodes_traversed.append(current)
            continue

        # MAC failure: target moved away or died.
        if not local_repair:
            result.dropped_at = current
            _trace()
            return result

        repaired = False
        for j in range(next_index, len(rpath)):
            candidate = rpath[j]
            if not net.is_alive(candidate):
                continue
            is_last = candidate == origin
            scoped = net.scoped_route(current, candidate, max_hops=repair_ttl)
            result.routing_messages += scoped.routing_messages
            result.messages += scoped.data_messages
            if scoped.success:
                result.local_repairs += 1
                current = candidate
                pos = j
                result.hops_taken += scoped.hops
                result.nodes_traversed.extend(scoped.path[1:])
                repaired = True
                break
            if is_last and allow_global_repair:
                routed = net.route(current, origin)
                result.routing_messages += routed.routing_messages
                result.messages += routed.data_messages
                if routed.success:
                    result.global_repairs += 1
                    current = origin
                    pos = len(rpath) - 1
                    result.hops_taken += routed.hops
                    result.nodes_traversed.extend(routed.path[1:])
                    repaired = True
                break
        if not repaired:
            result.dropped_at = current
            _trace()
            return result

    result.success = True
    _trace()
    return result
