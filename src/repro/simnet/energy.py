"""Per-node energy accounting (Section 4.4's energy argument).

The paper argues broadcast is "less energy efficient than sending
point-to-point messages": broadcasts are sent at the low 2 Mbps rate (long
airtime) and wake every node in range, while the 802.11 power-save mode
(PSM) that can sleep idle nodes is *disabled* by broadcast traffic.  This
model captures that asymmetry so strategies can be compared on energy as
well as message count:

* a unicast frame charges the sender one TX unit and the addressed
  receiver one RX unit; other nodes in range only pay the cheap
  header-decode cost (they drop the frame after the MAC header);
* a broadcast frame charges the (slower) broadcast TX rate and a *full*
  RX cost at every node in range — nobody can sleep through it.

Costs default to airtime-proportional values derived from the paper's
PHY rates (11 Mbps unicast vs 2 Mbps broadcast for 512-byte payloads).

The ledger stores **integer frame counts** and multiplies by the
:class:`EnergyModel` only when read.  Integers commute, so no read
depends on the order of the charges: a path charged in one step and its
hops charged one unicast at a time give bit-equal energy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

#: Path charges are folded at the next read, or once this many wait.
MAX_PENDING_PATHS = 4096


@dataclass(frozen=True)
class EnergyModel:
    """Relative energy costs per frame event (units: one unicast TX)."""

    tx_unicast: float = 1.0
    rx_unicast: float = 0.8
    # 512B at 2 Mbps takes 5.5x the airtime of 11 Mbps: broadcasting is
    # intrinsically more expensive per frame.
    tx_broadcast: float = 5.5
    rx_broadcast: float = 4.4
    overhear_header: float = 0.05  # non-addressed nodes decode the header


class EnergyLedger:
    """Per-node and aggregate energy spent, kept as frame counts."""

    def __init__(self, model: Optional[EnergyModel] = None) -> None:
        self.model = model or EnergyModel()
        self._unicast_tx: Counter = Counter()
        self._unicast_rx: Counter = Counter()
        self._broadcast_tx: Counter = Counter()
        # Aggregated: we do not know the bystanders' ids cheaply; totals
        # read back as a shared bucket keyed -1 keep the sum honest
        # without n^2 bookkeeping.
        self._overheard = 0
        self._broadcast_rx = 0
        self._pending: List[Sequence[int]] = []

    # -- charging ------------------------------------------------------------

    def charge_unicast(self, sender: int, receiver: int,
                       bystanders: int = 0) -> None:
        self._unicast_tx[sender] += 1
        self._unicast_rx[receiver] += 1
        if bystanders > 0:  # header decodes by in-range non-addressees
            self._overheard += bystanders

    def charge_failed_unicast(self, sender: int) -> None:
        """A frame whose receiver is gone still costs the sender airtime."""
        self._unicast_tx[sender] += 1

    def charge_broadcast(self, sender: int, receivers: int) -> None:
        self._broadcast_tx[sender] += 1
        self._broadcast_rx += receivers

    def charge_path(self, path: Sequence[int], bystanders: int) -> None:
        """One delivered unicast per hop of ``path``, in O(1).

        ``bystanders`` sums the header decodes over the hops: the one
        part of the charge that depends on the topology, so the caller
        takes it from the table now.  The path is kept by reference
        (never mutate it afterwards) and counted at the next read.
        """
        self._overheard += bystanders
        self._pending.append(path)
        if len(self._pending) >= MAX_PENDING_PATHS:
            self._fold()

    def _fold(self) -> None:
        """Count the pending paths' senders and receivers."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        visits = np.bincount(np.fromiter(chain.from_iterable(pending),
                                         dtype=np.intp))
        # A path's last node sends no frame, its first receives none.
        for tally, idle in (
                (self._unicast_tx, [path[-1] for path in pending]),
                (self._unicast_rx, [path[0] for path in pending])):
            frames = visits - np.bincount(idle, minlength=len(visits))
            charged = np.flatnonzero(frames)
            tally.update(dict(zip(charged.tolist(),
                                  frames[charged].tolist())))

    # -- reading -------------------------------------------------------------
    # Functions of the counts alone; keys are sorted, so not even a float
    # sum over the values can see the order of the charges.

    @property
    def per_node(self) -> Counter:
        """Energy spent per node id; ``-1`` holds the bystanders' share."""
        self._fold()
        model = self.model
        tx, rx, btx = self._unicast_tx, self._unicast_rx, self._broadcast_tx
        spent = Counter({
            node: (tx[node] * model.tx_unicast + rx[node] * model.rx_unicast
                   + btx[node] * model.tx_broadcast)
            for node in sorted(tx.keys() | rx.keys() | btx.keys())})
        if self._overheard or self._broadcast_rx:
            spent[-1] = (self._overheard * model.overhear_header
                         + self._broadcast_rx * model.rx_broadcast)
        return spent

    @property
    def total(self) -> float:
        return sum(self.per_node.values())

    def spent_by(self, node_id: int) -> float:
        return self.per_node.get(node_id, 0.0)

    def max_node_share(self) -> float:
        """Largest single-node share of the total (hot-spot indicator)."""
        spent = self.per_node
        total = sum(spent.values())
        named = [v for k, v in spent.items() if k >= 0]
        if not named or total <= 0:
            return 0.0
        return max(named) / total
