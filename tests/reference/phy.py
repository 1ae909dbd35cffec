"""PHY oracles and the packet-level tests' node environment.

:class:`repro.phy.channel._Channel` prunes its ledger down to what a
pending or future frame can still overlap, and resolves a frame from
cached per-transmitter link rows.  The stand-ins here undo one of those
at a time:

* the **never-forgetting** channels keep every transmission ever made
  and let the overlap predicate scan all of it — the semantics pruning
  must not change, at a cost that grows with the length of the run;
* the **scalar** channels resolve a frame the per-candidate way: a range
  query, then one ``position_of``, ``distance`` and path-loss call per
  candidate and per interferer.  The link rows must equal them bit for
  bit: same receivers, same powers, same counters.

:func:`fixed_env` is the one test environment: a real
:class:`~repro.stack.environment.StackEnvironment` over hand-placed nodes.
"""

from repro.mobility.models import FixedPlacement, MobilityManager
from repro.phy.channel import ProtocolChannel, SINRChannel
from repro.stack.environment import StackEnvironment


def fixed_env(sim, positions):
    """A static ``StackEnvironment`` with node ``i`` at ``positions[i]``.

    A node leaves with ``env.remove_node(i)``: it stays attached to the
    channel but is no longer alive, so it neither hears nor is heard.
    """
    env = StackEnvironment(sim, MobilityManager(FixedPlacement([])),
                           side=10_000.0)
    for node_id, pos in positions.items():
        env.add_node(node_id, position=pos)
    return env


class _NeverForgets:
    def _prune(self, now):
        pass


class UnprunedSINRChannel(_NeverForgets, SINRChannel):
    """``SINRChannel`` that scans its whole history on every frame."""


class UnprunedProtocolChannel(_NeverForgets, ProtocolChannel):
    """``ProtocolChannel`` that scans its whole history on every frame."""


class ScalarSINRChannel(SINRChannel):
    """``SINRChannel`` resolving each candidate with scalar geometry."""

    def _receive(self, tx, interferers):
        hearing_range = self.params.carrier_sense_range_m * 1.5
        busy_senders = {o.sender for o in interferers} | {tx.sender}
        candidates = self.env.nodes_near(tx.sender_pos, hearing_range)
        for rx in candidates:
            if rx == tx.sender or rx not in self._receivers:
                continue
            if not self.env.is_alive(rx):
                continue
            if rx in busy_senders:
                continue
            rx_pos = self.env.position_of(rx)
            signal = self.pathloss.received_power_mw(
                tx.power_mw, self.env.distance(tx.sender_pos, rx_pos)
            )
            if signal < self.params.rx_thresh_mw:
                self.frames_lost_weak += 1
                continue
            interference = 0.0
            for other in interferers:
                interference += self.pathloss.received_power_mw(
                    other.power_mw, self.env.distance(other.sender_pos, rx_pos)
                )
            sinr = signal / (self.params.noise_mw + interference)
            if sinr < self.params.sinr_thresh:
                self.frames_lost_collision += 1
                continue
            self.frames_delivered += 1
            self._receivers[rx](rx, tx.frame, signal)


class ScalarProtocolChannel(ProtocolChannel):
    """``ProtocolChannel`` resolving each candidate with scalar geometry."""

    def _receive(self, tx, interferers):
        busy_senders = {o.sender for o in interferers} | {tx.sender}
        guard = self.range_m * (1.0 + self.delta)
        for rx in self.env.nodes_near(tx.sender_pos, self.range_m):
            if rx == tx.sender or rx not in self._receivers:
                continue
            if not self.env.is_alive(rx) or rx in busy_senders:
                continue
            rx_pos = self.env.position_of(rx)
            collided = any(
                self.env.distance(o.sender_pos, rx_pos) <= guard
                for o in interferers
            )
            if collided:
                self.frames_lost_collision += 1
                continue
            self.frames_delivered += 1
            self._receivers[rx](rx, tx.frame, self.params.rx_thresh_mw)


def _retype(stack, stand_ins):
    # The nodes hold the channel by reference, so the instance is retyped
    # in place (the stand-ins add no state of their own).
    stack.channel.__class__ = stand_ins[type(stack.channel)]
    return stack


def never_forgets(stack):
    """Swap ``stack``'s channel for its unpruned stand-in; returns ``stack``."""
    return _retype(stack, {SINRChannel: UnprunedSINRChannel,
                           ProtocolChannel: UnprunedProtocolChannel})


def scalar_receive(stack):
    """Swap ``stack``'s channel for its per-candidate scalar stand-in;
    returns ``stack``."""
    return _retype(stack, {SINRChannel: ScalarSINRChannel,
                           ProtocolChannel: ScalarProtocolChannel})
