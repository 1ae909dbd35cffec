"""PHY oracles: channels whose on-air ledger never forgets.

:class:`repro.phy.channel._Channel` prunes its ledger down to what a
pending or future frame can still overlap.  The stand-ins here keep every
transmission ever made and let the overlap predicate scan all of it —
the semantics pruning must not change, at a cost that grows with the
length of the run.
"""

from repro.phy.channel import ProtocolChannel, SINRChannel


class _NeverForgets:
    def _prune(self, now):
        pass


class UnprunedSINRChannel(_NeverForgets, SINRChannel):
    """``SINRChannel`` that scans its whole history on every frame."""


class UnprunedProtocolChannel(_NeverForgets, ProtocolChannel):
    """``ProtocolChannel`` that scans its whole history on every frame."""


def never_forgets(stack):
    """Swap ``stack``'s channel for its unpruned stand-in; returns ``stack``.

    The nodes hold the channel by reference, so the instance is retyped
    in place (the stand-ins add no state of their own).
    """
    stack.channel.__class__ = {
        SINRChannel: UnprunedSINRChannel,
        ProtocolChannel: UnprunedProtocolChannel,
    }[type(stack.channel)]
    return stack
