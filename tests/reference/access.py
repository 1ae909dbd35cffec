"""A declining ``AccessEngine``: the exact per-event run, on demand.

Every kernel entry point of :class:`repro.core.access_engine.AccessEngine`
may answer "not applicable" (``None`` / ``False``), upon which the
caller runs its per-event code — the same code the kernels decline to
under mobility, random drops, tracing, or a simulation event inside the
window.  This stand-in always declines, so assigning it to
``net.access_engine`` produces the reference run the batched kernels
must match field for field.
"""


class DecliningEngine:
    """Stand-in for ``net.access_engine`` whose every kernel declines."""

    def flood(self, net, origin, ttl):
        return None

    def tree(self, net, src):
        return None

    def numpy_tree(self, net, src):
        return None

    def unicast_resolver(self, net):
        return None

    def routes_active(self, net):
        return False


def per_event(net):
    """Make ``net`` run the per-event code everywhere; returns ``net``."""
    net.access_engine = DecliningEngine()
    return net
