"""Property tests (hypothesis) on RandomMembership's view epochs.

A refresh fixes the alive snapshot S and the view size k; a node's view
is drawn on its first read in the epoch.  Random deployments under random
churn, freezes, refreshes and reads must keep the staleness contract:

* a node in S holds a ``min(k, |S| - 1)``-subset of S minus itself, kept
  for the whole epoch — members that fail after the refresh stay in it;
* a node outside S (a late joiner, or one revived after the refresh)
  bootstraps from the alive set of its first read, at the current size;
* a frozen membership skips refreshes, so a view first read while frozen
  comes from the epoch before the freeze;
* every view equals the eager recipe of :mod:`reference.membership`.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import EagerViews
from reference.membership import stream_twin

from repro.membership import RandomMembership
from repro.simnet import NetworkConfig, SimNetwork

ACTIONS = st.lists(
    st.tuples(st.sampled_from(["fail", "fail", "join", "revive", "freeze",
                               "thaw", "refresh", "read", "read", "newest",
                               "sample"]),
              st.integers(0, 10**6)),
    min_size=10, max_size=60)


def _size(view_size, n_alive):
    if view_size is not None:
        return view_size
    return max(1, int(round(2.0 * math.sqrt(n_alive))))


@given(n=st.integers(1, 80), view_size=st.none() | st.integers(1, 100),
       seed=st.integers(0, 2**16), actions=ACTIONS)
@settings(max_examples=150, deadline=None)
def test_views_keep_the_staleness_contract(n, view_size, seed, actions):
    net = SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed,
                                   require_connected=False))
    oracle = EagerViews(net, stream_twin(net), view_size)
    m = RandomMembership(net, view_size=view_size, refresh_interval=1e9)
    snapshot, size = set(net.alive_nodes()), _size(view_size, n)
    held = {}  # first read of each node in the epoch

    def start_epoch():
        nonlocal snapshot, size
        oracle.refresh()
        snapshot, size = set(net.alive_nodes()), _size(view_size, net.n_alive)
        held.clear()

    for action, pick in actions:
        node = pick % net.ids_assigned
        if action == "newest":
            node = net.ids_assigned - 1  # the latest joiner, if any
        if action == "fail":
            net.fail_node(node)
        elif action == "join":
            net.join_node()
        elif action == "revive":
            net.revive_node(node)
        elif action == "freeze":
            m.freeze()
        elif action == "thaw":
            m.thaw()
            start_epoch()
        elif action == "refresh":
            m.refresh()
            if not m.frozen:
                start_epoch()
        else:
            view = m.view(node)
            if node in held:
                assert view == held[node]
            else:
                pool = snapshot if node in snapshot else set(net.alive_nodes())
                k = size if node in snapshot else _size(view_size,
                                                        net.n_alive)
                assert node not in view and len(set(view)) == len(view)
                assert set(view) <= pool
                assert len(view) == min(k, len(pool - {node}))
                if node in snapshot and size >= len(snapshot) - 1:
                    # The whole snapshot, members failed since included.
                    assert set(view) == snapshot - {node}
                held[node] = view
            assert view == oracle.view(node)
            if action == "sample":
                got = m.sample_for(node, pick % 7, random.Random(pick))
                assert set(got) <= set(view) and len(got) == min(
                    pick % 7, len(view))
