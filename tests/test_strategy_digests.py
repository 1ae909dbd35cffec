"""Seeded per-strategy digests: every access strategy, not only the two
the golden traces cover (RANDOM, UNIQUE-PATH), is pinned bit for bit.

Each case runs one advertise/lookup script on a seeded network with a
JSONL trace and hashes the script's ``dataclasses.asdict(AccessResult)``
list together with the trace file's bytes.  A refactor of an access
transport must leave every digest where it is; a change that moves one
on purpose must say so and re-pin it.  Each script also names the
trace marks of the branches it is there to reach (a local reply, an adaptation that ran
out of draws, a failed all-or-nothing write, ...), so a digest never
pins a run that skipped the case it names.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.gossip import GossipFloodStrategy
from repro.core.masking import MaskingStrategy
from repro.core.strategies import (
    FloodingStrategy,
    RandomOptStrategy,
    RandomSamplingStrategy,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.membership.service import RandomMembership
from repro.quorum import AlgebraicStrategy, majority_system, solve_strategy
from repro.simnet.network import NetworkConfig, SimNetwork

N = 70
SEED = 13


class Script:
    """One key's store on one network; ``results`` collects every
    access's ``asdict`` in call order."""

    def __init__(self, net: SimNetwork) -> None:
        self.net = net
        self.stored = {}
        self.results = []
        self.hits = []  # per lookup: the nodes whose probe hit, in order

    def store(self, node: int) -> None:
        self.stored[node] = f"value@{len(self.results)}"

    def advertise(self, strategy, origin: int, size: int):
        result = strategy.advertise(self.net, origin, self.store, size)
        self.results.append(dataclasses.asdict(result))
        return result

    def lookup(self, strategy, origin: int, size: int):
        hits = []
        self.hits.append(hits)

        def probe(node: int):
            value = self.stored.get(node)
            if value is not None:
                hits.append(node)
            return value

        result = strategy.lookup(self.net, origin, probe, size)
        self.results.append(dataclasses.asdict(result))
        return result


def _algebraic(script: Script) -> tuple:
    net = script.net
    qs = majority_system(range(0, 45, 5))
    strategy = AlgebraicStrategy(qs, solve_strategy(qs))
    for origin in (5, 1, 20, 5):
        script.advertise(strategy, origin, 0)
    for origin in (5, 10, 25, 40, 3, 15, 5, 30):
        script.lookup(strategy, origin, 0)
    net.fail_node(10)  # a dead member: its quorums fail all-or-nothing
    writes = [script.advertise(strategy, origin, 0)
              for origin in (5, 20, 35, 1, 40, 15)]
    assert any(not r.success for r in writes)
    for origin in (10, 25, 5, 35):
        script.lookup(strategy, origin, 0)
    return '"mechanism":"local"', '"mechanism":"routed"'


def _random_dead_views(script: Script) -> tuple:
    net = script.net
    membership = RandomMembership(net, view_size=8)
    strategy = RandomStrategy(membership)
    for node in membership.view(4)[::3] + membership.view(11)[1::3]:
        net.fail_node(node)
    for origin in (4, 11, 4, 11):
        script.advertise(strategy, origin, 10)
    for origin in (4, 11, 30, 4):
        script.lookup(strategy, origin, 10)
    return ("access-adaptation-exhausted", '"ok":false',
            '"mechanism":"routed"')


def _random_serial(script: Script) -> tuple:
    strategy = RandomStrategy(RandomMembership(script.net),
                              serial_lookup=True)
    for origin in (4, 11):
        script.advertise(strategy, origin, 12)
    for origin in (30, 4, 19, 11, 52, 8):
        script.lookup(strategy, origin, 12)
    return '"mechanism":"routed"',


def _flooding(strategy):
    def run(script: Script) -> tuple:
        for origin in (3, 40):
            script.advertise(strategy, origin, 12)
        script.net.fail_node(17)
        for origin in (3, 22, 40, 61, 9):
            script.lookup(strategy, origin, 10)
        return '"mechanism":"local"', '"mechanism":"reverse-path"'
    return run


def _gossip(script: Script) -> tuple:
    strategy = GossipFloodStrategy()
    script.advertise(strategy, 6, N)  # p = 1: every covered node stores
    script.advertise(strategy, 33, 9)
    for origin, size in ((6, N), (33, 9), (50, 9), (12, 4)):
        script.lookup(strategy, origin, size)
    return '"mechanism":"local"', '"mechanism":"reverse-path"'


def _random_opt(script: Script) -> tuple:
    strategy = RandomOptStrategy(RandomMembership(script.net))
    for origin in (2, 27):
        script.advertise(strategy, origin, 12)
    for origin in (2, 45, 27, 8, 60, 14):
        script.lookup(strategy, origin, 12)
    return '"mechanism":"local"', '"mechanism":"routed"'


def _unique_path(script: Script) -> tuple:
    strategy = UniquePathStrategy(early_halting=False)
    for origin in (5, 36):
        script.advertise(strategy, origin, 14)
    lookups = [script.lookup(strategy, origin, 14)
               for origin in (5, 19, 36, 58, 2)]
    # Without early halting the walk's *last* hit is the one returned.
    assert any(len(hits) >= 2 and r.hit_node == hits[-1] != hits[0]
               for r, hits in zip(lookups, script.hits))
    return '"mechanism":"reverse-path"',


def _sampling(script: Script) -> tuple:
    strategy = RandomSamplingStrategy()
    script.advertise(strategy, 9, 8)
    for origin in (21, 9, 44):
        script.lookup(strategy, origin, 8)
    return '"mechanism":"reverse-path"',


def _masking(script: Script) -> tuple:
    membership = RandomMembership(script.net)
    advertise = RandomStrategy(membership)
    strategy = MaskingStrategy(RandomStrategy(membership), 1)
    for origin in (4, 30):
        script.advertise(advertise, origin, 16)
    for origin in (11, 4, 52, 23):
        script.lookup(strategy, origin, 16)
    return '"mechanism":"routed"',


CASES = {
    "algebraic": _algebraic,
    "random-dead-views": _random_dead_views,
    "random-serial": _random_serial,
    "flooding-analytic": _flooding(FloodingStrategy()),
    "flooding-ttl": _flooding(FloodingStrategy(ttl=3)),
    "flooding-expanding-ring": _flooding(FloodingStrategy(
        expanding_ring=True)),
    "gossip-flood": _gossip,
    "random-opt": _random_opt,
    "unique-path-no-halt": _unique_path,
    "random-sampling": _sampling,
    "masking-random": _masking,
}

#: Captured on the code before the access transports were merged.
DIGESTS = {
    'algebraic': 'a4fbaa94e59e53462eaee4f949ef280dde8ca7b0a1a475ff9b55df4b8ada9229',
    'flooding-analytic': '4e25cbb92e6c749aec52fa914f08479df970fdd4716721dd4c8587e0be37af2e',
    'flooding-expanding-ring': 'fbed82e81d3c91a6e6df07df3f534f6a01d219beb061fa7e1eca185fe7c25bae',
    'flooding-ttl': '61dcbf11b2eb6165dae4b4e68abac934e901ec6d5236e8f4903e3d1a113fbce6',
    'gossip-flood': '28c2047f275a8be39e8de40895ced46bbdbd9519af8e59a15c340994a38fb111',
    'masking-random': '799953e888deebea9604791ca12475b9505e34b886dc518e5808c3caefbc12e5',
    'random-dead-views': '0f4fbc1d2ae663a9069e7ae3f39d2038d65f02d2aec26f878f54421830c3cb64',
    'random-opt': '871a929fc9f24f2a4f60170f918f2fc79859069e9057bc4b7f56b54c5290a632',
    'random-sampling': '83a17560bcae72773cd864bd9e0c6b188df66857e4c1b97617485cef16e0ddb8',
    'random-serial': 'dc829d726dcf515881f7b92bccb234c4c1778365c3dfea2249a6d41447bc7599',
    'unique-path-no-halt': '95a8c08f4071b5be60a82319b12405bc0f3591697acad0a4ef6b512e52625aab',
}


def _digest(tmp_path, case: str) -> str:
    net = SimNetwork(NetworkConfig(n=N, seed=SEED))
    path = tmp_path / f"{case}.jsonl"
    net.trace.enable(memory=False, jsonl_path=str(path))
    script = Script(net)
    markers = CASES[case](script)
    net.trace.close()
    trace = path.read_bytes()
    for marker in markers:
        assert marker.encode() in trace, f"{case} never reached {marker}"
    assert any(r["found"] for r in script.results)
    body = json.dumps(script.results, sort_keys=True, default=repr)
    return hashlib.sha256(body.encode() + b"\n" + trace).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_strategy_digest(tmp_path, case):
    assert _digest(tmp_path, case) == DIGESTS[case]


if __name__ == "__main__":  # print the table to re-pin
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            print(f"    {name!r}: {_digest(Path(tmp), name)!r},")
