#!/usr/bin/env python3
"""A shared object on probabilistic quorums (Section 10): a
probabilistically linearizable read/write register (ABD-style, two quorum
phases per operation).

Run:  python examples/shared_objects.py
"""

from repro import (
    FullMembership,
    NetworkConfig,
    ProbabilisticBiquorum,
    ProbabilisticRegister,
    RandomStrategy,
    SimNetwork,
    UniquePathStrategy,
)


def build_biquorum(seed: int) -> ProbabilisticBiquorum:
    net = SimNetwork(NetworkConfig(n=150, avg_degree=10, seed=seed))
    membership = FullMembership(net)
    # Registers need collecting reads: disable early halting so the query
    # phase sees the whole lookup quorum.
    return ProbabilisticBiquorum(
        net,
        advertise=RandomStrategy(membership),
        lookup=UniquePathStrategy(early_halting=False),
        epsilon=0.05,
    )


def register_demo() -> None:
    print("== probabilistic read/write register ==")
    register = ProbabilisticRegister(build_biquorum(seed=31))
    w1 = register.write(origin=0, value="v1")
    print(f"node 0 wrote 'v1' at ts={w1.timestamp} "
          f"({w1.messages} msgs over 2 quorum phases)")
    r1 = register.read(origin=75)
    print(f"node 75 read {r1.value!r} at ts={r1.timestamp}")
    w2 = register.write(origin=120, value="v2")
    r2 = register.read(origin=40)
    print(f"node 120 wrote 'v2'; node 40 now reads {r2.value!r} "
          f"(last write wins, ts={r2.timestamp})")


if __name__ == "__main__":
    register_demo()
