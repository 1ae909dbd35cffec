"""Tests for deterministic RNG streams."""

import ast
import pathlib
import random

import pytest

from repro.sim import RngRegistry
from repro.simnet import NetworkConfig, SimNetwork
from repro.simnet.churn import ChurnProcess, apply_churn

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestRngRegistry:
    def test_same_seed_same_sequence(self):
        a = RngRegistry(7).stream("mobility")
        b = RngRegistry(7).stream("mobility")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_give_different_streams(self):
        reg = RngRegistry(7)
        a = [reg.stream("a").random() for _ in range(5)]
        b = [reg.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_give_different_streams(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        reg = RngRegistry(3)
        assert reg.stream("x") is reg.stream("x")

    def test_numpy_stream_deterministic(self):
        a = RngRegistry(5).numpy_stream("w").random(3)
        b = RngRegistry(5).numpy_stream("w").random(3)
        assert list(a) == list(b)

    def test_numpy_and_stdlib_streams_independent(self):
        reg = RngRegistry(5)
        reg.stream("x").random()
        first = RngRegistry(5)
        assert reg.numpy_stream("x").random() == first.numpy_stream("x").random()

    def test_fork_changes_streams(self):
        reg = RngRegistry(9)
        child = reg.fork("run", 0)
        assert reg.stream("x").random() != child.stream("x").random()

    def test_fork_deterministic(self):
        a = RngRegistry(9).fork("run", 3).stream("x").random()
        b = RngRegistry(9).fork("run", 3).stream("x").random()
        assert a == b

    def test_fork_offsets_differ(self):
        reg = RngRegistry(9)
        a = reg.fork("run", 1).stream("x").random()
        b = reg.fork("run", 2).stream("x").random()
        assert a != b


def _unseeded_generators(tree):
    """``random.Random()`` / ``default_rng()`` calls with no argument: a
    generator seeded from the clock."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not node.args and not node.keywords:
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in ("Random", "default_rng"):
                yield node.lineno


def test_no_unseeded_generator_under_src():
    # Every stream is a seeded argument or a named registry stream, so a
    # caller that forgets ``rng=`` gets an error or a repeatable run.
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in _unseeded_generators(ast.parse(path.read_text()))]
    assert found == []


def test_the_scan_sees_both_spellings():
    tree = ast.parse("import random, numpy as np\n"
                     "a = random.Random()\nb = np.random.default_rng()\n"
                     "c = random.Random(3)\nd = rng or Random()\n")
    assert list(_unseeded_generators(tree)) == [2, 3, 5]


def test_churn_without_rng_draws_from_named_streams():
    def run():
        net = SimNetwork(NetworkConfig(n=40, seed=4))
        out = apply_churn(net, fail_fraction=0.2, join_fraction=0.1)
        proc = ChurnProcess(net, failure_rate=0.5)
        net.advance(6.0)
        proc.stop()
        return out.failed, out.joined, proc.failures, net.alive_nodes()

    assert run() == run()


def test_library_generators_require_a_stream():
    from repro.experiments.workload import ZipfKeySampler
    from repro.geometry.rgg import random_geometric_graph
    from repro.mobility import RandomWaypoint, StaticPlacement

    for build in (lambda: StaticPlacement(10.0),
                  lambda: RandomWaypoint(side=10.0),
                  lambda: random_geometric_graph(5, 0.2),
                  lambda: ZipfKeySampler(["a", "b"])):
        with pytest.raises(TypeError):
            build()
    assert RandomWaypoint(side=10.0, rng=random.Random(1)).max_speed == 2.0
