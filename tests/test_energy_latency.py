"""Tests for the energy model and per-access latency accounting."""

import math
import random

import pytest

from repro.core import (
    FloodingStrategy,
    ProbabilisticBiquorum,
    RandomStrategy,
    UniquePathStrategy,
)
from reference import per_event

from repro.membership import FullMembership
from repro.simnet import EnergyLedger, EnergyModel, NetworkConfig, SimNetwork
from repro.simnet.energy import MAX_PENDING_PATHS


def make_net(n=80, seed=0, **kw):
    kw.setdefault("avg_degree", 10)
    return SimNetwork(NetworkConfig(n=n, seed=seed, **kw))


class TestEnergyLedger:
    def test_unicast_charges_sender_and_receiver(self):
        ledger = EnergyLedger()
        ledger.charge_unicast(1, 2)
        assert ledger.spent_by(1) == pytest.approx(1.0)
        assert ledger.spent_by(2) == pytest.approx(0.8)

    def test_broadcast_costs_more_per_frame(self):
        model = EnergyModel()
        uni = EnergyLedger(model)
        bro = EnergyLedger(model)
        uni.charge_unicast(0, 1)
        bro.charge_broadcast(0, receivers=1)
        assert bro.total > uni.total

    def test_failed_unicast_still_costs_tx(self):
        ledger = EnergyLedger()
        ledger.charge_failed_unicast(3)
        assert ledger.spent_by(3) == pytest.approx(1.0)

    def test_bystander_header_decode(self):
        ledger = EnergyLedger()
        ledger.charge_unicast(0, 1, bystanders=10)
        assert ledger.total > 1.8  # tx + rx + 10 header decodes

    def test_max_node_share(self):
        ledger = EnergyLedger()
        for _ in range(9):
            ledger.charge_unicast(0, 1)
        assert ledger.max_node_share() == pytest.approx(
            9.0 / ledger.total)

    def test_empty_ledger(self):
        ledger = EnergyLedger()
        assert ledger.total == 0.0
        assert ledger.max_node_share() == 0.0


def _charge_hop_by_hop(ledger, path, degrees):
    """What ``one_hop_unicast`` charges for each hop of a delivered path."""
    for a, b in zip(path, path[1:]):
        ledger.charge_unicast(a, b, bystanders=max(0, degrees[a] - 1))


def _charge_as_path(ledger, path, degrees):
    ledger.charge_path(path, sum(max(0, degrees[a] - 1) for a in path[:-1]))


class TestOrderFreeLedger:
    """Integer frame counts: no read depends on the order of charges."""

    def _charges(self, seed=4, nodes=30, count=400):
        rng = random.Random(seed)
        degrees = {v: rng.randrange(0, 14) for v in range(nodes)}
        charges = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.3:
                a, b = rng.sample(range(nodes), 2)
                charges.append(("charge_unicast", a, b, rng.randrange(0, 12)))
            elif roll < 0.4:
                charges.append(("charge_failed_unicast", rng.randrange(nodes)))
            elif roll < 0.6:
                charges.append(("charge_broadcast", rng.randrange(nodes),
                                rng.randrange(0, 12)))
            else:
                path = rng.sample(range(nodes), rng.randrange(2, 11))
                charges.append(("charge_path", path, sum(
                    max(0, degrees[a] - 1) for a in path[:-1])))
        return charges

    def _apply(self, charges):
        ledger = EnergyLedger()
        for name, *args in charges:
            getattr(ledger, name)(*args)
        return ledger

    def test_shuffled_charges_read_exactly_equal(self):
        charges = self._charges()
        first = self._apply(charges)
        assert first.total > 0 and first.per_node[-1] > 0
        for seed in range(5):
            shuffled = list(charges)
            random.Random(seed).shuffle(shuffled)
            ledger = self._apply(shuffled)
            assert ledger.per_node == first.per_node  # ==, not approx
            assert ledger.total == first.total
            assert ledger.max_node_share() == first.max_node_share()

    def test_path_charge_equals_its_hop_charges(self):
        rng = random.Random(9)
        degrees = {v: rng.randrange(0, 14) for v in range(40)}
        degrees[3] = 0  # an (impossible) isolated sender clamps at zero
        paths = [rng.sample(range(40), rng.randrange(2, 12))
                 for _ in range(60)] + [[3, 5], [7]]
        bulk, hops = EnergyLedger(), EnergyLedger()
        for path in paths:
            _charge_as_path(bulk, path, degrees)
            _charge_hop_by_hop(hops, path, degrees)
        assert bulk.per_node == hops.per_node
        assert bulk.total == hops.total
        overheard = sum(max(0, degrees[a] - 1)
                        for path in paths for a in path[:-1])
        assert bulk.per_node[-1] == overheard * bulk.model.overhear_header
        frames = sum(len(path) - 1 for path in paths)
        assert bulk.total == pytest.approx(
            frames * (bulk.model.tx_unicast + bulk.model.rx_unicast)
            + overheard * bulk.model.overhear_header)

    def test_read_between_charges_changes_no_later_read(self):
        charges = self._charges(seed=6)
        undisturbed = self._apply(charges)
        peeked = EnergyLedger()
        for index, (name, *args) in enumerate(charges):
            getattr(peeked, name)(*args)
            if index % 7 == 0:  # folds whatever paths are pending
                assert peeked.total >= peeked.spent_by(index % 30)
                assert peeked.per_node == peeked.per_node
        assert peeked.per_node == undisturbed.per_node
        assert peeked.total == undisturbed.total

    def test_pending_paths_are_bounded(self):
        ledger = EnergyLedger()
        path = [4, 9, 2, 7]
        charged = 2 * MAX_PENDING_PATHS + 5
        for _ in range(charged):
            ledger.charge_path(path, 3)
            assert len(ledger._pending) < MAX_PENDING_PATHS
        model = ledger.model
        assert ledger.per_node == {
            4: charged * model.tx_unicast,
            9: charged * (model.tx_unicast + model.rx_unicast),
            2: charged * (model.tx_unicast + model.rx_unicast),
            7: charged * model.rx_unicast,
            -1: 3 * charged * model.overhear_header,
        }
        assert ledger._pending == []  # a read retains nothing

    def test_reads_multiply_counts_by_the_model(self):
        model = EnergyModel(tx_unicast=2.0, rx_unicast=0.5, tx_broadcast=7.0,
                            rx_broadcast=3.0, overhear_header=0.25)
        ledger = EnergyLedger(model)
        ledger.charge_path([1, 2, 3], 4)
        ledger.charge_unicast(3, 1, bystanders=2)
        ledger.charge_failed_unicast(2)
        ledger.charge_broadcast(1, receivers=5)
        assert ledger.per_node == {1: 2.0 + 0.5 + 7.0, 2: 0.5 + 2.0 + 2.0,
                                   3: 0.5 + 2.0, -1: 6 * 0.25 + 5 * 3.0}
        assert ledger.spent_by(2) == 4.5 and ledger.spent_by(99) == 0.0
        assert ledger.total == 4 * 2.0 + 3 * 0.5 + 7.0 + 6 * 0.25 + 5 * 3.0


class TestNetworkEnergyAccounting:
    def test_bystanders_are_counted_at_charge_time(self):
        # A bulk-forwarded path is counted when the ledger is next read,
        # but its overheard headers are taken from the table at charge
        # time: failing a bystander afterwards must not shrink them.
        nets = make_net(n=120, seed=8), per_event(make_net(n=120, seed=8))
        reads = []
        for net in nets:
            path = net.route(0, 77).path
            assert len(path) > 3
            degrees = {a: len(net.true_neighbors(a)) for a in path}
            bystander = next(v for v in net.true_neighbors(path[1])
                             if v not in path)
            net.fail_node(bystander)
            overheard = sum(degrees[a] - 1 for a in path[:-1])
            assert net.energy.per_node[-1] == (
                overheard * net.energy.model.overhear_header)
            reads.append((net.energy.per_node, net.energy.total))
        assert reads[0] == reads[1]

    def test_unicast_accumulates_energy(self):
        net = make_net()
        before = net.energy.total
        v = net.true_neighbors(0)[0]
        net.one_hop_unicast(0, v)
        assert net.energy.total > before
        assert net.energy.spent_by(0) >= 1.0

    def test_failed_unicast_charges_sender_only(self):
        net = make_net()
        far = max(net.alive_nodes(),
                  key=lambda u: net.distance(net.position(0),
                                             net.position(u)))
        net.one_hop_unicast(0, far)
        assert net.energy.spent_by(0) == pytest.approx(1.0)
        assert net.energy.spent_by(far) == 0.0

    def test_broadcast_charges_all_receivers(self):
        net = make_net()
        receivers = net.one_hop_broadcast(0)
        model = net.energy.model
        expected = model.tx_broadcast + len(receivers) * model.rx_broadcast
        assert net.energy.total >= expected - 1e-9

    def test_flooding_lookup_costs_more_energy_than_walk(self):
        """Section 4.4's energy argument, measured end to end."""
        qa = max(1, round(2 * math.sqrt(80)))
        ql = max(1, round(1.15 * math.sqrt(80)))

        def run(lookup_strategy):
            net = make_net(seed=5)
            membership = FullMembership(net)
            bq = ProbabilisticBiquorum(
                net, advertise=RandomStrategy(membership),
                lookup=lookup_strategy, advertise_size=qa, lookup_size=ql,
                adjust_to_network_size=False)
            stored = set()
            bq.write(0, stored.add)
            baseline = net.energy.total
            rng = random.Random(1)
            for _ in range(8):
                bq.read(net.random_alive_node(rng),
                        lambda v: "x" if v in stored else None)
            return net.energy.total - baseline

        walk_energy = run(UniquePathStrategy(rng=random.Random(2)))
        flood_energy = run(FloodingStrategy(ttl=3))
        assert flood_energy > walk_energy


class TestAccessLatency:
    def make_bq(self, lookup=None, seed=0):
        net = make_net(seed=seed)
        membership = FullMembership(net)
        return net, ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=lookup or UniquePathStrategy(), epsilon=0.1)

    def test_write_latency_recorded(self):
        net, bq = self.make_bq()
        result = bq.write(0, lambda v: None)
        assert result.latency > 0.0

    def test_read_latency_recorded(self):
        net, bq = self.make_bq()
        stored = set()
        bq.write(0, stored.add)
        result = bq.read(40, lambda v: "x" if v in stored else None)
        assert result.latency >= 0.0

    def test_latency_scales_with_hop_latency(self):
        def measure(hop_latency, seed=3):
            net = make_net(seed=seed, hop_latency=hop_latency)
            membership = FullMembership(net)
            bq = ProbabilisticBiquorum(
                net, advertise=RandomStrategy(membership),
                lookup=UniquePathStrategy(), epsilon=0.1)
            return bq.write(0, lambda v: None).latency

        assert measure(0.02) > measure(0.002)

    def test_early_halting_cuts_lookup_latency(self):
        stored_everywhere = lambda v: "x"
        net1, bq1 = self.make_bq(UniquePathStrategy(early_halting=True),
                                 seed=4)
        net2, bq2 = self.make_bq(UniquePathStrategy(early_halting=False),
                                 seed=4)
        for bq in (bq1, bq2):
            bq.write(0, lambda v: None)
        r1 = bq1.read(40, stored_everywhere)
        r2 = bq2.read(40, stored_everywhere)
        assert r1.latency <= r2.latency
