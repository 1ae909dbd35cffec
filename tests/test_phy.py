"""Tests for PHY parameters, path loss calibration, and channel models."""

import math
import warnings

import numpy as np
import pytest
from reference.phy import (
    UnprunedProtocolChannel,
    UnprunedSINRChannel,
    fixed_env,
)
from repro.mobility.models import FixedPlacement, MobilityManager

from repro.phy import (
    DEFAULT_PHY,
    InversePowerLaw,
    PhyParams,
    ProtocolChannel,
    SINRChannel,
    TwoRayGround,
    dbm_to_mw,
    default_pathloss,
)
from repro.sim import Simulator
from repro.stack import StackEnvironment


class TestUnits:
    def test_dbm_zero_is_one_mw(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)

    def test_paper_tx_power(self):
        assert dbm_to_mw(15.0) == pytest.approx(31.62, rel=1e-3)

    def test_paper_rx_thresh(self):
        assert dbm_to_mw(-71.0) == pytest.approx(7.9433e-8, rel=1e-3)

    def test_roundtrip(self):
        assert 10.0 * math.log10(dbm_to_mw(-42.5)) == pytest.approx(-42.5)


class TestPhyParams:
    def test_defaults_match_paper_figure2(self):
        p = PhyParams()
        assert p.tx_power_dbm == 15.0
        assert p.rx_thresh_dbm == -71.0
        assert p.cs_thresh_dbm == -77.0
        assert p.noise_dbm == -101.0
        assert p.sinr_thresh == 10.0
        assert p.ideal_range_m == 200.0
        assert p.carrier_sense_range_m == 299.0

    def test_broadcast_slower_than_unicast(self):
        p = PhyParams()
        assert p.tx_duration(512, broadcast=True) > p.tx_duration(512)

    def test_duration_scales_with_size(self):
        p = PhyParams()
        assert p.tx_duration(1024) > p.tx_duration(512)

    def test_512b_unicast_duration(self):
        p = PhyParams()
        # (512+58)*8 bits at 11 Mbps
        assert p.tx_duration(512) == pytest.approx(570 * 8 / 11e6)


class TestPathLossCalibration:
    """The paper's thresholds must fall out of the two-ray model."""

    def setup_method(self):
        self.p = PhyParams()
        self.model = default_pathloss(self.p)

    def _crosses_within_2pct(self, thresh_mw, range_m):
        power = self.model.received_power_mw
        tx = self.p.tx_power_mw
        return power(tx, 0.98 * range_m) >= thresh_mw > power(tx,
                                                              1.02 * range_m)

    def test_rx_range_is_200m(self):
        assert self._crosses_within_2pct(self.p.rx_thresh_mw, 200.0)

    def test_cs_range_is_299m(self):
        assert self._crosses_within_2pct(self.p.cs_thresh_mw, 299.0)

    def test_power_at_200m_meets_rx_thresh(self):
        rx = self.model.received_power_mw(self.p.tx_power_mw, 200.0)
        assert 10.0 * math.log10(rx) == pytest.approx(-71.0, abs=0.3)

    def test_crossover_between_ranges(self):
        assert 200.0 < self.model.crossover_m < 299.0

    def test_monotonically_decreasing(self):
        prev = math.inf
        for d in (1, 50, 150, 226, 250, 400, 1000):
            cur = self.model.received_power_mw(self.p.tx_power_mw, float(d))
            assert cur < prev
            prev = cur

    def test_zero_distance_full_power(self):
        assert self.model.received_power_mw(10.0, 0.0) == 10.0


class TestFreeSpaceAndPowerLaw:
    def test_free_space_inverse_square(self):
        m = TwoRayGround(wavelength_m=0.125)  # crossover ~226 m
        p1 = m.received_power_mw(10.0, 100.0)
        p2 = m.received_power_mw(10.0, 200.0)
        assert p1 / p2 == pytest.approx(4.0)

    def test_power_law_reference_calibration(self):
        m = InversePowerLaw(alpha=2.0)
        rx = m.received_power_mw(dbm_to_mw(15.0), 200.0)
        assert rx == pytest.approx(dbm_to_mw(-71.0), rel=1e-6)

    def test_power_law_alpha_effect(self):
        shallow = InversePowerLaw(alpha=2.0)
        steep = InversePowerLaw(alpha=4.0)
        # Both are calibrated at 200 m; beyond it the steeper decays faster.
        assert (steep.received_power_mw(1.0, 400.0)
                < shallow.received_power_mw(1.0, 400.0))


class TestSINRChannel:
    def make(self, positions):
        sim = Simulator()
        env = fixed_env(sim, positions)
        ch = SINRChannel(sim, env)
        return sim, env, ch

    def test_delivery_in_range(self):
        sim, env, ch = self.make({0: (0, 0), 1: (100, 0)})
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        ch.transmit(0, "hello", 0.001)
        sim.run()
        assert got == ["hello"]

    def test_no_delivery_out_of_range(self):
        sim, env, ch = self.make({0: (0, 0), 1: (500, 0)})
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        ch.transmit(0, "hello", 0.001)
        sim.run()
        assert got == []

    def test_dead_node_does_not_receive(self):
        sim, env, ch = self.make({0: (0, 0), 1: (100, 0)})
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        env.remove_node(1)
        ch.transmit(0, "hello", 0.001)
        sim.run()
        assert got == []

    def test_collision_destroys_both_at_midpoint(self):
        sim, env, ch = self.make({0: (0, 0), 1: (100, 0), 2: (200, 0)})
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        ch.transmit(0, "a", 0.001)
        ch.transmit(2, "b", 0.001)
        sim.run()
        # Node 1 sits equidistant: SINR ~ 1 << 10 for both frames.
        assert got == []
        assert ch.frames_lost_collision >= 2

    def test_capture_effect_near_transmitter(self):
        # Receiver very close to one transmitter, far from the interferer:
        # the strong frame is captured despite the overlap.
        sim, env, ch = self.make({0: (0, 0), 1: (10, 0), 2: (280, 0)})
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        ch.transmit(0, "strong", 0.001)
        ch.transmit(2, "weak", 0.001)
        sim.run()
        assert "strong" in got
        assert "weak" not in got

    def test_interference_sums_in_ledger_order(self):
        # At receiver 1 the three interferers' powers sum to different
        # floats in transmit order and in reverse, and the frame from 0
        # clears beta only with the transmit-order sum (found by search).
        d0 = 58.50862827673421
        far = (443.2, 504.9, 192.2)
        sim, env, ch = self.make({0: (-d0, 0.0), 1: (0.0, 0.0),
                                  2: (far[0], 0.0), 3: (0.0, far[1]),
                                  4: (0.0, -far[2])})
        p, model = ch.params, ch.pathloss
        a, b, c = (model.received_power_mw(p.tx_power_mw, d) for d in far)
        signal = model.received_power_mw(p.tx_power_mw, d0)
        assert (signal / (p.noise_mw + (a + b + c)) >= p.sinr_thresh
                > signal / (p.noise_mw + (c + b + a)))
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        for sender in (0, 2, 3, 4):
            ch.transmit(sender, sender, 0.001)
        sim.run()
        assert got == [0]

    def test_half_duplex_sender_misses(self):
        sim, env, ch = self.make({0: (0, 0), 1: (100, 0)})
        got = []
        ch.attach(0, lambda rx, frame, power: got.append(frame))
        ch.attach(1, lambda rx, frame, power: None)
        ch.transmit(0, "a", 0.001)
        ch.transmit(1, "b", 0.001)  # overlaps: 0 is transmitting
        sim.run()
        assert got == []

    def test_carrier_busy_within_cs_range(self):
        sim, env, ch = self.make({0: (0, 0), 1: (250, 0)})
        ch.attach(1, lambda rx, frame, power: None)
        ch.transmit(0, "x", 0.01)
        assert ch.carrier_busy(1)

    def test_carrier_idle_when_silent(self):
        sim, env, ch = self.make({0: (0, 0), 1: (100, 0)})
        assert not ch.carrier_busy(1)

    def test_is_transmitting(self):
        sim, env, ch = self.make({0: (0, 0), 1: (100, 0)})
        ch.transmit(0, "x", 0.01)
        assert ch.is_transmitting(0)
        assert not ch.is_transmitting(1)

    def test_stats_counters(self):
        sim, env, ch = self.make({0: (0, 0), 1: (100, 0)})
        ch.attach(1, lambda rx, frame, power: None)
        ch.transmit(0, "x", 0.001)
        sim.run()
        assert ch.frames_sent == 1
        assert ch.frames_delivered == 1


class TestProtocolChannel:
    def make(self, positions, delta=0.0):
        sim = Simulator()
        env = fixed_env(sim, positions)
        ch = ProtocolChannel(sim, env, range_m=200.0, delta=delta)
        return sim, env, ch

    def test_delivery_within_unit_disk(self):
        sim, env, ch = self.make({0: (0, 0), 1: (150, 0)})
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        ch.transmit(0, "hi", 0.001)
        sim.run()
        assert got == ["hi"]

    def test_no_delivery_beyond_radius(self):
        sim, env, ch = self.make({0: (0, 0), 1: (201, 0)})
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        ch.transmit(0, "hi", 0.001)
        sim.run()
        assert got == []

    def test_interference_guard_zone(self):
        # Receiver 1 within range of both 0 and 2: simultaneous tx collide.
        sim, env, ch = self.make({0: (0, 0), 1: (150, 0), 2: (300, 0)},
                                 delta=0.0)
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        ch.transmit(0, "a", 0.001)
        ch.transmit(2, "b", 0.001)
        sim.run()
        assert got == []

    def test_range_and_guard_are_inclusive(self):
        # 1 sits exactly at range from 0 and exactly at the guard
        # distance from 2: in range, and interfered with.
        sim, env, ch = self.make({0: (0, 0), 1: (200, 0), 3: (0, 400)})
        got = []
        ch.attach(1, lambda rx, frame, power: got.append(frame))
        ch.transmit(0, "edge", 0.001)
        sim.run()
        assert got == ["edge"]
        env.add_node(2, position=(400, 0))
        ch.transmit(0, "a", 0.001)
        ch.transmit(2, "b", 0.001)
        sim.run()
        assert got == ["edge"]
        assert ch.frames_lost_collision == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ProtocolChannel(Simulator(), fixed_env(Simulator(), {}), range_m=0.0)
        with pytest.raises(ValueError):
            ProtocolChannel(Simulator(), fixed_env(Simulator(), {}), range_m=1.0, delta=-0.1)


class TestOnAirLedger:
    """One ledger under both models (``_Channel._on_air``): it keeps what
    a pending frame can still overlap and forgets everything else."""

    CHANNELS = {
        "sinr": (SINRChannel, UnprunedSINRChannel, {}),
        "protocol": (ProtocolChannel, UnprunedProtocolChannel,
                     {"range_m": 200.0}),
    }

    def run_script(self, cls, kwargs, script):
        sim = Simulator()
        positions = {i: (60.0 * i, 0.0) for i in range(6)}
        ch = cls(sim, fixed_env(sim, positions), **kwargs)
        got = []
        for node in positions:
            ch.attach(node, lambda rx, frame, power: got.append(
                (sim.now, rx, frame, power)))
        for at, sender, duration in script:
            sim.schedule_at(at, ch.transmit, sender, (sender, at), duration)
        sim.run()
        return ch, got

    @pytest.mark.parametrize("model", ["sinr", "protocol"])
    def test_long_frame_still_meets_short_ones_that_ended(self, model):
        # Node 0's long frame resolves last; the short frames that
        # overlapped it ended, and resolved, long before — a ledger that
        # dropped frames as they ended would deliver the long one clean.
        real, unpruned, kwargs = self.CHANNELS[model]
        script = [(0.0, 0, 0.010), (0.001, 5, 0.001), (0.003, 4, 0.001),
                  (0.005, 5, 0.001), (0.012, 3, 0.001)]
        ch, got = self.run_script(real, kwargs, script)
        ref, expected = self.run_script(unpruned, kwargs, script)
        assert got == expected
        assert not any(frame == (0, 0.0) for _, _, frame, _ in got)
        for counter in ("frames_sent", "frames_delivered",
                        "frames_lost_collision", "frames_lost_weak"):
            assert getattr(ch, counter) == getattr(ref, counter)
        assert len(ref._on_air) == len(script)

    @pytest.mark.parametrize("model", ["sinr", "protocol"])
    def test_ledger_stays_in_transmit_order_and_drains(self, model):
        real, _, kwargs = self.CHANNELS[model]
        sim = Simulator()
        ch = real(sim, fixed_env(sim, {i: (60.0 * i, 0.0) for i in range(6)}),
                  **kwargs)
        ledgers = []

        def send(k):
            ch.transmit(k % 6, k, 0.001)
            ledgers.append([t.tx_id for t in ch._on_air])

        for k in range(200):
            sim.schedule_at(0.0004 * k, send, k)
        sim.run()
        # Filtered, never sorted: the SINR interference sum is a float
        # sum over this order.
        assert all(ids == sorted(ids) for ids in ledgers)
        # 1 ms frames every 0.4 ms: three on the air, plus what the
        # oldest of those overlapped.
        assert max(map(len, ledgers)) <= 6
        # Silence, then one more frame sent and resolved: the old frames
        # are gone, and the next look at the air forgets that one too.
        sim.schedule_at(1.0, ch.transmit, 0, "last", 0.001)
        sim.run()
        assert [t.frame for t in ch._on_air] == ["last"]
        sim.schedule_at(2.0, ch.carrier_busy, 1)
        sim.run()
        assert ch._on_air == []
        assert ch.frames_sent == 201


class TestArrayScalarAgreement:
    """The link rows' array forms equal the scalar forms carrier sense
    and the scalar oracle use, with ``==``, element for element."""

    SIDE = 1000.0

    def env(self, torus):
        return StackEnvironment(Simulator(), MobilityManager(FixedPlacement([])),
                                side=self.SIDE, torus=torus)

    @pytest.mark.parametrize("torus", [False, True])
    def test_distances_equal_scalar_distance(self, torus):
        env = self.env(torus)
        rng = np.random.default_rng(11)
        points = rng.uniform(0.0, self.SIDE, size=(1000, 2))
        # Pairs across the wrap seam, and exactly half a side apart.
        points[:4] = [(0.0, 0.0), (self.SIDE, 0.0), (0.5 * self.SIDE, 0.0),
                      (1e-9, self.SIDE - 1e-9)]
        senders = rng.uniform(0.0, self.SIDE, size=(100, 2)).tolist()
        senders[:2] = [(0.0, 0.0), (self.SIDE - 1e-9, 1e-9)]
        rows = points.tolist()
        for pos in senders:  # 10^5 pairs
            pos = tuple(pos)
            got = env.distances(pos, points)
            assert got.tolist() == [env.distance(pos, p) for p in rows]

    def test_received_power_row_equals_scalar(self):
        model = default_pathloss(PhyParams())
        tx = PhyParams().tx_power_mw
        c = model.crossover_m
        rng = np.random.default_rng(12)
        d = np.concatenate((
            [0.0, -1.0, 1e-9, c, np.nextafter(c, 0.0), np.nextafter(c, 2 * c),
             200.0, 299.0],
            rng.uniform(0.0, 2000.0, size=99_000),
            rng.uniform(c - 1e-6, c + 1e-6, size=992),
        ))
        got = model.received_power_row(tx, d)
        assert got.tolist() == [model.received_power_mw(tx, x)
                                for x in d.tolist()]
        assert got[0] == got[1] == tx

    def test_co_located_transmitter(self):
        # Receiver 1 shares the sender's position; interferer 3 shares
        # receiver 2's.  Nothing divides by zero and nothing is NaN.
        sim = Simulator()
        env = fixed_env(sim, {0: (50.0, 50.0), 1: (50.0, 50.0),
                              2: (150.0, 50.0), 3: (150.0, 50.0)})
        ch = SINRChannel(sim, env)
        got = []
        for node in (1, 2):
            ch.attach(node, lambda rx, frame, power: got.append(
                (rx, frame, power)))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            ch.transmit(0, "a", 0.001)
            ch.transmit(3, "b", 0.001)
            sim.run()
            rows = [ch._row(env.position_of(s), ch.params.tx_power_mw)
                    for s in (0, 3)]
        for row in rows:
            assert np.isfinite(row.power_mw).all()
        assert rows[0].power_mw[1] == ch.params.tx_power_mw
        # Each receiver captures the frame of the sender it sits on, over
        # the other sender 100 m away, at the full transmit power.
        tx = ch.params.tx_power_mw
        assert got == [(1, "a", tx), (2, "b", tx)]
        assert ch.frames_lost_collision == 2
