"""Unit tests for the injection processes."""

import pytest

from repro.core import RC, Header, Packet
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.traffic import BernoulliInjector, BroadcastInjector, ScenarioScript
from tests.conftest import make_logic


def make_sim(topo, **kw):
    return NetworkSimulator(MDCrossbarAdapter(make_logic(topo, **kw)), SimConfig())


class TestBernoulliInjector:
    def test_offered_rate_close_to_load(self, topo43):
        sim = make_sim(topo43)
        gen = BernoulliInjector(load=0.2, packet_length=4, seed=3, stop_at=400)
        sim.add_generator(gen)
        sim.run(max_cycles=1500, until_drained=False)
        expected = 0.2 / 4 * 400 * 12
        assert 0.7 * expected < gen.offered < 1.3 * expected

    def test_all_offered_delivered_after_drain(self, topo43):
        sim = make_sim(topo43)
        gen = BernoulliInjector(load=0.1, seed=5, stop_at=200)
        sim.add_generator(gen)
        res = sim.run(max_cycles=3000, until_drained=False)
        assert len(res.delivered) == gen.offered
        assert res.in_flight_at_end == 0

    def test_measurement_window(self, topo43):
        sim = make_sim(topo43)
        gen = BernoulliInjector(
            load=0.2, seed=7, stop_at=300, measure_from=100, measure_until=200
        )
        sim.add_generator(gen)
        res = sim.run(max_cycles=2000, until_drained=False)
        measured = gen.measured_packets(res.delivered)
        assert 0 < len(measured) < len(res.delivered)
        assert all(100 <= p.injected_at < 200 for p in measured)

    def test_zero_load_offers_nothing(self, topo43):
        sim = make_sim(topo43)
        gen = BernoulliInjector(load=0.0, stop_at=100)
        sim.add_generator(gen)
        sim.run(max_cycles=200, until_drained=False)
        assert gen.offered == 0

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            BernoulliInjector(load=1.5)

    def test_reproducible(self, topo43):
        counts = []
        for _ in range(2):
            sim = make_sim(topo43)
            gen = BernoulliInjector(load=0.3, seed=11, stop_at=150)
            sim.add_generator(gen)
            sim.run(max_cycles=1000, until_drained=False)
            counts.append(gen.offered)
        assert counts[0] == counts[1]

    def test_respects_fault_dead_node(self, topo43):
        from repro.core import Fault

        sim = make_sim(topo43, fault=Fault.router((2, 0)))
        gen = BernoulliInjector(load=0.3, seed=13, stop_at=150)
        sim.add_generator(gen)
        res = sim.run(max_cycles=2000, until_drained=False)
        assert not res.deadlocked
        for p in res.delivered:
            assert p.source != (2, 0) and p.dest != (2, 0)


class ScanInjector(BernoulliInjector):
    """The injector as it was before the live-set cache: ``dest`` looked
    up by a scan of the ``sim.live_nodes`` tuple."""

    def __call__(self, sim):
        cycle = sim.cycle
        if cycle < self.start_at:
            return
        if self.stop_at is not None and cycle >= self.stop_at:
            return
        shape = sim.topo.shape
        live = sim.live_nodes
        rng = self.rng
        random = rng.random
        rate = self.packet_rate
        pattern = self.pattern
        for src in live:
            if random() >= rate:
                continue
            dest = pattern(src, shape, rng)
            if dest == src:
                continue
            if dest not in live:
                continue
            pkt = Packet(
                Header(source=src, dest=dest), length=self.packet_length
            )
            sim.send(pkt)
            self.offered += 1
            if cycle >= self.measure_from and (
                self.measure_until is None or cycle < self.measure_until
            ):
                self.measured_pids.add(pkt.pid)


class TestInjectorLiveness:
    """The live-set lookup sends what the tuple scan sent, and follows
    the live set across an online fault."""

    def sends(self, cls, topo, fault=None, midrun=None):
        """``(cycle, source, dest)`` of every packet ``cls`` injects, and
        its final RNG state; ``midrun`` kills a router at cycle 40."""
        sim = make_sim(topo, **({"fault": fault} if fault else {}))
        log = []
        send = sim.send

        def logged(pkt, **kw):
            log.append((sim.cycle, pkt.source, pkt.dest))
            send(pkt, **kw)

        sim.send = logged
        gen = cls(load=0.6, seed=17, stop_at=120)
        sim.add_generator(gen)
        if midrun is not None:
            sim.run(max_cycles=40, until_drained=False)
            sim.inject_fault(midrun)
        sim.run(max_cycles=400, until_drained=False)
        return log, gen.rng.bit_generator.state

    def test_faulted_4x3(self, topo43):
        from repro.core import Fault

        got = self.sends(BernoulliInjector, topo43, fault=Fault.router((2, 0)))
        assert got == self.sends(ScanInjector, topo43, fault=Fault.router((2, 0)))
        log, _ = got
        assert log and all((2, 0) not in (s, d) for _, s, d in log)

    def test_fault_injected_mid_run(self):
        from repro.core import Fault
        from repro.topology import MDCrossbar

        topo = MDCrossbar((4, 4))
        got = self.sends(BernoulliInjector, topo, midrun=Fault.router((2, 2)))
        assert got == self.sends(ScanInjector, topo, midrun=Fault.router((2, 2)))
        log, _ = got
        assert any(c < 40 and d == (2, 2) for c, _, d in log)
        late = [(s, d) for c, s, d in log if c >= 40]
        assert late and all((2, 2) not in pair for pair in late)


class TestBroadcastInjector:
    def test_broadcasts_delivered(self, topo43):
        sim = make_sim(topo43)
        gen = BroadcastInjector(rate=0.02, seed=1, stop_at=300)
        sim.add_generator(gen)
        res = sim.run(max_cycles=3000, until_drained=False)
        assert gen.offered > 0
        assert len(res.delivered) == gen.offered
        assert all(p.header.rc is RC.BROADCAST_REQUEST for p in res.delivered)


class TestScenarioScript:
    def test_install_and_run(self, topo43):
        sim = make_sim(topo43)
        script = (
            ScenarioScript()
            .p2p(0, (0, 0), (3, 2))
            .p2p(5, (1, 1), (2, 2))
            .broadcast(3, (3, 0))
        )
        pkts = script.install(sim)
        assert len(pkts) == 3
        res = sim.run()
        assert len(res.delivered) == 3

    def test_injection_times_respected(self, topo43):
        sim = make_sim(topo43)
        script = ScenarioScript().p2p(7, (0, 0), (1, 0))
        (pkt,) = script.install(sim)
        sim.run()
        assert pkt.injected_at == 7

    def test_naive_broadcast_rc(self, topo43):
        script = ScenarioScript().broadcast(0, (0, 0), naive=True)
        assert script.sends[0].rc is RC.BROADCAST
