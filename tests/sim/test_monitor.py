"""Unit tests for the simulation monitor and trace capture."""

import pytest

from repro.core import Header, Packet, RC
from repro.sim import (
    MDCrossbarAdapter,
    NetworkSimulator,
    SimConfig,
    SimMonitor,
    TextTrace,
    channel_load_heatmap,
)
from repro.traffic import BernoulliInjector
from tests.conftest import make_logic


def make_sim(topo, **kw):
    return NetworkSimulator(
        MDCrossbarAdapter(make_logic(topo, **kw)),
        SimConfig(stall_limit=200),
    )


class TestSimMonitor:
    def test_samples_collected(self, topo43):
        sim = make_sim(topo43)
        mon = SimMonitor(sim, interval=5)
        sim.add_generator(BernoulliInjector(load=0.2, seed=1, stop_at=100))
        sim.run(max_cycles=500, until_drained=False)
        assert len(mon.samples) == 100
        assert mon.peak_in_flight() > 0
        assert mon.peak_buffered() > 0

    def test_idle_network_flat(self, topo43):
        sim = make_sim(topo43)
        mon = SimMonitor(sim, interval=1)
        sim.run(max_cycles=20, until_drained=False)
        assert all(s.in_flight == 0 for s in mon.samples)

    def test_bad_interval(self, topo43):
        with pytest.raises(ValueError):
            SimMonitor(make_sim(topo43), interval=0)

    def test_deadlock_shows_stalled_tail(self, topo43):
        from repro.core.config import BroadcastMode

        sim = make_sim(topo43, broadcast_mode=BroadcastMode.NAIVE)
        mon = SimMonitor(sim, interval=5)
        for src in [(2, 1), (3, 2)]:
            sim.send(Packet(Header(source=src, dest=src, rc=RC.BROADCAST), length=6))
        res = sim.run(max_cycles=2000)
        assert res.deadlocked
        assert mon.stalled_tail() > 10

    def test_summary_renders(self, topo43):
        sim = make_sim(topo43)
        mon = SimMonitor(sim, interval=5)
        sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
        sim.run()
        assert "samples" in mon.summary()


class TestTextTrace:
    def test_events_captured(self, topo43):
        sim = make_sim(topo43)
        trace = TextTrace(100).attach(sim)
        sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
        sim.run()
        assert trace.matching("injected")
        assert trace.matching("completed")

    def test_bounded(self, topo43):
        sim = make_sim(topo43)
        trace = TextTrace(5).attach(sim)
        for t in topo43.node_coords():
            if t != (0, 0):
                sim.send(Packet(Header(source=(0, 0), dest=t), length=2))
        sim.run()
        assert len(trace.events) == 5

    def test_dump(self, topo43):
        sim = make_sim(topo43)
        trace = TextTrace(100).attach(sim)
        sim.send(Packet(Header(source=(0, 0), dest=(1, 0)), length=2))
        sim.run()
        assert "[" in trace.dump(2)


class TestHeatmap:
    def test_shape_and_symbols(self, topo43):
        sim = make_sim(topo43)
        sim.send(Packet(Header(source=(0, 0), dest=(3, 0)), length=32))
        res = sim.run()
        out = channel_load_heatmap(sim, res.channel_busy, res.cycles)
        rows = out.splitlines()
        assert len(rows) == 3
        assert all(len(r.split()) == 4 for r in rows)
        # the traversed row is hotter than an untouched one
        assert rows[0] != rows[2]

    def test_rejects_3d(self, topo333):
        sim = make_sim(topo333)
        res = sim.run(max_cycles=1, until_drained=False)
        with pytest.raises(ValueError):
            channel_load_heatmap(sim, res.channel_busy, res.cycles)
