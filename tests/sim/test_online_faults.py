"""Simulator tests: online fault injection and facility reconfiguration."""

import pytest

from repro.core import Fault, Header, Packet, RC
from repro.core.config import ConfigError
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.traffic import BernoulliInjector
from tests.conftest import make_logic


def make_sim(topo, **kw):
    return NetworkSimulator(
        MDCrossbarAdapter(make_logic(topo, **kw)), SimConfig(stall_limit=2000)
    )


class TestInjectFault:
    def test_idle_network_reconfigures(self, topo43):
        sim = make_sim(topo43)
        rep = sim.inject_fault(Fault.router((2, 0)))
        assert rep.lost_packets == []
        assert (2, 0) not in sim.live_nodes
        # traffic after the fault detours and completes
        sim.send(Packet(Header(source=(0, 0), dest=(2, 2)), length=6))
        res = sim.run()
        assert len(res.delivered) == 1

    def test_in_transit_packet_through_fault_lost(self, topo43):
        sim = make_sim(topo43)
        pkt = Packet(Header(source=(0, 0), dest=(2, 2)), length=32)
        sim.send(pkt)
        for _ in range(6):
            sim.step()
        # the packet is now streaming through the turn router (2, 0)
        rep = sim.inject_fault(Fault.router((2, 0)))
        assert pkt in rep.lost_packets
        res = sim.run()
        assert res.in_flight_at_end == 0
        assert pkt in res.dropped

    def test_unrelated_packet_survives(self, topo43):
        sim = make_sim(topo43)
        pkt = Packet(Header(source=(0, 1), dest=(1, 1)), length=16)
        sim.send(pkt)
        for _ in range(4):
            sim.step()
        rep = sim.inject_fault(Fault.router((3, 2)))
        assert pkt not in rep.lost_packets
        res = sim.run()
        assert pkt in res.delivered

    def test_sxb_substitution_mid_run(self, topo43):
        """Killing a router on the S-XB row forces the facility to move the
        S-XB; in-flight broadcast requests reconverge on the new one."""
        sim = make_sim(topo43)
        cfg = sim.adapter.logic.config
        assert cfg.sxb_line == (0,)
        bc = Packet(Header(source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST), length=6)
        sim.send(bc)
        sim.step()
        rep = sim.inject_fault(Fault.router((1, 0)))
        assert rep.new_sxb_line != (0,)
        res = sim.run(max_cycles=5000)
        # the broadcast either completes via the new S-XB or was lost in
        # the reconfiguration; the network must end clean either way
        assert not res.deadlocked
        assert res.in_flight_at_end == 0

    def test_second_fault_accumulates(self, topo43):
        sim = make_sim(topo43)
        sim.inject_fault(Fault.router((1, 0)))
        sim.inject_fault(Fault.router((3, 2)))
        assert len(sim.adapter.logic.config.all_faults()) == 2
        sim.send(Packet(Header(source=(0, 0), dest=(2, 2)), length=6))
        res = sim.run()
        assert len(res.delivered) == 1

    def test_infeasible_fault_set_raises(self, topo43):
        sim = make_sim(topo43)
        sim.inject_fault(Fault.crossbar(0, (0,)))
        with pytest.raises(ConfigError):
            sim.inject_fault(Fault.crossbar(1, (1,)))

    def test_requires_md_adapter(self):
        from repro.routing import make_scheme

        sch = make_scheme("mesh", (3, 3))
        sim = NetworkSimulator(sch.adapter, SimConfig(num_vcs=sch.num_vcs))
        with pytest.raises(TypeError):
            sim.inject_fault(Fault.router((1, 1)))


class TestConservationUnderFault:
    @pytest.mark.parametrize("fault_cycle", [50, 150, 300])
    def test_offered_equals_delivered_plus_dropped(self, topo44, fault_cycle):
        sim = make_sim(topo44)
        gen = BernoulliInjector(load=0.25, seed=17, stop_at=500)
        sim.add_generator(gen)
        sim.run(max_cycles=fault_cycle, until_drained=False)
        sim.inject_fault(Fault.router((2, 2)))
        res = sim.run(max_cycles=8000, until_drained=False)
        assert not res.deadlocked
        assert res.in_flight_at_end == 0
        assert gen.offered == len(res.delivered) + len(res.dropped)

    def test_xb_fault_mid_run(self, topo44):
        sim = make_sim(topo44)
        gen = BernoulliInjector(load=0.2, seed=19, stop_at=400)
        sim.add_generator(gen)
        sim.run(max_cycles=100, until_drained=False)
        sim.inject_fault(Fault.crossbar(0, (1,)))
        res = sim.run(max_cycles=8000, until_drained=False)
        assert not res.deadlocked
        assert gen.offered == len(res.delivered) + len(res.dropped)

    def test_broadcasts_across_fault_event(self, topo43):
        sim = make_sim(topo43)
        for src in [(0, 1), (3, 2), (2, 1)]:
            sim.send(
                Packet(Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST), length=8)
            )
        for _ in range(5):
            sim.step()
        sim.inject_fault(Fault.router((1, 2)))
        res = sim.run(max_cycles=8000)
        assert not res.deadlocked
        assert res.in_flight_at_end == 0
        assert len(res.delivered) + len(res.dropped) == 3


class TestRouteMemoInvalidation:
    """Regression: the adapter memoizes route decisions on what each
    switch rule reads (never the source); a facility reconfiguration
    swaps the logic and MUST drop the memo, or post-fault traffic follows
    stale routes into the dead switch."""

    def test_inject_fault_invalidates_memo(self, topo43):
        from repro.topology import rtr, xb

        sim = make_sim(topo43)
        adapter = sim.adapter
        hdr = Header(source=(0, 0), dest=(2, 2))
        # the (0,0)->(2,2) route turns at RTR(2, 0): the dim-0 crossbar of
        # row 0 hands the packet to it
        el, came_from = xb(0, (0,)), rtr((0, 0))
        before = adapter.decide(el, came_from, 0, hdr)
        assert (rtr((2, 0)), 0) in before.outputs
        assert adapter.cache_info()["size"], "decide() must populate the memo"
        sim.inject_fault(Fault.router((2, 0)))
        after = adapter.decide(el, came_from, 0, hdr)
        assert (rtr((2, 0)), 0) not in after.outputs, (
            "stale memo: the decision still routes into the dead router"
        )

    def test_logic_swap_clears_the_memo_directly(self, topo43):
        adapter = make_sim(topo43).adapter
        hdr = Header(source=(0, 0), dest=(3, 2))
        from repro.topology import pe, rtr

        adapter.decide(rtr((0, 0)), pe((0, 0)), 0, hdr)
        assert adapter.cache_info()["size"]
        adapter.logic = make_logic(topo43, fault=Fault.router((2, 0)))
        assert adapter.cache_info()["size"] == 0

    def test_memoized_and_fresh_decisions_agree(self, topo43):
        from repro.topology import pe, rtr

        adapter = make_sim(topo43).adapter
        hdr = Header(source=(0, 0), dest=(3, 2))
        first = adapter.decide(rtr((0, 0)), pe((0, 0)), 0, hdr)
        assert adapter.decide(rtr((0, 0)), pe((0, 0)), 0, hdr) is first
