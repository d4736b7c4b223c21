"""Integration tests for the d = 1 degenerate case: a conventional single
crossbar (paper Section 3.1: "for the case of d=1, the MD crossbar network
is equivalent to a conventional crossbar network")."""

import pytest

from repro.core import (
    Broadcast,
    Fault,
    Header,
    Packet,
    RC,
    Unicast,
    analyze_deadlock_freedom,
    compute_route,
)
from repro.core.ordering import build_certificate
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.topology import FullCrossbar
from tests.conftest import make_logic


@pytest.fixture(scope="module")
def xbar():
    return FullCrossbar(6)


class TestRouting:
    def test_every_pair_one_hop(self, xbar):
        logic = make_logic(xbar)
        for s in xbar.node_coords():
            for t in xbar.node_coords():
                if s != t:
                    tree = compute_route(xbar, logic, Unicast(s, t))
                    assert tree.xb_hops_to(t) == 1

    def test_broadcast_via_the_single_xb(self, xbar):
        logic = make_logic(xbar)
        tree = compute_route(xbar, logic, Broadcast((3,)))
        assert tree.delivered == set(xbar.node_coords())
        assert logic.config.sxb_element == ("XB", 0, ())

    def test_router_fault_only_kills_its_pe(self, xbar):
        logic = make_logic(xbar, fault=Fault.router((2,)))
        live = [c for c in xbar.node_coords() if c != (2,)]
        for s in live:
            for t in live:
                if s != t:
                    tree = compute_route(xbar, logic, Unicast(s, t))
                    assert t in tree.delivered


class TestSafety:
    def test_deadlock_free_with_broadcasts(self, xbar):
        logic = make_logic(xbar)
        assert analyze_deadlock_freedom(xbar, logic).deadlock_free
        cert = build_certificate(xbar, logic)
        assert cert.num_flows_verified == 6 * 5 + 6

    def test_simulated_full_permutation_plus_broadcast(self, xbar):
        sim = NetworkSimulator(
            MDCrossbarAdapter(make_logic(xbar)), SimConfig(stall_limit=500)
        )
        n = len(xbar.node_coords())
        for i, s in enumerate(xbar.node_coords()):
            t = xbar.node_coords()[(i + 1) % n]
            sim.send(Packet(Header(source=s, dest=t), length=8))
        sim.send(
            Packet(Header(source=(0,), dest=(0,), rc=RC.BROADCAST_REQUEST), length=8)
        )
        res = sim.run(max_cycles=10_000)
        assert not res.deadlocked
        assert len(res.delivered) == n + 1

    def test_conflict_free_permutation(self, xbar):
        """The paper: a conventional crossbar has no conflicts in almost
        all patterns -- a rotation permutation shares no channel."""
        from repro.analysis.conflicts import measure_conflicts, route_channels

        logic = make_logic(xbar)
        coords = list(xbar.node_coords())
        pairs = [
            (coords[i], coords[(i + 2) % len(coords)]) for i in range(len(coords))
        ]
        stats = measure_conflicts("crossbar", route_channels(xbar, logic), pairs)
        assert stats.conflict_free
