"""Unit tests for the fault model and local fault-information registry."""

import pytest

from repro.core.fault import Fault, FaultKind, FaultRegistry
from repro.topology import MDCrossbar, rtr, xb


@pytest.fixture(scope="module")
def topo():
    return MDCrossbar((4, 3))


class TestFault:
    def test_router_constructor(self):
        f = Fault.router((2, 1))
        assert f.kind is FaultKind.ROUTER
        assert f.element == rtr((2, 1))

    def test_crossbar_constructor(self):
        f = Fault.crossbar(1, (2,))
        assert f.kind is FaultKind.XB
        assert f.element == xb(1, (2,))

    def test_validate_rejects_bogus_router(self, topo):
        with pytest.raises(ValueError):
            Fault.router((9, 9)).validate(topo)

    def test_validate_rejects_bogus_xb(self, topo):
        with pytest.raises(ValueError):
            Fault.crossbar(0, (7,)).validate(topo)

    def test_str(self):
        assert "RTR" in str(Fault.router((1, 1)))
        assert "XB" in str(Fault.crossbar(0, (1,)))


class TestRegistryRouterFault:
    """Paper: 'the XBs set the information of the RTRs they are connected
    to' -- only the two (d) crossbars serving the faulty router learn."""

    def test_adjacent_xbs_learn_port(self, topo):
        reg = FaultRegistry(topo, Fault.router((2, 1)))
        assert reg.info(xb(0, (1,))).faulty_ports == {2}
        assert reg.info(xb(1, (2,))).faulty_ports == {1}

    def test_other_xbs_clear(self, topo):
        reg = FaultRegistry(topo, Fault.router((2, 1)))
        assert reg.info(xb(0, (0,))).clear
        assert reg.info(xb(1, (0,))).clear

    def test_routers_learn_nothing(self, topo):
        reg = FaultRegistry(topo, Fault.router((2, 1)))
        for c in topo.node_coords():
            assert not reg.info(rtr(c)).faulty_xb_dims

    def test_dead_pes(self, topo):
        reg = FaultRegistry(topo, Fault.router((2, 1)))
        assert reg.dead_pes() == ((2, 1),)

    def test_is_faulty(self, topo):
        reg = FaultRegistry(topo, Fault.router((2, 1)))
        assert reg.router_is_faulty((2, 1))
        assert not reg.router_is_faulty((2, 0))


class TestRegistryXBFault:
    """Paper: 'the RTRs set the information of the XBs they are connected
    to' -- only routers on the faulty crossbar's line learn."""

    def test_line_routers_learn_dim(self, topo):
        reg = FaultRegistry(topo, Fault.crossbar(0, (1,)))
        for x in range(4):
            assert reg.info(rtr((x, 1))).faulty_xb_dims == {0}

    def test_other_routers_clear(self, topo):
        reg = FaultRegistry(topo, Fault.crossbar(0, (1,)))
        assert reg.info(rtr((0, 0))).clear
        assert reg.info(rtr((3, 2))).clear

    def test_no_dead_pes(self, topo):
        reg = FaultRegistry(topo, Fault.crossbar(0, (1,)))
        assert reg.dead_pes() == ()

    def test_xb_is_faulty(self, topo):
        reg = FaultRegistry(topo, Fault.crossbar(1, (3,)))
        assert reg.xb_is_faulty(1, (3,))
        assert not reg.xb_is_faulty(0, (3,))


class TestRegistryNoFault:
    def test_everything_clear(self, topo):
        reg = FaultRegistry(topo, None)
        for el in topo.switch_elements():
            assert reg.info(el).clear
        assert reg.dead_pes() == ()

    def test_fault_on_line(self, topo):
        reg = FaultRegistry(topo, Fault.router((2, 1)))
        assert reg.fault_on_line(0, (1,))
        assert reg.fault_on_line(1, (2,))
        assert not reg.fault_on_line(0, (0,))
        clean = FaultRegistry(topo, None)
        assert not clean.fault_on_line(0, (0,))

    def test_invalid_fault_rejected_at_build(self, topo):
        with pytest.raises(ValueError):
            FaultRegistry(topo, Fault.router((5, 5)))


class TestRegistryMultiFault:
    def test_membership_agrees_with_the_fault_list(self, topo):
        faults = (
            Fault.router((2, 1)),
            Fault.router((0, 2)),
            Fault.crossbar(0, (1,)),
            Fault.crossbar(1, (3,)),
        )
        reg = FaultRegistry(topo, faults=faults)
        for el in topo.elements():
            listed = any(f.element == el for f in faults)
            assert reg.is_faulty(el) is listed
            if el[0] == "RTR":
                assert reg.router_is_faulty(el[1]) is listed
            elif el[0] == "XB":
                assert reg.xb_is_faulty(el[1], el[2]) is listed
        assert sum(map(reg.is_faulty, topo.elements())) == len(faults)
