"""Unit tests for the distributed switch decision rules (Sections 3.2/4/5)."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import Fault, RC, Header, SwitchLogic, make_config
from repro.core.config import BroadcastMode, ConfigError, DetourScheme
from repro.core.multifault import all_single_faults
from repro.core.switch_logic import RoutingError, UnreachableDestinationError
from repro.topology import MDCrossbar, pe, rtr, xb
from tests.conftest import make_logic


def hdr(src, dst, rc=RC.NORMAL):
    return Header(source=src, dest=dst, rc=rc)


@st.composite
def fault_sets(draw):
    """A small shape and two or three of its single faults."""
    shape = draw(st.sampled_from([(3, 2), (3, 3), (2, 2, 2)]))
    singles = all_single_faults(shape)
    size = draw(st.integers(2, 3))
    return shape, draw(st.sampled_from(list(combinations(singles, size))))


class TestRouterNormal:
    def test_delivery_at_destination(self, logic43):
        d = logic43.decide(rtr((2, 1)), xb(1, (2,)), hdr((0, 0), (2, 1)))
        assert d.outputs == (pe((2, 1)),)

    def test_first_dim_hop(self, logic43):
        d = logic43.decide(rtr((0, 0)), pe((0, 0)), hdr((0, 0), (2, 2)))
        assert d.outputs == (xb(0, (0,)),)
        assert d.rc is RC.NORMAL

    def test_second_dim_hop_when_first_matches(self, logic43):
        d = logic43.decide(rtr((2, 0)), pe((2, 0)), hdr((2, 0), (2, 2)))
        assert d.outputs == (xb(1, (2,)),)

    def test_turn_router_forwards_y(self, logic43):
        # mid-route: the packet arrived from the X crossbar and turns to Y
        d = logic43.decide(rtr((2, 0)), xb(0, (0,)), hdr((0, 0), (2, 2)))
        assert d.outputs == (xb(1, (2,)),)

    def test_order_respected_under_yx(self, topo43):
        logic = make_logic(topo43, order=(1, 0))
        d = logic.decide(rtr((0, 0)), pe((0, 0)), hdr((0, 0), (2, 2)))
        assert d.outputs == (xb(1, (0,)),)  # Y first

    def test_3d_order(self, logic333):
        d = logic333.decide(rtr((0, 0, 0)), pe((0, 0, 0)), hdr((0, 0, 0), (0, 2, 2)))
        assert d.outputs == (xb(1, (0, 0)),)


class TestRouterFaultyOwnXB:
    def test_detour_starts_at_source_router(self, topo43):
        logic = make_logic(topo43, fault=Fault.crossbar(0, (0,)))
        # source (1,0) must hop X but its X-XB is faulty -> detour via Y
        d = logic.decide(rtr((1, 0)), pe((1, 0)), hdr((1, 0), (3, 0)))
        assert d.rc is RC.DETOUR
        assert d.outputs == (xb(1, (1,)),)

    def test_unaffected_when_no_first_dim_hop(self, topo43):
        logic = make_logic(topo43, fault=Fault.crossbar(0, (0,)))
        d = logic.decide(rtr((1, 0)), pe((1, 0)), hdr((1, 0), (1, 2)))
        assert d.rc is RC.NORMAL
        assert d.outputs == (xb(1, (1,)),)

    def test_r1_violation_raises(self, topo43):
        # hand-build an inconsistent state: faulty Y-XB but X-Y order
        from repro.core.config import RoutingConfig
        from repro.core.fault import FaultRegistry

        cfg = RoutingConfig(
            shape=(4, 3), order=(0, 1), sxb_line=(0,), dxb_line=(0,),
            fault=Fault.crossbar(1, (0,)),
        )
        logic = SwitchLogic(topo43, cfg, FaultRegistry(topo43, cfg.fault))
        with pytest.raises(RoutingError, match="R1"):
            logic.decide(rtr((0, 1)), xb(0, (1,)), hdr((3, 1), (0, 2)))


class TestXBNormal:
    def test_forwards_to_destination_column(self, logic43):
        d = logic43.decide(xb(0, (0,)), rtr((0, 0)), hdr((0, 0), (2, 2)))
        assert d.outputs == (rtr((2, 0)),)
        assert d.rc is RC.NORMAL

    def test_y_xb_forwards_to_destination(self, logic43):
        d = logic43.decide(xb(1, (2,)), rtr((2, 0)), hdr((0, 0), (2, 2)))
        assert d.outputs == (rtr((2, 2)),)

    def test_deflects_around_faulty_turn_router(self, logic43_faulty_rtr):
        # fault at (2,0); packet (0,0)->(2,2) would turn there
        d = logic43_faulty_rtr.decide(
            xb(0, (0,)), rtr((0, 0)), hdr((0, 0), (2, 2))
        )
        assert d.rc is RC.DETOUR
        (out,) = d.outputs
        assert out[0] == "RTR"
        assert out[1][0] not in (2, 0)  # neither the faulty nor the input port

    def test_drops_when_destination_router_faulty(self, logic43_faulty_rtr):
        d = logic43_faulty_rtr.decide(
            xb(1, (2,)), rtr((2, 1)), hdr((2, 1), (2, 0))
        )
        assert d.drop and d.outputs == ()

    def test_from_non_router_raises(self, logic43):
        with pytest.raises(RoutingError):
            logic43.decide(xb(0, (0,)), pe((0, 0)), hdr((0, 0), (2, 0)))


class TestBroadcastRequestLeg:
    def test_source_off_line_routes_reverse_order(self, logic43):
        # S-XB is X-XB row 0; source at y=2 must hop Y toward row 0
        d = logic43.decide(
            rtr((1, 2)), pe((1, 2)), hdr((1, 2), (1, 2), RC.BROADCAST_REQUEST)
        )
        assert d.outputs == (xb(1, (1,)),)
        assert d.rc is RC.BROADCAST_REQUEST

    def test_y_xb_forwards_to_sxb_row(self, logic43):
        d = logic43.decide(
            xb(1, (1,)), rtr((1, 2)), hdr((1, 2), (1, 2), RC.BROADCAST_REQUEST)
        )
        assert d.outputs == (rtr((1, 0)),)

    def test_on_line_enters_sxb(self, logic43):
        d = logic43.decide(
            rtr((1, 0)), xb(1, (1,)), hdr((1, 2), (1, 2), RC.BROADCAST_REQUEST)
        )
        assert d.outputs == (logic43.config.sxb_element,)

    def test_request_into_wrong_xdim_xb_raises(self, logic43):
        with pytest.raises(RoutingError):
            logic43.decide(
                xb(0, (1,)), rtr((0, 1)), hdr((0, 1), (0, 1), RC.BROADCAST_REQUEST)
            )

    def test_3d_reverse_order_leg(self, logic333):
        # S-XB line (0,0): from (1,2,2) the leg fixes dim 2 first
        d = logic333.decide(
            rtr((1, 2, 2)), pe((1, 2, 2)), hdr((1, 2, 2), (1, 2, 2), RC.BROADCAST_REQUEST)
        )
        assert d.outputs == (xb(2, (1, 2)),)


class TestSXBSerialization:
    def test_sxb_converts_and_multicasts_all_ports(self, logic43):
        d = logic43.decide(
            logic43.config.sxb_element,
            rtr((1, 0)),
            hdr((1, 2), (1, 2), RC.BROADCAST_REQUEST),
        )
        assert d.serialize
        assert d.rc is RC.BROADCAST
        assert set(d.outputs) == {rtr((x, 0)) for x in range(4)}

    def test_spread_router_delivers_and_forwards(self, logic43):
        d = logic43.decide(
            rtr((2, 0)), xb(0, (0,)), hdr((1, 2), (1, 2), RC.BROADCAST)
        )
        assert pe((2, 0)) in d.outputs
        assert xb(1, (2,)) in d.outputs
        assert len(d.outputs) == 2

    def test_spread_yxb_excludes_input_port(self, logic43):
        d = logic43.decide(
            xb(1, (2,)), rtr((2, 0)), hdr((1, 2), (1, 2), RC.BROADCAST)
        )
        assert set(d.outputs) == {rtr((2, 1)), rtr((2, 2))}
        assert not d.serialize

    def test_leaf_router_only_delivers(self, logic43):
        d = logic43.decide(
            rtr((2, 2)), xb(1, (2,)), hdr((1, 2), (1, 2), RC.BROADCAST)
        )
        assert d.outputs == (pe((2, 2)),)

    def test_3d_spread_router_forwards_all_later_dims(self, logic333):
        d = logic333.decide(
            rtr((1, 0, 0)), xb(0, (0, 0)), hdr((0, 0, 0), (0, 0, 0), RC.BROADCAST)
        )
        assert set(d.outputs) == {pe((1, 0, 0)), xb(1, (1, 0)), xb(2, (1, 0))}

    def test_spread_skips_faulty_leaf(self, topo43):
        logic = make_logic(topo43, fault=Fault.router((2, 0)))
        line = logic.config.sxb_line  # moved off row 0 by rule R2
        sxb = logic.config.sxb_element
        d = logic.decide(
            sxb, rtr((0, line[0])), hdr((0, 2), (0, 2), RC.BROADCAST_REQUEST)
        )
        # S-XB row contains no faulty router (R2), all 4 ports served
        assert len(d.outputs) == 4
        # ... and the Y spread toward the dead PE's column skips it
        d2 = logic.decide(
            xb(1, (2,)), rtr((2, line[0])), hdr((0, 2), (0, 2), RC.BROADCAST)
        )
        assert rtr((2, 0)) not in d2.outputs


class TestNaiveBroadcast:
    def test_source_router_forwards_to_first_dim(self, logic43_naive_broadcast):
        d = logic43_naive_broadcast.decide(
            rtr((2, 1)), pe((2, 1)), hdr((2, 1), (2, 1), RC.BROADCAST)
        )
        assert d.outputs == (xb(0, (1,)),)

    def test_first_dim_xb_multicasts_all_including_input(
        self, logic43_naive_broadcast
    ):
        d = logic43_naive_broadcast.decide(
            xb(0, (1,)), rtr((2, 1)), hdr((2, 1), (2, 1), RC.BROADCAST)
        )
        assert len(d.outputs) == 4
        assert rtr((2, 1)) in d.outputs
        assert not d.serialize

    def test_injecting_rc2_in_serialized_mode_raises(self, logic43):
        with pytest.raises(RoutingError):
            logic43.decide(
                rtr((2, 1)), pe((2, 1)), hdr((2, 1), (2, 1), RC.BROADCAST)
            )


class TestDetourLeg:
    def test_detour_router_heads_to_yxb(self, logic43_faulty_rtr):
        # deflected packet at the detour router continues toward the D-XB
        d = logic43_faulty_rtr.decide(
            rtr((1, 0)), xb(0, (0,)), hdr((0, 0), (2, 2), RC.DETOUR)
        )
        assert d.outputs == (xb(1, (1,)),)
        assert d.rc is RC.DETOUR

    def test_yxb_forwards_to_dxb_row(self, logic43_faulty_rtr):
        cfg = logic43_faulty_rtr.config
        d = logic43_faulty_rtr.decide(
            xb(1, (1,)), rtr((1, 0)), hdr((0, 0), (2, 2), RC.DETOUR)
        )
        assert d.outputs == (rtr((1, cfg.line_coord(cfg.dxb_line, 1))),)

    def test_router_on_dxb_row_enters_dxb(self, logic43_faulty_rtr):
        cfg = logic43_faulty_rtr.config
        y = cfg.line_coord(cfg.dxb_line, 1)
        d = logic43_faulty_rtr.decide(
            rtr((1, y)), xb(1, (1,)), hdr((0, 0), (2, 2), RC.DETOUR)
        )
        assert d.outputs == (cfg.dxb_element,)

    def test_dxb_resets_rc_and_routes_by_address(self, logic43_faulty_rtr):
        cfg = logic43_faulty_rtr.config
        y = cfg.line_coord(cfg.dxb_line, 1)
        d = logic43_faulty_rtr.decide(
            cfg.dxb_element, rtr((1, y)), hdr((0, 0), (2, 2), RC.DETOUR)
        )
        assert d.rc is RC.NORMAL
        assert d.outputs == (rtr((2, y)),)

    def test_detour_into_wrong_first_dim_xb_raises(self, logic43_faulty_rtr):
        cfg = logic43_faulty_rtr.config
        other = [y for y in range(3) if (y,) != cfg.dxb_line][0]
        with pytest.raises(RoutingError):
            logic43_faulty_rtr.decide(
                xb(0, (other,)), rtr((0, other)), hdr((0, 0), (2, 2), RC.DETOUR)
            )

    def test_naive_scheme_uses_distinct_dxb(self, logic43_naive_detour):
        cfg = logic43_naive_detour.config
        assert cfg.dxb_line != cfg.sxb_line
        y = cfg.line_coord(cfg.dxb_line, 1)
        d = logic43_naive_detour.decide(
            cfg.dxb_element, rtr((1, y)), hdr((0, 0), (2, 2), RC.DETOUR)
        )
        assert d.rc is RC.NORMAL


class TestDeliverability:
    def test_faulty_source_rejected(self, logic43_faulty_rtr):
        with pytest.raises(UnreachableDestinationError):
            logic43_faulty_rtr.check_deliverable((2, 0), (0, 0))

    def test_faulty_dest_rejected(self, logic43_faulty_rtr):
        with pytest.raises(UnreachableDestinationError):
            logic43_faulty_rtr.check_deliverable((0, 0), (2, 0))

    def test_healthy_pair_ok(self, logic43_faulty_rtr):
        logic43_faulty_rtr.check_deliverable((0, 0), (3, 2))


class TestConstruction:
    def test_shape_mismatch_rejected(self, topo43):
        with pytest.raises(ValueError):
            SwitchLogic(topo43, make_config((4, 4)))

    def test_registry_mismatch_rejected(self, topo43):
        from repro.core.fault import FaultRegistry

        cfg = make_config((4, 3), fault=Fault.router((2, 0)))
        with pytest.raises(ValueError):
            SwitchLogic(topo43, cfg, FaultRegistry(topo43, None))

    def test_pe_does_not_route(self, logic43):
        with pytest.raises(RoutingError):
            logic43.decide(pe((0, 0)), rtr((0, 0)), hdr((0, 0), (1, 1)))


# -- the decision cache against the rules ----------------------------------------
def _outcome(fn, el, in_from, header):
    """A decision, or the type and message of the RoutingError raised."""
    try:
        return fn(el, in_from, header)
    except RoutingError as e:
        return type(e), str(e)


def _queries(topo):
    """Every switch x input (each channel's source, and a PE, which no
    crossbar is wired to) x destination x RC bit."""
    stray = pe(topo.node_coords()[0])
    return [
        (el, in_from, Header(source=dest, dest=dest, rc=rc))
        for el in topo.switch_elements()
        for in_from in dict.fromkeys([*(c.src for c in topo.channels_to(el)), stray])
        for dest in topo.node_coords()
        for rc in RC
    ]


def assert_cache_matches_rules(topo, config):
    """Warm ``decide`` equals the uncached rule on every query, queried
    forward and reversed on fresh instances, so a key that is too narrow
    fails whichever query fills its entry first."""
    queries = _queries(topo)
    rules = SwitchLogic(topo, config)._rule
    want = [_outcome(rules, *q) for q in queries]
    for order in (range(len(queries)), reversed(range(len(queries)))):
        logic = SwitchLogic(topo, config)
        for i in order:
            assert _outcome(logic.decide, *queries[i]) == want[i], queries[i]


def _configs(shape, faults):
    for mode in BroadcastMode:
        for scheme in DetourScheme:
            try:
                yield make_config(
                    shape, faults=faults, broadcast_mode=mode, detour_scheme=scheme
                )
            except ConfigError:
                pass  # no distinct D-XB / fault not tolerable on this shape


class TestDecisionCache:
    @pytest.mark.parametrize(
        "shape", [(3, 2), (2, 2, 2), (2, 1, 2)], ids=lambda s: "x".join(map(str, s))
    )
    def test_every_query_of_every_single_fault(self, shape):
        topo = MDCrossbar(shape)
        for fault in [None, *all_single_faults(shape)]:
            for config in _configs(shape, () if fault is None else (fault,)):
                assert_cache_matches_rules(topo, config)

    @given(fault_sets())
    @settings(max_examples=10, deadline=None)
    def test_every_query_of_a_multi_fault_set(self, case):
        shape, faults = case
        configs = list(_configs(shape, faults))
        assume(configs)
        topo = MDCrossbar(shape)
        for config in configs:
            assert_cache_matches_rules(topo, config)

    def test_decisions_are_shared(self, logic43):
        # the law above also holds with no cache at all; this one does not
        q = (xb(0, (0,)), rtr((0, 0)), hdr((0, 0), (2, 2)))
        assert logic43.decide(*q) is logic43.decide(*q[:2], hdr((1, 1), (2, 0)))
