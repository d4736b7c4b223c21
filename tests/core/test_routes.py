"""Unit tests for static route computation (trees, paths, RC traces)."""

from dataclasses import replace
from itertools import combinations

import pytest

from repro.core import (
    Broadcast,
    Decision,
    Fault,
    RC,
    SwitchLogic,
    Unicast,
    compute_route,
    make_config,
    route_all_broadcasts,
    route_all_unicasts,
)
from repro.core.config import BroadcastMode, ConfigError, DetourScheme
from repro.core.dimension_order import (
    expected_normal_elements,
    expected_request_leg_elements,
    expected_xb_hops,
)
from repro.core.multifault import all_single_faults
from repro.core.packet import Header
from repro.core.decision_table import DecisionTable
from repro.core.routes import RouteLoopError
from repro.core.switch_logic import UnreachableDestinationError
from repro.topology import MDCrossbar, pe, rtr, xb
from tests.conftest import make_logic


class TestUnicastRoutes:
    def test_matches_oracle_everywhere_43(self, topo43, logic43):
        for tree in route_all_unicasts(topo43, logic43):
            flow = tree.flow
            assert tree.elements_to(flow.dest) == expected_normal_elements(
                logic43.config, flow.source, flow.dest
            )

    def test_matches_oracle_3d(self, topo333, logic333):
        for tree in route_all_unicasts(topo333, logic333):
            flow = tree.flow
            assert tree.elements_to(flow.dest) == expected_normal_elements(
                logic333.config, flow.source, flow.dest
            )

    def test_xb_hops_bounded_by_d(self, topo43, logic43):
        for tree in route_all_unicasts(topo43, logic43):
            assert tree.xb_hops_to(tree.flow.dest) <= 2

    def test_xb_hops_equal_differing_dims(self, topo43, logic43):
        t = compute_route(topo43, logic43, Unicast((0, 1), (3, 1)))
        assert t.xb_hops_to((3, 1)) == expected_xb_hops((0, 1), (3, 1)) == 1

    def test_rc_stays_normal(self, topo43, logic43):
        t = compute_route(topo43, logic43, Unicast((0, 0), (2, 2)))
        assert all(rc is RC.NORMAL for rc in t.rc_trace_to((2, 2)))

    def test_self_send(self, topo43, logic43):
        t = compute_route(topo43, logic43, Unicast((1, 1), (1, 1)))
        assert t.elements_to((1, 1)) == (
            ("PE", (1, 1)), ("RTR", (1, 1)), ("PE", (1, 1))
        )

    def test_delivered_set(self, topo43, logic43):
        t = compute_route(topo43, logic43, Unicast((0, 0), (2, 2)))
        assert t.delivered == {(2, 2)}

    def test_path_to_unknown_dest_raises(self, topo43, logic43):
        t = compute_route(topo43, logic43, Unicast((0, 0), (2, 2)))
        with pytest.raises(KeyError):
            t.path_to((3, 0))


class TestDetourRoutes:
    def test_fig8_shape(self, topo43, logic43_faulty_rtr):
        """The paper's Fig. 8 walkthrough: deflect at the X-XB, travel to
        the D-XB via a detour router, reset, resume X-Y."""
        cfg = logic43_faulty_rtr.config
        t = compute_route(topo43, logic43_faulty_rtr, Unicast((0, 0), (2, 2)))
        els = t.elements_to((2, 2))
        assert ("RTR", (2, 0)) not in els  # the fault is avoided
        assert cfg.dxb_element in els  # the packet passes the D-XB
        assert els[-1] == ("PE", (2, 2))

    def test_rc_trace_normal_detour_normal(self, topo43, logic43_faulty_rtr):
        t = compute_route(topo43, logic43_faulty_rtr, Unicast((0, 0), (2, 2)))
        trace = t.rc_trace_to((2, 2))
        # the paper: "The packet leaves no trace of the detour routing
        # behind" -- RC returns to NORMAL after the D-XB
        kinds = [rc for rc in trace]
        assert kinds[0] is RC.NORMAL
        assert RC.DETOUR in kinds
        assert kinds[-1] is RC.NORMAL
        # once back to NORMAL it never flips again
        last_detour = max(i for i, rc in enumerate(kinds) if rc is RC.DETOUR)
        assert all(rc is RC.NORMAL for rc in kinds[last_detour + 1 :])

    def test_unaffected_pairs_use_normal_route(self, topo43, logic43_faulty_rtr):
        # (0,1) -> (1,1): route never meets the fault at (2,0)
        t = compute_route(topo43, logic43_faulty_rtr, Unicast((0, 1), (1, 1)))
        assert t.elements_to((1, 1)) == expected_normal_elements(
            logic43_faulty_rtr.config, (0, 1), (1, 1)
        )

    def test_all_healthy_pairs_delivered_with_router_fault(self, topo43):
        logic = make_logic(topo43, fault=Fault.router((1, 1)))
        trees = route_all_unicasts(topo43, logic)
        assert len(trees) == 11 * 10
        for t in trees:
            assert t.flow.dest in t.delivered
            assert ("RTR", (1, 1)) not in t.elements_to(t.flow.dest)

    def test_all_healthy_pairs_delivered_with_xb_fault(self, topo43):
        logic = make_logic(topo43, fault=Fault.crossbar(0, (1,)))
        for t in route_all_unicasts(topo43, logic):
            els = t.elements_to(t.flow.dest)
            assert ("XB", 0, (1,)) not in els
            assert t.flow.dest in t.delivered

    def test_last_dim_xb_fault_order_rotation(self, topo43):
        # faulty Y-XB: order becomes Y-X and every pair still routes
        logic = make_logic(topo43, fault=Fault.crossbar(1, (2,)))
        assert logic.config.order == (1, 0)
        for t in route_all_unicasts(topo43, logic):
            els = t.elements_to(t.flow.dest)
            assert ("XB", 1, (2,)) not in els
            assert t.flow.dest in t.delivered

    def test_3d_router_fault_full_coverage(self, topo333):
        logic = make_logic(topo333, fault=Fault.router((1, 1, 1)))
        for t in route_all_unicasts(topo333, logic):
            els = t.elements_to(t.flow.dest)
            assert ("RTR", (1, 1, 1)) not in els
            assert t.flow.dest in t.delivered

    def test_faulty_endpoint_rejected(self, topo43, logic43_faulty_rtr):
        with pytest.raises(UnreachableDestinationError):
            compute_route(topo43, logic43_faulty_rtr, Unicast((2, 0), (0, 0)))
        with pytest.raises(UnreachableDestinationError):
            compute_route(topo43, logic43_faulty_rtr, Unicast((0, 0), (2, 0)))


class TestBroadcastRoutes:
    def test_covers_all_pes_exactly_once(self, topo43, logic43):
        t = compute_route(topo43, logic43, Broadcast((2, 1)))
        assert t.delivered == set(topo43.node_coords())
        # exactly one ejection channel per PE
        ej = [c for c in t.channels() if c.dst[0] == "PE"]
        assert len(ej) == topo43.num_nodes

    def test_yxy_routing_shape(self, topo43, logic43):
        """Paper: 'the broadcast routing becomes Y-X-Y routing'."""
        t = compute_route(topo43, logic43, Broadcast((2, 2)))
        path = t.elements_to((3, 1))
        xbs = [el for el in path if el[0] == "XB"]
        assert [x[1] for x in xbs] == [1, 0, 1]  # Y then X (S-XB) then Y

    def test_request_leg_matches_oracle(self, topo43, logic43):
        t = compute_route(topo43, logic43, Broadcast((2, 2)))
        leg = expected_request_leg_elements(logic43.config, (2, 2))
        path = t.elements_to((3, 1))
        assert path[: len(leg)] == leg

    def test_source_on_sxb_row_enters_directly(self, topo43, logic43):
        t = compute_route(topo43, logic43, Broadcast((1, 0)))
        path = t.elements_to((1, 0))
        assert path[2] == logic43.config.sxb_element

    def test_serialize_entry_recorded(self, topo43, logic43):
        t = compute_route(topo43, logic43, Broadcast((0, 1)))
        assert len(t.serialize_entries) == 1
        assert t.serialize_entries[0].dst == logic43.config.sxb_element

    def test_all_sources(self, topo43, logic43):
        for t in route_all_broadcasts(topo43, logic43):
            assert t.delivered == set(topo43.node_coords())

    def test_3d_coverage(self, topo333, logic333):
        t = compute_route(topo333, logic333, Broadcast((2, 1, 0)))
        assert t.delivered == set(topo333.node_coords())

    def test_naive_mode_covers_all(self, topo43, logic43_naive_broadcast):
        t = compute_route(
            topo43, logic43_naive_broadcast, Broadcast((2, 1), RC.BROADCAST)
        )
        assert t.delivered == set(topo43.node_coords())
        assert t.serialize_entries == []

    def test_naive_mode_xy_shape(self, topo43, logic43_naive_broadcast):
        t = compute_route(
            topo43, logic43_naive_broadcast, Broadcast((2, 1), RC.BROADCAST)
        )
        path = t.elements_to((0, 2))
        xbs = [el[1] for el in path if el[0] == "XB"]
        assert xbs == [0, 1]  # X then Y, no S-XB pass

    def test_broadcast_with_fault_skips_dead_pe(self, topo43):
        logic = make_logic(topo43, fault=Fault.router((2, 0)))
        t = compute_route(topo43, logic, Broadcast((0, 1)))
        expected = set(topo43.node_coords()) - {(2, 0)}
        assert t.delivered == expected

    def test_broadcast_tree_channel_count(self, topo43, logic43):
        # source on S-XB row: no request leg beyond inj + entry
        t = compute_route(topo43, logic43, Broadcast((0, 0)))
        # inj, R->S-XB, 4 XR, 4 ej on row 0, 4 RY, 8 YR, 8 ej
        assert t.num_channels == 1 + 1 + 4 + 4 + 4 + 8 + 8


class TestTreeAccessors:
    def test_ancestors_of_root_empty(self, topo43, logic43):
        t = compute_route(topo43, logic43, Unicast((0, 0), (1, 0)))
        assert t.ancestors(t.root) == ()

    def test_ancestors_ordering(self, topo43, logic43):
        t = compute_route(topo43, logic43, Unicast((0, 0), (2, 2)))
        chans = t.path_to((2, 2))
        anc = t.ancestors(chans[-1])
        assert anc == tuple(reversed(chans[:-1]))

    def test_loop_guard_raises_on_tiny_budget(self, topo43, logic43):
        with pytest.raises(RouteLoopError):
            compute_route(topo43, logic43, Broadcast((2, 2)), max_steps=2)


def tree_fields(tree):
    """Every field of a route tree, dicts as their items in insertion order."""
    return (
        tree.flow,
        tree.root,
        list(tree.parent.items()),
        list(tree.children.items()),
        list(tree.rc_on.items()),
        tree.serialize_entries,
        tree.delivered,
        tree.dropped_at,
    )


# relations that break, in one switch each, what the shared spread relies on
class InputDependentSXB(SwitchLogic):
    """The S-XB serves one port less when entered from (3, 0): that leg's
    spread is not the first one's."""

    def decide(self, el, in_from, header):
        d = super().decide(el, in_from, header)
        if d.serialize and in_from == rtr((3, 0)):
            return replace(d, outputs=d.outputs[:-1])
        return d


class SerializingSpreadRouter(SwitchLogic):
    """A spread router that serializes as well: its entry belongs to every
    copy of the spread."""

    def decide(self, el, in_from, header):
        d = super().decide(el, in_from, header)
        if el == rtr((2, 1)) and header.rc is RC.BROADCAST:
            return replace(d, serialize=True)
        return d


class ForkingLeg(SwitchLogic):
    """The request leg from (1, 2) forks at its source; the second branch
    is still pending when the S-XB decides, and is dropped after it."""

    FORK = {
        (rtr((1, 2)), pe((1, 2))): (xb(1, (1,)), xb(0, (2,))),
        (xb(0, (2,)), rtr((1, 2))): (rtr((3, 2)),),
        (xb(1, (3,)), rtr((3, 2))): (),
    }

    def decide(self, el, in_from, header):
        outputs = self.FORK.get((el, in_from))
        if outputs is None or header.rc is not RC.BROADCAST_REQUEST:
            return super().decide(el, in_from, header)
        return Decision(outputs=outputs, rc=header.rc, drop=not outputs)


class DroppingLeg(ForkingLeg):
    """The same fork, its second branch dropped before the S-XB decides."""

    FORK = {
        (rtr((1, 2)), pe((1, 2))): (xb(1, (1,)), xb(0, (2,))),
        (xb(0, (2,)), rtr((1, 2))): (),
    }


class Crossing(SwitchLogic):
    """The request leg from (3, 2) detours through (3, 1), taking the
    spread's channel XB1(3,) -> RTR(3, 1) on its way to the S-XB."""

    def decide(self, el, in_from, header):
        if (el, in_from, header.rc) == (xb(1, (3,)), rtr((3, 2)), RC.BROADCAST_REQUEST):
            return Decision(outputs=(rtr((3, 1)),), rc=header.rc)
        return super().decide(el, in_from, header)


class TestSharedSpread:
    """``route_all_broadcasts`` walks the S-XB spread once and grafts it
    under every later request leg; each tree must still be exactly the one
    :func:`compute_route` builds on a fresh relation."""

    @staticmethod
    def assert_trees_are_compute_route(topo, config, sources=None):
        trees = route_all_broadcasts(topo, SwitchLogic(topo, config), sources)
        reference = SwitchLogic(topo, config)
        rc0 = RC.BROADCAST_REQUEST if (
            config.broadcast_mode is BroadcastMode.SERIALIZED
        ) else RC.BROADCAST
        dead = set(reference.registry.dead_pes())
        srcs = [
            s for s in (topo.node_coords() if sources is None else sources)
            if s not in dead
        ]
        assert len(trees) == len(srcs)
        for tree, s in zip(trees, srcs):
            want = compute_route(topo, reference, Broadcast(s, rc0))
            assert tree_fields(tree) == tree_fields(want), s

    @pytest.mark.parametrize(
        "shape", [(4, 3), (3, 3, 2), (5, 1, 3)], ids=lambda s: "x".join(map(str, s))
    )
    def test_every_single_fault(self, shape):
        topo = MDCrossbar(shape)
        for fault in [None, *all_single_faults(shape)]:
            for mode in BroadcastMode:
                config = make_config(shape, fault=fault, broadcast_mode=mode)
                self.assert_trees_are_compute_route(topo, config)

    def test_every_feasible_fault_pair(self, topo43):
        for pair in combinations(all_single_faults((4, 3)), 2):
            for mode in BroadcastMode:
                try:
                    config = make_config((4, 3), faults=pair, broadcast_mode=mode)
                except ConfigError:
                    continue
                self.assert_trees_are_compute_route(topo43, config)

    def test_source_subsets(self, topo333):
        # scrambled, repeated, and including a dead source (filtered out)
        nodes = list(topo333.node_coords())
        subsets = [nodes[::-3], [nodes[5], nodes[5], nodes[0]], [(1, 1, 1), nodes[2]]]
        for fault in (None, Fault.router((1, 1, 1))):
            for mode in BroadcastMode:
                config = make_config(topo333.shape, fault=fault, broadcast_mode=mode)
                for sources in subsets:
                    self.assert_trees_are_compute_route(topo333, config, sources)

    def test_leg_meeting_the_spread_is_a_loop(self, topo43):
        logic = Crossing(topo43, make_config((4, 3)))
        with pytest.raises(RouteLoopError) as want:
            compute_route(topo43, logic, Broadcast((3, 2)))
        assert "XB1(3,)->RTR(3, 1)" in str(want.value)
        with pytest.raises(RouteLoopError) as got:
            route_all_broadcasts(topo43, logic, [(0, 0), (3, 2)])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("first", [None, (1, 2)])
    @pytest.mark.parametrize(
        "relation",
        [InputDependentSXB, SerializingSpreadRouter, ForkingLeg, DroppingLeg],
        ids=lambda cls: cls.__name__,
    )
    def test_relations_outside_the_facility(self, topo43, relation, first):
        logic = relation(topo43, make_config((4, 3)))
        sources = list(topo43.node_coords())
        if first is not None:  # its tree supplies the spread
            sources.remove(first)
            sources.insert(0, first)
        for tree in route_all_broadcasts(topo43, logic, sources):
            want = compute_route(topo43, logic, tree.flow)
            assert tree_fields(tree) == tree_fields(want), tree.flow


class TestHopWalkSelectors:
    """The array walk (``routes._HopWalk``) looks a state's next state up
    in the :class:`DecisionTable` at ``(row, rc, sel)``.  That index must
    never join two states that :meth:`SwitchLogic.decision_key` tells
    apart: states with one index have one key, or both ``None``
    (DESIGN.md 5l)."""

    @pytest.mark.parametrize("shape", [(4, 3), (3, 3, 2), (2, 2, 2)])
    def test_one_entry_one_decision_key(self, shape):
        import numpy as np

        topo = MDCrossbar(shape)
        chans = topo.channels()
        nodes = topo.node_coords()
        # every (channel into a switch, rc, dest)
        into = [c.cid for c in chans if c.dst[0] != "PE"]
        grid = np.meshgrid(into, [RC.NORMAL, RC.DETOUR], range(len(nodes)), indexing="ij")
        cid, rc, t = (a.ravel() for a in grid)
        states = list(zip(cid.tolist(), rc.tolist(), t.tolist()))
        headers = {
            (r, d): Header(source=nodes[0], dest=nodes[d], rc=RC(r))
            for r in (RC.NORMAL, RC.DETOUR)
            for d in range(len(nodes))
        }
        configs = 0
        for fault in [None] + all_single_faults(shape):
            for scheme in DetourScheme:
                try:
                    cfg = make_config(shape, fault=fault, detour_scheme=scheme)
                except ConfigError:
                    continue
                logic = SwitchLogic(topo, cfg)
                table = DecisionTable(topo, logic)
                rows = table.row[cid]
                entries, _ = table.lookup(rows, rc, table.selector(rows, t))
                key_of, seen = logic.decision_key, {}
                for k, (c, r, d) in zip(entries.tolist(), states):
                    key = key_of(chans[c].dst, chans[c].src, headers[r, d])
                    assert seen.setdefault(k, key) == key, (fault, scheme, chans[c], d)
                configs += 1
        assert configs > len(all_single_faults(shape))
