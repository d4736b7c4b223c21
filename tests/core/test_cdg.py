"""Unit tests for the tiered channel-dependency deadlock analysis.

These are the paper's headline results as executable checks:

* point-to-point dimension-order routing alone: deadlock free;
* serialized broadcast (Fig. 6): deadlock free;
* naive dimension-order broadcast (Fig. 5): deadlock hazard;
* detour facility alone, either D-XB choice (Section 4): deadlock free;
* naive detour + serialized broadcast (Fig. 9): deadlock hazard;
* D-XB = S-XB + serialized broadcast (Fig. 10 / Section 5): deadlock free.
"""

import hashlib
import json
import os

import pytest

from repro.core import (
    Fault,
    analyze_deadlock_freedom,
    build_cdg,
    route_all_broadcasts,
    route_all_unicasts,
)
from repro.core import SwitchLogic, make_config
from repro.core.cdg import ChannelDependencyGraph
from repro.core.config import BroadcastMode, ConfigError, DetourScheme
from repro.core.multifault import all_single_faults
from repro.core.packet import RC
from repro.core.routes import RouteLoopError, Unicast, unicast_hops, unicast_pairs
from repro.core.switch_logic import Decision, RoutingError, UnreachableDestinationError
from repro.topology import MDCrossbar, pe, rtr, xb
from tests.conftest import make_logic
from tests.properties.test_cdg_properties import reference_add_unicasts

#: certificates recorded before the decision cache and the shared S-XB
#: spread were written (see :class:`TestCertificateGolden`)
with open(os.path.join(os.path.dirname(__file__), "cdg_golden.json")) as _fh:
    GOLDEN = json.load(_fh)


class TestPaperClaims:
    def test_p2p_only_deadlock_free(self, topo43):
        logic = make_logic(topo43)
        res = analyze_deadlock_freedom(topo43, logic, include_broadcasts=False)
        assert res.deadlock_free

    def test_serialized_broadcast_deadlock_free(self, topo43):
        logic = make_logic(topo43)
        res = analyze_deadlock_freedom(topo43, logic)
        assert res.deadlock_free
        assert res.hazard is None

    def test_naive_broadcast_hazard(self, topo43):
        logic = make_logic(topo43, broadcast_mode=BroadcastMode.NAIVE)
        res = analyze_deadlock_freedom(topo43, logic)
        assert not res.deadlock_free
        assert res.hazard.kind in ("multi-tree-cycle", "tree-path-cycle")

    def test_naive_broadcast_hazard_is_multicast_pair(self, topo43):
        # Fig. 5 deadlocks two broadcasts against each other even with no
        # point-to-point traffic at all
        logic = make_logic(topo43, broadcast_mode=BroadcastMode.NAIVE)
        res = analyze_deadlock_freedom(topo43, logic, include_unicasts=False)
        assert not res.deadlock_free
        assert res.hazard.kind == "multi-tree-cycle"
        assert len(res.hazard.flows) >= 2

    def test_detour_alone_deadlock_free_both_schemes(self, topo43):
        for scheme in DetourScheme:
            logic = make_logic(
                topo43, fault=Fault.router((2, 0)), detour_scheme=scheme
            )
            res = analyze_deadlock_freedom(
                topo43, logic, include_broadcasts=False
            )
            assert res.deadlock_free, scheme

    def test_fig9_naive_detour_with_broadcast_hazard(self, topo43):
        logic = make_logic(
            topo43,
            fault=Fault.router((2, 0)),
            detour_scheme=DetourScheme.NAIVE,
        )
        res = analyze_deadlock_freedom(topo43, logic)
        assert not res.deadlock_free

    def test_fig10_safe_scheme_deadlock_free(self, topo43):
        logic = make_logic(topo43, fault=Fault.router((2, 0)))
        res = analyze_deadlock_freedom(topo43, logic)
        assert res.deadlock_free

    def test_safe_scheme_xb_fault_deadlock_free(self, topo43):
        for fault in (Fault.crossbar(0, (1,)), Fault.crossbar(1, (2,))):
            logic = make_logic(topo43, fault=fault)
            res = analyze_deadlock_freedom(topo43, logic)
            assert res.deadlock_free, fault

    def test_naive_detour_xb_fault_hazard(self, topo43):
        logic = make_logic(
            topo43,
            fault=Fault.crossbar(0, (1,)),
            detour_scheme=DetourScheme.NAIVE,
        )
        res = analyze_deadlock_freedom(topo43, logic)
        assert not res.deadlock_free


class TestSmallAndOddShapes:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (5, 4), (2, 2, 2)])
    def test_serialized_safe_everywhere(self, shape):
        from repro.topology import MDCrossbar

        topo = MDCrossbar(shape)
        logic = make_logic(topo)
        assert analyze_deadlock_freedom(topo, logic).deadlock_free

    def test_plain_crossbar_d1(self):
        from repro.topology import MDCrossbar

        topo = MDCrossbar((6,))
        logic = make_logic(topo)
        assert analyze_deadlock_freedom(topo, logic).deadlock_free

    def test_3d_serialized_safe(self, topo333):
        logic = make_logic(topo333)
        res = analyze_deadlock_freedom(topo333, logic)
        assert res.deadlock_free

    def test_3d_fig10(self, topo333):
        logic = make_logic(topo333, fault=Fault.router((1, 1, 1)))
        res = analyze_deadlock_freedom(topo333, logic)
        assert res.deadlock_free

    def test_3d_naive_detour_hazard(self, topo333):
        logic = make_logic(
            topo333,
            fault=Fault.router((1, 1, 1)),
            detour_scheme=DetourScheme.NAIVE,
        )
        res = analyze_deadlock_freedom(topo333, logic)
        assert not res.deadlock_free


class TestGraphMechanics:
    def test_flow_subsets(self, topo43, logic43):
        flows = [Unicast((0, 0), (3, 2)), Unicast((3, 2), (0, 0))]
        cdg = build_cdg(
            topo43, logic43, unicast_flows=flows, include_broadcasts=False
        )
        assert cdg.num_flows == 2
        assert cdg.find_deadlock().deadlock_free

    def test_counts_populated(self, topo43, logic43):
        res = analyze_deadlock_freedom(topo43, logic43)
        assert res.num_flows == 12 * 11 + 12
        assert res.num_channels > 0
        assert res.num_edges > 0

    def test_result_truthiness(self, topo43, logic43):
        res = analyze_deadlock_freedom(topo43, logic43)
        assert bool(res) is res.deadlock_free

    def test_hazard_description(self, topo43):
        logic = make_logic(topo43, broadcast_mode=BroadcastMode.NAIVE)
        res = analyze_deadlock_freedom(topo43, logic)
        text = res.hazard.describe()
        assert "cycle" in text or "Ch#" in text

    def test_broadcast_source_subset(self, topo43, logic43):
        cdg = build_cdg(
            topo43,
            logic43,
            include_unicasts=False,
            broadcast_sources=[(0, 0), (3, 2)],
        )
        assert cdg.num_flows == 2
        assert len(cdg.trees) == 2


class _LoopingRelation:
    """Stub relation: routers and crossbars bounce a packet between two
    routers of one dimension-0 crossbar forever."""

    def __init__(self, topo):
        self.topo = topo

    def check_deliverable(self, source, dest):
        pass

    def decide(self, el, in_from, header):
        if el[0] == "RTR":
            return Decision(outputs=(self.topo.crossbar_of(el[1], 0),), rc=RC.NORMAL)
        (x, *rest) = in_from[1]
        return Decision(outputs=(rtr(((x + 1) % 2, *rest)),), rc=RC.NORMAL)


class _RingRelation:
    """Stub relation on 4x3: routers of row 0 enter their row crossbar,
    which passes a packet from router x to router (x + 1) mod 3 of the
    row; routers of the other rows drop into row 0 through their column
    crossbar.  Every packet ends up circling routers 0 -> 1 -> 2 -> 0 of
    row 0, entering the ring wherever its source's column meets it."""

    def __init__(self, topo):
        self.topo = topo

    def check_deliverable(self, source, dest):
        pass

    def decide(self, el, in_from, header):
        if el[0] == "RTR":
            dim = 0 if el[1][1] == 0 else 1
            return Decision(outputs=(self.topo.crossbar_of(el[1], dim),), rc=RC.NORMAL)
        x, y = in_from[1]
        out = ((x + 1) % 3, 0) if el[1] == 0 else (x, 0)
        return Decision(outputs=(rtr(out),), rc=RC.NORMAL)


class _Unkeyed:
    """A relation's decisions without its ``decision_key``: the array walk
    decides every state one by one."""

    def __init__(self, logic):
        self.logic, self.registry = logic, logic.registry

    def decide(self, el, in_from, header):
        return self.logic.decide(el, in_from, header)

    def check_deliverable(self, source, dest):
        self.logic.check_deliverable(source, dest)


class _Trapped(_Unkeyed):
    """4x3 dimension-order routing, except that the flow (0, 0) -> (3, 2)
    is sent round the column-0 crossbar between routers (0, 0) and
    (0, 1) for ever once it leaves its source router: a cycle that only
    that one source reaches."""

    TRAP = ((0, 0), (0, 1))

    def decide(self, el, in_from, header):
        column = self.logic.topo.crossbar_of((0, 0), 1)
        if header.dest == (3, 2):
            if el[0] == "RTR" and el[1] in self.TRAP and in_from != pe((0, 1)):
                return Decision(outputs=(column,), rc=RC.NORMAL)
            if el == column:
                return Decision(outputs=(rtr((0, 1 - in_from[1][1])),), rc=RC.NORMAL)
        return self.logic.decide(el, in_from, header)


class _Refusing(SwitchLogic):
    """The paper's relation, refusing packets for column 1 at the crossbar
    of row 2 -- a refusal that reads no more than the decision key
    (``dest[0]`` at a dimension-0 crossbar), as every keyed rule must."""

    def decide(self, el, in_from, header):
        if el == xb(0, (2,)) and header.dest[0] == 1:
            raise RoutingError(f"{el} refuses {header.dest}")
        return super().decide(el, in_from, header)


def _walked(topo, logic, pairs):
    """What the array walk and the stack loop it replaced make of
    ``pairs``: ``(succ, channels, num_flows)``, or the exception."""

    def outcome(build):
        try:
            return build()
        except RoutingError as err:
            return err

    def array():
        cdg = ChannelDependencyGraph()
        cdg.add_unicasts(topo, logic, pairs)
        return cdg.succ, cdg.channels, cdg.num_flows

    return outcome(array), outcome(lambda: reference_add_unicasts(topo, logic, pairs))


def _same_error(got, want):
    assert isinstance(want, RoutingError), want
    assert type(got) is type(want), (got, want)


class TestWalker:
    def test_routing_loop_raises_from_build_cdg(self, topo43):
        with pytest.raises(RouteLoopError):
            build_cdg(
                topo43,
                _LoopingRelation(topo43),
                unicast_flows=[Unicast((0, 0), (3, 2))],
            )

    def test_merge_into_another_sources_state_is_not_a_loop(self, topo43, logic43):
        # both flows share every state from the destination's column on
        flows = [Unicast((0, 0), (3, 2)), Unicast((1, 0), (3, 2))]
        cdg = build_cdg(
            topo43, logic43, unicast_flows=flows, include_broadcasts=False
        )
        assert cdg.num_flows == 2

    def test_undeliverable_pair_rejected(self, topo43, logic43_faulty_rtr):
        with pytest.raises(UnreachableDestinationError):
            build_cdg(
                topo43,
                logic43_faulty_rtr,
                unicast_flows=[Unicast((0, 0), (2, 0))],
            )

    # -- raises iff the stack loop it replaced raises, with the same type --
    def test_looping_relation_raises_as_before(self, topo43):
        _same_error(*_walked(topo43, _LoopingRelation(topo43), [((0, 0), (3, 2))]))

    @pytest.mark.parametrize("order", [1, -1], ids=["row-first", "column-first"])
    def test_sources_entering_one_cycle_apart_raise(self, topo43, order):
        # (0, 0) enters the ring at its first hop, (2, 2) two hops later
        # at another router: each reaches states the other reached first
        pairs = [((0, 0), (3, 1)), ((2, 2), (3, 1))][::order]
        got, want = _walked(topo43, _RingRelation(topo43), pairs)
        _same_error(got, want)
        assert isinstance(got, RouteLoopError)

    def test_cycle_reached_by_the_last_flow_only_raises(self, topo43, logic43):
        nodes = topo43.node_coords()
        dests = [t for t in nodes if t != (3, 2)] + [(3, 2)]
        pairs = [(s, t) for t in dests for s in reversed(nodes) if s != t]
        assert pairs[-1] == ((0, 0), (3, 2))
        got, want = _walked(topo43, _Trapped(logic43), pairs)
        _same_error(got, want)
        assert isinstance(got, RouteLoopError)
        healthy = _walked(topo43, _Trapped(logic43), pairs[:-1])
        assert healthy[0] == healthy[1]

    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "unkeyed"])
    def test_a_refused_state_raises_the_relations_error(self, topo43, keyed):
        logic = _Refusing(topo43, make_config(topo43.shape))
        relation = logic if keyed else _Unkeyed(logic)
        got, want = _walked(topo43, relation, unicast_pairs(topo43, logic))
        _same_error(got, want)
        assert "refuses" in str(got)

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"fault": Fault.router((2, 0))},
            {"fault": Fault.crossbar(0, (1,))},
            {"fault": Fault.router((2, 0)), "detour_scheme": DetourScheme.NAIVE},
        ],
        ids=str,
    )
    def test_decision_key_changes_nothing(self, topo43, kw):
        logic = make_logic(topo43, **kw)
        pairs = unicast_pairs(topo43, logic)
        keyed, want = _walked(topo43, logic, pairs)
        unkeyed, _ = _walked(topo43, _Unkeyed(logic), pairs)
        assert keyed == unkeyed == want

    def test_undeliverable_pair_raises_the_relations_error(
        self, topo43, logic43_faulty_rtr
    ):
        pairs = [((0, 0), (3, 2)), ((1, 1), (0, 0)), ((0, 1), (2, 0)), ((2, 0), (1, 1))]
        got, want = _walked(topo43, logic43_faulty_rtr, pairs)
        _same_error(got, want)
        assert isinstance(got, UnreachableDestinationError)
        assert str(got) == str(want) == (
            "destination PE(2, 0) is disconnected (its router is faulty)"
        )


def _eager_edge_flows(topo, logic):
    """Witness labels the per-flow way: every flow in build order, first
    contributor of an edge wins."""
    cfg = logic.config
    serialized = cfg.broadcast_mode is BroadcastMode.SERIALIZED
    sxb = cfg.sxb_element if serialized else None
    outs = topo.channels_from(cfg.sxb_element) if serialized else ()
    labels = {}
    for tree in route_all_unicasts(topo, logic):
        for c in tree.channels():
            p = tree.parent[c]
            if p is not None:
                labels.setdefault((p.cid, c.cid), str(tree.flow))
            if c.dst == sxb:
                for o in outs:
                    labels.setdefault(
                        (c.cid, o.cid), f"{tree.flow} @S-XB barrier"
                    )
    for tree in route_all_broadcasts(topo, logic):
        for entry in tree.serialize_entries if serialized else ():
            chain = list(reversed(tree.ancestors(entry))) + [entry]
            for a, b in zip(chain, chain[1:]):
                labels.setdefault((a.cid, b.cid), f"{tree.flow} request")
            for o in outs:
                labels.setdefault(
                    (entry.cid, o.cid), f"{tree.flow} request @S-XB barrier"
                )
    return labels


class TestWitnessLabels:
    """``edge_flows`` is filled on the hazard path only; what it holds must
    be what labelling every edge eagerly, flow by flow, would have held."""

    HAZARDS = {
        "fig5": ("multi-tree-cycle", dict(broadcast_mode=BroadcastMode.NAIVE)),
        "fig9": (
            "path-cycle",
            dict(fault=Fault.router((2, 0)), detour_scheme=DetourScheme.NAIVE),
        ),
        # naive broadcast around a fault: one tree against path packets
        "tier2": (
            "tree-path-cycle",
            dict(fault=Fault.router((2, 0)), broadcast_mode=BroadcastMode.NAIVE),
        ),
    }

    @pytest.mark.parametrize("name", sorted(HAZARDS))
    def test_hazard_names_real_flows(self, topo43, name):
        kind, kwargs = self.HAZARDS[name]
        logic = make_logic(topo43, **kwargs)
        cdg = build_cdg(topo43, logic)
        hazard = cdg.find_deadlock().hazard
        assert hazard.kind == kind
        eager = _eager_edge_flows(topo43, logic)
        assert cdg.edge_flows.items() <= eager.items()
        trees = {info.name for info in cdg.trees}
        assert hazard.flows and set(hazard.flows) <= trees | set(eager.values())

    def test_named_unicast_routes_contain_their_edge(self, topo43):
        _, kwargs = self.HAZARDS["fig9"]
        logic = make_logic(topo43, **kwargs)
        cdg = build_cdg(topo43, logic)
        named = set(cdg.find_deadlock().hazard.flows)
        routes = {str(t.flow): t for t in route_all_unicasts(topo43, logic)}
        checked = 0
        for (u, v), label in cdg.edge_flows.items():
            if label in named and label in routes:
                tree = routes[label]
                assert (u, v) in {
                    (p.cid, c.cid) for c, p in tree.parent.items() if p
                }
                checked += 1
        assert checked


# -- the judge against the past ------------------------------------------------
def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()
    ).hexdigest()


def _tree_rows(trees):
    """Every field of every tree, dicts in insertion order."""
    return [
        [
            str(t.flow),
            t.root.cid,
            [[c.cid, p and p.cid] for c, p in t.parent.items()],
            [[c.cid, [k.cid for k in ks]] for c, ks in t.children.items()],
            [[c.cid, int(rc)] for c, rc in t.rc_on.items()],
            [c.cid for c in t.serialize_entries],
            sorted(t.delivered),
            t.dropped_at,
        ]
        for t in trees
    ]


def certificate_cases(shape, faults, modes):
    """``(case id, fault, broadcast mode, detour scheme)`` per configuration."""
    name = "x".join(map(str, shape))
    for fault in faults:
        for mode in modes:
            for scheme in DetourScheme:
                yield (
                    f"{name} | {fault or 'fault-free'} | {mode.value} | {scheme.value}",
                    fault, mode, scheme,
                )


def verdict(cdg):
    """What the judge says about one dependency graph, as JSON-able values
    and a digest of ``succ``."""
    res = cdg.find_deadlock()
    hazard = res.hazard and {
        "kind": res.hazard.kind,
        "flows": list(res.hazard.flows),
        "channels": [repr(c) for c in res.hazard.channels],
    }
    return {
        "deadlock_free": res.deadlock_free,
        "num_edges": res.num_edges,
        "num_channels": res.num_channels,
        "num_flows": res.num_flows,
        "hazard": hazard,
        "succ": _digest(sorted([u, sorted(vs)] for u, vs in cdg.succ.items())),
    }


def certificate(topo, fault, mode, scheme):
    """What the judge says about one configuration, and the route trees
    it is built from, as JSON-able values and digests."""
    try:
        logic = make_logic(
            topo, fault=fault, broadcast_mode=mode, detour_scheme=scheme
        )
    except ConfigError as e:
        return {"config_error": str(e)}
    return {
        **verdict(build_cdg(topo, logic)),
        "unicasts": _digest(_tree_rows(route_all_unicasts(topo, logic))),
        "broadcasts": _digest(_tree_rows(route_all_broadcasts(topo, logic))),
    }


def subset_certificate(topo, fault, stride):
    """The verdict on a serialized configuration under the naive detour
    scheme that routes every ``stride``-th unicast pair and every
    broadcast.  With all pairs routed such a configuration fails in
    tier 1; thinned out, many fail in tier 2 instead."""
    try:
        logic = make_logic(topo, fault=fault, detour_scheme=DetourScheme.NAIVE)
    except ConfigError as e:
        return {"config_error": str(e)}
    flows = [Unicast(s, t) for s, t in unicast_pairs(topo, logic)[::stride]]
    return verdict(build_cdg(topo, logic, unicast_flows=flows))


#: shape -> (faults, broadcast modes): every single fault of four small
#: shapes and a sample of 6x6; the naive broadcast mode only where its
#: tier 3 is cheap (on (3, 3, 2) and (5, 1, 3) it costs seconds)
SERIALIZED, BOTH = (BroadcastMode.SERIALIZED,), tuple(BroadcastMode)
GOLDEN_SHAPES = {
    (4, 3): (None, BOTH),
    (2, 2, 2): (None, BOTH),
    (3, 3, 2): (None, SERIALIZED),
    (5, 1, 3): (None, SERIALIZED),
    (6, 6): (
        [
            Fault.router((2, 3)),
            Fault.router((5, 0)),
            Fault.crossbar(0, (4,)),
            Fault.crossbar(1, (1,)),
        ],
        SERIALIZED,
    ),
}


def golden_cases(shape):
    faults, modes = GOLDEN_SHAPES[shape]
    if faults is None:
        faults = all_single_faults(shape)
    return list(certificate_cases(shape, [None, *faults], modes))


#: every single fault of three small shapes, every k-th unicast pair: the
#: rows whose serialized-mode hazard is a tier-2 witness
SUBSET_SHAPES = [(4, 3), (3, 3, 2), (2, 2, 2)]
SUBSET_STRIDES = (3, 5, 7)


def subset_cases(shape):
    """``(case id, fault, stride)`` per thinned-out configuration."""
    name = "x".join(map(str, shape))
    return [
        (f"{name} | {fault or 'fault-free'} | unicasts[::{k}]", fault, k)
        for fault in [None, *all_single_faults(shape)]
        for k in SUBSET_STRIDES
    ]


#: the array walk at a selector range of 8 (8x8x4): fault-free, one
#: router and one crossbar fault, under both detour schemes
HOPS_SHAPE = (8, 8, 4)
HOPS_FAULTS = (None, Fault.router((3, 5, 2)), Fault.crossbar(1, (2, 1)))


def hops_cases():
    """``(case id, fault, detour scheme)`` per ``unicast_hops`` row."""
    name = "x".join(map(str, HOPS_SHAPE))
    return [
        (f"{name} | {fault or 'fault-free'} | {scheme.value}", fault, scheme)
        for fault in HOPS_FAULTS
        for scheme in DetourScheme
    ]


def hops_row(topo, fault, scheme):
    """What :func:`unicast_hops` returns for every pair of one
    configuration: the flow count, the held-channel count and a digest
    of the hops."""
    logic = make_logic(topo, fault=fault, detour_scheme=scheme)
    flows, cids, hops = unicast_hops(topo, logic)
    return {"flows": flows, "held": len(cids), "hops": _digest(hops)}


class TestCertificateGolden:
    """Verdicts, hazard witnesses, ``succ`` and the route trees of every
    configuration in ``cdg_golden.json``, recorded before the decision
    cache and the shared S-XB spread existed.  The tree digests route
    through the cached ``decide``, so a cache key that is too narrow
    fails here independently of the laws in ``test_switch_logic.py``.
    The ``unicast_subsets`` rows, recorded before the spread was shared
    by reference, hold the serialized mode's tier-2 witnesses; the
    ``unicast_hops`` rows, recorded while the array walk kept its own
    decision table, hold its hops on 8x8x4."""

    @pytest.mark.parametrize(
        "shape", SUBSET_SHAPES, ids=lambda s: "x".join(map(str, s))
    )
    def test_unicast_subsets_unchanged(self, shape):
        topo = MDCrossbar(shape)
        cases = subset_cases(shape)
        golden = GOLDEN["unicast_subsets"]
        prefix = "x".join(map(str, shape)) + " |"
        assert [case_id for case_id, *_ in cases] == [
            case_id for case_id in golden if case_id.startswith(prefix)
        ]
        for case_id, fault, stride in cases:
            assert subset_certificate(topo, fault, stride) == golden[case_id], case_id

    def test_unicast_hops_unchanged(self):
        topo = MDCrossbar(HOPS_SHAPE)
        cases = hops_cases()
        golden = GOLDEN["unicast_hops"]
        assert [case_id for case_id, *_ in cases] == list(golden)
        for case_id, fault, scheme in cases:
            assert hops_row(topo, fault, scheme) == golden[case_id], case_id

    @pytest.mark.parametrize(
        "shape", list(GOLDEN_SHAPES), ids=lambda s: "x".join(map(str, s))
    )
    def test_certificates_unchanged(self, shape):
        topo = MDCrossbar(shape)
        cases = golden_cases(shape)
        assert [case_id for case_id, *_ in cases] == [
            case_id for case_id in GOLDEN["configs"] if case_id.startswith(
                "x".join(map(str, shape)) + " |"
            )
        ]
        for case_id, fault, mode, scheme in cases:
            assert certificate(topo, fault, mode, scheme) == GOLDEN["configs"][
                case_id
            ], case_id
