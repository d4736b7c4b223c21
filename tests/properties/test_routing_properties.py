"""Property-based tests (hypothesis) for the routing invariants.

These cover the core guarantees over randomly drawn shapes, endpoints and
fault locations:

* dimension-order routes visit each dimension at most once and reach the
  destination in at most d crossbar hops;
* broadcasts cover every live PE exactly once regardless of shape/source;
* detour routes avoid the fault, pass the D-XB and reach the destination;
* the RC trace always ends NORMAL (the packet "leaves no trace").
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    Broadcast,
    Fault,
    RC,
    Unicast,
    compute_route,
    make_config,
    SwitchLogic,
)
from repro.core.config import ConfigError
from repro.core.coords import all_coords, hop_distance, num_nodes
from repro.core.dimension_order import expected_normal_elements
from repro.core.multifault import all_single_faults
from repro.core.packet import Header
from repro.routing import get_scheme, make_scheme, scheme_names
from repro.topology import MDCrossbar
from repro.topology.base import ElementKind, element_kind
from tests.conftest import examples

# keep networks small enough for fast exhaustive route walks
shapes = st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple).filter(
    lambda s: num_nodes(s) <= 64
)


@st.composite
def shape_and_two_coords(draw):
    shape = draw(shapes)
    coords = list(all_coords(shape))
    s = draw(st.sampled_from(coords))
    t = draw(st.sampled_from(coords))
    return shape, s, t


@st.composite
def shape_and_coord(draw):
    shape = draw(shapes)
    coords = list(all_coords(shape))
    return shape, draw(st.sampled_from(coords))


@st.composite
def shape_fault_and_pair(draw):
    shape = draw(shapes.filter(lambda s: len(s) >= 2 and num_nodes(s) >= 8))
    coords = list(all_coords(shape))
    f = draw(st.sampled_from(coords))
    rest = [c for c in coords if c != f]
    s = draw(st.sampled_from(rest))
    t = draw(st.sampled_from([c for c in rest if c != s]))
    return shape, f, s, t


def make(shape, **kw):
    topo = MDCrossbar(shape)
    return topo, SwitchLogic(topo, make_config(shape, **kw))


@given(shape_and_two_coords())
@settings(max_examples=120, deadline=None)
def test_normal_route_matches_oracle(data):
    shape, s, t = data
    if s == t:
        return
    topo, logic = make(shape)
    tree = compute_route(topo, logic, Unicast(s, t))
    assert tree.elements_to(t) == expected_normal_elements(logic.config, s, t)


@given(shape_and_two_coords())
@settings(max_examples=120, deadline=None)
def test_normal_route_hops_bounded(data):
    shape, s, t = data
    if s == t:
        return
    topo, logic = make(shape)
    tree = compute_route(topo, logic, Unicast(s, t))
    assert tree.xb_hops_to(t) == hop_distance(s, t) <= len(shape)


@given(shape_and_coord())
@settings(max_examples=80, deadline=None)
def test_broadcast_covers_all_exactly_once(data):
    shape, src = data
    topo, logic = make(shape)
    tree = compute_route(topo, logic, Broadcast(src))
    assert tree.delivered == set(all_coords(shape))
    ej = [c for c in tree.channels() if c.dst[0] == "PE"]
    assert len(ej) == num_nodes(shape)


@given(shape_and_coord())
@settings(max_examples=60, deadline=None)
def test_broadcast_rc_sequence_legal(data):
    """RC may go 1 -> 2 exactly once (at the S-XB) and never back."""
    shape, src = data
    topo, logic = make(shape)
    tree = compute_route(topo, logic, Broadcast(src))
    for dest in (min(all_coords(shape)), max(all_coords(shape))):
        trace = tree.rc_trace_to(dest)
        seen_spread = False
        for rc in trace:
            if rc is RC.BROADCAST:
                seen_spread = True
            if seen_spread:
                assert rc is RC.BROADCAST
        assert trace[-1] is RC.BROADCAST


@given(shape_fault_and_pair())
@settings(max_examples=120, deadline=None)
def test_detour_routes_avoid_fault_and_arrive(data):
    shape, f, s, t = data
    topo, logic = make(shape, fault=Fault.router(f))
    tree = compute_route(topo, logic, Unicast(s, t))
    els = tree.elements_to(t)
    assert ("RTR", f) not in els
    assert t in tree.delivered
    assert tree.rc_trace_to(t)[-1] is RC.NORMAL


@given(shape_fault_and_pair())
@settings(max_examples=80, deadline=None)
def test_detour_visits_each_channel_once(data):
    # compute_route raises RouteLoopError on revisits; reaching here with a
    # finished tree is the assertion
    shape, f, s, t = data
    topo, logic = make(shape, fault=Fault.router(f))
    tree = compute_route(topo, logic, Unicast(s, t))
    cids = [c.cid for c in tree.channels()]
    assert len(cids) == len(set(cids))


@given(shape_fault_and_pair())
@settings(max_examples=60, deadline=None)
def test_faulted_broadcast_covers_live_pes(data):
    shape, f, s, _t = data
    topo, logic = make(shape, fault=Fault.router(f))
    tree = compute_route(topo, logic, Broadcast(s))
    assert tree.delivered == set(all_coords(shape)) - {f}


@given(shapes, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_config_auto_selection_always_valid(shape, salt):
    coords = list(all_coords(shape))
    f = coords[salt % len(coords)]
    cfg = make_config(shape, fault=Fault.router(f))
    assert cfg.validated() is cfg


# -- every scheme's dependency edges against the per-destination loop --------
def route_pairs(scheme):
    """All deliverable point-to-point (source, dest) pairs of ``scheme``."""
    live = scheme.live_nodes()
    for s in live:
        for d in live:
            if s != d:
                yield s, d


def reference_dependency_edges(scheme):
    """The per-destination stack loop ``RoutingScheme.dependency_edges``
    was: from every source's injection state, expand the ``(element,
    in_from, vc, rc)`` states of one destination, adding an edge from the
    held ``(channel, vc)`` to every branch taken.  The Duato schemes take
    only the escape branch (``outputs[-1:]``) of a ``policy="any"``
    decision; a drop is skipped and any PE ends a branch."""
    topo, adapter = scheme.topo, scheme.adapter
    duato = scheme.name in ("adaptive", "hyperx_ft")
    by_dest = {}
    for s, d in route_pairs(scheme):
        by_dest.setdefault(d, []).append(s)
    edges = set()
    for dest, sources in by_dest.items():
        header = Header(source=tuple(sources[0]), dest=tuple(dest))
        stack = []
        for source in sources:
            chan = topo.injection_channel(tuple(source))
            stack.append((chan.dst, chan.src, 0, header.rc))
        seen = set(stack)
        while stack:
            el, in_from, in_vc, rc = stack.pop()
            held = (topo.channel(in_from, el).cid, in_vc)
            d = adapter.decide(el, in_from, in_vc, header.with_rc(rc))
            if d.drop:
                continue
            branches = d.outputs[-1:] if duato and d.policy == "any" else d.outputs
            for out_el, out_vc in branches:
                edges.add((held, (topo.channel(el, out_el).cid, out_vc)))
                if element_kind(out_el) is ElementKind.PE:
                    continue
                state = (out_el, el, out_vc, d.rc)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return edges


@st.composite
def scheme_case(draw):
    """A registered scheme on a random shape it accepts (``2x...x2`` for
    the hypercube, one dimension for the full mesh), with at most one
    single fault where the scheme models faults."""
    name = draw(st.sampled_from(scheme_names()))
    cls = get_scheme(name)
    if cls.kind == "hypercube":
        shape = (2,) * draw(st.integers(1, 3))
    elif cls.kind == "fullmesh":
        shape = (draw(st.integers(2, 12)),)
    else:
        shape = draw(shapes)
    faults = all_single_faults(shape) if cls.supports_faults else []
    fault = draw(st.sampled_from([None, *faults]))
    return name, shape, fault


@given(scheme_case())
@settings(max_examples=examples(20), deadline=None)
def test_dependency_edges_equal_the_per_destination_loop(case):
    name, shape, fault = case
    try:
        scheme = make_scheme(name, shape, faults=(fault,) if fault else ())
    except ConfigError:
        assume(False)
    assert scheme.dependency_edges() == reference_dependency_edges(scheme)
