"""Property-based tests for the deadlock analysis: the paper's Section 5
guarantee over randomly drawn shapes, fault locations and S-XB choices."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    Fault,
    SwitchLogic,
    analyze_deadlock_freedom,
    build_cdg,
    make_config,
    route_all_unicasts,
)
from repro.core.config import BroadcastMode, ConfigError, DetourScheme
from repro.core.coords import all_coords
from repro.core.multifault import all_single_faults
from repro.topology import MDCrossbar

small_2d = st.tuples(st.integers(2, 4), st.integers(2, 4))


@st.composite
def shape_and_fault(draw):
    shape = draw(small_2d)
    coords = list(all_coords(shape))
    return shape, draw(st.sampled_from(coords))


@given(shape_and_fault())
@settings(max_examples=25, deadline=None)
def test_safe_scheme_always_deadlock_free(data):
    shape, f = data
    topo = MDCrossbar(shape)
    logic = SwitchLogic(topo, make_config(shape, fault=Fault.router(f)))
    assert analyze_deadlock_freedom(topo, logic).deadlock_free


@given(shape_and_fault())
@settings(max_examples=15, deadline=None)
def test_detour_alone_deadlock_free_even_naive(data):
    shape, f = data
    topo = MDCrossbar(shape)
    try:
        cfg = make_config(
            shape, fault=Fault.router(f), detour_scheme=DetourScheme.NAIVE
        )
    except ConfigError:
        return  # too small for a distinct D-XB
    logic = SwitchLogic(topo, cfg)
    res = analyze_deadlock_freedom(topo, logic, include_broadcasts=False)
    assert res.deadlock_free


@given(small_2d, st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_sxb_position_irrelevant_for_safety(shape, salt):
    topo = MDCrossbar(shape)
    lines = sorted({(y,) for y in range(shape[1])})
    line = lines[salt % len(lines)]
    logic = SwitchLogic(topo, make_config(shape, sxb_line=line))
    assert analyze_deadlock_freedom(topo, logic).deadlock_free


@given(st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)))
@settings(max_examples=8, deadline=None)
def test_3d_serialized_safe(shape):
    topo = MDCrossbar(shape)
    logic = SwitchLogic(topo, make_config(shape))
    assert analyze_deadlock_freedom(topo, logic).deadlock_free


# -- the per-destination walker against per-flow route trees -----------------
def reference_unicast_cdg(trees, sxb_element, sxb_outputs):
    """Tier-1 structure the per-flow way: one route tree per pair, its
    parent->child hops plus the S-XB barrier edges."""
    succ, channels = {}, {}
    for tree in trees:
        for c in tree.channels():
            channels[c.cid] = c
            p = tree.parent[c]
            if p is not None:
                succ.setdefault(p.cid, set()).add(c.cid)
            if c.dst == sxb_element:
                for o in sxb_outputs:
                    channels[o.cid] = o
                    succ.setdefault(c.cid, set()).add(o.cid)
    return succ, channels


@st.composite
def walker_case(draw):
    shape = draw(
        st.one_of(
            small_2d,
            st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
        )
    )
    fault = draw(st.sampled_from([None] + all_single_faults(shape)))
    mode = draw(st.sampled_from(list(BroadcastMode)))
    scheme = draw(st.sampled_from(list(DetourScheme)))
    subset = draw(st.none() | st.lists(st.integers(0, 10_000), max_size=12))
    return shape, fault, mode, scheme, subset


@given(walker_case())
@settings(max_examples=60, deadline=None)
def test_walker_equals_per_flow_route_trees(case):
    shape, fault, mode, scheme, subset = case
    topo = MDCrossbar(shape)
    try:
        cfg = make_config(
            shape, fault=fault, broadcast_mode=mode, detour_scheme=scheme
        )
    except ConfigError:
        return  # no distinct D-XB / fault not tolerable on this shape
    logic = SwitchLogic(topo, cfg)
    trees = route_all_unicasts(topo, logic)
    flows = None
    if subset is not None:
        # a random sub-multiset of the healthy pairs, order scrambled
        trees = [trees[i % len(trees)] for i in subset]
        flows = [t.flow for t in trees]
    # no broadcast sources: the unicast structure alone, barrier included
    cdg = build_cdg(topo, logic, unicast_flows=flows, broadcast_sources=[])
    barrier = mode is BroadcastMode.SERIALIZED
    succ, channels = reference_unicast_cdg(
        trees,
        cfg.sxb_element if barrier else None,
        topo.channels_from(cfg.sxb_element) if barrier else (),
    )
    assert cdg.num_flows == len(trees)
    assert cdg.succ == succ
    assert cdg.channels == channels
