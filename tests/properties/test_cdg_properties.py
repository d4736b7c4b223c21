"""Property-based tests for the deadlock analysis: the paper's Section 5
guarantee over randomly drawn shapes, fault locations and S-XB choices."""

from hypothesis import example, given, settings, strategies as st

from repro.core import (
    Fault,
    SwitchLogic,
    analyze_deadlock_freedom,
    build_cdg,
    make_config,
    route_all_broadcasts,
    route_all_unicasts,
)
from repro.core.cdg import CDGResult, ChannelDependencyGraph, DeadlockHazard, _Leg
from repro.core.config import BroadcastMode, ConfigError, DetourScheme
from repro.core.coords import all_coords
from repro.core.multifault import all_single_faults
from repro.core.packet import RC, Header
from repro.core.routes import RouteLoopError, Unicast, unicast_pairs
from repro.topology import MDCrossbar, pe, rtr
from repro.topology.base import ElementKind, element_kind
from tests.conftest import examples

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


# -- the array walk against the per-destination stack loop it replaced -------
def reference_walk(topo, logic, pairs):
    """The per-destination stack walk the array walk replaced: yields
    ``(channel, output channels)`` per switch decision; a source's walk
    re-entering a state it opened itself is a routing loop."""
    by_dest = {}
    for source, dest in pairs:
        logic.check_deliverable(source, dest)
        by_dest.setdefault(dest, []).append(source)
    for dest, sources in by_dest.items():
        headers = {rc: Header(source=sources[0], dest=dest, rc=rc) for rc in RC}
        opened_by = {}
        for walk, source in enumerate(sources):
            stack = [(topo.injection_channel(source), RC.NORMAL)]
            while stack:
                chan, rc = stack.pop()
                state = (chan.cid, rc)
                if state in opened_by:
                    if opened_by[state] == walk:
                        raise RouteLoopError(
                            f"flow {Unicast(source, dest)} revisited channel "
                            f"{chan}; routing loop"
                        )
                    continue  # merged into an earlier source's route
                opened_by[state] = walk
                el = chan.dst
                if element_kind(el) is ElementKind.PE:
                    continue
                decision = logic.decide(el, chan.src, headers[rc])
                outs = (
                    []
                    if decision.drop
                    else [topo.channel(el, o) for o in decision.outputs]
                )
                yield chan, outs
                for out in outs:
                    stack.append((out, decision.rc))


def reference_add_unicasts(topo, logic, pairs, sxb_element=None, sxb_outputs=()):
    """``(succ, channels, num_flows)`` the way the stack walk's
    ``add_unicasts`` loop built them."""
    succ, channels = {}, {}
    for chan, nexts in reference_walk(topo, logic, pairs):
        channels[chan.cid] = chan
        if chan.dst == sxb_element:
            nexts = [*nexts, *sxb_outputs]
        if nexts:
            waits = succ.setdefault(chan.cid, set())
            for o in nexts:
                channels[o.cid] = o
                waits.add(o.cid)
    return succ, channels, len(pairs)


@st.composite
def array_walk_case(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    singles = all_single_faults(shape)
    faults = draw(st.lists(st.sampled_from(singles), max_size=2, unique=True)) if (
        singles
    ) else []
    mode = draw(st.sampled_from(list(BroadcastMode)))
    scheme = draw(st.sampled_from(list(DetourScheme)))
    # every healthy pair, or a sub-multiset with repeats in scrambled order
    subset = draw(st.none() | st.lists(st.integers(0, 10_000), max_size=60))
    return shape, faults, mode, scheme, subset, draw(st.booleans())


@given(array_walk_case())
@settings(max_examples=examples(60), deadline=None)
def test_array_walk_equals_the_per_destination_loop(case):
    shape, faults, mode, scheme, subset, barrier = case
    topo = MDCrossbar(shape)
    try:
        cfg = make_config(
            shape, faults=faults or None, broadcast_mode=mode, detour_scheme=scheme
        )
    except ConfigError:
        return  # fault set not tolerable / no distinct D-XB on this shape
    pairs = unicast_pairs(topo, SwitchLogic(topo, cfg))
    if subset is not None:
        pairs = [pairs[i % len(pairs)] for i in subset] if pairs else []
    sxb = cfg.sxb_element if barrier else None
    outs = tuple(topo.channels_from(cfg.sxb_element)) if barrier else ()
    got = ChannelDependencyGraph()
    given_pairs = None if subset is None else pairs
    got.add_unicasts(topo, SwitchLogic(topo, cfg), given_pairs, sxb, outs)
    want = reference_add_unicasts(topo, SwitchLogic(topo, cfg), pairs, sxb, outs)
    assert (got.succ, got.channels, got.num_flows) == want


# -- the shared S-XB spread against one whole tree per broadcast --------------
class ReferenceTreeInfo:
    """Per-multicast-tree data for tiers 2 and 3, one whole tree each: the
    form the shared spread replaced."""

    def __init__(self, tree, serialized):
        self.name = str(tree.flow)
        self.cids = set()
        self.anc = {}
        for c in tree.channels():
            self.cids.add(c.cid)
            p = tree.parent[c]
            self.anc[c.cid] = {c.cid} if p is None else self.anc[p.cid] | {c.cid}
        self.atomic = set()
        if serialized:
            for entry in tree.serialize_entries:
                self.atomic.update(ch.cid for ch in tree.children[entry])
        self.waitable = self.cids - self.atomic - {tree.root.cid}

    def state_allows(self, held, waited):
        return waited in self.waitable and waited not in self.anc[held]


def reference_tier2(cdg, infos):
    """Tier 2 tree by tree, every waitable channel of every tree."""
    for info in infos:
        for w in info.waitable:
            reach = cdg._reach_plus(w)
            for a in reach & info.cids:
                if info.state_allows(held=a, waited=w):
                    cids = cdg._shortest_chain(w, {a})
                    labels = cdg._edge_labels(zip(cids, cids[1:]))
                    return DeadlockHazard(
                        kind="tree-path-cycle",
                        channels=tuple(cdg.channels[c] for c in cids),
                        flows=tuple(sorted({info.name} | labels)),
                    )
    return None


def unicast_graph(topo, logic, flows, barrier):
    """A graph holding the unicast ``flows``, plus the S-XB barrier edges
    when ``barrier``; returns it and the S-XB outputs the barrier names."""
    cfg = logic.config
    outs = tuple(topo.channels_from(cfg.sxb_element)) if barrier else ()
    cdg = ChannelDependencyGraph()
    cdg.add_unicasts(
        topo, logic, [(f.source, f.dest) for f in flows],
        cfg.sxb_element if barrier else None, outs,
    )
    return cdg, outs


def reference_judge(cdg, outs, topo, logic, sources):
    """The verdict on ``cdg`` plus the broadcasts from ``sources``, each
    added as its whole route tree (with barrier edges to ``outs``), and
    tier 2 run per tree."""
    serialized = logic.config.broadcast_mode is BroadcastMode.SERIALIZED
    for tree in route_all_broadcasts(topo, logic, sources):
        cdg.num_flows += 1
        name = str(tree.flow)
        cdg.trees.append(ReferenceTreeInfo(tree, serialized))
        for c in tree.channels():
            cdg._note_channel(c)
        if serialized and tree.serialize_entries:
            for entry in tree.serialize_entries:
                chain = list(reversed(tree.ancestors(entry))) + [entry]
                for a, b in zip(chain, chain[1:]):
                    cdg._add_succ(a, b, name + " request")
                for o in outs:
                    cdg._add_succ(entry, o, name + " request @S-XB barrier")
        else:
            cdg.concurrent_trees = True
    hazard = cdg._tier1() or reference_tier2(cdg, cdg.trees) or cdg._tier3()
    return CDGResult(
        hazard is None, hazard, len(cdg.channels), cdg.num_edges, cdg.num_flows
    )


def judged(res):
    hazard = res.hazard and (res.hazard.kind, res.hazard.channels, res.hazard.flows)
    return res.deadlock_free, hazard, res.num_channels, res.num_edges, res.num_flows


@st.composite
def spread_case(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    singles = all_single_faults(shape)
    faults = draw(st.lists(st.sampled_from(singles), max_size=2, unique=True)) if (
        singles
    ) else []
    mode = draw(st.sampled_from(list(BroadcastMode)))
    scheme = draw(st.sampled_from(list(DetourScheme)))
    unicasts = draw(st.lists(st.integers(0, 10_000), max_size=80))
    # every source shares one spread under serialization; the naive mode's
    # tier 3 is quadratic in the trees, so it gets a few
    subset = st.lists(st.integers(0, 10_000), max_size=5)
    serialized = mode is BroadcastMode.SERIALIZED
    sources = draw(st.none() | subset if serialized else subset)
    # without the S-XB barrier edges a chain can reach a leg and miss its
    # spread, so the leg half of the factored tier 2 is exercised alone
    barrier = serialized and draw(st.booleans())
    return shape, faults, mode, scheme, unicasts, sources, barrier


#: a tier-2 witness pinned in ``tests/core/cdg_golden.json``
#: ("4x3 | faulty RTR(2, 1) | unicasts[::3]": 110 healthy pairs)
TIER2_ROW = (
    (4, 3), [Fault.router((2, 1))], BroadcastMode.SERIALIZED,
    DetourScheme.NAIVE, list(range(0, 110, 3)), None, True,
)


@given(spread_case())
@example(TIER2_ROW)
@settings(max_examples=examples(40), deadline=None)
def test_shared_spread_equals_per_tree_tiers(case):
    shape, faults, mode, scheme, unicasts, sources, barrier = case
    topo = MDCrossbar(shape)
    try:
        cfg = make_config(
            shape, faults=faults or None, broadcast_mode=mode, detour_scheme=scheme
        )
    except ConfigError:
        return  # fault set not tolerable / no distinct D-XB on this shape
    logic = SwitchLogic(topo, cfg)
    pairs = unicast_pairs(topo, logic)
    flows = [Unicast(*pairs[i % len(pairs)]) for i in unicasts] if pairs else []
    nodes = list(topo.node_coords())
    if sources is not None:
        sources = [nodes[i % len(nodes)] for i in sources]
    if barrier or mode is BroadcastMode.NAIVE:
        got = build_cdg(topo, logic, unicast_flows=flows, broadcast_sources=sources)
    else:
        got, _ = unicast_graph(topo, logic, flows, barrier=False)
        got.add_broadcasts(topo, logic, sources)
    want = reference_judge(
        *unicast_graph(topo, logic, flows, barrier), topo, logic, sources
    )
    assert judged(got.find_deadlock()) == judged(want)


def test_a_chain_into_one_leg_is_that_broadcasts_hazard():
    # a chain from a spread channel into one source's injection channel,
    # with no barrier edges to carry it on into the spread: only the legs
    # the chain reaches are hazardous, and the first of them is named
    topo = MDCrossbar((4, 3))
    logic = SwitchLogic(topo, make_config((4, 3)))
    w = topo.channel(rtr((1, 1)), pe((1, 1)))
    a = topo.injection_channel((3, 2))
    got, want = ChannelDependencyGraph(), ChannelDependencyGraph()
    for cdg in got, want:
        cdg._add_succ(w, a, "chain")
    got.add_broadcasts(topo, logic, None)
    res = got.find_deadlock()
    assert judged(res) == judged(reference_judge(want, (), topo, logic, None))
    assert res.hazard.kind == "tree-path-cycle"
    assert res.hazard.channels[:2] == (w, a)


def test_serialized_broadcasts_hold_one_spread():
    topo = MDCrossbar((6, 6))
    cdg = build_cdg(topo, SwitchLogic(topo, make_config((6, 6))))
    assert len(cdg.trees) == 36
    assert all(isinstance(t, _Leg) for t in cdg.trees)
    assert len({id(t.spread) for t in cdg.trees}) == 1
