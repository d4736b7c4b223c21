"""The adapter's route-decision memo: keyed on the switch rule's key, equal
to the uncached rules, invalidated on reconfiguration, and exported as
metrics."""

import pytest

from repro.core import RC, Fault, Header, Packet, SwitchLogic, make_config
from repro.core.decision_table import DecisionTable
from repro.core.switch_logic import RoutingError
from repro.obs import CollectorSuite, RouteCacheStats
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig, SimDecision
from repro.topology import MDCrossbar
from tests.conftest import make_logic
from tests.core.test_switch_logic import _queries


def make_adapter(shape=(4, 3), **cfg_kw):
    topo = MDCrossbar(shape)
    return MDCrossbarAdapter(SwitchLogic(topo, make_config(shape, **cfg_kw)))


def some_route_queries(topo, n):
    """``n`` route queries with distinct memo keys: one router each,
    entering from its PE, bound for another node."""
    coords = sorted(topo.node_coords())
    queries = []
    for c in coords[:n]:
        dest = coords[-1] if c != coords[-1] else coords[0]
        queries.append((("RTR", c), ("PE", c), 0, Header(source=c, dest=dest)))
    return queries


class TestMemo:
    def test_repeat_queries_hit(self):
        adapter = make_adapter()
        el, src, vc, h = some_route_queries(adapter.topo, n=1)[0]
        first = adapter.decide(el, src, vc, h)
        again = adapter.decide(el, src, vc, h)
        assert first is again  # memoized object, not a re-computation
        info = adapter.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["size"] == 1

    def test_source_is_not_part_of_the_key(self):
        """Routing never reads the source coordinate, so two packets to
        the same destination share a memo entry."""
        adapter = make_adapter()
        el, src, vc, h = some_route_queries(adapter.topo, n=1)[0]
        adapter.decide(el, src, vc, h)
        other = Header(source=(3, 2), dest=h.dest)
        adapter.decide(el, src, vc, other)
        assert adapter.cache_info()["hits"] == 1


# -- the memo against the rules ---------------------------------------------------
def _uncached(logic, el, in_from, header):
    """``decision_key`` is ``None`` exactly here: a crossbar entered from a
    non-router, or one whose target port is locally faulty."""
    if el[0] != "XB":
        return False
    if in_from[0] != "RTR":
        return True
    rc = header.rc
    targets = rc.name == "NORMAL" or (
        rc.name == "DETOUR" and el == logic.config.dxb_element
    )
    return targets and header.dest[el[1]] in logic.registry.info(el).faulty_ports


def _outcome(decide, *query):
    try:
        return decide(*query)
    except RoutingError as e:
        return type(e), str(e)


def _as_sim(decision):
    if not hasattr(decision, "outputs"):
        return decision  # a RoutingError outcome
    return SimDecision(
        outputs=tuple((el, 0) for el in decision.outputs),
        rc=decision.rc,
        serialize=decision.serialize,
        drop=decision.drop,
    )


@pytest.mark.parametrize(
    "shape, faults",
    [
        ((4, 3), ()),
        ((4, 3), (Fault.router((2, 0)),)),
        ((4, 3), (Fault.crossbar(0, (0,)),)),
        ((3, 3, 2), ()),
        ((3, 3, 2), (Fault.router((1, 1, 0)),)),
        ((3, 3, 2), (Fault.crossbar(0, (0, 1)),)),
    ],
    ids=["4x3", "4x3-rtr", "4x3-xb", "3x3x2", "3x3x2-rtr", "3x3x2-xb"],
)
def test_memo_equals_uncached_rules(shape, faults):
    """Every router and crossbar query (every input, destination and RC
    bit), asked twice, forward and reversed on fresh adapters, equals a
    ``SimDecision`` built from the uncached rule -- a memo key too narrow
    fails whichever query fills its entry first."""
    topo = MDCrossbar(shape)
    config = make_config(shape, faults=faults)
    queries = _queries(topo)
    oracle = SwitchLogic(topo, config)
    want = [_as_sim(_outcome(oracle._rule, *q)) for q in queries]
    for (el, in_from, header) in queries:
        key = oracle.decision_key(el, in_from, header)
        assert (key is None) == _uncached(oracle, el, in_from, header)
    # a dead router leaves a faulty port on each of its crossbars
    faulty_port = any(
        _uncached(oracle, *q) and q[1][0] == "RTR" for q in queries
    )
    assert faulty_port == any(f.kind.name == "ROUTER" for f in faults)
    for order in (range(len(queries)), reversed(range(len(queries)))):
        adapter = MDCrossbarAdapter(SwitchLogic(topo, config))
        for i in order:
            el, in_from, header = queries[i]
            for _ in range(2):
                got = _outcome(adapter.decide, el, in_from, 0, header)
                assert got == want[i], queries[i]
            assert adapter.cache_info()["size"] <= len(adapter.logic._decisions)


class TestInvalidation:
    def test_logic_swap_clears_cache_keeps_counters(self):
        adapter = make_adapter()
        queries = some_route_queries(adapter.topo, n=5)
        for q in queries:
            adapter.decide(*q)
            adapter.decide(*q)
        before = adapter.cache_info()
        assert before["hits"] == 5 and before["size"] == 5
        adapter.logic = SwitchLogic(
            adapter.topo,
            make_config(adapter.topo.shape, fault=Fault.router((2, 0))),
        )
        info = adapter.cache_info()
        assert info["size"] == 0  # stale routes dropped
        assert info["hits"] == 5 and info["misses"] == 5  # history kept

    def test_decisions_recomputed_after_reconfiguration(self):
        """A cached pre-fault route must not be served after the swap:
        the decision is recomputed and matches a fresh adapter built on
        the faulty configuration."""
        shape = (4, 3)
        adapter = make_adapter(shape)
        el, src = ("RTR", (1, 0)), ("PE", (1, 0))
        h = Header(source=(1, 0), dest=(3, 0))
        adapter.decide(el, src, 0, h)
        faulty = make_adapter(shape, fault=Fault.router((2, 0)))
        adapter.logic = faulty.logic
        after = adapter.decide(el, src, 0, h)
        assert adapter.cache_info()["misses"] == 2  # not served stale
        assert after == faulty.decide(el, src, 0, h)


class TestMetricsExport:
    def test_route_cache_counters_in_suite_digest(self):
        topo = MDCrossbar((4, 3))
        sim = NetworkSimulator(
            MDCrossbarAdapter(make_logic(topo)), SimConfig(stall_limit=2000)
        )
        suite = CollectorSuite(sim)
        coords = sorted(topo.node_coords())
        for i in range(6):
            sim.send(Packet(Header(source=coords[0], dest=coords[-1])))
        sim.run(max_cycles=2000)
        digest = suite.metrics().to_dict()
        hits = digest["route_cache.hits"]["value"]
        misses = digest["route_cache.misses"]["value"]
        assert misses > 0
        assert hits > 0  # six identical journeys: later ones hit
        info = sim.adapter.cache_info()
        assert hits == info["hits"] and misses == info["misses"]
        assert digest["route_cache.size"]["last"] == info["size"]

    def test_detach_freezes_counters(self):
        topo = MDCrossbar((4, 3))
        sim = NetworkSimulator(
            MDCrossbarAdapter(make_logic(topo)), SimConfig(stall_limit=2000)
        )
        stats = RouteCacheStats().attach(sim)
        coords = sorted(topo.node_coords())
        sim.send(Packet(Header(source=coords[0], dest=coords[-1])))
        sim.run(max_cycles=2000)
        stats.detach(sim)
        frozen = stats.metrics().to_dict()
        # more traffic after detach must not leak into the frozen set
        sim.send(Packet(Header(source=coords[-1], dest=coords[0])))
        sim.run(max_cycles=2000)
        assert stats.metrics().to_dict() == frozen

    def test_hookless_on_foreign_adapter(self):
        """An adapter without cache_info contributes an empty set."""

        class Bare:
            def __init__(self, inner):
                self.topo = inner.topo
                self.logic = inner.logic
                self._inner = inner

            def decide(self, *a):
                return self._inner.decide(*a)

        topo = MDCrossbar((4, 3))
        sim = NetworkSimulator(
            Bare(MDCrossbarAdapter(make_logic(topo))),
            SimConfig(stall_limit=2000),
        )
        stats = RouteCacheStats().attach(sim)
        sim.run(max_cycles=5, until_drained=False)
        assert stats.metrics().to_dict() == {}


# -- the kernel's decision table ---------------------------------------------------
@pytest.mark.parametrize(
    "shape, faults",
    [
        ((4, 3), ()),
        ((3, 3, 2), ()),
        ((4, 4), (Fault.router((1, 2)),)),
        ((4, 4), (Fault.crossbar(1, (2,)),)),
    ],
    ids=["4x3", "3x3x2", "4x4-rtr", "4x4-xb"],
)
def test_table_entries_are_decision_keys(shape, faults):
    """Every header on every channel into a switch (each destination and
    RC bit): two states share a filled table entry exactly when their
    ``decision_key``s are equal, and the entry holds the adapter's
    decision for each of them.  Entries fill from the first state that
    reaches them, in the kernel's way; a faulty port's ``None`` key and
    a key naming the input port leave their entry to be decided by
    hand."""
    import numpy as np

    topo = MDCrossbar(shape)
    adapter = MDCrossbarAdapter(SwitchLogic(topo, make_config(shape, faults=faults)))
    table = DecisionTable(topo, adapter.logic)
    nodes = topo.node_coords()
    states = [
        (ch, slot, rc)
        for ch in topo.channels()
        if ch.dst[0] in ("RTR", "XB")
        for slot in range(len(nodes))
        for rc in RC
    ]
    rows = table.row[np.array([ch.cid for ch, _, _ in states])]
    idx, _ = table.lookup(
        rows,
        np.array([rc for _, _, rc in states]),
        table.selector(rows, np.array([slot for _, slot, _ in states])),
    )
    decided = []
    for (ch, slot, rc), i in zip(states, idx.tolist()):
        el, src = ch.dst, ch.src
        header = Header(source=nodes[slot], dest=nodes[slot], rc=rc)
        try:
            d = adapter.decide(el, src, 0, header)
        except RoutingError:
            continue  # so does every state of its key
        if table.entry[i] == table.UNFILLED:
            wanted = tuple((topo.channel(el, o).cid, vc) for o, vc in d.outputs)
            table.file(i, el, src, header, d, wanted)
        decided.append((i, adapter.logic.decision_key(el, src, header), d))
    pairs = {(i, key) for i, key, _ in decided if table.entry[i] >= 0}
    assert len({i for i, _ in pairs}) == len(pairs) == len({k for _, k in pairs})
    for i, _, d in decided:
        if table.entry[i] >= 0:
            assert table.decs[table.entry[i]] == d
    filled_states = sum(1 for i, _, _ in decided if table.entry[i] >= 0)
    assert filled_states > len(pairs)  # entries are shared
    hand = {key for i, key, _ in decided if table.entry[i] == table.HAND}
    assert any(key is not None and key[1] is RC.BROADCAST for key in hand)
    assert (None in hand) == any(f.kind.name == "ROUTER" for f in faults)
