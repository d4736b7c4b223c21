"""Property-based tests for the extensions: multi-fault tolerance,
ordering certificates and adaptive routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Fault,
    RC,
    SwitchLogic,
    Unicast,
    analyze_deadlock_freedom,
    build_cdg,
    compute_route,
    make_config,
)
from repro.core import multifault
from repro.core.config import ConfigError, DetourScheme
from repro.core.coords import all_coords
from repro.core.multifault import all_single_faults, analyze_fault_set
from repro.core.ordering import build_certificate
from repro.core.routes import RouteLoopError
from repro.core.switch_logic import (
    Decision,
    RoutingError,
    UnreachableDestinationError,
)
from repro.sim import AdaptiveMDAdapter, NetworkSimulator, SimConfig
from repro.core.packet import Header, Packet
from repro.topology import MDCrossbar, pe, rtr, xb
from tests.conftest import examples

SHAPE = (4, 3)
COORDS = list(all_coords(SHAPE))


@st.composite
def fault_sets(draw):
    k = draw(st.integers(1, 3))
    coords = draw(
        st.lists(st.sampled_from(COORDS), min_size=k, max_size=k, unique=True)
    )
    return tuple(Fault.router(c) for c in coords)


def reference_fault_set(topo, faults, detour_scheme):
    """The pair loop ``analyze_fault_set`` ran before it was rebased on
    the tiered judge: ``compute_route`` per healthy pair, then the judge.
    Returns ``(feasible, infeasible_reason, total_pairs, fully_tolerant,
    deadlock_free, row)``."""
    names = " + ".join(str(f) for f in faults)
    try:
        cfg = make_config(topo.shape, faults=faults, detour_scheme=detour_scheme)
    except ConfigError as e:
        return (False, str(e), 0, False, None, f"{names:<48} infeasible: {e}")
    logic = SwitchLogic(topo, cfg)
    dead = set(logic.registry.dead_pes())
    live = [c for c in topo.node_coords() if c not in dead]
    failed = []
    routed = 0
    total = 0
    for s in live:
        for t in live:
            if s == t:
                continue
            total += 1
            try:
                tree = compute_route(topo, logic, Unicast(s, t))
            except (RouteLoopError, RoutingError):
                failed.append((s, t))
                continue
            if t in tree.delivered:
                routed += 1
            else:
                failed.append((s, t))
    deadlock_free = None
    if not failed:
        deadlock_free = analyze_deadlock_freedom(topo, logic).deadlock_free
    tolerant = routed == total and deadlock_free is not False
    verdict = "TOLERATED" if tolerant else "DEGRADED"
    row = (
        f"{names:<48} routed {routed}/{total} "
        f"deadlock_free={deadlock_free} -> {verdict}"
    )
    return (True, "", total, tolerant, deadlock_free, row)


@st.composite
def shapes_and_fault_sets(draw):
    shape = tuple(
        draw(st.lists(st.integers(2, 4), min_size=1, max_size=3).filter(
            lambda s: len(s) < 3 or s[0] * s[1] * s[2] <= 18
        ))
    )
    singles = all_single_faults(shape)
    faults = draw(
        st.lists(st.sampled_from(singles), min_size=1, max_size=3, unique=True)
    )
    return shape, tuple(faults), draw(st.sampled_from(list(DetourScheme)))


@given(shapes_and_fault_sets())
@settings(max_examples=examples(25), deadline=None)
def test_analyze_fault_set_matches_the_pair_loop(case):
    """The census' one answer per fault set, from ``make_config`` and the
    tiered judge alone, is the pair loop's answer: same feasibility, pair
    count, verdicts and row, for router and crossbar faults alike."""
    shape, faults, scheme = case
    topo = MDCrossbar(shape)
    report = analyze_fault_set(topo, faults, detour_scheme=scheme)
    assert (
        report.feasible,
        report.infeasible_reason,
        report.total_pairs,
        report.fully_tolerant,
        report.deadlock_free,
        report.row(),
    ) == reference_fault_set(topo, faults, scheme)


class _ScalarDrop(SwitchLogic):
    """Drops ``p2p (0, 0)->(2, 1)`` where it enters the network, at a
    router the walk decides state by state."""

    def decision_key(self, el, in_from, header):
        if el == rtr((0, 0)):
            return None
        return super().decision_key(el, in_from, header)

    def decide(self, el, in_from, header):
        if el == rtr((0, 0)) and in_from == pe((0, 0)) and header.dest == (2, 1):
            return Decision((), header.rc, drop=True)
        return super().decide(el, in_from, header)


class _TableDrop(SwitchLogic):
    """Drops every packet for column 2 on X-crossbar row 1: a table
    entry with no output."""

    def decide(self, el, in_from, header):
        if el == xb(0, (1,)) and header.rc is RC.NORMAL and header.dest[0] == 2:
            return Decision((), header.rc, drop=True)
        return super().decide(el, in_from, header)


class _WrongPE(SwitchLogic):
    """Router (1, 1) hands every packet that must cross dimension 0 to
    its own PE."""

    def decide(self, el, in_from, header):
        if el == rtr((1, 1)) and header.rc is RC.NORMAL and header.dest[0] != 1:
            return Decision((pe((1, 1)),), RC.NORMAL)
        return super().decide(el, in_from, header)


@pytest.mark.parametrize(
    "logic_cls,flow,where",
    [
        (_ScalarDrop, "p2p (0, 0)->(2, 1)", "[('RTR', (0, 0))]"),
        (_TableDrop, "p2p (0, 1)->(2, 0)", "[('XB', 0, (1,))]"),
        (_WrongPE, "p2p (1, 1)->(0, 0)", "[]"),
    ],
    ids=["scalar-drop", "table-drop", "wrong-pe"],
)
def test_a_relation_that_loses_a_pair_is_not_certified(
    monkeypatch, logic_cls, flow, where
):
    """A relation that drops a pair, or hands it to another PE, is
    refused by the judge's walk, naming the flow, and the census reads
    the fault set as DEGRADED instead of certifying it."""
    topo = MDCrossbar((4, 3))
    logic = logic_cls(topo, make_config((4, 3)))
    with pytest.raises(UnreachableDestinationError) as exc:
        build_cdg(topo, logic)
    assert f"flow {flow} is not delivered: dropped at {where}" in str(exc.value)

    monkeypatch.setattr(multifault, "SwitchLogic", logic_cls)
    report = analyze_fault_set(topo, ())
    assert report.feasible and not report.fully_tolerant
    assert report.routing_error == str(exc.value)
    assert report.row().endswith("-> DEGRADED")


@given(fault_sets())
@settings(max_examples=15, deadline=None)
def test_feasible_sets_deadlock_free_and_certifiable(faults):
    topo = MDCrossbar(SHAPE)
    try:
        cfg = make_config(SHAPE, faults=faults)
    except ConfigError:
        return
    logic = SwitchLogic(topo, cfg)
    assert analyze_deadlock_freedom(topo, logic).deadlock_free
    cert = build_certificate(topo, logic)
    assert cert.num_flows_verified > 0


@st.composite
def adaptive_workloads(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(COORDS),
                st.sampled_from(COORDS),
                st.integers(1, 6),
            ),
            min_size=1,
            max_size=20,
        )
    )


@given(adaptive_workloads())
@settings(max_examples=25, deadline=None)
def test_adaptive_routing_conserves_and_never_deadlocks(workload):
    topo = MDCrossbar(SHAPE)
    sim = NetworkSimulator(
        AdaptiveMDAdapter(topo), SimConfig(num_vcs=2, stall_limit=500)
    )
    sent = 0
    for s, t, length in workload:
        if s == t:
            continue
        sim.send(Packet(Header(source=s, dest=t), length=length))
        sent += 1
    res = sim.run(max_cycles=50_000)
    assert not res.deadlocked
    assert len(res.delivered) == sent


@given(adaptive_workloads())
@settings(max_examples=15, deadline=None)
def test_adaptive_latency_at_least_zero_load(workload):
    from repro.core.coords import hop_distance

    topo = MDCrossbar(SHAPE)
    sim = NetworkSimulator(
        AdaptiveMDAdapter(topo), SimConfig(num_vcs=2, stall_limit=500)
    )
    for s, t, length in workload:
        if s != t:
            sim.send(Packet(Header(source=s, dest=t), length=length))
    res = sim.run(max_cycles=50_000)
    for p in res.delivered:
        min_cycles = (2 + 2 * hop_distance(p.source, p.dest)) + p.length - 1
        assert p.latency >= min_cycles
