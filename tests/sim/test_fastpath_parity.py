"""Active-set fast path vs exact stepping: byte-identical results.

The engine's default driver skips idle cycles, streams body-flit runs in
bulk and wakes only dirty entities per phase; its twin steps every cycle
under the dirty-set law (``tests/sim/dirty_sets.py``), which checks that
each dirty set names what a full scan of the fabric would find.  These
tests pin the contract that the two are observationally identical --
same :meth:`SimResult.fingerprint` (order-sensitive), same span
accounting, same collector digests, same trace records -- across every
scenario class the paper's experiments use, with and without observers
attached.
"""

import itertools

import pytest

import repro.core.packet as packet_mod
from repro.core import Fault, Header, Packet, RC
from repro.core.config import DetourScheme
from repro.obs import (
    CollectorSuite,
    DeadlockWatch,
    DeliveryCollector,
    GrantCollector,
    PacketSpanCollector,
    RouteCacheStats,
    TraceRecorder,
)
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.topology import MDCrossbar
from repro.traffic import BernoulliInjector, BroadcastInjector, uniform
from tests.conftest import make_logic
from tests.sim.dirty_sets import exact_twin


def make_sim(shape=(4, 3), stall_limit=2000, **logic_kw):
    topo = MDCrossbar(shape)
    return NetworkSimulator(
        MDCrossbarAdapter(make_logic(topo, **logic_kw)),
        SimConfig(stall_limit=stall_limit),
    )


# ----------------------------------------------------------- workloads
def p2p_traffic(sim):
    sim.add_generator(
        BernoulliInjector(load=0.2, pattern=uniform, seed=7, stop_at=150)
    )
    return 1500


def broadcast_storm(sim):
    coords = sorted(sim.topo.node_coords())
    for i in range(8):
        src = coords[i % len(coords)]
        sim.send(
            Packet(Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST)),
            at_cycle=i * 3,
        )
    return 2000


def mixed_generators(sim):
    sim.add_generator(
        BernoulliInjector(load=0.15, pattern=uniform, seed=3, stop_at=100)
    )
    sim.add_generator(BroadcastInjector(rate=0.05, seed=4, stop_at=100))
    return 1200


def long_streams(sim):
    coords = sorted(sim.topo.node_coords())
    for i in range(6):
        sim.send(
            Packet(Header(source=coords[0], dest=coords[-1]), length=48),
            at_cycle=i * 90,
        )
    return 1200


def sparse_schedule(sim):
    """Big idle gaps: the fast-forward must not skip a scheduled send."""
    coords = sorted(sim.topo.node_coords())
    sim.send(Packet(Header(source=coords[0], dest=coords[-1])), at_cycle=5)
    sim.send(Packet(Header(source=coords[-1], dest=coords[0])), at_cycle=700)
    sim.send(Packet(Header(source=coords[1], dest=coords[2])), at_cycle=1400)
    return 3000


def fig9_deadlock(sim):
    sim.send(
        Packet(
            Header(source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST),
            length=6,
        ),
        at_cycle=0,
    )
    sim.send(Packet(Header(source=(0, 0), dest=(2, 2)), length=6), at_cycle=1)
    sim.send(Packet(Header(source=(1, 0), dest=(3, 1)), length=6), at_cycle=1)
    sim.send(Packet(Header(source=(0, 1), dest=(1, 2)), length=6), at_cycle=2)
    return 5000


SCENARIOS = [
    pytest.param(p2p_traffic, {}, id="p2p"),
    pytest.param(broadcast_storm, {}, id="broadcast"),
    pytest.param(mixed_generators, {}, id="mixed"),
    pytest.param(long_streams, {}, id="streaming"),
    pytest.param(sparse_schedule, {}, id="fast-forward"),
    pytest.param(
        p2p_traffic, {"fault": Fault.router((2, 0))}, id="fault-detour"
    ),
    pytest.param(
        fig9_deadlock,
        {"fault": Fault.router((2, 0)), "detour_scheme": DetourScheme.NAIVE},
        id="deadlock",
    ),
]


def run_pair(workload, logic_kw, observers=False, until_drained=True):
    """The same workload on the fast path and on its exact twin (every
    cycle stepped, under the dirty-set law); returns (fast, exact) as
    (result, span dicts, metric dict, trace records) tuples."""
    out = []
    for exact in (False, True):
        # pids are a process-global counter; restart it so both runs see
        # identical ids and traces/logs compare byte-for-byte
        packet_mod._packet_ids = itertools.count(1_000_000)
        sim = make_sim(**logic_kw)
        if exact:
            law = exact_twin(sim)
        max_cycles = workload(sim)
        spans = metrics = trace = None
        if observers:
            spans = PacketSpanCollector().attach(sim)
            # event-hook collectors only: PhaseProfiler/ChannelUtilization
            # subscribe per-cycle hooks, which (by design) force exact
            # stepping and would make this parity test vacuous
            suite = CollectorSuite(
                sim,
                collectors=[
                    DeliveryCollector(),
                    GrantCollector(),
                    DeadlockWatch(),
                    RouteCacheStats(),
                ],
            )
            trace = TraceRecorder().attach(sim)
        res = sim.run(max_cycles=max_cycles, until_drained=until_drained)
        if exact:
            assert law.cycles == res.cycles
        if observers:
            spans.detach(sim)
            span_dicts = [s.to_dict() for s in spans.span_set().spans]
            metrics = suite.metrics().to_dict()
            records = list(trace.records)
            suite.detach()
            trace.detach()
            out.append((res, span_dicts, metrics, records))
        else:
            out.append((res, None, None, None))
    return out


class TestFingerprintParity:
    @pytest.mark.parametrize("workload,logic_kw", SCENARIOS)
    def test_bare_engine(self, workload, logic_kw):
        (fast, *_), (exact, *_) = run_pair(workload, logic_kw)
        assert fast.fingerprint() == exact.fingerprint()

    @pytest.mark.parametrize("workload,logic_kw", SCENARIOS)
    def test_with_collectors_and_trace(self, workload, logic_kw):
        """Span/metric-level observers ride the event hooks only, so the
        fast path stays on -- and every observable they reconstruct must
        match the exact twin's, not just the fingerprint."""
        (fast, fspans, fmetrics, ftrace), (exact, espans, emetrics, etrace) = (
            run_pair(workload, logic_kw, observers=True)
        )
        assert fast.fingerprint() == exact.fingerprint()
        assert fspans == espans
        assert ftrace == etrace
        assert fmetrics == emetrics

    def test_until_horizon_not_drained(self):
        """Parity holds when the run stops at the horizon with traffic
        still in flight (the bench configuration)."""

        def workload(sim):
            sim.add_generator(
                BernoulliInjector(load=0.3, pattern=uniform, seed=11, stop_at=80)
            )
            return 60  # stop well before drain

        (fast, *_), (exact, *_) = run_pair(workload, {}, until_drained=False)
        assert fast.fingerprint() == exact.fingerprint()


class TestDeadlockDetectionParity:
    """Regression for the idle fast-forward resetting ``_last_progress``:
    a cycle skip must not push the watchdog baseline forward, so both
    drivers report the *same* detection cycle and the same cyclic wait
    (the seed fast path could detect a deadlock arbitrarily late)."""

    def test_same_report_cycle_and_members(self):
        reports = []
        for exact in (False, True):
            packet_mod._packet_ids = itertools.count(1_000_000)
            sim = make_sim(
                stall_limit=200,
                fault=Fault.router((2, 0)),
                detour_scheme=DetourScheme.NAIVE,
            )
            if exact:
                exact_twin(sim)
            max_cycles = fig9_deadlock(sim)
            res = sim.run(max_cycles=max_cycles)
            assert res.deadlock is not None
            reports.append(res.deadlock)
        fast, exact = reports
        # last flit move at cycle 12 + the 200-cycle stall budget
        assert fast.cycle == exact.cycle == 212
        assert fast.cycle_pids == exact.cycle_pids
        assert fast.blocked_pids == exact.blocked_pids


class TestFastForward:
    def test_idle_gaps_are_skipped(self):
        """The fast driver must step far fewer cycles than it simulates
        when the workload has long idle gaps."""
        sim = make_sim()
        max_cycles = sparse_schedule(sim)
        stepped = 0
        original = sim.step

        def counting_step():
            nonlocal stepped
            stepped += 1
            original()

        sim.step = counting_step
        res = sim.run(max_cycles=max_cycles)
        assert len(res.delivered) == 3
        assert stepped < res.cycles / 5

    def test_exact_twin_steps_every_cycle(self):
        sim = make_sim()
        law = exact_twin(sim)
        max_cycles = sparse_schedule(sim)
        stepped = 0
        original = sim.step

        def counting_step():
            nonlocal stepped
            stepped += 1
            original()

        sim.step = counting_step
        res = sim.run(max_cycles=max_cycles)
        assert stepped == law.cycles == res.cycles

    def test_per_cycle_hooks_force_exact_stepping(self):
        """A cycle_start subscriber (e.g. a monitor) disables skipping:
        it must see every cycle."""
        sim = make_sim()
        max_cycles = sparse_schedule(sim)
        seen = []
        sim.hooks.on_cycle_start(lambda s: seen.append(s.cycle))
        res = sim.run(max_cycles=max_cycles)
        assert seen == list(range(res.cycles))


class TestNextWakeContract:
    def test_bernoulli_window(self):
        gen = BernoulliInjector(load=0.1, start_at=10, stop_at=50)
        assert gen.next_wake(0) == 10  # sleeps until the window opens
        assert gen.next_wake(10) == 10  # active: no skipping allowed
        assert gen.next_wake(49) == 49
        assert gen.next_wake(50) is None  # never wakes again
        assert gen.next_wake(999) is None

    def test_broadcast_window(self):
        gen = BroadcastInjector(rate=0.1, start_at=5, stop_at=20)
        assert gen.next_wake(0) == 5
        assert gen.next_wake(7) == 7
        assert gen.next_wake(20) is None

    def test_unbounded_generator_never_sleeps(self):
        gen = BernoulliInjector(load=0.1)
        assert gen.next_wake(12345) == 12345

    def test_opaque_generator_disables_fast_forward(self):
        """A generator without ``next_wake`` is opaque: the driver must
        fall back to stepping every cycle rather than guess."""
        sim = make_sim()
        sent = []

        def opaque(s):  # plain callable, no next_wake
            if s.cycle == 800:
                coords = sorted(s.topo.node_coords())
                pkt = Packet(Header(source=coords[0], dest=coords[-1]))
                s.send(pkt)
                sent.append(pkt)

        sim.add_generator(opaque)
        res = sim.run(max_cycles=1000, until_drained=False)
        assert res.cycles == 1000
        assert len(sent) == 1
        assert [p.pid for p in res.delivered] == [sent[0].pid]


class TestOnlineFaultParity:
    def test_mid_run_fault_injection(self):
        """Reconfiguration while traffic is in flight: both drivers see
        the same losses and the same post-fault routing."""
        results = []
        for exact in (False, True):
            packet_mod._packet_ids = itertools.count(1_000_000)
            sim = make_sim()
            if exact:
                exact_twin(sim)
            sim.add_generator(
                BernoulliInjector(load=0.2, pattern=uniform, seed=5, stop_at=60)
            )
            sim.run(max_cycles=30, until_drained=False)
            sim.inject_fault(Fault.router((2, 0)))
            res = sim.run(max_cycles=1000)
            results.append(res)
        fast, exact = results
        assert fast.fingerprint() == exact.fingerprint()
