"""Unit tests for the injection processes."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.packet as packet_mod
from repro.core import RC, Fault, Header, Packet
from repro.core.coords import all_coords
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.traffic import (
    PATTERNS,
    BernoulliInjector,
    BroadcastInjector,
    ScenarioScript,
)
from repro.traffic.generators import WordStream
from tests.conftest import examples, make_logic


def make_sim(topo, **kw):
    return NetworkSimulator(MDCrossbarAdapter(make_logic(topo, **kw)), SimConfig())


class TestBernoulliInjector:
    def test_offered_rate_close_to_load(self, topo43):
        sim = make_sim(topo43)
        gen = BernoulliInjector(load=0.2, packet_length=4, seed=3, stop_at=400)
        sim.add_generator(gen)
        sim.run(max_cycles=1500, until_drained=False)
        expected = 0.2 / 4 * 400 * 12
        assert 0.7 * expected < gen.offered < 1.3 * expected

    def test_all_offered_delivered_after_drain(self, topo43):
        sim = make_sim(topo43)
        gen = BernoulliInjector(load=0.1, seed=5, stop_at=200)
        sim.add_generator(gen)
        res = sim.run(max_cycles=3000, until_drained=False)
        assert len(res.delivered) == gen.offered
        assert res.in_flight_at_end == 0

    def test_measurement_window(self, topo43):
        sim = make_sim(topo43)
        gen = BernoulliInjector(
            load=0.2, seed=7, stop_at=300, measure_from=100, measure_until=200
        )
        sim.add_generator(gen)
        res = sim.run(max_cycles=2000, until_drained=False)
        measured = gen.measured_packets(res.delivered)
        assert 0 < len(measured) < len(res.delivered)
        assert all(100 <= p.injected_at < 200 for p in measured)

    def test_zero_load_offers_nothing(self, topo43):
        sim = make_sim(topo43)
        gen = BernoulliInjector(load=0.0, stop_at=100)
        sim.add_generator(gen)
        sim.run(max_cycles=200, until_drained=False)
        assert gen.offered == 0

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            BernoulliInjector(load=1.5)

    def test_reproducible(self, topo43):
        counts = []
        for _ in range(2):
            sim = make_sim(topo43)
            gen = BernoulliInjector(load=0.3, seed=11, stop_at=150)
            sim.add_generator(gen)
            sim.run(max_cycles=1000, until_drained=False)
            counts.append(gen.offered)
        assert counts[0] == counts[1]

    def test_respects_fault_dead_node(self, topo43):
        from repro.core import Fault

        sim = make_sim(topo43, fault=Fault.router((2, 0)))
        gen = BernoulliInjector(load=0.3, seed=13, stop_at=150)
        sim.add_generator(gen)
        res = sim.run(max_cycles=2000, until_drained=False)
        assert not res.deadlocked
        for p in res.delivered:
            assert p.source != (2, 0) and p.dest != (2, 0)


class ScanInjector(BernoulliInjector):
    """The injector as it was before the live-set cache: ``dest`` looked
    up by a scan of the ``sim.live_nodes`` tuple."""

    def __call__(self, sim):
        cycle = sim.cycle
        if cycle < self.start_at:
            return
        if self.stop_at is not None and cycle >= self.stop_at:
            return
        shape = sim.topo.shape
        live = sim.live_nodes
        rng = self.rng
        random = rng.random
        rate = self.packet_rate
        pattern = self.pattern
        for src in live:
            if random() >= rate:
                continue
            dest = pattern(src, shape, rng)
            if dest == src:
                continue
            if dest not in live:
                continue
            pkt = Packet(
                Header(source=src, dest=dest), length=self.packet_length
            )
            sim.send(pkt)
            self.offered += 1
            if cycle >= self.measure_from and (
                self.measure_until is None or cycle < self.measure_until
            ):
                self.measured_pids.add(pkt.pid)


class TestInjectorLiveness:
    """The live-set lookup sends what the tuple scan sent, and follows
    the live set across an online fault."""

    def sends(self, cls, topo, fault=None, midrun=None):
        """``(cycle, source, dest)`` of every packet ``cls`` injects, and
        its final RNG state; ``midrun`` kills a router at cycle 40."""
        sim = make_sim(topo, **({"fault": fault} if fault else {}))
        log = []
        send = sim.send

        def logged(pkt, **kw):
            log.append((sim.cycle, pkt.source, pkt.dest))
            send(pkt, **kw)

        sim.send = logged
        gen = cls(load=0.6, seed=17, stop_at=120)
        sim.add_generator(gen)
        if midrun is not None:
            sim.run(max_cycles=40, until_drained=False)
            sim.inject_fault(midrun)
        sim.run(max_cycles=400, until_drained=False)
        return log, gen.rng.bit_generator.state

    def test_faulted_4x3(self, topo43):
        from repro.core import Fault

        got = self.sends(BernoulliInjector, topo43, fault=Fault.router((2, 0)))
        assert got == self.sends(ScanInjector, topo43, fault=Fault.router((2, 0)))
        log, _ = got
        assert log and all((2, 0) not in (s, d) for _, s, d in log)

    def test_fault_injected_mid_run(self):
        from repro.core import Fault
        from repro.topology import MDCrossbar

        topo = MDCrossbar((4, 4))
        got = self.sends(BernoulliInjector, topo, midrun=Fault.router((2, 2)))
        assert got == self.sends(ScanInjector, topo, midrun=Fault.router((2, 2)))
        log, _ = got
        assert any(c < 40 and d == (2, 2) for c, _, d in log)
        late = [(s, d) for c, s, d in log if c >= 40]
        assert late and all((2, 2) not in pair for pair in late)


class ReferenceInjector(BernoulliInjector):
    """The injector as it was before block admission: one scalar
    ``rng.random()`` per live PE and one ``pattern`` call per hit."""

    def __call__(self, sim):
        cycle = sim.cycle
        if cycle < self.start_at:
            return
        if self.stop_at is not None and cycle >= self.stop_at:
            return
        shape = sim.topo.shape
        live = sim.live_nodes
        if live is not self._live:  # a reset or fault built a new tuple
            self._live, self._live_set = live, frozenset(live)
        live_set = self._live_set
        rng = self.rng
        random = rng.random
        rate = self.packet_rate
        pattern = self.pattern
        for src in live:
            if random() >= rate:
                continue
            dest = pattern(src, shape, rng)
            if dest == src:
                continue
            if dest not in live_set:
                continue
            pkt = Packet(
                Header(source=src, dest=dest), length=self.packet_length
            )
            sim.send(pkt)
            self.offered += 1
            if cycle >= self.measure_from and (
                self.measure_until is None or cycle < self.measure_until
            ):
                self.measured_pids.add(pkt.pid)


class StubSim:
    """What an injector reads of a simulator: the cycle, the shape and
    the live PEs; ``send`` only logs."""

    def __init__(self, shape, dead=()) -> None:
        self.cycle = 0
        self.topo = SimpleNamespace(shape=tuple(shape))
        self.live_nodes = tuple(c for c in all_coords(shape) if c not in dead)
        self.log = []

    def send(self, pkt):
        self.log.append((self.cycle, pkt.source, pkt.dest, pkt.pid))


def stub_stream(cls, shape, dead, cycles, **gen_kw):
    """Drive an injector over ``cycles`` cycles of a :class:`StubSim`;
    returns its ``(cycle, src, dst, pid)`` list, ``offered``,
    ``measured_pids`` and final bit-generator state."""
    packet_mod._packet_ids = itertools.count(1_000_000)
    sim = StubSim(shape, dead)
    gen = cls(**gen_kw)
    for cycle in range(cycles):
        sim.cycle = cycle
        gen(sim)
    return sim.log, gen.offered, gen.measured_pids, gen.rng.bit_generator.state


def sim_stream(cls, topo, fault=None, midrun=None, **gen_kw):
    """The same record from a real run; ``midrun`` kills a router at
    cycle 40."""
    packet_mod._packet_ids = itertools.count(1_000_000)
    sim = make_sim(topo, **({"fault": fault} if fault else {}))
    log = []
    send = sim.send

    def logged(pkt, **kw):
        log.append((sim.cycle, pkt.source, pkt.dest, pkt.pid))
        send(pkt, **kw)

    sim.send = logged
    gen = cls(**gen_kw)
    sim.add_generator(gen)
    if midrun is not None:
        sim.run(max_cycles=40, until_drained=False)
        sim.inject_fault(midrun)
    sim.run(max_cycles=90, until_drained=False)
    return log, gen.offered, gen.measured_pids, gen.rng.bit_generator.state


#: (load, packet length): rates 1/80, 3/80 and 1 -- every PE admits at 1
STREAM_LOADS = ((0.05, 4), (0.3, 8), (1.0, 1))


class TestStreamExactness:
    """Every registered pattern at three loads draws, sends and measures
    exactly what the scalar loop did, and leaves the generator in the
    same state: on a faulted 4x3, a 4x4 that loses a router at cycle 40,
    and the full 16x16x8 machine."""

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("load,length", STREAM_LOADS)
    def test_faulted_4x3(self, topo43, name, load, length):
        kw = dict(
            load=load, packet_length=length, pattern=PATTERNS[name], seed=21,
            stop_at=70, measure_from=10, measure_until=50,
        )
        fault = Fault.router((2, 0))
        got = sim_stream(BernoulliInjector, topo43, fault=fault, **kw)
        assert got == sim_stream(ReferenceInjector, topo43, fault=fault, **kw)
        assert got[0] and got[2]

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("load,length", STREAM_LOADS)
    def test_4x4_fault_at_cycle_40(self, topo44, name, load, length):
        kw = dict(
            load=load, packet_length=length, pattern=PATTERNS[name], seed=22,
            stop_at=70, measure_from=30, measure_until=60,
        )
        fault = Fault.router((2, 2))
        got = sim_stream(BernoulliInjector, topo44, midrun=fault, **kw)
        assert got == sim_stream(ReferenceInjector, topo44, midrun=fault, **kw)
        assert got[0]

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("load,length", STREAM_LOADS)
    def test_machine(self, name, load, length):
        kw = dict(
            load=load, packet_length=length, pattern=PATTERNS[name], seed=23,
            measure_from=3, measure_until=7,
        )
        shape, dead = (16, 16, 8), {(8, 8, 4)}
        got = stub_stream(BernoulliInjector, shape, dead, 9, **kw)
        assert got == stub_stream(ReferenceInjector, shape, dead, 9, **kw)
        assert got[0]


STREAM_SHAPES = [(2,), (3,), (5,), (2, 2), (4, 3), (3, 3, 2), (2, 2, 2, 2), (8, 8)]


@settings(max_examples=examples(60), deadline=None)
@given(
    st.sampled_from(STREAM_SHAPES),
    st.sampled_from(sorted(PATTERNS)),
    st.sampled_from((0.0, 0.02, 0.3, 0.7, 1.0)),
    st.sampled_from((1, 2, 4, 8)),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_injector_stream_equals_the_scalar_loop(shape, name, load, length, seed, data):
    """The stream law: on random shapes, dead-PE sets, loads, lengths,
    seeds and windows, the injector sends, numbers and measures what
    the scalar loop did and leaves the generator where it did."""
    coords = list(all_coords(shape))
    dead = data.draw(st.sets(st.sampled_from(coords), max_size=len(coords) // 2))
    start = data.draw(st.integers(0, 3))
    kw = dict(
        load=load, packet_length=length, pattern=PATTERNS[name], seed=seed,
        start_at=start, stop_at=start + data.draw(st.integers(0, 30)),
        measure_from=data.draw(st.integers(0, 10)),
        measure_until=data.draw(st.one_of(st.none(), st.integers(0, 30))),
    )
    got = stub_stream(BernoulliInjector, shape, dead, 40, **kw)
    assert got == stub_stream(ReferenceInjector, shape, dead, 40, **kw)


#: ranges that reject often (3 * 2**30: a quarter of all halves; 2**31 + 1:
#: almost half), the largest, the machine's 2047 and the smallest
REJECTING = (3 * 2**30, 2**31 + 1, 2**32 - 1, 2047, 3, 2)


def decode(seed, r, odd, count, ahead):
    """``count`` draws of ``integers(0, r)`` and of ``WordStream.below(r)``
    from one seed, with a half in the buffer when ``odd``; the stream
    reads the first ``ahead(used)`` of the ``used`` words the draws take
    as a block.  Returns both values, both final states and ``used``."""
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    if odd:
        want_rng.integers(0, 7)
        got_rng.integers(0, 7)
    want = [int(want_rng.integers(0, r)) for _ in range(count)]
    probe = np.random.default_rng(seed)
    probe.bit_generator.state = got_rng.bit_generator.state
    used = 0
    while probe.bit_generator.state["state"] != want_rng.bit_generator.state["state"]:
        probe.bit_generator.random_raw()
        used += 1
    stream = WordStream(got_rng.bit_generator)
    stream.block(ahead(used))
    got = [stream.below(r) for _ in range(count)]
    stream.close()
    return (
        (got, got_rng.bit_generator.state),
        (want, want_rng.bit_generator.state),
        used,
    )


@settings(max_examples=examples(60), deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from(REJECTING), st.integers(2, 2**32 - 1)),
    st.booleans(),
    st.integers(1, 40),
    st.data(),
)
def test_half_word_decoder_equals_integers(seed, r, odd, count, data):
    """The rejection law: ``WordStream.below(r)`` returns what
    ``Generator.integers(0, r)`` returns and leaves the same state, from
    an empty (even) or a full (odd) half buffer, whatever part of the
    words it reads from a block read ahead."""
    got, want, _ = decode(
        seed, r, odd, count, lambda used: data.draw(st.integers(0, used))
    )
    assert got == want


@pytest.mark.parametrize("odd", (False, True))
def test_a_rejected_half_is_followed_by_the_next(odd):
    """At ``r = 3 * 2**30`` a quarter of the halves are rejected: 400
    draws take about 267 words, not 200, and still agree."""
    got, want, used = decode(5, 3 * 2**30, odd, 400, lambda used: used // 2)
    assert got == want
    assert 240 < used < 300


class TestBroadcastInjector:
    def test_broadcasts_delivered(self, topo43):
        sim = make_sim(topo43)
        gen = BroadcastInjector(rate=0.02, seed=1, stop_at=300)
        sim.add_generator(gen)
        res = sim.run(max_cycles=3000, until_drained=False)
        assert gen.offered > 0
        assert len(res.delivered) == gen.offered
        assert all(p.header.rc is RC.BROADCAST_REQUEST for p in res.delivered)


class TestScenarioScript:
    def test_install_and_run(self, topo43):
        sim = make_sim(topo43)
        script = (
            ScenarioScript()
            .p2p(0, (0, 0), (3, 2))
            .p2p(5, (1, 1), (2, 2))
            .broadcast(3, (3, 0))
        )
        pkts = script.install(sim)
        assert len(pkts) == 3
        res = sim.run()
        assert len(res.delivered) == 3

    def test_injection_times_respected(self, topo43):
        sim = make_sim(topo43)
        script = ScenarioScript().p2p(7, (0, 0), (1, 0))
        (pkt,) = script.install(sim)
        sim.run()
        assert pkt.injected_at == 7

    def test_naive_broadcast_rc(self, topo43):
        script = ScenarioScript().broadcast(0, (0, 0), naive=True)
        assert script.sends[0].rc is RC.BROADCAST
