"""The engine's public hook bus: every event fires with the documented
signature, observers are pure listeners (subscribing changes nothing about
the simulated outcome), and the monitor/trace utilities ride on it."""

from repro.core import Header, Packet, RC, SwitchLogic, make_config
from repro.core.config import BroadcastMode
from repro.sim import (
    MDCrossbarAdapter,
    NetworkSimulator,
    SimConfig,
    SimMonitor,
    TextTrace,
)
from repro.sim.engine import PHASES
from repro.topology import MDCrossbar

SHAPE = (4, 3)


def make_sim(stall_limit=2000, **cfg_kw):
    logic = SwitchLogic(MDCrossbar(SHAPE), make_config(SHAPE, **cfg_kw))
    return NetworkSimulator(
        MDCrossbarAdapter(logic), SimConfig(stall_limit=stall_limit)
    )


def test_cycle_start_and_phase_end_fire_in_order():
    sim = make_sim()
    events = []
    sim.hooks.on_cycle_start(lambda eng: events.append("cycle"))
    sim.hooks.on_phase_end(lambda eng, phase: events.append(phase))
    sim.step()
    assert events == ["cycle"] + list(PHASES)
    sim.step()
    assert events == (["cycle"] + list(PHASES)) * 2


def test_grant_and_deliver_hooks_fire():
    sim = make_sim()
    grants = []
    deliveries = []
    sim.hooks.on_grant(lambda eng, conn: grants.append((eng.cycle, conn.element)))
    sim.hooks.on_deliver(lambda pkt, coord, cycle: deliveries.append((pkt.pid, coord, cycle)))
    pkt = Packet(Header(source=(0, 0), dest=(3, 2)), length=4)
    sim.send(pkt)
    res = sim.run()
    assert not res.deadlocked
    assert grants, "routing a packet must establish at least one connection"
    assert deliveries == [(pkt.pid, (3, 2), pkt.delivered_at)]


def test_deadlock_hook_fires_with_report():
    sim = make_sim(stall_limit=200, broadcast_mode=BroadcastMode.NAIVE)
    seen = []
    sim.hooks.on_deadlock(lambda eng, report: seen.append(report))
    for s in [(2, 1), (3, 2)]:
        sim.send(Packet(Header(source=s, dest=s, rc=RC.BROADCAST), length=6))
    res = sim.run(max_cycles=5000)
    assert res.deadlocked
    assert seen == [res.deadlock]
    assert len(seen[0].cycle_pids) == 2


def test_subscribing_hooks_does_not_change_the_run():
    def run(subscribe):
        sim = make_sim()
        if subscribe:
            sim.hooks.on_cycle_start(lambda eng: None)
            sim.hooks.on_phase_end(lambda eng, phase: None)
            sim.hooks.on_grant(lambda eng, conn: None)
            sim.hooks.on_deliver(lambda pkt, coord, cycle: None)
        for s, d in [((0, 0), (3, 2)), ((1, 1), (2, 0)), ((3, 0), (0, 2))]:
            sim.send(Packet(Header(source=s, dest=d), length=4))
        return sim.run().fingerprint()

    assert run(False) == run(True)


def test_unsubscribe_removes_from_every_event():
    sim = make_sim()
    calls = []

    def spy(*args):
        calls.append(args)

    sim.hooks.on_cycle_start(spy)
    sim.hooks.on_phase_end(spy)
    sim.hooks.unsubscribe(spy)
    sim.step()
    assert calls == []


def test_on_log_and_texttrace_attach():
    sim = make_sim()
    trace = TextTrace().attach(sim)
    raw = []
    sim.hooks.on_log(lambda cycle, msg: raw.append((cycle, msg)))
    sim.send(Packet(Header(source=(0, 0), dest=(1, 0)), length=4))
    sim.run()
    assert raw, "a routed packet produces event-log lines"
    assert list(trace.events) == raw
    assert trace.dump()


def test_monitor_subscribes_and_detaches():
    sim = make_sim()
    mon = SimMonitor(sim, interval=1)
    assert mon._on_cycle_start in sim.hooks.cycle_start
    sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
    sim.run()
    assert mon.samples
    n = len(mon.samples)
    mon.detach()
    assert mon._on_cycle_start not in sim.hooks.cycle_start
    sim.step()
    assert len(mon.samples) == n
