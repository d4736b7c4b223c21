"""Online deadlock recovery (drain/rotate) engine tests.

With ``SimConfig(recovery=True)`` the stall watchdog no longer ends the
run: the engine drains one victim packet of the diagnosed cyclic wait
back out of the fabric, re-queues it at its source and resumes.  These
tests pin the whole contract on the paper's Fig. 9 scenario -- the
naive-detour broadcast interleaving that deadlocks a (4, 3) network
around the faulty router (2, 0):

* without recovery the run halts with a :class:`DeadlockReport`;
* with recovery every packet still delivers, exactly once, and the
  ``deadlock`` hook never fires for a cycle recovery broke;
* the rotation is deterministic -- same victim, same fingerprint --
  across repeats and against exact stepping under the dirty-set law;
* ``recovery_limit`` bounds the retries: the attempt after the budget
  is spent escalates to the final report (the anti-livelock guarantee).
"""

import itertools

import pytest

import repro.core.packet as packet_mod
from repro.core import Fault, Header, Packet, RC
from repro.core.config import DetourScheme
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.topology import MDCrossbar
from tests.conftest import make_logic
from tests.sim.dirty_sets import exact_twin

SHAPE = (4, 3)
STALL_LIMIT = 200


def make_sim(recovery=False, **cfg_kw):
    """A (4, 3) network in the Fig. 9 deadlock configuration: router
    (2, 0) faulty, naive detours (no virtual-channel avoidance)."""
    topo = MDCrossbar(SHAPE)
    logic = make_logic(
        topo, fault=Fault.router((2, 0)), detour_scheme=DetourScheme.NAIVE
    )
    cfg = SimConfig(
        stall_limit=STALL_LIMIT,
        recovery=recovery,
        **cfg_kw,
    )
    return NetworkSimulator(MDCrossbarAdapter(logic), cfg)


def fig9(sim, at=0):
    """The deadlocking interleaving: one broadcast plus three unicasts."""
    pkts = [
        Packet(
            Header(source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST),
            length=6,
        ),
        Packet(Header(source=(0, 0), dest=(2, 2)), length=6),
        Packet(Header(source=(1, 0), dest=(3, 1)), length=6),
        Packet(Header(source=(0, 1), dest=(1, 2)), length=6),
    ]
    for pkt, dt in zip(pkts, (0, 1, 1, 2)):
        sim.send(pkt, at_cycle=at + dt)
    return pkts


def reset_pids():
    """Restart the process-global pid counter so repeats (and the two
    drivers) see identical ids and fingerprints compare exactly."""
    packet_mod._packet_ids = itertools.count(1_000_000)


class TestRecoveryOff:
    def test_halts_with_deadlock_report(self):
        sim = make_sim(recovery=False)
        fig9(sim)
        res = sim.run(max_cycles=20_000)
        # last flit move at cycle 12; the watchdog fires on exactly the
        # stall_limit-th stalled cycle
        assert res.deadlock is not None
        assert res.deadlock.cycle == 212
        assert res.delivered == []
        assert res.in_flight_at_end == 4
        assert res.recoveries == 0
        assert res.recovery_victims == ()


class TestRecoveryOn:
    def test_breaks_the_cycle_and_delivers_everything(self):
        sim = make_sim(recovery=True)
        pkts = fig9(sim)
        res = sim.run(max_cycles=20_000)
        assert res.deadlock is None
        assert res.recoveries == 1
        assert sorted(p.pid for p in res.delivered) == sorted(
            p.pid for p in pkts
        )
        assert res.in_flight_at_end == 0
        # the victim is one of the run's own packets and delivers too
        (victim,) = res.recovery_victims
        assert victim in {p.pid for p in pkts}
        # re-injection counts: 4 first entries + 1 rotation
        assert res.injected == 5

    def test_victim_keeps_original_injection_time(self):
        """The rotated packet's latency includes the recovery cost: its
        ``injected_at`` stays the cycle it first entered the queue."""
        sim = make_sim(recovery=True)
        fig9(sim)
        res = sim.run(max_cycles=20_000)
        (victim,) = res.recovery_victims
        pkt = next(p for p in res.delivered if p.pid == victim)
        assert pkt.injected_at <= 2  # the original send, not the rotate
        assert pkt.delivered_at > 212  # delivered after the recovery

    def test_recovery_event_hook(self):
        sim = make_sim(recovery=True)
        fig9(sim)
        events = []
        sim.hooks.on_recovery(lambda s, ev: events.append(ev))
        res = sim.run(max_cycles=20_000)
        assert len(events) == 1
        (ev,) = events
        assert ev.cycle == 212
        assert ev.attempt == 1
        assert ev.victim == res.recovery_victims[0]
        assert ev.victim in ev.cycle_pids
        assert "recovery" in ev.describe()
        assert str(ev.victim) in ev.describe()

    def test_deadlock_hook_silent_when_recovery_succeeds(self):
        """The deadlock hook is the run-is-over signal; a broken cycle
        must not fire it."""
        sim = make_sim(recovery=True)
        fig9(sim)
        reports = []
        sim.hooks.on_deadlock(lambda s, r: reports.append(r))
        res = sim.run(max_cycles=20_000)
        assert res.deadlock is None
        assert reports == []

    def test_oldest_victim_policy_also_recovers(self):
        reset_pids()
        sim = make_sim(recovery=True, recovery_victim="oldest")
        pkts = fig9(sim)
        res = sim.run(max_cycles=20_000)
        assert res.deadlock is None
        assert res.recoveries == 1
        assert len(res.delivered) == len(pkts)
        # oldest = smallest pid among the eligible cycle members;
        # youngest (the default) picks the largest
        reset_pids()
        sim2 = make_sim(recovery=True, recovery_victim="youngest")
        fig9(sim2)
        res2 = sim2.run(max_cycles=20_000)
        assert res.recovery_victims[0] <= res2.recovery_victims[0]


class TestRecoveryDeterminism:
    def _run(self, exact=False):
        reset_pids()
        sim = make_sim(recovery=True)
        if exact:
            law = exact_twin(sim)
        fig9(sim)
        res = sim.run(max_cycles=20_000)
        if exact:
            assert law.cycles == res.cycles
        return res

    def test_repeats_are_identical(self):
        a, b = self._run(), self._run()
        assert a.fingerprint() == b.fingerprint()
        assert a.recovery_victims == b.recovery_victims
        assert a.cycles == b.cycles

    def test_fast_vs_exact_parity(self):
        """The rotation under exact stepping and the dirty-set law."""
        fast, exact = self._run(), self._run(exact=True)
        assert fast.fingerprint() == exact.fingerprint()
        assert fast.recovery_victims == exact.recovery_victims
        assert fast.cycles == exact.cycles
        assert fast.recoveries == exact.recoveries == 1

    def test_fingerprint_reflects_recovery(self):
        """Two runs that differ only in recovery actions must not
        collide: the fingerprint carries the rotation count/victims."""
        reset_pids()
        off = make_sim(recovery=False)
        fig9(off)
        res_off = off.run(max_cycles=20_000)
        res_on = self._run()
        assert res_off.fingerprint() != res_on.fingerprint()


class TestRecoveryLimit:
    """Two independent deadlock rounds: the Fig. 9 batch injected twice,
    far enough apart that the first round fully resolves (or halts)
    before the second begins."""

    def _run(self, **cfg_kw):
        reset_pids()
        sim = make_sim(recovery=True, **cfg_kw)
        first = fig9(sim, at=0)
        second = fig9(sim, at=1_000)
        return sim.run(max_cycles=20_000), first, second

    def test_budget_covers_both_rounds(self):
        res, first, second = self._run(recovery_limit=2)
        assert res.deadlock is None
        assert res.recoveries == 2
        assert len(res.delivered) == len(first) + len(second)

    def test_exhausted_budget_escalates_to_report(self):
        """recovery_limit=1: the first cycle is broken, the second one
        lands after the budget is spent and ends the run with the
        ordinary DeadlockReport."""
        res, first, second = self._run(recovery_limit=1)
        assert res.recoveries == 1
        assert res.deadlock is not None
        assert res.deadlock.cycle > 1_000  # the *second* round's cycle
        # the first batch still delivered in full before the halt
        delivered = {p.pid for p in res.delivered}
        assert {p.pid for p in first} <= delivered
        assert res.in_flight_at_end == len(second)


class TestConfigValidation:
    def test_bad_victim_policy_rejected(self):
        with pytest.raises(ValueError, match="recovery_victim"):
            SimConfig(recovery_victim="random")

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError, match="recovery_limit"):
            SimConfig(recovery_limit=0)

    def test_defaults_are_off(self):
        cfg = SimConfig()
        assert cfg.recovery is False
        assert cfg.recovery_victim == "youngest"
        assert cfg.recovery_limit == 16
