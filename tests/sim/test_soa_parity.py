"""SoA kernel vs active vs exact stepping: three-way byte-identical results.

``SimConfig(engine="soa")`` selects the batched structure-of-arrays
driver (:mod:`repro.sim.soa`); these tests pin its contract -- the same
:meth:`SimResult.fingerprint` as the active driver and as stepping every
cycle under the dirty-set law (``tests/sim/dirty_sets.py``) on every
workload, whether the kernel ran the cycles itself or handed them back
to the scalar path mid-run.  A property-based sweep
(hypothesis) draws random small grids, fault sets, traffic patterns and
seeds; directed cases cover each fallback reason and the mid-run
reconfiguration handoff.  The wave law holds the kernel's transfer
phase, phase by phase, to the ascending pass it replaced, and the
inject law its inject phase to the per-packet loop it replaced.
"""

import contextlib
import copy
import itertools
from collections import deque
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.packet as packet_mod
from repro.core import Fault, Header, Packet, RC
from repro.core.packet import FlitKind
from repro.core.switch_logic import RoutingError
from repro.core.config import DetourScheme
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.sim.fabric import InFlightPacket
from repro.sim.soa import SoAKernel
from repro.topology import MDCrossbar
from repro.traffic import BernoulliInjector, BroadcastInjector, uniform
from tests.conftest import examples, make_logic
from tests.sim.dirty_sets import exact_twin

DRIVERS = ("soa", "active", "exact")


def reset_pids():
    """Restart the process-global pid counter so every driver of a
    repeat sees identical ids and fingerprints compare exactly."""
    packet_mod._packet_ids = itertools.count(1_000_000)


def build(driver, shape, stall_limit=400, recovery=False, **logic_kw):
    cfg = SimConfig(
        stall_limit=stall_limit,
        engine="soa" if driver == "soa" else "active",
        recovery=recovery,
    )
    sim = NetworkSimulator(
        MDCrossbarAdapter(make_logic(MDCrossbar(shape), **logic_kw)), cfg
    )
    if driver == "exact":
        exact_twin(sim)
    return sim


def run_three(workload, shape, until_drained=True, drivers=DRIVERS, **build_kw):
    """The same workload under all three drivers (or the ``drivers``
    named: exact stepping is too slow for the full machine); asserts
    fingerprint identity and returns the soa-driver simulator for extra
    checks."""
    results = {}
    sims = {}
    for driver in drivers:
        reset_pids()
        sim = build(driver, shape, **build_kw)
        max_cycles = workload(sim)
        results[driver] = sim.run(
            max_cycles=max_cycles, until_drained=until_drained
        )
        sims[driver] = sim
    f = {d: results[d].fingerprint() for d in drivers}
    for d in drivers:
        assert f[d] == f["active"], (
            f"{d} diverged from active (engine_used={sims['soa'].engine_used},"
            f" fallback={sims['soa'].engine_fallback})"
        )
    assert (
        results["soa"].recoveries == results["active"].recoveries
        and results["soa"].recovery_victims
        == results["active"].recovery_victims
    )
    return sims["soa"], results["soa"]


# --------------------------------------------------------- fuzz sweep
SHAPES = [(3, 2), (4, 3), (2, 2, 2), (5,), (3, 3)]


@st.composite
def scenarios(draw):
    shape = draw(st.sampled_from(SHAPES))
    coords = sorted(MDCrossbar(shape).node_coords())
    n_faults = draw(st.integers(0, 1 if len(shape) < 2 else 2))
    faulted = draw(
        st.lists(
            st.sampled_from(coords),
            min_size=n_faults,
            max_size=n_faults,
            unique=True,
        )
    )
    live = [c for c in coords if c not in faulted]
    naive = draw(st.booleans())
    n_sends = draw(st.integers(1, 12))
    sends = []
    for _ in range(n_sends):
        src = draw(st.sampled_from(live))
        kind = draw(st.sampled_from(("p2p", "p2p", "p2p", "bcast", "sbcast")))
        if kind == "p2p":
            dest = draw(st.sampled_from(coords))  # dead dests: drop path
            rc = RC.NORMAL
        else:
            dest = src
            rc = RC.BROADCAST if kind == "bcast" else RC.BROADCAST_REQUEST
        sends.append(
            (
                src,
                dest,
                rc,
                draw(st.integers(1, 10)),  # length
                draw(st.integers(0, 6)),  # at_cycle
            )
        )
    load = draw(st.sampled_from((0.0, 0.1, 0.4, 0.8)))
    seed = draw(st.integers(0, 2**16))
    recovery = draw(st.booleans())
    return shape, tuple(faulted), naive, tuple(sends), load, seed, recovery


@settings(max_examples=examples(40), deadline=None)
@given(scenarios())
# a one-flit broadcast request routed the cycle after it arrived, with
# the next packet's header already queued behind it: the route phase
# drops the input from the candidates with the routed header, and only
# the tail leaving re-adds it for the header behind (the dirty-set law
# fails at cycle 22 without that re-add)
@example(
    scenario=(
        (4, 3),
        ((0, 0), (0, 1)),
        False,
        (
            ((0, 2), (0, 0), RC.NORMAL, 1, 0),
            ((0, 2), (0, 2), RC.BROADCAST, 1, 0),
            ((0, 2), (0, 2), RC.BROADCAST_REQUEST, 1, 0),
        ),
        0.8,
        0,
        False,
    )
)
def test_fuzzed_three_way_parity(scenario):
    shape, faulted, naive, sends, load, seed, recovery = scenario
    logic_kw = {}
    if faulted:
        logic_kw["fault"] = [Fault.router(c) for c in faulted]
    if naive:
        logic_kw["detour_scheme"] = DetourScheme.NAIVE

    def workload(sim):
        for src, dest, rc, length, at in sends:
            sim.send(
                Packet(Header(source=src, dest=dest, rc=rc), length=length),
                at_cycle=at,
            )
        if load:
            sim.add_generator(
                BernoulliInjector(
                    load=load, pattern=uniform, seed=seed, stop_at=60
                )
            )
        return 3000

    try:
        run_three(workload, shape, recovery=recovery, **logic_kw)
    except ValueError:
        # an infeasible fault configuration is rejected while building
        # the switch logic, before any driver is involved -- every
        # driver sees the identical rejection, so there is no parity
        # left to check
        pass


# ------------------------------------------------------ the wave law
def reference_transfer(k):
    """The transfer phase as it was before the wave fixed point: the
    phase-start movers as one batch, then one ascending pass over the
    order-dependent candidates, each mover applied on its own.  Returns
    the fabric cids and injection slots that moved."""
    f = np.nonzero(k.fc_alive)[0]
    i = np.nonzero(k.ic_alive)[0]
    if f.size == 0 and i.size == 0:
        return set(), set()
    cap = k.cap
    buf_len = k.buf_len
    fl = buf_len[f]
    fhead_pid = k.buf_pid[f, k.buf_start[f]]
    fsrc_ok = (fl > 0) & (fhead_pid == k.fc_pid[f])
    fdst = k.fc_cout[f]
    fdrop = fdst < 0
    fdst_safe = np.where(fdrop, 0, fdst)
    fdst_ok = fdrop | (buf_len[fdst_safe] < cap)
    fm0 = fsrc_ok & fdst_ok
    idst = k.ic_cout[i]
    im0 = buf_len[idst] < cap
    fsrc_pot = (~fsrc_ok) & (fl == 0)
    fdst_pot = (~fdst_ok) & k.fc_alive[fdst_safe] & ~fdrop
    fcond = (~fm0) & (fsrc_ok | fsrc_pot) & (fdst_ok | fdst_pot)
    icond = (~im0) & k.fc_alive[idst]
    extras = []
    if fcond.any() or icond.any():
        extras = reference_resolve_conditional(k, f, fm0, fcond, i, im0, icond)
    moved = False
    fm = f[fm0]
    if fm.size:
        moved = True
        k._drop_tails(k._apply_fabric(fm))
    im = i[im0]
    if im.size:
        moved = True
        k._apply_injection(im)
    for _, kind, idx in extras:
        moved = True
        if kind == "f":
            k._drop_tails(k._apply_fabric(np.array([idx], dtype=np.int64)))
        else:
            k._apply_injection(np.array([idx], dtype=np.int64))
    if moved:
        k.last_progress = k.eng.cycle
    return (
        set(fm.tolist()) | {x for _, kind, x in extras if kind == "f"},
        set(im.tolist()) | {x for _, kind, x in extras if kind == "i"},
    )


def reference_resolve_conditional(k, f, fm0, fcond, i, im0, icond):
    V = k.V
    filler_ord = np.full(V, -1, dtype=np.int64)
    filler_isf = np.zeros(V, dtype=bool)
    filler_id = np.zeros(V, dtype=np.int64)
    fout = k.fc_cout[f]
    fnz = f[fout >= 0]
    filler_ord[k.fc_cout[fnz]] = k.fc_order[fnz]
    filler_isf[k.fc_cout[fnz]] = True
    filler_id[k.fc_cout[fnz]] = fnz
    filler_ord[k.ic_cout[i]] = k.ic_order[i]
    filler_id[k.ic_cout[i]] = i
    moved_f = np.zeros(V, dtype=bool)
    moved_f[f[fm0]] = True
    moved_i = np.zeros(len(k.ic_alive), dtype=bool)
    moved_i[i[im0]] = True
    cands = [
        (int(k.fc_order[cid]), "f", int(cid)) for cid in f[fcond].tolist()
    ] + [(int(k.ic_order[p]), "i", int(p)) for p in i[icond].tolist()]
    cands.sort()
    cap = k.cap
    buf_len = k.buf_len
    extras = []
    for order_c, kind, idx in cands:
        if kind == "f":
            cid = idx
            src_ok = buf_len[cid] > 0 and (
                k.buf_pid[cid, k.buf_start[cid]] == k.fc_pid[cid]
            )
            if not src_ok and buf_len[cid] == 0:
                fo = filler_ord[cid]
                if 0 <= fo < order_c:
                    fid = int(filler_id[cid])
                    src_ok = moved_f[fid] if filler_isf[cid] else moved_i[fid]
            d = int(k.fc_cout[cid])
            dst_ok = d < 0 or buf_len[d] < cap
            if not dst_ok and k.fc_alive[d]:
                dst_ok = k.fc_order[d] < order_c and moved_f[d]
            if src_ok and dst_ok:
                moved_f[cid] = True
                extras.append((order_c, kind, cid))
        else:
            p = idx
            d = int(k.ic_cout[p])
            dst_ok = buf_len[d] < cap
            if not dst_ok and k.fc_alive[d]:
                dst_ok = k.fc_order[d] < order_c and moved_f[d]
            if dst_ok:
                moved_i[p] = True
                extras.append((order_c, kind, p))
    return extras


def kernel_copy(k):
    """A detached copy of the kernel's mutable state, on a stand-in
    engine that carries only what the transfer phase reads and writes."""
    c = copy.copy(k)
    for name, val in vars(k).items():
        if isinstance(val, np.ndarray):
            setattr(c, name, val.copy())
    c.hdr_by_pid = dict(k.hdr_by_pid)
    c.ic_packet = list(k.ic_packet)
    c.eng = SimpleNamespace(
        cycle=k.eng.cycle, in_flight=dict(k.eng.in_flight), dropped=[]
    )
    return c


@contextlib.contextmanager
def checked_transfer(seen):
    """Hold every SoA transfer phase to the reference pass, run on a copy
    taken just before the phase.  ``seen`` records the most waves one
    phase took and counts the flits that crossed two connections in one
    cycle (a fabric mover whose source buffer was empty at phase start)."""
    real = SoAKernel.phase_transfer

    def phase_transfer(self):
        ref = kernel_copy(self)
        ref_f, ref_i = reference_transfer(ref)
        was_empty = self.buf_len == 0
        n_dropped = len(self.eng.dropped)
        calls = []

        def record(kind, apply):
            def applied(idx):
                calls.append((kind, idx))
                return apply(idx)

            return applied

        self._apply_fabric = record("f", self._apply_fabric)
        self._apply_injection = record("i", self._apply_injection)
        try:
            real(self)
        finally:
            del self._apply_fabric, self._apply_injection
        got_f = {x for kind, a in calls if kind == "f" for x in a.tolist()}
        got_i = {x for kind, a in calls if kind == "i" for x in a.tolist()}
        assert (got_f, got_i) == (ref_f, ref_i)
        for name, val in vars(ref).items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(getattr(self, name), val), name
        for name in ("flit_moves", "nconns", "last_progress"):
            assert getattr(self, name) == getattr(ref, name), name
        assert {p.pid for p in self.eng.dropped[n_dropped:]} == {
            p.pid for p in ref.eng.dropped
        }
        # a wave applies its fabric movers, then its injections
        waves = sum(
            1
            for j, (kind, _) in enumerate(calls)
            if kind == "f" or j == 0 or calls[j - 1][0] == "i"
        )
        seen["max_waves"] = max(seen["max_waves"], waves)
        seen["two_hops"] += int(was_empty[sorted(got_f)].sum())

    with mock.patch.object(SoAKernel, "phase_transfer", phase_transfer):
        yield


def build_soa(shape, depth, stall_limit=400, recovery=False, **logic_kw):
    cfg = SimConfig(
        buffer_depth=depth,
        stall_limit=stall_limit,
        engine="soa",
        recovery=recovery,
    )
    return NetworkSimulator(
        MDCrossbarAdapter(make_logic(MDCrossbar(shape), **logic_kw)), cfg
    )


def test_transfer_waves_equal_the_ascending_pass():
    """The wave fixed point moves exactly the connections the ascending
    pass moved and leaves every kernel array as it did, on the fuzz
    corpus (at three buffer depths) and on 30 cycles of the full machine
    at load 0.3.
    One-flit buffers are what chain the order-dependent movers: a full
    buffer stalls its filler until the next cycle, so the buffer runs
    empty and its next flit crosses two connections in one cycle."""
    seen = {"max_waves": 0, "two_hops": 0}

    @settings(max_examples=examples(40), deadline=None, database=None)
    @given(scenarios(), st.sampled_from((1, 2, 4)))
    def corpus(scenario, depth):
        shape, faulted, naive, sends, load, seed, recovery = scenario
        logic_kw = {"fault": [Fault.router(c) for c in faulted]}
        if naive:
            logic_kw["detour_scheme"] = DetourScheme.NAIVE
        reset_pids()
        try:
            sim = build_soa(shape, depth, recovery=recovery, **logic_kw)
        except ValueError:
            return  # an infeasible fault configuration
        for src, dest, rc, length, at in sends:
            sim.send(
                Packet(Header(source=src, dest=dest, rc=rc), length=length),
                at_cycle=at,
            )
        if load:
            sim.add_generator(
                BernoulliInjector(
                    load=load, pattern=uniform, seed=seed, stop_at=60
                )
            )
        sim.run(max_cycles=3000)

    with checked_transfer(seen):
        corpus()
        reset_pids()
        sim = build_soa(MACHINE, 1, stall_limit=2000)
        sim.add_generator(BernoulliInjector(load=0.3, pattern=uniform, seed=3))
        sim.run(max_cycles=30, until_drained=False)
        assert sim.engine_used == "soa" and sim.engine_fallback is None
    assert seen["max_waves"] >= 3
    assert seen["two_hops"] > 0


# ------------------------------------------------- the route/grant law
class RefPend:
    """A pending request in the reference's form: the object the kernel
    kept per request before its pending requests became arrays."""

    __slots__ = ("pid", "cin", "wanted", "decision", "arrived")

    def __init__(self, pid, cin, wanted, decision, arrived) -> None:
        self.pid = pid
        self.cin = cin
        self.wanted = wanted
        self.decision = decision
        self.arrived = arrived


def reference_route(k):
    """The route phase as it was before the decision table: one query
    tuple and one adapter lookup per fresh header, one ``RefPend`` per
    request.  Returns a fallback reason or None."""
    cand = np.nonzero(k.route_cand)[0]
    if cand.size == 0:
        return None
    pe = k.is_pe[cand]
    if pe.any():
        k.route_cand[cand[pe]] = False
        cand = cand[~pe]
    empty = k.buf_len[cand] == 0
    if empty.any():
        k.route_cand[cand[empty]] = False
        cand = cand[~empty]
    if cand.size == 0:
        return None
    heads = k.buf_kind[cand, k.buf_start[cand]]
    headish = (heads == int(FlitKind.HEAD)) | (heads == int(FlitKind.HEAD_TAIL))
    cand = cand[headish]
    if cand.size == 0:
        return None
    busy = k.fc_alive[cand] | k.pend_cin[cand]
    cand = cand[~busy]
    if cand.size == 0:
        return None
    eng = k.eng
    pids = k.buf_pid[cand, k.buf_start[cand]]
    cand_l = cand.tolist()
    pids_l = pids.tolist()
    hdr = k.hdr_by_pid
    queries = [
        (k.el_of[cid], k.chan_src[cid], 0, hdr[pid])
        for cid, pid in zip(cand_l, pids_l)
    ]
    try:
        decisions = [eng.adapter.decide(*q) for q in queries]
    except RoutingError:
        return "unroutable packet (online reconfiguration)"
    cycle = eng.cycle
    memo = eng._wanted_memo
    new_recs = []
    new_any = 0
    drops = []
    for cid, pid, d in zip(cand_l, pids_l, decisions):
        if d.drop:
            drops.append((cid, pid))
            continue
        if d.serialize:
            return "serialized (S-XB) decision"
        if d.policy != "any":
            if len(d.outputs) != 1:
                return "multicast decision"
        elif not d.outputs:
            return "adaptive decision with no outputs"
        el = k.el_of[cid]
        wkey = (el, d.outputs)
        wanted = memo.get(wkey)
        if wanted is None:
            wanted = tuple(
                (eng.topo.channel(el, out_el).cid, out_vc)
                for out_el, out_vc in d.outputs
            )
            memo[wkey] = wanted
        new_recs.append(RefPend(pid, cid, wanted, d, cycle))
        if d.policy == "any":
            new_any += 1
    for cid, pid in drops:
        k.fc_alive[cid] = True
        k.fc_pid[cid] = pid
        k.fc_cout[cid] = -1
        k.fc_order[cid] = k.order_counter
        k.order_counter += 1
        k.fc_started[cid] = cycle
        k.nconns += 1
        inf = eng.in_flight.get(pid)
        if inf is not None:
            inf.dropped = True
    k.pending.extend(new_recs)
    k.any_count += new_any
    k.route_cand[cand] = False
    if new_recs:
        k.pend_cin[[r.cin for r in new_recs]] = True
    return None


def reference_grant(k):
    """The grant phase as it was before the pending arrays: the
    first-requester ``np.unique`` reduction over ``RefPend`` objects, or
    the sequential loop when an adaptive request is pending."""
    pend = k.pending
    if not pend:
        return
    if k.any_count == 0:
        outs = np.array([r.wanted[0][0] for r in pend], dtype=np.int64)
        free = k.owner[outs] == -1
        if not free.any():
            return
        idx_free = np.nonzero(free)[0]
        _, first = np.unique(outs[idx_free], return_index=True)
        win = idx_free[first]
        win.sort()
        wl = win.tolist()
        for i in wl:
            reference_establish(k, pend[i], int(outs[i]))
        wset = set(wl)
        k.pending = [r for i, r in enumerate(pend) if i not in wset]
        return
    owner = k.owner
    remaining = []
    for rec in pend:
        if rec.decision.policy == "any":
            chosen = next(
                (key[0] for key in rec.wanted if owner[key[0]] == -1), None
            )
            if chosen is None:
                remaining.append(rec)
                continue
            rec.wanted = ((chosen, 0),)
            k.any_count -= 1
            reference_establish(k, rec, chosen)
        else:
            out = rec.wanted[0][0]
            if owner[out] == -1:
                reference_establish(k, rec, out)
            else:
                remaining.append(rec)
    k.pending = remaining


def reference_establish(k, rec, out):
    k.owner[out] = rec.pid
    hdr = k.hdr_by_pid[rec.pid]
    if hdr.rc != rec.decision.rc:
        k.hdr_by_pid[rec.pid] = hdr.with_rc(rec.decision.rc)
    cin = rec.cin
    k.fc_alive[cin] = True
    k.fc_pid[cin] = rec.pid
    k.fc_cout[cin] = out
    k.fc_order[cin] = k.order_counter
    k.order_counter += 1
    k.fc_started[cin] = k.eng.cycle
    k.nconns += 1
    k.pend_cin[cin] = False
    k.last_progress = k.eng.cycle


class _Shadow:
    """An engine stand-in for :meth:`SoAKernel.sync_out`: what it writes
    lands here, and every other read goes to the real engine."""

    def __init__(self, eng, vcs) -> None:
        self.__dict__.update(
            _eng=eng, vcs=vcs, connections={}, pending=[], channel_busy={}
        )

    def __getattr__(self, name):
        return getattr(self._eng, name)


def projection(k):
    """What ``sync_out`` would write of the pending requests, as
    ``(pid, cin, wanted, decision, arrived)`` rows in order, and of the
    headers at the front of a buffer (the only ones route and grant
    read or rewrite), as ``{pid: header}``: taken on a detached copy
    whose engine holds only those channels and no connection."""
    c = kernel_copy(k)
    c.fc_alive[:] = False
    c.ic_alive[:] = False
    c.busy_delta[:] = 0
    held = np.flatnonzero(k.buf_len)
    front = k.buf_kind[held, k.buf_start[held]]
    held = held[(front == int(FlitKind.HEAD)) | (front == int(FlitKind.HEAD_TAIL))]
    c.eng = _Shadow(
        k.eng,
        {
            (cid, 0): SimpleNamespace(owner=None, buffer=deque())
            for cid in held.tolist()
        },
    )
    c.sync_out()
    pending = [
        (r.pid, r.cin[0], r.wanted, r.decision, r.arrived_at)
        for r in c.eng.pending
    ]
    headers = {
        f.pid: f.header
        for vc in c.eng.vcs.values()
        for f in vc.buffer
        if f.header is not None
    }
    return pending, headers


def reference_kernel(k, view, in_flight):
    """A detached copy of the kernel in the reference's form, its pending
    requests and headers read from ``view`` (:func:`projection`).  The
    route phase marks dropped packets, so it gets copies of the in-flight
    records; the grant phase reads none."""
    pending, headers = view
    ref = kernel_copy(k)
    ref.pending = [RefPend(*row) for row in pending]
    ref.any_count = sum(1 for r in ref.pending if r.decision.policy == "any")
    ref.hdr_by_pid = dict(headers)
    eng = k.eng
    ref.eng = SimpleNamespace(
        cycle=eng.cycle,
        adapter=eng.adapter,
        topo=eng.topo,
        _wanted_memo=eng._wanted_memo,
        in_flight={p: copy.copy(inf) for p, inf in eng.in_flight.items()}
        if in_flight
        else eng.in_flight,
    )
    return ref


@contextlib.contextmanager
def adapter_put_back(adapter):
    """Let the reference query the live adapter, then put its route memo
    and counters back as they were."""
    memo = getattr(adapter, "_decisions", None)
    if memo is None:
        yield
        return
    hits, misses, n = adapter._hits, adapter._misses, len(memo)
    try:
        yield
    finally:
        adapter._hits, adapter._misses = hits, misses
        for key in list(memo)[n:]:
            del memo[key]


def memo_state(adapter):
    memo = getattr(adapter, "_decisions", None)
    return None if memo is None else (adapter.cache_info(), list(memo))


def assert_same_route_grant_state(k, ref):
    """Compare the kernel with the reference after a phase; returns the
    kernel's :func:`projection`, which is the next phase's view."""
    view = projection(k)
    pending, headers = view
    assert pending == [
        (r.pid, r.cin, r.wanted, r.decision, r.arrived) for r in ref.pending
    ]
    assert headers == ref.hdr_by_pid
    for name in (
        "owner",
        "fc_alive",
        "fc_pid",
        "fc_cout",
        "fc_order",
        "fc_started",
        "route_cand",
        "pend_cin",
    ):
        assert np.array_equal(getattr(k, name), getattr(ref, name)), name
    for name in ("order_counter", "nconns", "last_progress"):
        assert getattr(k, name) == getattr(ref, name), name
    assert {p for p, inf in k.eng.in_flight.items() if inf.dropped} == {
        p for p, inf in ref.eng.in_flight.items() if inf.dropped
    }
    return view


@contextlib.contextmanager
def checked_route_grant(seen):
    """Hold every SoA route and grant phase to the reference, run on a
    copy taken just before the phase.  After a route phase that did not
    bail, the adapter's counters and memo order must also be the ones
    the reference left.  ``seen`` counts bails, requests, drops and
    granted RC rewrites."""
    real_route = SoAKernel.phase_route
    real_grant = SoAKernel.phase_grant
    # the drive loop grants right after a route phase that did not bail,
    # so that phase's closing view is the grant's opening one
    after_route = {}

    def phase_route(self):
        ref = reference_kernel(self, projection(self), in_flight=True)
        before = len(ref.pending)
        adapter = self.eng.adapter
        with adapter_put_back(adapter):
            want = reference_route(ref)
            want_memo = memo_state(adapter)
        got = real_route(self)
        assert got == want
        view = assert_same_route_grant_state(self, ref)
        if got is None:
            assert memo_state(adapter) == want_memo
            after_route[self] = view
            seen["requests"] += len(ref.pending) - before
            seen["drops"] += int((ref.fc_alive & (ref.fc_cout < 0)).sum())
        else:
            seen["bails"] += 1
        return got

    def phase_grant(self):
        ref = reference_kernel(self, after_route.pop(self), in_flight=False)
        rcs = {p: h.rc for p, h in ref.hdr_by_pid.items()}
        reference_grant(ref)
        real_grant(self)
        assert_same_route_grant_state(self, ref)
        seen["rc_rewrites"] += sum(
            1 for p, h in ref.hdr_by_pid.items() if h.rc != rcs[p]
        )

    with mock.patch.object(SoAKernel, "phase_route", phase_route), (
        mock.patch.object(SoAKernel, "phase_grant", phase_grant)
    ):
        yield


def test_route_and_grant_equal_the_per_request_phases():
    """The route and grant phases leave the pending requests (order,
    pid, input, wanted outputs, decision, arrival), owners, connections,
    candidate masks and every buffered header's RC as the per-request
    phases they replaced did, on the fuzz corpus, a faulted 4x4 with a
    mid-run fault, an adaptive full mesh and 30 cycles of the full
    machine."""
    from repro.routing import make_scheme

    seen = {"bails": 0, "requests": 0, "drops": 0, "rc_rewrites": 0}

    @settings(max_examples=examples(40), deadline=None, database=None)
    @given(scenarios())
    def corpus(scenario):
        shape, faulted, naive, sends, load, seed, recovery = scenario
        logic_kw = {"fault": [Fault.router(c) for c in faulted]}
        if naive:
            logic_kw["detour_scheme"] = DetourScheme.NAIVE
        reset_pids()
        try:
            sim = build("soa", shape, recovery=recovery, **logic_kw)
        except ValueError:
            return  # an infeasible fault configuration
        for src, dest, rc, length, at in sends:
            sim.send(
                Packet(Header(source=src, dest=dest, rc=rc), length=length),
                at_cycle=at,
            )
        if load:
            sim.add_generator(
                BernoulliInjector(
                    load=load, pattern=uniform, seed=seed, stop_at=60
                )
            )
        sim.run(max_cycles=3000)

    with checked_route_grant(seen):
        corpus()
        reset_pids()
        sim = build("soa", (4, 4), stall_limit=300, fault=Fault.router((1, 0)))
        sim.add_generator(
            BernoulliInjector(load=0.4, pattern=uniform, seed=5, stop_at=200)
        )
        sim.run(max_cycles=55, until_drained=False)
        sim.inject_fault(Fault.router((2, 2)))
        sim.run(max_cycles=8000, until_drained=False)
        reset_pids()
        sch = make_scheme("fullmesh_novc", (8,))
        sim = NetworkSimulator(
            sch.adapter, SimConfig(num_vcs=1, stall_limit=400, engine="soa")
        )
        sim.add_generator(
            BernoulliInjector(load=0.7, pattern=uniform, seed=11, stop_at=150)
        )
        sim.run(max_cycles=1000, until_drained=False)
        assert sim.engine_used == "soa"
        reset_pids()
        sim = build("soa", MACHINE, stall_limit=2000)
        sim.add_generator(BernoulliInjector(load=0.3, pattern=uniform, seed=3))
        sim.run(max_cycles=30, until_drained=False)
        assert sim.engine_used == "soa" and sim.engine_fallback is None
    assert all(seen.values()), seen


# ------------------------------------------------------ the inject law
def reference_inject(k):
    """The inject phase as it was before its column writes: one owner
    read and ten scalar stores per started packet.  The injection
    channel comes from the engine's ``_inj_key``."""
    eng = k.eng
    due = eng._scheduled.pop(eng.cycle, None)
    if due:
        for p in due:
            p.injected_at = eng.cycle
            eng.send(p)
    for gen in eng.generators:
        gen(eng)
    if not eng._nonempty_sources:
        return
    owner = k.owner
    for coord in list(eng._nonempty_sources):
        queue = eng.source_queues[coord]
        if not queue:
            eng._nonempty_sources.discard(coord)
            continue
        cid = eng._inj_key[coord][0]
        if owner[cid] != -1:
            continue
        packet = queue.popleft()
        if not queue:
            eng._nonempty_sources.discard(coord)
        owner[cid] = packet.pid
        p = k.pe_slot[coord]
        k.ic_alive[p] = True
        k.ic_pid[p] = packet.pid
        k.ic_cout[p] = cid
        k.ic_sent[p] = 0
        k.ic_len[p] = packet.length
        k.ic_order[p] = k.order_counter
        k.order_counter += 1
        k.ic_started[p] = eng.cycle
        k.ic_packet[p] = packet
        k.ic_dst[p] = k.pe_slot[packet.header.dest]
        k.ic_rc[p] = packet.header.rc
        k.nconns += 1
        k.hdr_by_pid[packet.pid] = packet.header
        eng.in_flight[packet.pid] = InFlightPacket(
            packet=packet,
            expected_deliveries=eng.expected_deliveries(packet),
        )
        eng.injected += 1
        k.last_progress = eng.cycle


class InsertionSet(dict):
    """A set that iterates in a fixed order: the reference walks the
    sources in the order the live set had when it was copied (a copied
    ``set`` may iterate differently)."""

    def discard(self, key):
        self.pop(key, None)


def inject_copy(k):
    """A detached copy of the kernel as its inject phase finds it once
    the scheduled sends and the generators have run: the kernel arrays
    plus copies of the engine's queues, live sources and in-flight
    records (packets are shared, the phase only reads them)."""
    c = kernel_copy(k)
    eng = k.eng
    c.eng = SimpleNamespace(
        cycle=eng.cycle,
        _scheduled={},
        generators=[],
        _nonempty_sources=InsertionSet.fromkeys(eng._nonempty_sources),
        source_queues={s: deque(q) for s, q in eng.source_queues.items()},
        _inj_key=eng._inj_key,
        in_flight=dict(eng.in_flight),
        expected_deliveries=eng.expected_deliveries,
        injected=eng.injected,
    )
    return c


INJECT_COLUMNS = (
    "ic_alive", "ic_pid", "ic_cout", "ic_sent", "ic_len", "ic_order",
    "ic_started", "ic_dst", "ic_rc", "owner",
)


@contextlib.contextmanager
def checked_inject(seen):
    """Hold every SoA inject phase to the reference, run on a copy taken
    after the phase's generators and scheduled sends (a last generator
    takes it).  ``seen`` counts the packets started and the phases that
    found a source whose injection channel was busy."""
    real = SoAKernel.phase_inject

    def phase_inject(self):
        eng = self.eng
        snap = []
        eng.generators.append(lambda e: snap.append(inject_copy(self)))
        try:
            real(self)
        finally:
            eng.generators.pop()
        (ref,) = snap
        busy = any(
            ref.owner[eng._inj_key[s][0]] != -1
            for s in ref.eng._nonempty_sources
            if ref.eng.source_queues[s]
        )
        before = ref.eng.injected
        reference_inject(ref)
        for name in INJECT_COLUMNS:
            assert np.array_equal(getattr(self, name), getattr(ref, name)), name
        assert all(x is y for x, y in zip(self.ic_packet, ref.ic_packet))
        for name in ("order_counter", "nconns", "last_progress"):
            assert getattr(self, name) == getattr(ref, name), name
        assert self.hdr_by_pid == ref.hdr_by_pid
        assert list(eng.in_flight) == list(ref.eng.in_flight)
        assert eng.injected == ref.eng.injected
        assert set(eng._nonempty_sources) == set(ref.eng._nonempty_sources)
        assert {
            s: [p.pid for p in q] for s, q in eng.source_queues.items()
        } == {s: [p.pid for p in q] for s, q in ref.eng.source_queues.items()}
        seen["started"] += ref.eng.injected - before
        seen["busy"] += int(busy)

    with mock.patch.object(SoAKernel, "phase_inject", phase_inject):
        yield


def test_inject_columns_equal_the_per_packet_phase():
    """The inject phase starts the same packets, in the same order, as
    the per-packet loop it replaced: every ``ic_*`` column, owner, order
    stamp, connection count, in-flight record and source queue agrees
    after each phase, on the fuzz corpus, a faulted 4x4 with a mid-run
    fault and 30 cycles of the full machine."""
    seen = {"started": 0, "busy": 0}

    @settings(max_examples=examples(40), deadline=None, database=None)
    @given(scenarios())
    def corpus(scenario):
        shape, faulted, naive, sends, load, seed, recovery = scenario
        logic_kw = {"fault": [Fault.router(c) for c in faulted]}
        if naive:
            logic_kw["detour_scheme"] = DetourScheme.NAIVE
        reset_pids()
        try:
            sim = build("soa", shape, recovery=recovery, **logic_kw)
        except ValueError:
            return  # an infeasible fault configuration
        for src, dest, rc, length, at in sends:
            sim.send(
                Packet(Header(source=src, dest=dest, rc=rc), length=length),
                at_cycle=at,
            )
        if load:
            sim.add_generator(
                BernoulliInjector(
                    load=load, pattern=uniform, seed=seed, stop_at=60
                )
            )
        sim.run(max_cycles=3000)

    with checked_inject(seen):
        corpus()
        reset_pids()
        sim = build("soa", (4, 4), stall_limit=300, fault=Fault.router((1, 0)))
        sim.add_generator(
            BernoulliInjector(load=0.6, pattern=uniform, seed=5, stop_at=200)
        )
        sim.run(max_cycles=55, until_drained=False)
        sim.inject_fault(Fault.router((2, 2)))
        sim.run(max_cycles=8000, until_drained=False)
        reset_pids()
        sim = build("soa", MACHINE, stall_limit=2000)
        sim.add_generator(BernoulliInjector(load=0.3, pattern=uniform, seed=3))
        sim.run(max_cycles=30, until_drained=False)
        assert sim.engine_used == "soa" and sim.engine_fallback is None
    assert all(seen.values()), seen


# ----------------------------------------------------- directed cases
def test_pure_p2p_runs_in_kernel():
    def workload(sim):
        sim.add_generator(
            BernoulliInjector(load=0.3, pattern=uniform, seed=7, stop_at=150)
        )
        return 1500

    sim, _ = run_three(workload, (4, 3), until_drained=False)
    assert sim.engine_used == "soa"
    assert sim.engine_fallback is None


def test_broadcast_falls_back_with_reason():
    from repro.core.config import BroadcastMode

    def workload(sim):
        sim.send(
            Packet(
                Header(source=(2, 1), dest=(2, 1), rc=RC.BROADCAST), length=6
            )
        )
        return 2000

    sim, _ = run_three(
        workload, (4, 3), broadcast_mode=BroadcastMode.NAIVE
    )
    assert sim.engine_used == "active"
    assert sim.engine_fallback == "multicast decision"


def test_serialized_broadcast_falls_back():
    def workload(sim):
        sim.send(
            Packet(
                Header(
                    source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST
                ),
                length=6,
            )
        )
        return 2000

    sim, _ = run_three(workload, (4, 3))
    assert sim.engine_used == "active"
    assert sim.engine_fallback == "serialized (S-XB) decision"


def test_subscribed_hook_forces_scalar_path():
    reset_pids()
    sim = build("soa", (4, 3))
    sim.hooks.deliver.append(lambda *a: None)
    sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
    res = sim.run()
    assert sim.engine_used == "active"
    assert sim.engine_fallback == "hook 'deliver' subscribed"
    reset_pids()
    ref = build("active", (4, 3))
    ref.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
    assert res.fingerprint() == ref.run().fingerprint()


def test_terminal_hooks_stay_in_kernel():
    """deadlock/recovery hooks fire outside the cycle loop: no fallback."""
    reset_pids()
    sim = build("soa", (4, 3))
    sim.hooks.deadlock.append(lambda *a: None)
    sim.hooks.recovery.append(lambda *a: None)
    sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
    sim.run()
    assert sim.engine_used == "soa"


def test_fig9_recovery_parity():
    def workload(sim):
        sim.send(
            Packet(
                Header(source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST),
                length=6,
            ),
            at_cycle=0,
        )
        for src, dest, at in (
            ((0, 0), (2, 2), 1),
            ((1, 0), (3, 1), 1),
            ((0, 1), (1, 2), 2),
        ):
            sim.send(Packet(Header(source=src, dest=dest), length=6), at_cycle=at)
        return 20_000

    _, res = run_three(
        workload,
        (4, 3),
        recovery=True,
        stall_limit=200,
        fault=Fault.router((2, 0)),
        detour_scheme=DetourScheme.NAIVE,
    )
    assert res.recoveries > 0


def test_midrun_fault_reconfiguration_parity():
    results = {}
    for driver in DRIVERS:
        reset_pids()
        sim = build(driver, (4, 4), stall_limit=300)
        sim.add_generator(
            BernoulliInjector(load=0.4, pattern=uniform, seed=5, stop_at=200)
        )
        sim.run(max_cycles=55, until_drained=False)
        sim.inject_fault(Fault.router((2, 2)))
        results[driver] = sim.run(
            max_cycles=8000, until_drained=False
        ).fingerprint()
    assert results["soa"] == results["active"] == results["exact"]
    # the dead destination exercised the kernel's drop-connection path
    assert results["soa"][2]  # dropped pids non-empty


def run_cache_info(driver, shape, workload):
    reset_pids()
    sim = build(driver, shape, stall_limit=300)
    workload(sim)
    return sim, sim.adapter.cache_info()


def test_a_bail_leaves_the_route_memo_counts_to_the_scalar_driver():
    """A kernel that bails mid-run hands its route batch to the active
    driver uncounted, so the adapter's memo statistics (exported into
    the metrics digest) are the scalar drivers' own: on broadcast traffic
    (a bail at the first S-XB decision) and on a mid-run fault."""

    def mixed(sim):
        sim.add_generator(
            BernoulliInjector(load=0.3, pattern=uniform, seed=5, stop_at=200)
        )
        sim.add_generator(BroadcastInjector(0.02, seed=6, stop_at=200))
        sim.run(max_cycles=5000)

    def midrun_fault(sim):
        sim.add_generator(
            BernoulliInjector(load=0.4, pattern=uniform, seed=5, stop_at=200)
        )
        sim.run(max_cycles=55, until_drained=False)
        sim.inject_fault(Fault.router((2, 2)))
        sim.run(max_cycles=8000, until_drained=False)

    for shape, workload in (((4, 3), mixed), ((4, 4), mixed), ((4, 4), midrun_fault)):
        infos, fallback = {}, {}
        for driver in DRIVERS:
            sim, infos[driver] = run_cache_info(driver, shape, workload)
            fallback[driver] = sim.engine_fallback
        assert infos["soa"] == infos["active"] == infos["exact"], infos
        if workload is mixed:
            assert fallback["soa"] == "serialized (S-XB) decision"


def test_adaptive_any_policy_runs_in_kernel():
    """The full-mesh scheme issues policy="any" grant requests with a
    single VC -- the kernel's sequential adaptive grant branch."""
    from repro.routing import make_scheme

    results = {}
    for driver in DRIVERS:
        reset_pids()
        sch = make_scheme("fullmesh_novc", (8,))
        cfg = SimConfig(
            num_vcs=sch.num_vcs,
            stall_limit=400,
            engine="soa" if driver == "soa" else "active",
        )
        sim = NetworkSimulator(sch.adapter, cfg)
        if driver == "exact":
            exact_twin(sim)
        sim.add_generator(
            BernoulliInjector(load=0.7, pattern=uniform, seed=11, stop_at=300)
        )
        results[driver] = (
            sim.run(max_cycles=2000, until_drained=False).fingerprint(),
            sim.engine_used,
        )
    assert results["soa"][0] == results["active"][0] == results["exact"][0]
    assert results["soa"][1] == "soa"


# ------------------------------------------------ machine-scale parity
MACHINE = (16, 16, 8)  # the full SR2201 installation: 2048 PEs


def _send_to_partner(sim, src, at_cycle):
    """One length-16 packet to the fixed permutation partner
    (+8, +8, +4): every route crosses all three dimensions."""
    x, y, z = src
    dest = ((x + 8) % 16, (y + 8) % 16, (z + 4) % 8)
    sim.send(Packet(Header(source=src, dest=dest), length=16), at_cycle=at_cycle)


def run_machine(workload, **logic_kw):
    """soa vs active on the full machine; the kernel must have run every
    cycle itself (a silent fallback would compare active with active)."""
    sim, res = run_three(
        workload, MACHINE, drivers=("soa", "active"), stall_limit=2000, **logic_kw
    )
    assert sim.engine_used == "soa"
    assert sim.engine_fallback is None
    return res


def test_machine_scale_detour_parity():
    """The 5x5x5 block around the faulted router (8, 8, 4): traffic
    whose shortest routes cross the dead crossbar lines, so the detour
    tables are exercised at machine scale."""
    dead = (8, 8, 4)
    block = [
        (x, y, z)
        for x in range(6, 11)
        for y in range(6, 11)
        for z in range(2, 7)
        if (x, y, z) != dead
    ]

    def workload(sim):
        for src in block:
            for r in range(4):
                _send_to_partner(sim, src, at_cycle=r * 24)
        return 100_000

    res = run_machine(workload, fault=Fault.router(dead))
    assert len(res.delivered) == 4 * len(block)


def test_machine_scale_p2p_parity():
    """Two rounds of the all-PE fixed permutation, staggered by a small
    coordinate-derived offset (the second round runs on the adapter's
    route memo)."""

    def workload(sim):
        for src in sorted(MDCrossbar(MACHINE).node_coords()):
            for r in range(2):
                _send_to_partner(sim, src, at_cycle=r * 20 + sum(src) % 4)
        return 100_000

    res = run_machine(workload)
    assert len(res.delivered) == 2 * 2048 and not res.deadlocked


def test_multi_vc_scheme_falls_back():
    from repro.routing import make_scheme

    reset_pids()
    sch = make_scheme("torus", (4, 4))
    sim = NetworkSimulator(
        sch.adapter,
        SimConfig(num_vcs=sch.num_vcs, stall_limit=400, engine="soa"),
    )
    sim.send(Packet(Header(source=(0, 0), dest=(2, 2)), length=4))
    sim.run()
    assert sim.engine_used == "active"
    assert sim.engine_fallback == "num_vcs > 1"


def test_invalid_engine_rejected():
    with pytest.raises(ValueError):
        SimConfig(engine="vectorized")
