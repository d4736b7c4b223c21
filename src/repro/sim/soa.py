"""The batched structure-of-arrays cycle driver (``SimConfig(engine="soa")``).

The object-per-flit engine tops out around half a million cycles/sec even
with the active-set fast path: every cycle walks Python deques of
:class:`~repro.sim.fabric.SimFlit` objects.  Full-machine shapes (the
SR2201/2048's 16x16x8 hyper-crossbar has ~20k channels) need the flit
state itself batched.  :class:`SoAKernel` keeps the hot fabric state in
preallocated numpy arrays -- per-channel flit ring buffers (packet id /
flit kind / sequence), channel owners, connection tables, candidate masks
-- and executes the same five phases with vectorized masks and array
reductions:

* **eject** drains every pending PE buffer with one gather, locating tail
  flits by a flag-matrix reduction (per-tail delivery bookkeeping stays
  scalar: deliveries are rare relative to flit moves);
* **route** filters the candidate mask down to genuinely unrouted headers
  and gathers their decisions from the adapter's table over ``(switch, RC
  bit, what the rule reads of the destination)``, read off per-flit
  ``buf_dst`` / ``buf_rc`` columns; misses go to ``adapter.decide``;
* **grant** keeps the requests as rows of one array in arrival order and
  gives each free output to its first requester with one ``np.unique``
  (the scalar sequential grant, for single-output ``"all"`` requests);
  an adaptive ``"any"`` request takes the cycle to an exact sequential loop;
* **transfer** moves one flit per established connection with fancy-indexed
  ring-buffer pops and pushes.  The scalar engine iterates connections in
  dict insertion order, and that order is observable: a connection whose
  destination buffer is full (or source buffer empty) at phase start still
  moves if the draining (or supplying) connection comes *earlier* in the
  iteration.  The kernel therefore applies the phase in waves: wave 0
  is the order-independent movers (source ready and destination space at
  phase start), and wave k+1 every blocked candidate whose enablers --
  read from the phase-start state -- all moved in waves up to k.  An
  enabler always has a strictly smaller order stamp, so the ascending
  scan computes the least fixed point and the waves reach the same one;
  no member of a wave enables another of the same wave, so popping before
  pushing within a wave leaves the rings as the sequential scan does;
* **inject** runs the scheduled sends and the generators, walks the
  waiting sources in the scalar order with their channels' owners
  gathered at once, and writes the started packets' ``owner`` and
  ``ic_*`` columns with one store each (the queue pop and the in-flight
  record stay per packet).

**Parity discipline.**  The kernel shares the engine's canonical workload
state (``in_flight``, ``delivered``, ``dropped``, ``source_queues``,
scheduled sends, counters) and mutates it directly; only the fabric hot
state is mirrored into arrays.  On any exit -- drained, horizon, stall,
or fallback -- :meth:`SoAKernel.sync_out` rebuilds the engine's object
state (buffers, owners, connection dict in insertion order, pending
list, candidate sets) exactly as the active driver would have left it,
so results are byte-identical across ``soa``, ``active`` and stepping
every cycle, and a run may switch drivers mid-flight.

**Scalar fallback.**  The kernel handles the fabric features the paper's
full-machine workloads exercise: one virtual channel, unicast
single-output ``"all"`` decisions, adaptive ``"any"`` decisions, and
drop decisions.  Anything else -- serialized S-XB grants, multicast
fan-out, more than one VC, or a subscribed per-event hook
(``cycle_start`` / ``phase_end`` / ``inject`` / ``grant`` / ``block`` /
``deliver`` / ``log``; the terminal ``deadlock`` / ``recovery`` hooks
are fine) -- makes it bail *before* mutating anything mid-phase and hand
the run to the active driver, recording the reason on
``engine.engine_fallback``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from ..core.decision_table import DecisionTable
from ..core.packet import RC, FlitKind
from ..core.switch_logic import RoutingError
from .fabric import Connection, InFlightPacket, PendingRequest, SimFlit

_HEAD = int(FlitKind.HEAD)
_BODY = int(FlitKind.BODY)
_TAIL = int(FlitKind.TAIL)
_HEAD_TAIL = int(FlitKind.HEAD_TAIL)
#: columns of ``SoAKernel.pend`` (one row per request, in arrival order);
#: ``_OUT`` is -1 for an adaptive request, ``_DEC`` indexes ``table.decs``
_PID, _CIN, _OUT, _DEC, _ARR = range(5)

#: hooks whose subscribers need the scalar engine's per-event call sites
SCALAR_HOOKS: Tuple[str, ...] = (
    "cycle_start",
    "phase_end",
    "inject",
    "grant",
    "block",
    "deliver",
    "log",
)


class SoAKernel:
    """Array-state mirror of one :class:`~repro.sim.engine.CycleEngine`.

    Static topology tables are built once per engine; the mutable arrays
    are (re)filled from the engine's object state by :meth:`materialize`
    each time the run loop enters the kernel, and written back by
    :meth:`sync_out` on every exit, so the engine's observable state is
    always canonical outside :meth:`drive`.
    """

    def __init__(self, eng) -> None:
        self.eng = eng
        self.cap = eng.config.buffer_depth
        cids = [key[0] for key in eng.vcs]
        self.V = max(cids) + 1 if cids else 0
        V = self.V
        # ---- static topology tables
        self.is_pe = np.zeros(V, dtype=bool)
        self.pe_order = np.full(V, V + 1, dtype=np.int64)
        self.pe_coord: List[Optional[tuple]] = [None] * V
        for i, (coord, (cid, _)) in enumerate(eng._pe_inputs):
            self.is_pe[cid] = True
            self.pe_order[cid] = i
            self.pe_coord[cid] = coord
        self.el_of: List[Optional[tuple]] = [None] * V
        for (cid, _), el in eng._element_of_input.items():
            self.el_of[cid] = el
        self.chan_src: List[Optional[tuple]] = [None] * V
        for (cid, _), vc in eng.vcs.items():
            self.chan_src[cid] = vc.channel.src
        self.coords = list(eng.topo.node_coords())
        self.pe_slot = {c: p for p, c in enumerate(self.coords)}
        self.inj_cid = np.array([eng._inj_key[c][0] for c in self.coords])
        P = len(self.coords)
        # ---- mutable fabric arrays
        self.buf_pid = np.zeros((V, self.cap), dtype=np.int64)
        self.buf_kind = np.zeros((V, self.cap), dtype=np.int64)
        self.buf_seq = np.zeros((V, self.cap), dtype=np.int64)
        # a head flit's destination (a PE slot) and RC bit
        self.buf_dst = np.zeros((V, self.cap), dtype=np.int32)
        self.buf_rc = np.zeros((V, self.cap), dtype=np.int8)
        self.buf_start = np.zeros(V, dtype=np.int64)
        self.buf_len = np.zeros(V, dtype=np.int64)
        self.owner = np.full(V, -1, dtype=np.int64)
        self.route_cand = np.zeros(V, dtype=bool)
        self.eject_pend = np.zeros(V, dtype=bool)
        self.pend_cin = np.zeros(V, dtype=bool)
        self.busy_delta = np.zeros(V, dtype=np.int64)
        # fabric connections, indexed by input channel cid
        self.fc_alive = np.zeros(V, dtype=bool)
        self.fc_pid = np.zeros(V, dtype=np.int64)
        self.fc_cout = np.full(V, -1, dtype=np.int64)
        self.fc_order = np.zeros(V, dtype=np.int64)
        self.fc_started = np.zeros(V, dtype=np.int64)
        # injection connections, indexed by PE slot
        self.ic_alive = np.zeros(P, dtype=bool)
        self.ic_pid = np.zeros(P, dtype=np.int64)
        self.ic_cout = np.zeros(P, dtype=np.int64)
        self.ic_sent = np.zeros(P, dtype=np.int64)
        self.ic_len = np.zeros(P, dtype=np.int64)
        self.ic_order = np.zeros(P, dtype=np.int64)
        self.ic_started = np.zeros(P, dtype=np.int64)
        self.ic_dst = np.zeros(P, dtype=np.int32)
        self.ic_rc = np.zeros(P, dtype=np.int8)
        self.ic_packet: List[Optional[object]] = [None] * P
        self.pend = np.zeros((0, 5), dtype=np.int64)
        self.table: Optional[DecisionTable] = None
        self.hdr_by_pid: dict = {}
        self.order_counter = 0
        self.nconns = 0
        self.flit_moves = 0
        self.last_progress = 0
        self.fallback_reason: Optional[str] = None

    # ----------------------------------------------------------- lifecycle
    def _no(self, reason: str) -> bool:
        self.fallback_reason = reason
        return False

    def materialize(self) -> bool:
        """Fill the arrays from the engine's object state.  Returns False
        (with :attr:`fallback_reason` set) when the state needs a scalar
        driver; nothing is mutated in that case."""
        eng = self.eng
        if eng.config.num_vcs != 1:
            return self._no("num_vcs > 1")
        for name in SCALAR_HOOKS:
            if getattr(eng.hooks, name):
                return self._no(f"hook '{name}' subscribed")
        if any(eng.serial_queues.values()):
            return self._no("serialized (S-XB) request in flight")
        for req in eng.pending:
            if req.decision.serialize or req.reserved:
                return self._no("partially reserved request in flight")
            if req.decision.policy != "any" and len(req.wanted) != 1:
                return self._no("multicast request in flight")
        for conn in eng.connections.values():
            if len(conn.couts) > 1:
                return self._no("multicast connection in flight")
        # ---- buffers and owners
        self.buf_len[:] = 0
        self.buf_start[:] = 0
        self.owner[:] = -1
        self.hdr_by_pid.clear()
        for (cid, _), vc in eng.vcs.items():
            self.owner[cid] = -1 if vc.owner is None else vc.owner
            if vc.buffer:
                for j, flit in enumerate(vc.buffer):
                    self.buf_pid[cid, j] = flit.pid
                    self.buf_kind[cid, j] = int(flit.kind)
                    self.buf_seq[cid, j] = flit.seq
                    if flit.header is not None:
                        self.hdr_by_pid[flit.pid] = flit.header
                        self.buf_dst[cid, j] = self.pe_slot[flit.header.dest]
                        self.buf_rc[cid, j] = flit.header.rc
                self.buf_len[cid] = len(vc.buffer)
        # ---- candidate masks
        self.route_cand[:] = False
        for cid, _ in eng._route_candidates:
            self.route_cand[cid] = True
        self.eject_pend[:] = False
        for cid, _ in eng._eject_pending:
            self.eject_pend[cid] = True
        self.pend_cin[:] = False
        for cid, _ in eng._pending_by_cin:
            self.pend_cin[cid] = True
        # ---- connections (dict insertion order becomes the order stamp)
        self.fc_alive[:] = False
        self.fc_cout[:] = -1
        self.ic_alive[:] = False
        for p in range(len(self.ic_packet)):
            self.ic_packet[p] = None
        for idx, conn in enumerate(eng.connections.values()):
            if conn.cin is None:
                p = self.pe_slot[conn.element[1]]
                inf = eng.in_flight[conn.pid]
                self.ic_alive[p] = True
                self.ic_pid[p] = conn.pid
                self.ic_cout[p] = conn.couts[0][0]
                self.ic_sent[p] = conn.supply[0].seq
                self.ic_len[p] = inf.packet.length
                self.ic_order[p] = idx
                self.ic_started[p] = conn.started_at
                self.ic_packet[p] = inf.packet
                self.ic_dst[p] = self.pe_slot[inf.packet.header.dest]
                self.ic_rc[p] = inf.packet.header.rc
                self.hdr_by_pid.setdefault(conn.pid, inf.packet.header)
            else:
                cid = conn.cin[0]
                self.fc_alive[cid] = True
                self.fc_pid[cid] = conn.pid
                self.fc_cout[cid] = conn.couts[0][0] if conn.couts else -1
                self.fc_order[cid] = idx
                self.fc_started[cid] = conn.started_at
        self.order_counter = len(eng.connections)
        self.nconns = len(eng.connections)
        # ---- pending requests, indexing the decisions of the (current) table
        table = getattr(eng.adapter, "table", None)
        tab = self.table = table() if table else self.table or DecisionTable(eng.topo)
        decs = [tab.intern(r.element, r.decision, r.wanted) for r in eng.pending]
        rows = [(r.pid, r.cin[0], tab.out[d], d, r.arrived_at) for r, d in zip(eng.pending, decs)]
        self.pend = np.array(rows, dtype=np.int64).reshape(-1, 5)
        self.busy_delta[:] = 0
        self.flit_moves = eng.flit_moves
        self.last_progress = eng._last_progress
        self.fallback_reason = None
        return True

    def sync_out(self) -> None:
        """Write the array state back into the engine's object state,
        byte-identical to what the scalar drivers would hold."""
        eng = self.eng
        cap = self.cap
        for (cid, _), vc in eng.vcs.items():
            o = self.owner[cid]
            vc.owner = None if o < 0 else int(o)
            buf = vc.buffer
            buf.clear()
            n = int(self.buf_len[cid])
            start = int(self.buf_start[cid])
            for j in range(n):
                s = (start + j) % cap
                pid = int(self.buf_pid[cid, s])
                kind = FlitKind(int(self.buf_kind[cid, s]))
                buf.append(
                    SimFlit(
                        pid=pid,
                        kind=kind,
                        seq=int(self.buf_seq[cid, s]),
                        header=self._header(pid, int(self.buf_rc[cid, s]))
                        if kind in (FlitKind.HEAD, FlitKind.HEAD_TAIL)
                        else None,
                    )
                )
        conns = []
        for cid in np.nonzero(self.fc_alive)[0].tolist():
            cout = int(self.fc_cout[cid])
            conns.append(
                (
                    int(self.fc_order[cid]),
                    Connection(
                        pid=int(self.fc_pid[cid]),
                        element=self.el_of[cid],
                        cin=(cid, 0),
                        couts=() if cout < 0 else ((cout, 0),),
                        started_at=int(self.fc_started[cid]),
                    ),
                )
            )
        for p in np.nonzero(self.ic_alive)[0].tolist():
            packet = self.ic_packet[p]
            supply = deque()
            length = int(self.ic_len[p])
            for seq in range(int(self.ic_sent[p]), length):
                supply.append(
                    SimFlit(
                        pid=packet.pid,
                        kind=_flit_kind(seq, length),
                        seq=seq,
                        header=packet.header if seq == 0 else None,
                    )
                )
            conns.append(
                (
                    int(self.ic_order[p]),
                    Connection(
                        pid=int(self.ic_pid[p]),
                        element=("PE", self.coords[p]),
                        cin=None,
                        couts=((int(self.ic_cout[p]), 0),),
                        supply=supply,
                        started_at=int(self.ic_started[p]),
                    ),
                )
            )
        eng.connections.clear()
        for _, conn in sorted(conns, key=lambda t: t[0]):
            eng.connections[(conn.element, conn.cin)] = conn
        decs = self.table.decs
        eng.pending = [
            PendingRequest(
                pid=pid,
                element=self.el_of[cin],
                cin=(cin, 0),
                decision=decs[d],
                wanted=self._wanted(self.el_of[cin], decs[d]),
                arrived_at=arrived,
            )
            for pid, cin, _, d, arrived in self.pend.tolist()
        ]
        eng._pending_by_cin = {r.cin for r in eng.pending}
        eng._route_candidates = {
            (int(c), 0) for c in np.nonzero(self.route_cand)[0]
        }
        eng._eject_pending = {
            (int(c), 0) for c in np.nonzero(self.eject_pend)[0]
        }
        for cid in np.nonzero(self.busy_delta)[0].tolist():
            eng.channel_busy[cid] = eng.channel_busy.get(cid, 0) + int(
                self.busy_delta[cid]
            )
        self.busy_delta[:] = 0
        eng.flit_moves = self.flit_moves
        eng._last_progress = self.last_progress

    # -------------------------------------------------------------- driver
    def drive(self, horizon: int, until_drained: bool) -> str:
        """Run cycles until an exit condition; always leaves the engine's
        object state canonical.  Returns ``"done"`` (drained / horizon /
        caller should re-check), ``"stalled"`` (the watchdog condition
        holds -- the engine's run loop diagnoses and recovers), or
        ``"bail"`` (unsupported state; :attr:`fallback_reason` says why;
        the active driver picks the cycle up mid-flight)."""
        eng = self.eng
        if not self.materialize():
            return "bail"
        stall_limit = eng.config.stall_limit
        while eng.cycle < horizon:
            if (
                until_drained
                and not eng.pending_work()
                and not eng.generators
            ):
                break
            if self._idle():
                target = eng._next_event_cycle(horizon)
                if target is not None and target > eng.cycle:
                    eng.cycle = target
                    continue
            self.phase_eject()
            bail = self.phase_route()
            if bail is not None:
                self.sync_out()
                self.fallback_reason = bail
                return "bail"
            self.phase_grant()
            self.phase_transfer()
            self.phase_inject()
            eng.cycle += 1
            if (
                eng.in_flight
                and eng.cycle - self.last_progress >= stall_limit
            ):
                self.sync_out()
                return "stalled"
        self.sync_out()
        return "done"

    def _idle(self) -> bool:
        eng = self.eng
        if (
            eng.in_flight
            or self.nconns
            or len(self.pend)
            or eng._nonempty_sources
        ):
            return False
        return not (self.route_cand.any() or self.eject_pend.any())

    # -------------------------------------------------------------- phases
    def phase_eject(self) -> None:
        e = np.nonzero(self.eject_pend)[0]
        if e.size == 0:
            return
        self.eject_pend[e] = False
        e = e[np.argsort(self.pe_order[e], kind="stable")]
        lens = self.buf_len[e]
        nz = lens > 0
        if not nz.all():
            e = e[nz]
            lens = lens[nz]
        if e.size == 0:
            return
        eng = self.eng
        self.flit_moves += int(lens.sum())
        self.last_progress = eng.cycle
        cap = self.cap
        offs = np.arange(cap)
        slots = (self.buf_start[e][:, None] + offs[None, :]) % cap
        kinds = self.buf_kind[e[:, None], slots]
        valid = offs[None, :] < lens[:, None]
        tails = valid & ((kinds == _TAIL) | (kinds == _HEAD_TAIL))
        rows, cols = np.nonzero(tails)
        if rows.size:
            in_flight = eng.in_flight
            tpids = self.buf_pid[e[rows], slots[rows, cols]]
            for r, pid in zip(rows.tolist(), tpids.tolist()):
                inf = in_flight.get(pid)
                if inf is None:
                    continue
                coord = self.pe_coord[int(e[r])]
                inf.deliveries += 1
                inf.served.add(coord)
                if inf.done:
                    inf.packet.delivered_at = eng.cycle
                    eng.delivered.append(inf.packet)
                    del in_flight[pid]
                    self.hdr_by_pid.pop(pid, None)
        self.buf_len[e] = 0

    def phase_route(self) -> Optional[str]:
        """Route every fresh header; returns a fallback reason (bailing
        *before* any route effect is applied) or None."""
        cand = np.nonzero(self.route_cand)[0]
        if cand.size == 0:
            return None
        pe = self.is_pe[cand]
        if pe.any():
            self.route_cand[cand[pe]] = False  # ejection handles PE inputs
            cand = cand[~pe]
        empty = self.buf_len[cand] == 0
        if empty.any():
            self.route_cand[cand[empty]] = False
            cand = cand[~empty]
        if cand.size == 0:
            return None
        heads = self.buf_kind[cand, self.buf_start[cand]]
        headish = (heads == _HEAD) | (heads == _HEAD_TAIL)
        cand = cand[headish]  # non-heads stay candidates (HoL wait)
        if cand.size == 0:
            return None
        busy = self.fc_alive[cand] | self.pend_cin[cand]
        cand = cand[~busy]  # already connected/requested: stay candidates
        if cand.size == 0:
            return None
        eng = self.eng
        tab = self.table
        s = self.buf_start[cand]
        pids = self.buf_pid[cand, s]
        rcs = self.buf_rc[cand, s]
        rows = tab.row[cand]
        idx, ent = tab.lookup(rows, rcs, tab.selector(rows, self.buf_dst[cand, s]))
        dec = ent.astype(np.int64)
        slow = np.flatnonzero(dec < 0).tolist()
        # misses and entries by hand go to the adapter one by one in candidate
        # order, as the scalar route asks; nothing is committed until every
        # decision checks out, and a bail leaves the adapter as it was found
        count_hits = getattr(eng.adapter, "count_hits", None)  # the memo's
        mark = count_hits and count_hits(cand.size - len(slow))
        filled, drops, reason = [], [], None
        try:
            for j in slow:
                cid, i = int(cand[j]), int(idx[j])
                el, src = self.el_of[cid], self.chan_src[cid]
                header = self._header(int(pids[j]), int(rcs[j]))
                d = eng.adapter.decide(el, src, 0, header)
                if d.drop:
                    drops.append(j)
                elif reason is None:
                    reason = _unsupported(d)
                    if reason is None:
                        wanted = self._wanted(el, d)
                        if tab.entry[i] == tab.UNFILLED:
                            tab.file(i, el, src, header, d, wanted)
                            filled.append(i)
                        dec[j] = tab.entry[i]
                        if dec[j] < 0:
                            dec[j] = tab.intern(el, d, wanted)
        except RoutingError:  # the scalar route runs the unroutable-packet kill path
            reason = "unroutable packet (online reconfiguration)"
        if reason is not None:
            if mark:
                eng.adapter.rewind(mark, filled)
            return reason
        if drops:
            self._connect(cand[drops], pids[drops], -1)
            for inf in filter(None, map(eng.in_flight.get, pids[drops].tolist())):
                inf.dropped = True
        self.route_cand[cand] = False
        req = dec >= 0
        if req.any():
            d = dec[req]
            new = (pids[req], cand[req], tab.out[d], d, np.full(d.size, eng.cycle))
            self.pend = np.concatenate((self.pend, np.stack(new, axis=1)))
            self.pend_cin[cand[req]] = True
        return None

    def phase_grant(self) -> None:
        pend = self.pend
        if not len(pend):
            return
        outs = pend[:, _OUT]
        owner = self.owner
        if (outs >= 0).all():
            # every request is single-output "all": the sequential scan
            # grants each free output to its first requester in arrival
            # order, which is exactly the first-occurrence reduction
            free = np.flatnonzero(owner[outs] == -1)
            _, first = np.unique(outs[free], return_index=True)
            win = np.sort(free[first])
            wout = outs[win]
        else:
            # adaptive requests: the sequential scan, each grant seen by the next
            win, wout, decs = [], [], self.table.decs
            for i, (pid, cin, out, d, _) in enumerate(pend.tolist()):
                if out < 0:
                    wanted = self._wanted(self.el_of[cin], decs[d])
                    out = next((c for c, _ in wanted if owner[c] == -1), -1)
                if out >= 0 and owner[out] == -1:
                    owner[out] = pid
                    win.append(i)
                    wout.append(out)
        if not len(win):
            return
        w = pend[win]
        cins = w[:, _CIN]
        owner[wout] = w[:, _PID]
        self._connect(cins, w[:, _PID], wout)
        self.pend_cin[cins] = False
        self.last_progress = self.eng.cycle
        # the switch rewrites the RC bit as the header passes
        self.buf_rc[cins, self.buf_start[cins]] = self.table.rc[w[:, _DEC]]
        self.pend = np.delete(pend, win, axis=0)

    def _connect(self, cins, pids, outs) -> None:
        """Connect inputs ``cins`` to ``outs`` (-1: drop), in this order."""
        n = len(cins)
        self.fc_alive[cins] = True
        self.fc_pid[cins] = pids
        self.fc_cout[cins] = outs
        self.fc_order[cins] = self.order_counter + np.arange(n)
        self.order_counter += n
        self.fc_started[cins] = self.eng.cycle
        self.nconns += n

    def _header(self, pid: int, rc: int):
        """Packet ``pid``'s header with RC bit ``rc`` (kept in :attr:`buf_rc`)."""
        h = self.hdr_by_pid.get(pid)
        return h if h is None or h.rc == rc else h.with_rc(RC(rc))

    def _wanted(self, el, d) -> tuple:
        """Decision ``d``'s output channels at ``el``, memoized on the engine."""
        key, memo = (el, d.outputs), self.eng._wanted_memo
        if key not in memo:
            memo[key] = tuple((self.eng.topo.channel(el, o).cid, vc) for o, vc in d.outputs)
        return memo[key]

    def phase_transfer(self) -> None:
        f = np.nonzero(self.fc_alive)[0]
        i = np.nonzero(self.ic_alive)[0]
        if f.size == 0 and i.size == 0:
            return
        V = self.V
        cap = self.cap
        buf_len = self.buf_len
        fl = buf_len[f]
        fhead_pid = self.buf_pid[f, self.buf_start[f]]
        fsrc_ok = (fl > 0) & (fhead_pid == self.fc_pid[f])
        fdst = self.fc_cout[f]
        fdrop = fdst < 0
        fdst_safe = np.where(fdrop, 0, fdst)
        fdst_ok = fdrop | (buf_len[fdst_safe] < cap)
        fm0 = fsrc_ok & fdst_ok
        idst = self.ic_cout[i]
        im0 = buf_len[idst] < cap
        # conditional movers: blocked at phase start but enabled by an
        # earlier-in-order mover draining their destination (or supplying
        # their empty source), matching the scalar dict-order scan
        fsrc_pot = (~fsrc_ok) & (fl == 0)
        fdst_pot = (~fdst_ok) & self.fc_alive[fdst_safe] & ~fdrop
        fcond = (~fm0) & (fsrc_ok | fsrc_pot) & (fdst_ok | fdst_pot)
        icond = (~im0) & self.fc_alive[idst]
        node = np.concatenate((f[fcond], V + i[icond]))
        if node.size:
            # each candidate's enablers, read before wave 0 applies (a tail
            # moving in it clears its connection's fc_alive).  Nodes are
            # fabric cids and V + injection slots; the supplier ("filler")
            # of an empty source is the connection whose output it is, the
            # drainer of a full destination the connection at it.  NONE
            # stands for "not needed", MISSING for a filler that is absent.
            NONE = V + self.ic_alive.size
            MISSING = NONE + 1
            filler = np.full(V, MISSING, dtype=np.int64)
            filler[fdst[~fdrop]] = f[~fdrop]
            filler[idst] = V + i
            e_src = np.concatenate(
                (
                    np.where(fsrc_pot[fcond], filler[f[fcond]], NONE),
                    np.full(int(icond.sum()), NONE),
                )
            )
            e_dst = np.concatenate(
                (np.where(fdst_ok[fcond], NONE, fdst[fcond]), idst[icond])
            )
            order = np.concatenate(
                (self.fc_order, self.ic_order, (-1, np.iinfo(np.int64).max))
            )
            # an enabler later in the scan order cannot enable
            own = order[node]
            ok = (order[e_src] < own) & (order[e_dst] < own)
            node, e_src, e_dst = node[ok], e_src[ok], e_dst[ok]
            moved = np.zeros(NONE + 1, dtype=bool)
            moved[NONE] = True
            moved[f[fm0]] = True
            moved[V + i[im0]] = True
        # wave 0 is the phase-start movers; wave k+1 every candidate whose
        # needed enablers all moved in waves <= k
        wf, wi = f[fm0], i[im0]
        drops = []
        while wf.size or wi.size:
            self.last_progress = self.eng.cycle
            if wf.size:
                d = self._apply_fabric(wf)
                if d.size:
                    drops.append(d)
            if wi.size:
                self._apply_injection(wi)
            if not node.size:
                break
            ready = moved[e_src] & moved[e_dst]
            w = node[ready]
            moved[w] = True
            node, e_src, e_dst = node[~ready], e_src[~ready], e_dst[~ready]
            wf, wi = w[w < V], w[w >= V] - V
        if drops:
            self._drop_tails(np.concatenate(drops))

    def _apply_fabric(self, fm) -> np.ndarray:
        """Move one flit through each fabric connection in ``fm`` (pops
        before pushes, so a buffer popped and refilled in the same cycle
        lands its newcomer behind the survivors).  Returns the drop
        connections whose tail it swallowed."""
        cap = self.cap
        s = self.buf_start[fm]
        v_pid = self.buf_pid[fm, s]
        v_kind = self.buf_kind[fm, s]
        v_seq = self.buf_seq[fm, s]
        v_dst = self.buf_dst[fm, s]
        v_rc = self.buf_rc[fm, s]
        self.buf_start[fm] = (s + 1) % cap
        self.buf_len[fm] -= 1
        d = self.fc_cout[fm]
        push = d >= 0
        dp = d[push]
        if dp.size:
            slot = (self.buf_start[dp] + self.buf_len[dp]) % cap
            self.buf_pid[dp, slot] = v_pid[push]
            self.buf_kind[dp, slot] = v_kind[push]
            self.buf_seq[dp, slot] = v_seq[push]
            self.buf_dst[dp, slot] = v_dst[push]
            self.buf_rc[dp, slot] = v_rc[push]
            self.buf_len[dp] += 1
            self.busy_delta[dp] += 1
            kp = v_kind[push]
            headish = (kp == _HEAD) | (kp == _HEAD_TAIL)
            self.route_cand[dp[headish]] = True
            self.eject_pend[dp[self.is_pe[dp]]] = True
        tailish = (v_kind == _TAIL) | (v_kind == _HEAD_TAIL)
        td = fm[tailish]
        self.flit_moves += int(fm.size)
        if not td.size:
            return td
        douts = self.fc_cout[td]
        self.owner[douts[douts >= 0]] = -1
        self.fc_alive[td] = False
        self.nconns -= int(td.size)
        # as in the scalar transfer: a header queued behind a routed one
        self.route_cand[td[self.buf_len[td] > 0]] = True
        return td[douts < 0]

    def _drop_tails(self, drops) -> None:
        """Retire the packets whose tails drop connections swallowed this
        phase, in connection order (the scalar scan's ``dropped`` order)."""
        eng = self.eng
        order = np.argsort(self.fc_order[drops], kind="stable")
        for cid in drops[order].tolist():
            pid = int(self.fc_pid[cid])
            inf = eng.in_flight.pop(pid, None)
            if inf is not None:
                eng.dropped.append(inf.packet)
            self.hdr_by_pid.pop(pid, None)

    def _apply_injection(self, im) -> None:
        cap = self.cap
        seq = self.ic_sent[im]
        ln = self.ic_len[im]
        kind = np.where(
            ln == 1,
            _HEAD_TAIL,
            np.where(
                seq == 0, _HEAD, np.where(seq == ln - 1, _TAIL, _BODY)
            ),
        )
        d = self.ic_cout[im]
        slot = (self.buf_start[d] + self.buf_len[d]) % cap
        self.buf_pid[d, slot] = self.ic_pid[im]
        self.buf_kind[d, slot] = kind
        self.buf_seq[d, slot] = seq
        self.buf_dst[d, slot] = self.ic_dst[im]
        self.buf_rc[d, slot] = self.ic_rc[im]
        self.buf_len[d] += 1
        self.busy_delta[d] += 1
        headish = (kind == _HEAD) | (kind == _HEAD_TAIL)
        self.route_cand[d[headish]] = True
        self.ic_sent[im] += 1
        done = seq == ln - 1
        t = im[done]
        if t.size:
            self.owner[self.ic_cout[t]] = -1
            self.ic_alive[t] = False
            self.nconns -= int(t.size)
            for p in t.tolist():
                self.ic_packet[p] = None
        self.flit_moves += int(im.size)

    def phase_inject(self) -> None:
        eng = self.eng
        due = eng._scheduled.pop(eng.cycle, None)
        if due:
            for p in due:
                p.injected_at = eng.cycle
                eng.send(p)
        for gen in eng.generators:
            gen(eng)
        if not eng._nonempty_sources:
            return
        # the scalar phase's source order; order stamps follow the walk
        sources = list(eng._nonempty_sources)
        slots = [self.pe_slot[c] for c in sources]
        free = (self.owner[self.inj_cid[slots]] == -1).tolist()
        started, packets = [], []
        for coord, p, ok in zip(sources, slots, free):
            if not ok:
                continue
            queue = eng.source_queues[coord]
            packet = queue.popleft()
            if not queue:
                eng._nonempty_sources.discard(coord)
            started.append(p)
            packets.append(packet)
            self.ic_packet[p] = packet
            self.hdr_by_pid[packet.pid] = packet.header
            eng.in_flight[packet.pid] = InFlightPacket(
                packet=packet,
                expected_deliveries=eng.expected_deliveries(packet),
            )
        n = len(started)
        if not n:
            return
        cids = self.inj_cid[started]
        pids = [pk.pid for pk in packets]
        self.owner[cids] = pids
        self.ic_alive[started] = True
        self.ic_pid[started] = pids
        self.ic_cout[started] = cids
        self.ic_sent[started] = 0
        self.ic_len[started] = [pk.length for pk in packets]
        self.ic_order[started] = self.order_counter + np.arange(n)
        self.order_counter += n
        self.ic_started[started] = eng.cycle
        self.ic_dst[started] = [self.pe_slot[pk.header.dest] for pk in packets]
        self.ic_rc[started] = [pk.header.rc for pk in packets]
        self.nconns += n
        eng.injected += n
        self.last_progress = eng.cycle


def _unsupported(d) -> Optional[str]:
    """Why the kernel cannot hold decision ``d`` as a request, or None."""
    if d.serialize:
        return "serialized (S-XB) decision"
    if d.policy != "any":
        return None if len(d.outputs) == 1 else "multicast decision"
    return None if d.outputs else "adaptive decision with no outputs"


def _flit_kind(seq: int, length: int) -> FlitKind:
    if length == 1:
        return FlitKind.HEAD_TAIL
    if seq == 0:
        return FlitKind.HEAD
    if seq == length - 1:
        return FlitKind.TAIL
    return FlitKind.BODY
