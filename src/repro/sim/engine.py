"""The cycle engine: phase pipeline, fabric state and the public hook bus.

This is the **engine layer** of the simulator.  :class:`CycleEngine` owns
the fabric resource state (:mod:`repro.sim.fabric`) and executes the five
per-cycle phases of cut-through switching:

1. **eject** -- PEs drain their input buffers (a destination always sinks,
   so ejection channels never deadlock by themselves);
2. **route** -- header flits at buffer heads are routed by the adapter and
   become pending grant requests;
3. **grant** -- serialized (S-XB) requests are granted atomically in FIFO
   order, reserving the whole crossbar; other requests reserve free output
   ports progressively, in arrival order, and connect when complete;
4. **transfer** -- every connection moves at most one flit, multicast
   branches in lockstep, one flit per physical channel per cycle; a tail
   flit releases the connection's output ports;
5. **inject** -- queued packets at PEs take the injection channel when free.

A watchdog declares deadlock when packets are in flight but nothing has
moved for ``stall_limit`` cycles (it fires on exactly the
``stall_limit``-th stalled cycle), then extracts the cyclic wait from the
pending requests' wait-for graph -- reproducing the paper's Figs. 5 and 9
dynamically.  With ``config.recovery`` the engine instead breaks the
detected cycle online: one victim packet's flits are drained back out of
the fabric and the packet is re-queued at its source (a DBR-style
rotate), bounded by ``config.recovery_limit`` before the watchdog
escalates to the ordinary :class:`DeadlockReport` halt.

Instrumentation attaches through the :class:`HookBus` -- never by poking
engine internals:

* ``on_cycle_start(engine)``            -- before the eject phase of a cycle;
* ``on_phase_end(engine, phase)``       -- after each of the five phases;
* ``on_inject(engine, packet, coord, queued)`` -- a packet entered the
  source queue (``queued=True``, fired from :meth:`CycleEngine.send`) or
  took the injection channel into the fabric (``queued=False``, fired
  from the inject phase);
* ``on_grant(engine, connection)``      -- a request was granted a switch;
* ``on_block(engine, event)``           -- a packet failed to make progress
  this cycle (a :class:`BlockEvent`: refused grant, S-XB serialization
  wait, head-of-line wait behind another packet, or a transfer stalled on
  a full downstream buffer).  Emitted once per blocked resource per cycle;
* ``on_deliver(packet, coord, cycle)``  -- a tail flit ejected at a PE
  (once per recipient for broadcasts);
* ``on_deadlock(engine, report)``       -- the stall watchdog fired and the
  run is halting (never fired for a cycle that recovery broke);
* ``on_recovery(engine, event)``        -- a recovery action broke a
  detected cycle (a :class:`RecoveryEvent`: victim pid, attempt number,
  the cyclic-wait pids);
* ``on_log(cycle, message)``            -- the engine's event log.

:class:`~repro.sim.monitor.SimMonitor`, :class:`~repro.sim.monitor.TextTrace`
and the software collectives are all hook subscribers.  The observable
fabric state (``vcs``, ``connections``, ``pending``, ``serial_queues``,
``source_queues``, ``in_flight`` and the counters) is public: hooks may
read it freely; only the engine writes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.coords import Coord
from ..core.packet import Packet, RC
from ..topology.base import Channel, ElementId, ElementKind, element_kind
from .adapter import RoutingAdapter
from .config import SimConfig
from .fabric import (
    Connection,
    InFlightPacket,
    PendingRequest,
    SimFlit,
    VCKey,
    VCState,
    flit_body_run,
)

#: the five phases, in execution order (the names ``on_phase_end`` reports)
PHASES: Tuple[str, ...] = ("eject", "route", "grant", "transfer", "inject")

#: shortest bulk flit-run transfer window worth taking: below this the
#: window bookkeeping costs more than the per-cycle phases it replaces
MIN_STREAM_WINDOW = 2

#: the ``why`` values a :class:`BlockEvent` can carry, in the order the
#: engine emits them within one cycle
BLOCK_KINDS: Tuple[str, ...] = ("serial", "grant", "hol", "transfer")


@dataclass
class BlockEvent:
    """One packet's failure to make progress during one cycle.

    ``why`` is one of :data:`BLOCK_KINDS`:

    * ``"serial"``   -- waiting in an S-XB serialization queue;
    * ``"grant"``    -- a progressive request still missing output ports;
    * ``"hol"``      -- the header is queued behind another packet's flits
      in an input buffer (cut-through head-of-line blocking);
    * ``"transfer"`` -- an established connection could not move its flit
      (full downstream buffer or the physical link was used this cycle).

    ``wanted`` names the (channel cid, vc) resources the packet is waiting
    for -- for attribution, the first entry is the refusing port.
    """

    pid: int
    element: ElementId
    wanted: Tuple[VCKey, ...]
    why: str


class HookBus:
    """Subscription lists for the engine's instrumentation events.

    Each attribute is a plain list of callables, appended in subscription
    order and invoked in that order.  The ``on_*`` helpers return the
    callable so they can be used as decorators::

        @sim.hooks.on_deliver
        def saw(packet, coord, cycle): ...
    """

    __slots__ = (
        "cycle_start",
        "phase_end",
        "inject",
        "grant",
        "block",
        "deliver",
        "deadlock",
        "recovery",
        "log",
    )

    def __init__(self) -> None:
        self.cycle_start: List[Callable[["CycleEngine"], None]] = []
        self.phase_end: List[Callable[["CycleEngine", str], None]] = []
        self.inject: List[
            Callable[["CycleEngine", Packet, Coord, bool], None]
        ] = []
        self.grant: List[Callable[["CycleEngine", Connection], None]] = []
        self.block: List[Callable[["CycleEngine", BlockEvent], None]] = []
        self.deliver: List[Callable[[Packet, Coord, int], None]] = []
        self.deadlock: List[Callable[["CycleEngine", "DeadlockReport"], None]] = []
        self.recovery: List[Callable[["CycleEngine", "RecoveryEvent"], None]] = []
        self.log: List[Callable[[int, str], None]] = []

    def on_cycle_start(self, fn: Callable[["CycleEngine"], None]):
        self.cycle_start.append(fn)
        return fn

    def on_phase_end(self, fn: Callable[["CycleEngine", str], None]):
        self.phase_end.append(fn)
        return fn

    def on_inject(
        self, fn: Callable[["CycleEngine", Packet, Coord, bool], None]
    ):
        self.inject.append(fn)
        return fn

    def on_grant(self, fn: Callable[["CycleEngine", Connection], None]):
        self.grant.append(fn)
        return fn

    def on_block(self, fn: Callable[["CycleEngine", BlockEvent], None]):
        self.block.append(fn)
        return fn

    def on_deliver(self, fn: Callable[[Packet, Coord, int], None]):
        self.deliver.append(fn)
        return fn

    def on_deadlock(self, fn: Callable[["CycleEngine", "DeadlockReport"], None]):
        self.deadlock.append(fn)
        return fn

    def on_recovery(self, fn: Callable[["CycleEngine", "RecoveryEvent"], None]):
        self.recovery.append(fn)
        return fn

    def on_log(self, fn: Callable[[int, str], None]):
        self.log.append(fn)
        return fn

    def unsubscribe(self, fn) -> None:
        """Remove ``fn`` from every event it is subscribed to."""
        for name in self.__slots__:
            lst = getattr(self, name)
            while fn in lst:
                lst.remove(fn)


@dataclass
class DeadlockReport:
    """Diagnosis of a detected deadlock."""

    cycle: int
    #: packet ids forming the cyclic wait, in order
    cycle_pids: Tuple[int, ...]
    #: pid -> (element it is blocked at, channels it waits for, their holders)
    waits: Dict[int, Tuple[ElementId, Tuple[Channel, ...], Tuple[int, ...]]]
    #: every in-flight pid at detection time
    blocked_pids: Tuple[int, ...]

    def describe(self) -> str:
        lines = [f"deadlock detected at cycle {self.cycle}; cyclic wait:"]
        for pid in self.cycle_pids:
            el, chans, holders = self.waits[pid]
            chan_s = ", ".join(repr(c) for c in chans)
            lines.append(
                f"  packet {pid} blocked at {el} waiting for [{chan_s}] "
                f"held by {sorted(set(holders))}"
            )
        return "\n".join(lines)


class DeadlockError(RuntimeError):
    """Raised by :meth:`CycleEngine.run` when ``raise_on_deadlock``."""

    def __init__(self, report: DeadlockReport) -> None:
        super().__init__(report.describe())
        self.report = report


@dataclass
class RecoveryEvent:
    """One online deadlock-recovery action (``config.recovery``).

    The watchdog detected a cyclic wait, picked ``victim`` out of
    ``cycle_pids`` by the configured policy, drained its flits back out
    of the fabric and re-queued it at its source.  ``attempt`` counts
    recoveries so far in this run (1-based), bounded by
    ``config.recovery_limit``.
    """

    cycle: int
    victim: int
    attempt: int
    cycle_pids: Tuple[int, ...]

    def describe(self) -> str:
        return (
            f"cycle {self.cycle}: recovery {self.attempt} rotated packet "
            f"{self.victim} out of cyclic wait {list(self.cycle_pids)}"
        )


@dataclass
class ReconfigReport:
    """What an online fault event cost (see ``NetworkSimulator.inject_fault``)."""

    cycle: int
    fault: object
    lost_packets: List[Packet]
    new_sxb_line: Tuple[int, ...]
    new_order: Tuple[int, ...]

    def describe(self) -> str:
        return (
            f"cycle {self.cycle}: {self.fault}; lost {len(self.lost_packets)} "
            f"in-transit packets; facility reconfigured "
            f"(order {self.new_order}, S-XB line {self.new_sxb_line})"
        )


@dataclass
class SimResult:
    """Outcome of a simulation run."""

    cycles: int
    delivered: List[Packet]
    dropped: List[Packet]
    deadlock: Optional[DeadlockReport]
    flit_moves: int
    injected: int
    #: busy cycles per channel cid (a flit crossed the physical link)
    channel_busy: Dict[int, int]
    in_flight_at_end: int
    #: deadlock-recovery actions taken (0 unless ``config.recovery``);
    #: ``injected`` counts fabric injections, so a recovered packet
    #: contributes one extra injection per rotation
    recoveries: int = 0
    #: victim pid per recovery action, in order
    recovery_victims: Tuple[int, ...] = ()

    @property
    def deadlocked(self) -> bool:
        return self.deadlock is not None

    @property
    def latencies(self) -> List[int]:
        return [p.latency for p in self.delivered if p.latency is not None]

    @property
    def mean_latency(self) -> float:
        lats = self.latencies
        return sum(lats) / len(lats) if lats else float("nan")

    def fingerprint(self) -> Tuple:
        """A compact, order-sensitive identity of the run, for parity and
        regression tests.  Packet ids are rebased to the smallest id seen
        so the fingerprint is stable across processes (pids are a
        process-global counter)."""
        pids = [p.pid for p in self.delivered + self.dropped]
        pids.extend(self.recovery_victims)
        if self.deadlock is not None:
            pids.extend(self.deadlock.cycle_pids)
        base = min(pids) if pids else 0
        return (
            self.cycles,
            tuple(
                (p.pid - base, p.injected_at, p.delivered_at)
                for p in self.delivered
            ),
            tuple(p.pid - base for p in self.dropped),
            None
            if self.deadlock is None
            else (
                self.deadlock.cycle,
                tuple(p - base for p in self.deadlock.cycle_pids),
            ),
            self.flit_moves,
            self.injected,
            self.in_flight_at_end,
            self.recoveries,
            tuple(v - base for v in self.recovery_victims),
        )


class CycleEngine:
    """Phase pipeline over an adapter-routed topology.

    The engine is the only writer of the fabric state; observers subscribe
    to :attr:`hooks`.  The workload API (:meth:`send`, :meth:`add_generator`)
    and the run loop live here too; the MD-crossbar-specific online fault
    machinery lives on the :class:`~repro.sim.network.NetworkSimulator`
    facade.
    """

    def __init__(
        self,
        adapter: RoutingAdapter,
        config: Optional[SimConfig] = None,
        hooks: Optional[HookBus] = None,
    ) -> None:
        self.adapter = adapter
        self.topo = adapter.topo
        self.config = config or SimConfig()
        self.hooks = hooks or HookBus()
        if hasattr(adapter, "attach"):
            adapter.attach(self)
        self.cycle = 0
        #: virtual-channel state per (channel cid, vc index)
        self.vcs: Dict[VCKey, VCState] = {}
        for ch in self.topo.channels():
            for v in range(self.config.num_vcs):
                self.vcs[(ch.cid, v)] = VCState(
                    channel=ch, vc=v, capacity=self.config.buffer_depth
                )
        # input VC keys per switch element, in deterministic order
        self._inputs: Dict[ElementId, List[VCKey]] = {}
        self._pe_inputs: List[Tuple[Coord, VCKey]] = []
        for el in self.topo.elements():
            kind = element_kind(el)
            if kind is ElementKind.PE:
                for ch in self.topo.channels_to(el):
                    for v in range(self.config.num_vcs):
                        self._pe_inputs.append((el[1], (ch.cid, v)))
                continue
            keys: List[VCKey] = []
            for ch in self.topo.channels_to(el):
                for v in range(self.config.num_vcs):
                    keys.append((ch.cid, v))
            self._inputs[el] = keys
        # active-set bookkeeping for the ejection channels: the fast path
        # ejects only buffers a transfer landed flits into, iterated in
        # ``_pe_inputs`` order (delivery order is fingerprint-visible)
        self._pe_key_order: Dict[VCKey, int] = {
            key: i for i, (_, key) in enumerate(self._pe_inputs)
        }
        self._pe_coord_of: Dict[VCKey, Coord] = {
            key: coord for coord, key in self._pe_inputs
        }
        self._eject_pending: Set[VCKey] = set()
        #: elements whose S-XB serialization queue is non-empty
        self._serial_active: Set[ElementId] = set()

        #: established switch connections, keyed by (element, input VC)
        self.connections: Dict[Tuple[ElementId, Optional[VCKey]], Connection] = {}
        #: non-serialized grant requests, in arrival order
        self.pending: List[PendingRequest] = []
        self._pending_by_cin: Set[VCKey] = set()
        #: input VC keys that may hold an unrouted header (performance:
        #: the route phase scans this small set instead of every buffer)
        self._route_candidates: Set[VCKey] = set()
        #: (element, decision.outputs) -> wanted VCKey tuple.  Routing the
        #: same decision at the same switch always wants the same output
        #: keys, so the route phase resolves channels through this memo
        #: instead of re-querying the topology per header (bounded by the
        #: distinct output sets the routing logic produces per switch).
        self._wanted_memo: Dict[Tuple, Tuple[VCKey, ...]] = {}
        #: element owning each switch-input key, precomputed
        self._element_of_input: Dict[VCKey, ElementId] = {}
        for el, keys in self._inputs.items():
            for key in keys:
                self._element_of_input[key] = el
        #: serialized (S-XB) FIFO queues per element
        self.serial_queues: Dict[ElementId, Deque[PendingRequest]] = {}
        #: packets queued at each source PE, awaiting injection
        self.source_queues: Dict[Coord, Deque[Packet]] = {
            c: deque() for c in self.topo.node_coords()
        }
        self._nonempty_sources: Set[Coord] = set()
        #: injection-channel VC key per PE, precomputed for the inject phase
        self._inj_key: Dict[Coord, VCKey] = {
            c: (self.topo.injection_channel(c).cid, 0)
            for c in self.topo.node_coords()
        }
        self._scheduled: Dict[int, List[Packet]] = {}
        #: per-cycle traffic generator callbacks (run in the inject phase)
        self.generators: List[Callable[["CycleEngine"], None]] = []
        #: packets injected but not yet fully delivered, by pid
        self.in_flight: Dict[int, InFlightPacket] = {}
        self.delivered: List[Packet] = []
        self.dropped: List[Packet] = []
        self.flit_moves = 0
        self.injected = 0
        self.channel_busy: Dict[int, int] = {}
        self._last_progress = 0
        self.deadlock: Optional[DeadlockReport] = None
        #: recovery actions taken this run (see ``config.recovery``)
        self.recoveries = 0
        self.recovery_victims: List[int] = []
        #: which cycle driver actually ran, and why the SoA kernel handed
        #: a run back to the active driver (None when it never did)
        self.engine_used = self.config.engine
        self.engine_fallback: Optional[str] = None
        self._soa = None  # lazily built SoAKernel (static tables survive)
        self._set_live_nodes()

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Return the engine to its just-constructed state, keeping the
        built fabric.

        Everything expensive survives -- the topology, the adapter, the
        precomputed input/injection tables and the pure-topology wanted
        memo -- while every piece of mutable run state (buffers,
        connections, queues, counters, the deadlock report, the hook bus)
        is restored to what ``__init__`` left it.  A reset engine must
        behave byte-identically to a freshly built one; the warm-worker
        runtime (:mod:`repro.runtime.session`) leans on this to reuse
        networks across sweep points, and ``tests/sim/test_reset.py``
        holds it to fingerprint parity.

        Workload and instrumentation do not survive: generators,
        scheduled sends and every hook subscription are dropped
        (collectors must be re-attached), mirroring a fresh construction.
        Live nodes are recomputed from the adapter's *current* logic --
        a caller undoing an online fault event must restore the pristine
        logic first (see ``NetworkCache``).
        """
        self.cycle = 0
        for vc in self.vcs.values():
            vc.buffer.clear()
            vc.owner = None
        self._eject_pending.clear()
        self._serial_active.clear()
        self.connections.clear()
        self.pending.clear()
        self._pending_by_cin.clear()
        self._route_candidates.clear()
        self.serial_queues.clear()
        for q in self.source_queues.values():
            q.clear()
        self._nonempty_sources.clear()
        self._scheduled.clear()
        self.generators.clear()
        self.in_flight.clear()
        # fresh lists: past SimResults got copies, but external holders of
        # the live attributes must not see a reused engine's traffic
        self.delivered = []
        self.dropped = []
        self.flit_moves = 0
        self.injected = 0
        self.channel_busy.clear()
        self._last_progress = 0
        self.deadlock = None
        self.recoveries = 0
        self.recovery_victims = []
        self.engine_used = self.config.engine
        self.engine_fallback = None
        self.hooks = HookBus()
        self._set_live_nodes()

    # ------------------------------------------------------------- helpers
    def _set_live_nodes(self) -> None:
        """Recompute the PEs the adapter's current logic leaves connected:
        a tuple the hot ``live_nodes`` property hands out without copying
        (generators read it every cycle) and a set ``send`` tests."""
        logic = getattr(self.adapter, "logic", None)
        self._live_nodes = tuple(
            c
            for c in self.topo.node_coords()
            if logic is None or not logic.registry.router_is_faulty(c)
        )
        self._live_set = frozenset(self._live_nodes)

    @property
    def live_nodes(self) -> Sequence[Coord]:
        return self._live_nodes

    def log(self, msg: str) -> None:
        """Emit an event-log line to the ``on_log`` subscribers."""
        for fn in self.hooks.log:
            fn(self.cycle, msg)

    # --------------------------------------------------------- observability
    def buffered_flits(self) -> int:
        """Total flits sitting in channel buffers."""
        return sum(len(vc.buffer) for vc in self.vcs.values())

    def queued_packets(self) -> int:
        """Packets waiting in source queues (not yet injected)."""
        return sum(len(q) for q in self.source_queues.values())

    def blocked_requests(self) -> int:
        """Grant requests waiting for output ports (incl. serialized)."""
        return len(self.pending) + sum(
            len(q) for q in self.serial_queues.values()
        )

    # ------------------------------------------------------------ workload
    def send(self, packet: Packet, at_cycle: Optional[int] = None) -> None:
        """Queue a packet for injection at its source PE.

        ``at_cycle`` defers queueing (used by the scripted figure
        scenarios); by default the packet enters the source queue now.
        """
        if at_cycle is not None and at_cycle > self.cycle:
            self._scheduled.setdefault(at_cycle, []).append(packet)
            return
        src = packet.source
        if src not in self.source_queues:
            raise ValueError(f"unknown source PE {src}")
        if src not in self._live_set:
            raise ValueError(f"source PE {src} is disconnected by the fault")
        packet.injected_at = self.cycle if packet.injected_at is None else packet.injected_at
        self.source_queues[src].append(packet)
        self._nonempty_sources.add(src)
        if self.hooks.inject:
            for fn in self.hooks.inject:
                fn(self, packet, src, True)

    def add_generator(self, fn: Callable[["CycleEngine"], None]) -> None:
        """Register a per-cycle traffic generator callback.

        Generators *produce workload* and therefore keep the run loop alive
        (``until_drained`` never breaks while generators are registered);
        passive observers should subscribe to :attr:`hooks` instead.
        """
        self.generators.append(fn)

    def add_delivery_listener(
        self, fn: Callable[[Packet, Coord, int], None]
    ) -> None:
        """Register ``fn(packet, pe_coord, cycle)``, called whenever a tail
        flit is ejected at a PE (once per recipient for broadcasts).  Used
        by the software collectives, which react to message arrival the way
        a PE's message handler would.  Equivalent to ``hooks.on_deliver``."""
        self.hooks.deliver.append(fn)

    def expected_deliveries(self, packet: Packet) -> int:
        if packet.header.rc in (RC.BROADCAST_REQUEST, RC.BROADCAST):
            return len(self._live_nodes)
        return 1

    def _scrub_packet(self, pid: int) -> None:
        """Drain every trace of a packet out of the fabric: connections,
        requests, queue entries, buffered flits and channel ownership.
        Does not touch ``in_flight`` -- :meth:`kill_packet` drops the
        packet afterwards, deadlock recovery re-queues it instead."""
        for key in [k for k, c in self.connections.items() if c.pid == pid]:
            conn = self.connections.pop(key)
            for cout in conn.couts:
                if self.vcs[cout].owner == pid:
                    self.vcs[cout].owner = None
        self.pending = [r for r in self.pending if r.pid != pid]
        for el, q in self.serial_queues.items():
            for r in list(q):
                if r.pid == pid:
                    q.remove(r)
            if not q:
                self._serial_active.discard(el)
        for key, vc in self.vcs.items():
            if vc.owner == pid:
                vc.owner = None
            if any(f.pid == pid for f in vc.buffer):
                vc.buffer = type(vc.buffer)(
                    f for f in vc.buffer if f.pid != pid
                )
                if vc.buffer:
                    # removing the scrubbed flits can expose another
                    # packet's header (or undelivered flits) at the head
                    # of the buffer: re-activate it for the fast path
                    if key in self._pe_key_order:
                        self._eject_pending.add(key)
                    elif vc.buffer[0].is_head:
                        self._route_candidates.add(key)
        self._pending_by_cin = {
            k
            for k in self._pending_by_cin
            if any(r.cin == k for r in self.pending)
            or any(
                r.cin == k for q in self.serial_queues.values() for r in q
            )
        }

    def kill_packet(self, pid: int) -> Optional[Packet]:
        """Remove every trace of a packet from the fabric."""
        self._scrub_packet(pid)
        inf = self.in_flight.pop(pid, None)
        if inf is not None:
            self.dropped.append(inf.packet)
            return inf.packet
        return None

    # -------------------------------------------------------------- phases
    def phase_eject(self) -> None:
        if not self._eject_pending:
            return
        # only buffers that received flits since the last ejection --
        # sorted into ``_pe_inputs`` order because the delivery order
        # (and hence the fingerprint) depends on it
        inputs = [
            (self._pe_coord_of[k], k)
            for k in sorted(
                self._eject_pending, key=self._pe_key_order.__getitem__
            )
        ]
        self._eject_pending.clear()
        deliver_hooks = self.hooks.deliver
        log_on = bool(self.hooks.log)
        for coord, key in inputs:
            buf = self.vcs[key].buffer
            while buf:
                flit = buf.popleft()
                self.flit_moves += 1
                self._last_progress = self.cycle
                if flit.is_tail:
                    inf = self.in_flight.get(flit.pid)
                    if inf is not None:
                        inf.deliveries += 1
                        inf.served.add(coord)
                        for listener in deliver_hooks:
                            listener(inf.packet, coord, self.cycle)
                        if inf.done:
                            inf.packet.delivered_at = self.cycle
                            self.delivered.append(inf.packet)
                            del self.in_flight[flit.pid]
                            if log_on:
                                self.log(
                                    f"packet {flit.pid} completed at PE{coord}"
                                )

    def phase_route(self) -> None:
        done: List[VCKey] = []
        vcs = self.vcs
        element_of_input = self._element_of_input
        connections = self.connections
        pending_by_cin = self._pending_by_cin
        # sorted: candidate order decides pending-list order, which decides
        # grant-conflict winners -- set iteration order must never leak
        # into results (and the SoA kernel routes in the same vkey order)
        for key in sorted(self._route_candidates):
            el = element_of_input.get(key)
            if el is None:  # a PE input: ejection handles it
                done.append(key)
                continue
            vc = vcs[key]
            buf = vc.buffer
            head = buf[0] if buf else None
            if head is None:
                done.append(key)
                continue
            if not head.is_head:
                continue  # a header queued behind another packet's flits
            if (el, key) in connections or key in pending_by_cin:
                continue
            assert head.header is not None
            try:
                decision = self.adapter.decide(
                    el, vc.channel.src, key[1], head.header
                )
            except Exception as exc:
                from ..core.switch_logic import RoutingError

                if not isinstance(exc, RoutingError):
                    raise
                # a packet caught mid-flight by an online facility
                # reconfiguration can land in a state the new rules do
                # not produce (e.g. RC=DETOUR at a crossbar that is no
                # longer the D-XB); cut-through hardware would lose it
                self.log(f"packet {head.pid} unroutable at {el}: {exc}")
                self.kill_packet(head.pid)
                continue
            if decision.drop:
                conn = Connection(
                    pid=head.pid,
                    element=el,
                    cin=key,
                    couts=(),
                    started_at=self.cycle,
                )
                self.connections[(el, key)] = conn
                inf = self.in_flight.get(head.pid)
                if inf is not None:
                    inf.dropped = True
                self.log(f"packet {head.pid} dropped at {el}")
                done.append(key)
                continue
            wkey = (el, decision.outputs)
            wanted = self._wanted_memo.get(wkey)
            if wanted is None:
                wanted = tuple(
                    (self.topo.channel(el, out_el).cid, out_vc)
                    for out_el, out_vc in decision.outputs
                )
                self._wanted_memo[wkey] = wanted
            req = PendingRequest(
                pid=head.pid,
                element=el,
                cin=key,
                decision=decision,
                wanted=wanted,
                arrived_at=self.cycle,
            )
            self._pending_by_cin.add(key)
            done.append(key)
            if decision.serialize:
                self.serial_queues.setdefault(el, deque()).append(req)
                self._serial_active.add(el)
            else:
                self.pending.append(req)
        for key in done:
            self._route_candidates.discard(key)

    def phase_grant(self) -> None:
        # serialized grants first: FIFO, atomic, reserving the whole switch.
        # ``_serial_active`` tracks the non-empty queues, but when any is
        # active the scan walks ``serial_queues`` itself: the grant (and
        # log-line) order is the queues' insertion order, not the set's.
        if self._serial_active:
            for el, queue in self.serial_queues.items():
                if not queue:
                    continue
                req = queue[0]
                if all(self.vcs[k].owner is None for k in req.wanted):
                    queue.popleft()
                    if not queue:
                        self._serial_active.discard(el)
                    self._establish(req)
                    if self.hooks.log:
                        self.log(
                            f"S-XB {el} grants serialized multicast "
                            f"to packet {req.pid}"
                        )
        # progressive reservations, oldest request first
        blocked = self._serial_active
        remaining: List[PendingRequest] = []
        vcs = self.vcs
        for req in self.pending:
            if req.element in blocked:
                remaining.append(req)
                continue
            if req.decision.policy == "any":
                # adaptive grant: take the first free candidate this cycle
                chosen = next(
                    (k for k in req.wanted if vcs[k].owner is None),
                    None,
                )
                if chosen is None:
                    remaining.append(req)
                    continue
                vcs[chosen].owner = req.pid
                req.wanted = (chosen,)
                req.reserved.add(chosen)
                self._establish(req, owners_set=True)
                continue
            reserved = req.reserved
            complete = True
            for k in req.wanted:
                if k in reserved:
                    continue
                vc = vcs[k]
                if vc.owner is None:
                    vc.owner = req.pid
                    reserved.add(k)
                else:
                    complete = False
            if complete:
                self._establish(req, owners_set=True)
            else:
                remaining.append(req)
        self.pending = remaining
        if self.hooks.block:
            self._emit_block_events()

    def _emit_block_events(self) -> None:
        """Report every packet that failed to advance through grant this
        cycle: serialized queue members, refused progressive requests, and
        headers stuck behind another packet's flits in an input buffer.
        Runs after the grant phase so freshly granted headers are not
        counted; transfer stalls are reported from the transfer phase."""
        fns = self.hooks.block
        for el, queue in self.serial_queues.items():
            for req in queue:
                ev = BlockEvent(
                    pid=req.pid,
                    element=el,
                    wanted=req.missing or req.wanted,
                    why="serial",
                )
                for fn in fns:
                    fn(self, ev)
        for req in self.pending:
            ev = BlockEvent(
                pid=req.pid,
                element=req.element,
                wanted=req.missing or req.wanted,
                why="grant",
            )
            for fn in fns:
                fn(self, ev)
        # headers queued behind other traffic: they wait for their own
        # input channel to drain (the resource named in ``wanted``)
        for key in self._route_candidates:
            el = self._element_of_input.get(key)
            if el is None:
                continue
            for i, flit in enumerate(self.vcs[key].buffer):
                if i > 0 and flit.is_head:
                    ev = BlockEvent(
                        pid=flit.pid, element=el, wanted=(key,), why="hol"
                    )
                    for fn in fns:
                        fn(self, ev)

    def _establish(self, req: PendingRequest, owners_set: bool = False) -> None:
        if not owners_set:
            for k in req.wanted:
                self.vcs[k].owner = req.pid
        vc_in = self.vcs[req.cin]
        head = vc_in.head()
        assert head is not None and head.is_head and head.pid == req.pid
        assert head.header is not None
        # the switch rewrites the RC bit as the header passes
        new_header = head.header.with_rc(req.decision.rc)
        head.header = new_header
        conn = Connection(
            pid=req.pid,
            element=req.element,
            cin=req.cin,
            couts=req.wanted,
            started_at=self.cycle,
        )
        self.connections[(req.element, req.cin)] = conn
        self._pending_by_cin.discard(req.cin)
        self._last_progress = self.cycle
        for fn in self.hooks.grant:
            fn(self, conn)

    def phase_transfer(self) -> None:
        used_links: Set[int] = set()
        finished: List[Tuple[ElementId, Optional[VCKey]]] = []
        block_fns = self.hooks.block
        vcs = self.vcs
        pe_keys = self._pe_key_order
        eject_pending = self._eject_pending
        route_candidates = self._route_candidates
        channel_busy = self.channel_busy
        for conn_key, conn in self.connections.items():
            cin = conn.cin
            if cin is None:  # injection pseudo-connection
                supply = conn.supply
                flit = supply[0] if supply else None
            else:
                buf = vcs[cin].buffer
                flit = buf[0] if buf else None
                if flit is not None and flit.pid != conn.pid:
                    flit = None  # next packet's flits queued behind our tail
            if flit is None:
                continue
            couts = conn.couts
            # all branches must accept the flit this cycle (lockstep copy)
            ready = True
            stalled_on: Optional[VCKey] = None
            for k in couts:
                vc = vcs[k]
                if len(vc.buffer) >= vc.capacity or k[0] in used_links:
                    ready = False
                    stalled_on = k
                    break
            if not ready:
                if block_fns:
                    ev = BlockEvent(
                        pid=conn.pid,
                        element=conn.element,
                        wanted=(stalled_on,),
                        why="transfer",
                    )
                    for fn in block_fns:
                        fn(self, ev)
                continue
            if cin is None:
                conn.supply.popleft()
            else:
                buf.popleft()  # == flit: peeked and pid-checked above
            single = len(couts) == 1
            is_head = flit.is_head
            for k in couts:
                if single:
                    clone = flit  # popped: safe to move instead of copy
                else:
                    clone = SimFlit(
                        pid=flit.pid,
                        kind=flit.kind,
                        seq=flit.seq,
                        header=flit.header,
                    )
                vcs[k].buffer.append(clone)
                if is_head:
                    route_candidates.add(k)
                if k in pe_keys:
                    eject_pending.add(k)
                cid = k[0]
                used_links.add(cid)
                channel_busy[cid] = channel_busy.get(cid, 0) + 1
            self.flit_moves += 1
            self._last_progress = self.cycle
            if flit.is_tail:
                for k in couts:
                    vcs[k].owner = None
                # a header queued behind one the route phase took lost
                # its candidacy with it; this is its only way back
                if cin is not None and vcs[cin].buffer:
                    route_candidates.add(cin)
                finished.append(conn_key)
                if not couts:  # drop connection swallowed the packet
                    inf = self.in_flight.pop(conn.pid, None)
                    if inf is not None:
                        self.dropped.append(inf.packet)
        for key in finished:
            del self.connections[key]

    def phase_inject(self) -> None:
        due = self._scheduled.pop(self.cycle, None)
        if due:
            for p in due:
                p.injected_at = self.cycle
                self.send(p)
        for gen in self.generators:
            gen(self)
        for coord in list(self._nonempty_sources):
            key = self._inj_key[coord]
            vc = self.vcs[key]
            if vc.owner is not None:
                continue
            queue = self.source_queues[coord]
            packet = queue.popleft()
            if not queue:
                self._nonempty_sources.discard(coord)
            vc.owner = packet.pid
            flits: Deque[SimFlit] = deque()
            kinds = packet.flit_kinds()
            for i, kind in enumerate(kinds):
                flits.append(
                    SimFlit(
                        pid=packet.pid,
                        kind=kind,
                        seq=i,
                        header=packet.header if i == 0 else None,
                    )
                )
            conn = Connection(
                pid=packet.pid,
                element=("PE", coord),
                cin=None,
                couts=(key,),
                supply=flits,
                started_at=self.cycle,
            )
            self.connections[(("PE", coord), None)] = conn
            self.in_flight[packet.pid] = InFlightPacket(
                packet=packet,
                expected_deliveries=self.expected_deliveries(packet),
            )
            self.injected += 1
            self._last_progress = self.cycle
            if self.hooks.inject:
                for fn in self.hooks.inject:
                    fn(self, packet, coord, False)
            if self.hooks.log:
                self.log(f"packet {packet.pid} injected at PE{coord}")

    # -------------------------------------------------------------- driver
    def step(self) -> None:
        hooks = self.hooks
        if hooks.cycle_start:
            for fn in hooks.cycle_start:
                fn(self)
        if hooks.phase_end:
            self.phase_eject()
            for fn in hooks.phase_end:
                fn(self, "eject")
            self.phase_route()
            for fn in hooks.phase_end:
                fn(self, "route")
            self.phase_grant()
            for fn in hooks.phase_end:
                fn(self, "grant")
            self.phase_transfer()
            for fn in hooks.phase_end:
                fn(self, "transfer")
            self.phase_inject()
            for fn in hooks.phase_end:
                fn(self, "inject")
        else:
            self.phase_eject()
            self.phase_route()
            self.phase_grant()
            self.phase_transfer()
            self.phase_inject()
        self.cycle += 1

    def pending_work(self) -> bool:
        return bool(
            self.in_flight or self._scheduled or self._nonempty_sources
        )

    # ---------------------------------------------------- active-set driver
    def _idle(self) -> bool:
        """Nothing anywhere in the fabric can act this cycle (only a
        scheduled ``send`` or a generator wake could create work)."""
        return not (
            self.in_flight
            or self.connections
            or self.pending
            or self._serial_active
            or self._route_candidates
            or self._eject_pending
            or self._nonempty_sources
        )

    def _next_event_cycle(self, horizon: int) -> Optional[int]:
        """Earliest future cycle at which new work can appear while the
        fabric is idle, or None when some generator's wake cycle is
        unknowable (an opaque generator, or one that is active right now)
        -- in which case the caller must step cycle by cycle."""
        nxt = horizon
        for gen in self.generators:
            wake_fn = getattr(gen, "next_wake", None)
            if wake_fn is None:
                return None
            wake = wake_fn(self.cycle)
            if wake is None:
                continue
            if wake <= self.cycle:
                return None
            if wake < nxt:
                nxt = wake
        if self._scheduled:
            nxt = min(nxt, min(self._scheduled))
        return nxt

    def _stream_window(self, horizon: int) -> int:
        """Number of cycles every established connection can stream body
        flits for without crossing an observable event (a header move, a
        tail move, a grant, an ejection completing, an injection, or a
        generator wake).  0 means the window machinery does not apply and
        the engine must take an ordinary :meth:`step`.

        During such a window every connection moves exactly one body flit
        per cycle: each filled output is itself the input of a streaming
        connection (headers are all parked, so every downstream circuit is
        established), so fills and drains balance and one free slot at the
        window start stays free throughout -- buffer occupancies are
        invariant, which is what makes the bulk move order-independent.
        """
        if (
            self._route_candidates
            or self.pending
            or self._serial_active
            or self._eject_pending
            or self._nonempty_sources
            or not self.connections
        ):
            return 0
        k = horizon - self.cycle
        for gen in self.generators:
            wake_fn = getattr(gen, "next_wake", None)
            if wake_fn is None:
                return 0
            wake = wake_fn(self.cycle)
            if wake is None:
                continue
            if wake <= self.cycle:
                return 0
            k = min(k, wake - self.cycle)
        if self._scheduled:
            k = min(k, min(self._scheduled) - self.cycle)
        if k < MIN_STREAM_WINDOW:
            return 0
        drained = {
            c.cin for c in self.connections.values() if c.cin is not None
        }
        for conn in self.connections.values():
            flits = (
                conn.supply
                if conn.is_injection
                else self.vcs[conn.cin].buffer
            )
            run = flit_body_run(flits, conn.pid, k)
            if run == 0:
                return 0
            k = min(k, run)
            for key in conn.couts:
                vc = self.vcs[key]
                if key in self._pe_key_order:
                    # the PE sinks a flit per cycle; the window may not
                    # swallow a head or tail already sitting in the buffer
                    if any(not f.is_body for f in vc.buffer):
                        return 0
                else:
                    if vc.free_space <= 0:
                        return 0
                    if key not in drained:
                        # nothing drains this buffer during the window
                        k = min(k, vc.free_space)
            if k < MIN_STREAM_WINDOW:
                return 0
        # one flit per physical link per cycle: every cout must be distinct
        links = [key[0] for c in self.connections.values() for key in c.couts]
        if len(links) != len(set(links)):
            return 0
        return k

    def _advance_stream_window(self, k: int) -> None:
        """Move ``k`` body flits through every connection at once --
        exactly what ``k`` ordinary transfer phases would have done, with
        the per-flit deque churn collapsed into one bulk move."""
        for conn in self.connections.values():
            src = (
                conn.supply
                if conn.is_injection
                else self.vcs[conn.cin].buffer
            )
            moved = [src.popleft() for _ in range(k)]
            single = len(conn.couts) == 1
            for key in conn.couts:
                vc = self.vcs[key]
                if key in self._pe_key_order:
                    # the PE ejects one flit per cycle while k land: the
                    # initial content and k-1 of the newcomers drain, the
                    # last flit is still in the buffer at window end
                    self.flit_moves += len(vc.buffer) + k - 1
                    vc.buffer.clear()
                    vc.buffer.append(moved[-1])
                    self._eject_pending.add(key)
                elif single:
                    vc.buffer.extend(moved)
                else:
                    vc.buffer.extend(
                        SimFlit(pid=f.pid, kind=f.kind, seq=f.seq)
                        for f in moved
                    )
                self.channel_busy[key[0]] = (
                    self.channel_busy.get(key[0], 0) + k
                )
            self.flit_moves += k
        self.cycle += k
        self._last_progress = self.cycle - 1

    def run(
        self,
        max_cycles: Optional[int] = None,
        until_drained: bool = True,
        raise_on_deadlock: bool = False,
    ) -> SimResult:
        """Run until drained (or ``max_cycles``); returns the result.

        Detects deadlock via the stall watchdog; with ``raise_on_deadlock``
        a :class:`DeadlockError` carries the report, otherwise the result's
        ``deadlock`` field does.  With ``config.recovery`` the watchdog
        first attempts an online recovery (:meth:`_try_recover`) and only
        halts once the cycle is unbreakable or ``recovery_limit`` is
        spent.

        Unless a per-cycle hook (``cycle_start``/``phase_end``) is
        subscribed, the loop takes the active-set fast path: idle
        stretches are skipped to the next generator wake or scheduled
        send, and steady-state body-flit streams advance as bulk
        windows.  With ``config.engine == "soa"`` the batched
        :class:`~repro.sim.soa.SoAKernel` drives the cycles instead,
        handing back to the active driver on any fabric feature it does
        not vectorize (``engine_used`` / ``engine_fallback`` record the
        outcome).  Either way the results are byte-identical
        to stepping every cycle.
        """
        horizon = self.cycle + (max_cycles if max_cycles is not None else self.config.max_cycles)
        hooks = self.hooks
        soa = None
        if self.config.engine == "soa":
            soa = self._soa_kernel()
            self.engine_used = "soa"
        while self.cycle < horizon:
            if until_drained and not self.pending_work() and not self.generators:
                break
            if soa is not None:
                outcome = soa.drive(horizon, until_drained)
                if outcome == "bail":
                    self.engine_used = "active"
                    self.engine_fallback = soa.fallback_reason
                    soa = None
                    continue
                if outcome != "stalled":
                    continue
                # stalled: the kernel synced out on the exact detection
                # cycle -- fall through to the watchdog block unstepped
            else:
                if not (hooks.cycle_start or hooks.phase_end):
                    if self._idle():
                        target = self._next_event_cycle(horizon)
                        if target is not None and target > self.cycle:
                            # skipping idle cycles is not progress: the
                            # watchdog baseline must stay where the last
                            # real flit movement left it, exactly as
                            # stepping cycle by cycle would leave it
                            self.cycle = target
                            continue
                    else:
                        k = self._stream_window(horizon)
                        if k:
                            self._advance_stream_window(k)
                            continue
                self.step()
            if (
                self.in_flight
                and self.cycle - self._last_progress >= self.config.stall_limit
            ):
                if self.fabric_quiescent():
                    # nothing is moving because nothing is left in the
                    # fabric: an online reconfiguration orphaned these
                    # packets' remaining deliveries.  Account them as lost.
                    for pid in list(self.in_flight):
                        self.log(f"packet {pid} orphaned by reconfiguration")
                        self.kill_packet(pid)
                    continue
                report = self.diagnose_deadlock()
                if self.config.recovery and self._try_recover(report):
                    continue
                self.deadlock = report
                for fn in self.hooks.deadlock:
                    fn(self, self.deadlock)
                if raise_on_deadlock:
                    raise DeadlockError(self.deadlock)
                break
        return self.result()

    def _soa_kernel(self):
        """The engine's :class:`~repro.sim.soa.SoAKernel`, built lazily
        (its static topology tables survive resets and repeated runs)."""
        if self._soa is None:
            from .soa import SoAKernel

            self._soa = SoAKernel(self)
        return self._soa

    def fabric_quiescent(self) -> bool:
        """No connection, request or buffered flit anywhere."""
        return (
            not self.connections
            and not self.pending
            and not any(self.serial_queues.values())
            and all(not vc.buffer for vc in self.vcs.values())
        )

    def result(self) -> SimResult:
        return SimResult(
            cycles=self.cycle,
            delivered=list(self.delivered),
            dropped=list(self.dropped),
            deadlock=self.deadlock,
            flit_moves=self.flit_moves,
            injected=self.injected,
            channel_busy=dict(self.channel_busy),
            in_flight_at_end=len(self.in_flight),
            recoveries=self.recoveries,
            recovery_victims=tuple(self.recovery_victims),
        )

    # ------------------------------------------------------------ deadlock
    def _try_recover(self, report: DeadlockReport) -> bool:
        """Break a detected cyclic wait online (``config.recovery``).

        Picks one victim out of ``report.cycle_pids`` by the configured
        policy, drains its flits back out of the fabric (releasing every
        channel it holds, which un-blocks the rest of the cycle) and
        re-queues the original packet at its source PE -- the DBR-style
        rotate.  The packet keeps its pid and ``injected_at``, so its
        eventual latency includes the full recovery cost and fingerprints
        stay pid-stable.

        Returns False to escalate to the ordinary deadlock halt: when the
        per-run ``recovery_limit`` is exhausted, when no cycle was found,
        or when every cycle member has already reached a recipient (a
        partially-delivered broadcast cannot be rotated without
        duplicating deliveries).
        """
        if self.recoveries >= self.config.recovery_limit:
            return False
        eligible = [
            pid
            for pid in report.cycle_pids
            if pid in self.in_flight
            and self.in_flight[pid].deliveries == 0
            and not self.in_flight[pid].dropped
        ]
        if not eligible:
            return False
        pick = max if self.config.recovery_victim == "youngest" else min
        victim = pick(eligible)
        packet = self.in_flight.pop(victim).packet
        self._scrub_packet(victim)
        self.recoveries += 1
        self.recovery_victims.append(victim)
        # re-queue at the source: the next inject phase drains it back
        # into the fabric (``send`` preserves the original ``injected_at``
        # and re-fires the queued-inject hook)
        self.send(packet)
        self._last_progress = self.cycle
        event = RecoveryEvent(
            cycle=self.cycle,
            victim=victim,
            attempt=self.recoveries,
            cycle_pids=report.cycle_pids,
        )
        for fn in self.hooks.recovery:
            fn(self, event)
        if self.hooks.log:
            self.log(event.describe())
        return True

    def diagnose_deadlock(self) -> DeadlockReport:
        waits: Dict[int, Tuple[ElementId, Tuple[Channel, ...], Tuple[int, ...]]] = {}
        edges: Dict[int, Set[int]] = {}

        def note(req: PendingRequest, missing: Sequence[VCKey], holders: Sequence[int]) -> None:
            chans = tuple(self.vcs[k].channel for k in missing)
            waits[req.pid] = (req.element, chans, tuple(holders))
            edges.setdefault(req.pid, set()).update(holders)

        for req in self.pending:
            holders = []
            missing = req.missing
            for k in missing:
                owner = self.vcs[k].owner
                if owner is not None and owner != req.pid:
                    holders.append(owner)
            q = self.serial_queues.get(req.element)
            if q:
                holders.append(q[0].pid)
            note(req, missing, holders)
        for el, q in self.serial_queues.items():
            for i, req in enumerate(q):
                holders = []
                for k in req.missing:
                    owner = self.vcs[k].owner
                    if owner is not None and owner != req.pid:
                        holders.append(owner)
                if i > 0:
                    holders.append(q[0].pid)
                note(req, req.missing, holders)
        # connections stalled on a full downstream buffer whose head flit
        # belongs to another packet (its undrained tail blocks our advance)
        for conn in self.connections.values():
            for k in conn.couts:
                vc = self.vcs[k]
                if vc.free_space > 0:
                    continue
                head = vc.head()
                if head is not None and head.pid != conn.pid:
                    edges.setdefault(conn.pid, set()).add(head.pid)
                    el, chans, holders = waits.get(
                        conn.pid, (conn.element, (), ())
                    )
                    waits[conn.pid] = (
                        el,
                        chans + (vc.channel,),
                        holders + (head.pid,),
                    )
        cycle_pids = find_pid_cycle(edges)
        return DeadlockReport(
            cycle=self.cycle,
            cycle_pids=tuple(cycle_pids),
            waits=waits,
            blocked_pids=tuple(sorted(self.in_flight)),
        )


def find_pid_cycle(edges: Dict[int, Set[int]]) -> List[int]:
    """Any cycle in the packet wait-for graph (empty if none found)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    parent: Dict[int, int] = {}

    for start in edges:
        if color.get(start, WHITE) is not WHITE:
            continue
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                st = color.get(nxt, WHITE)
                if st == GRAY:
                    # nxt is an ancestor on the DFS stack: walk back to it
                    path = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        path.append(cur)
                    return list(reversed(path))
                if st == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return []
