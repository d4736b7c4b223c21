"""Per-packet spans: where every cycle of a packet's latency went.

A :class:`PacketSpan` reconstructs one packet's lifecycle from the hook
bus -- queue entry, fabric injection, per-hop grants and refusals,
delivery -- and decomposes its end-to-end latency into

* **queue wait**  -- cycles in the source queue before taking the
  injection channel;
* **blocked**     -- in-fabric cycles the packet failed to advance,
  attributed to the (crossbar, output port, vc) that refused it
  (a denied grant, head-of-line wait behind another packet, or a
  transfer stalled on a full downstream buffer);
* **S-XB wait**   -- blocked cycles an RC=1/2 broadcast spent in a
  serialization queue (the paper's Fig. 6 cost);
* **transfer**    -- the cycles the packet actually moved.

The decomposition satisfies an exact accounting identity::

    queue_wait + blocked_total + sxb_wait + transfer == latency

For unicasts on the MD crossbar the span also carries the *fault-free
dimension-order* cost of the same (source, dest) pair, so
``detour_overhead = transfer - base_transfer`` isolates the extra hops a
fault detour added (zero on a fault-free network -- a property the tests
pin, which also proves every stalled cycle was attributed somewhere).

Spans are plain dataclasses over builtins: picklable, and merged across
sweep points/processes in spec order like :class:`MetricSet` -- packet
ids are rebased to the smallest id seen so serial and parallel sweeps
serialize byte-identically.

The same reconstruction runs live (:class:`PacketSpanCollector` on the
hook bus) or offline from a JSONL trace (:func:`spans_from_trace`), both
through one :class:`SpanBuilder` state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.packet import RC
from ..sim.engine import BlockEvent, CycleEngine
from ..topology.base import element_label
from .collectors import Collector
from .metrics import LATENCY_BUCKETS, MetricSet
from .trace import labels_for

#: RC values that make a packet a broadcast for span purposes
_BROADCAST_RCS = (int(RC.BROADCAST_REQUEST), int(RC.BROADCAST))


@dataclass
class PacketSpan:
    """One packet's reconstructed lifecycle (all fields are builtins)."""

    pid: int
    source: Tuple[int, ...]
    dest: Tuple[int, ...]
    rc: int
    length: int
    queued_at: int
    injected_at: Optional[int] = None
    delivered_at: Optional[int] = None
    #: deliveries this packet owed / made (fanout for broadcasts)
    expected: int = 0
    deliveries: int = 0
    #: refusing (crossbar, port, vc) label -> blocked cycles
    blocked: Dict[str, int] = field(default_factory=dict)
    #: cycles waiting in an S-XB serialization queue (broadcasts only)
    sxb_wait: int = 0
    #: fault-free dimension-order cost (hops + length); None when the
    #: baseline is not computable (broadcasts, non-MD topologies)
    base_transfer: Optional[int] = None

    @property
    def is_broadcast(self) -> bool:
        return self.rc in _BROADCAST_RCS

    @property
    def completed(self) -> bool:
        return self.delivered_at is not None

    @property
    def queue_wait(self) -> Optional[int]:
        if self.injected_at is None:
            return None
        return self.injected_at - self.queued_at

    @property
    def latency(self) -> Optional[int]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.queued_at

    @property
    def blocked_total(self) -> int:
        return sum(self.blocked.values())

    @property
    def transfer(self) -> Optional[int]:
        """In-fabric cycles the packet was actually moving."""
        if self.delivered_at is None or self.injected_at is None:
            return None
        return (
            self.delivered_at
            - self.injected_at
            - self.blocked_total
            - self.sxb_wait
        )

    @property
    def detour_overhead(self) -> Optional[int]:
        if self.base_transfer is None or self.transfer is None:
            return None
        return self.transfer - self.base_transfer

    def components(self) -> Optional[Dict[str, int]]:
        """The additive latency decomposition (None until delivered)."""
        if self.delivered_at is None or self.injected_at is None:
            return None
        return {
            "queue_wait": self.queue_wait,
            "blocked": self.blocked_total,
            "sxb_wait": self.sxb_wait,
            "transfer": self.transfer,
        }

    def to_dict(self) -> Dict:
        return {
            "pid": self.pid,
            "src": list(self.source),
            "dst": list(self.dest),
            "rc": self.rc,
            "length": self.length,
            "queued_at": self.queued_at,
            "injected_at": self.injected_at,
            "delivered_at": self.delivered_at,
            "expected": self.expected,
            "deliveries": self.deliveries,
            "blocked": {k: self.blocked[k] for k in sorted(self.blocked)},
            "sxb_wait": self.sxb_wait,
            "base_transfer": self.base_transfer,
            "detour_overhead": self.detour_overhead,
        }


@dataclass
class SpanSet:
    """A bag of spans from one run (or a merge of many runs).

    ``spans`` hold completed packets in delivery order; ``incomplete``
    holds packets still queued, in flight, dropped or deadlocked when the
    run ended -- their blocked cycles still feed the attribution table
    (a deadlocked packet's refused ports are the interesting ones).
    """

    spans: List[PacketSpan] = field(default_factory=list)
    incomplete: List[PacketSpan] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.spans) + len(self.incomplete)

    def rebased(self) -> "SpanSet":
        """Copy with pids rebased to the smallest pid seen, so span sets
        from different processes serialize identically (pids are a
        process-global counter)."""
        pids = [s.pid for s in self.spans] + [s.pid for s in self.incomplete]
        if not pids:
            return SpanSet()
        base = min(pids)
        return SpanSet(
            spans=[replace(s, pid=s.pid - base, blocked=dict(s.blocked)) for s in self.spans],
            incomplete=[
                replace(s, pid=s.pid - base, blocked=dict(s.blocked))
                for s in self.incomplete
            ],
        )

    # ---------------------------------------------------------- aggregates
    def blocked_by_port(self, include_incomplete: bool = True) -> Dict[str, int]:
        """Total blocked cycles per refusing (crossbar, port, vc) label."""
        out: Dict[str, int] = {}
        pools: Tuple[List[PacketSpan], ...] = (
            (self.spans, self.incomplete) if include_incomplete else (self.spans,)
        )
        for pool in pools:
            for span in pool:
                for label, n in span.blocked.items():
                    out[label] = out.get(label, 0) + n
        return out

    def top_blocked(self, k: int = 10) -> List[Tuple[str, int]]:
        """The ``k`` most-refusing ports, ties broken by label."""
        items = self.blocked_by_port().items()
        return sorted(items, key=lambda kv: (-kv[1], kv[0]))[:k]

    def sxb_waits(self) -> List[int]:
        """Per-broadcast S-XB serialization waits (completed spans)."""
        return [s.sxb_wait for s in self.spans if s.is_broadcast]

    def totals(self) -> Dict[str, int]:
        """Summed decomposition over completed spans."""
        out = {
            "packets": len(self.spans),
            "incomplete": len(self.incomplete),
            "queue_wait": 0,
            "blocked": 0,
            "sxb_wait": 0,
            "transfer": 0,
            "latency": 0,
            "detour_overhead": 0,
            "detoured_packets": 0,
        }
        for s in self.spans:
            out["queue_wait"] += s.queue_wait
            out["blocked"] += s.blocked_total
            out["sxb_wait"] += s.sxb_wait
            out["transfer"] += s.transfer
            out["latency"] += s.latency
            over = s.detour_overhead
            if over is not None and over > 0:
                out["detour_overhead"] += over
                out["detoured_packets"] += 1
        return out

    def metrics(self) -> MetricSet:
        """Span aggregates as a mergeable :class:`MetricSet`."""
        ms = MetricSet()
        ms.counter("spans_completed").inc(len(self.spans))
        ms.counter("spans_incomplete").inc(len(self.incomplete))
        qw = ms.histogram("span_queue_wait", LATENCY_BUCKETS)
        sxb = ms.histogram("span_sxb_wait", LATENCY_BUCKETS)
        blocked = ms.labeled("span_blocked_cycles")
        detour = ms.counter("span_detour_overhead_cycles")
        for s in self.spans:
            qw.observe(s.queue_wait)
            if s.is_broadcast:
                sxb.observe(s.sxb_wait)
            over = s.detour_overhead
            if over is not None and over > 0:
                detour.inc(over)
        for label, n in sorted(self.blocked_by_port().items()):
            blocked.inc(label, n)
        return ms

    def to_dict(self) -> Dict:
        """Deterministic JSON-clean form (same input -> same bytes)."""
        return {
            "totals": self.totals(),
            "spans": [s.to_dict() for s in self.spans],
            "incomplete": [s.to_dict() for s in self.incomplete],
        }


def merge_span_sets(sets: Iterable[Optional[SpanSet]]) -> SpanSet:
    """Fold many span sets into one, in the given (spec) order.

    ``None`` entries (points run without span collection) are skipped.
    Each input should already be :meth:`SpanSet.rebased`; merged output
    is then byte-identical whether the points ran serially or in a
    process pool.
    """
    out = SpanSet()
    for ss in sets:
        if ss is None:
            continue
        out.spans.extend(ss.spans)
        out.incomplete.extend(ss.incomplete)
    return out


class SpanBuilder:
    """Event-driven span reconstruction, shared by the live collector and
    the trace replay.

    Feed it ``queued`` / ``injected`` / ``granted`` / ``blocked`` /
    ``delivered`` events (cycle-ordered, as the engine emits them) and
    collect the result with :meth:`snapshot`.

    Blocked-cycle semantics: a packet accrues at most **one** blocked
    cycle per simulated cycle, classified by the *first* block event the
    engine reports for it that cycle (the engine orders serialization
    waits before refused grants before head-of-line waits before transfer
    stalls).  Transfer stalls of a unicast are attributed only when they
    stall the packet's *newest* connection -- a body flit queuing behind
    its own head is progress already accounted for.
    """

    def __init__(
        self,
        out_label: Callable[[int, int], str],
        base_transfer: Optional[Callable[[Tuple[int, ...], Tuple[int, ...]], Optional[int]]] = None,
    ) -> None:
        self._out_label = out_label
        self._base_transfer = base_transfer
        self._open: Dict[int, PacketSpan] = {}
        self._frontier: Dict[int, str] = {}
        self._last_block: Dict[int, int] = {}
        self.completed: List[PacketSpan] = []

    def queued(
        self,
        pid: int,
        cycle: int,
        source: Tuple[int, ...],
        dest: Tuple[int, ...],
        rc: int,
        length: int,
    ) -> None:
        if pid in self._open:
            return
        span = PacketSpan(
            pid=pid,
            source=tuple(source),
            dest=tuple(dest),
            rc=int(rc),
            length=length,
            queued_at=cycle,
        )
        if self._base_transfer is not None and span.rc not in _BROADCAST_RCS:
            hops = self._base_transfer(span.source, span.dest)
            if hops is not None:
                span.base_transfer = hops + length
        self._open[pid] = span

    def injected(
        self, pid: int, cycle: int, expected: int, pe_label: str
    ) -> None:
        span = self._open.get(pid)
        if span is None:
            return
        span.injected_at = cycle
        span.expected = expected
        self._frontier[pid] = pe_label

    def granted(self, pid: int, element: str) -> None:
        if pid in self._open:
            self._frontier[pid] = element

    def blocked(
        self, pid: int, cycle: int, why: str, element: str, out: str
    ) -> None:
        span = self._open.get(pid)
        if span is None or span.injected_at is None:
            return
        if self._last_block.get(pid) == cycle:
            return
        if (
            why == "transfer"
            and not span.is_broadcast
            and element != self._frontier.get(pid)
        ):
            return
        self._last_block[pid] = cycle
        if why == "serial" and span.is_broadcast:
            span.sxb_wait += 1
        else:
            span.blocked[out] = span.blocked.get(out, 0) + 1

    def delivered(self, pid: int, cycle: int, done: bool) -> None:
        span = self._open.get(pid)
        if span is None:
            return
        span.deliveries += 1
        if done:
            span.delivered_at = cycle
            self.completed.append(span)
            del self._open[pid]
            self._frontier.pop(pid, None)
            self._last_block.pop(pid, None)

    def snapshot(self) -> SpanSet:
        """The spans reconstructed so far; still-open packets (queued, in
        flight, dropped, deadlocked) are copied into ``incomplete``."""
        return SpanSet(
            spans=[replace(s, blocked=dict(s.blocked)) for s in self.completed],
            incomplete=[
                replace(s, blocked=dict(s.blocked))
                for s in self._open.values()
            ],
        )


def dor_base_transfer(topo) -> Callable:
    """Fault-free dimension-order hop cost on an MD-crossbar topology.

    The returned callable maps ``(source, dest)`` to the channel count of
    the fault-free route (PE->RTR and RTR->PE links included), memoized.
    Callers gate on whether a DOR baseline makes sense for their network
    (the span collector checks the adapter carries switch logic).
    """
    from ..topology.mdcrossbar import MDCrossbar

    cache: Dict[Tuple, Optional[int]] = {}
    #: the fault-free switch logic, built only if the analytic shortcut
    #: does not apply (construction is a measurable cost at attach time)
    state: Dict[str, object] = {}
    analytic = isinstance(topo, MDCrossbar)

    def full(src: Tuple[int, ...], dst: Tuple[int, ...]) -> Optional[int]:
        from ..core import SwitchLogic, make_config
        from ..core.routes import Unicast, compute_route

        if "logic" not in state:
            state["logic"] = SwitchLogic(topo, make_config(topo.shape))
        try:
            tree = compute_route(topo, state["logic"], Unicast(src, dst))
            return len(tree.path_to(dst))
        except Exception:
            return None

    def base(src: Tuple[int, ...], dst: Tuple[int, ...]) -> Optional[int]:
        key = (src, dst)
        if key not in cache:
            if analytic and src != dst:
                # fault-free dimension-order on the MD crossbar crosses
                # PE->RTR, (RTR->XB, XB->RTR) per differing dimension,
                # RTR->PE: 2 + 2*d_diff channels.  Exactly what
                # ``compute_route`` counts (pinned by tests), without
                # building the route tree per (source, dest) pair.
                cache[key] = 2 + 2 * sum(
                    1 for a, b in zip(src, dst) if a != b
                )
            else:
                cache[key] = full(src, dst)
        return cache[key]

    return base


class PacketSpanCollector(Collector):
    """Live span reconstruction on the hook bus.

    Attaching never changes the simulation (fingerprint-parity is pinned
    by tests); ``span_set()`` returns the reconstruction at any point,
    and :meth:`detach` freezes it.
    """

    def __init__(self, dor_baseline: bool = True) -> None:
        self._dor_baseline = dor_baseline
        self._engine: Optional[CycleEngine] = None
        self._builder: Optional[SpanBuilder] = None
        self._frozen: Optional[SpanSet] = None

    def attach(self, engine: CycleEngine) -> "PacketSpanCollector":
        self._engine = engine
        base = None
        if self._dor_baseline and getattr(engine.adapter, "logic", None) is not None:
            base = dor_base_transfer(engine.topo)

        # the label vocabularies are tiny and hit on every hook event:
        # the rendered strings are memoised once per topology, shared
        # with the trace recorder
        labels = labels_for(engine.topo)
        self._label = labels.port
        self._elabel = labels.element
        self._builder = SpanBuilder(out_label=self._label, base_transfer=base)
        engine.hooks.on_inject(self._on_inject)
        engine.hooks.on_grant(self._on_grant)
        engine.hooks.on_block(self._on_block)
        engine.hooks.on_deliver(self._on_deliver)
        return self

    def _hooks(self):
        return (self._on_inject, self._on_grant, self._on_block, self._on_deliver)

    def detach(self, engine: CycleEngine) -> None:
        self._frozen = self.span_set()
        super().detach(engine)

    # -------------------------------------------------------------- hooks
    def _on_inject(self, engine: CycleEngine, packet, coord, queued: bool) -> None:
        if queued:
            self._builder.queued(
                packet.pid,
                packet.injected_at,
                packet.source,
                packet.dest,
                int(packet.header.rc),
                packet.length,
            )
        else:
            self._builder.injected(
                packet.pid,
                engine.cycle,
                engine.expected_deliveries(packet),
                self._elabel(("PE", coord)),
            )

    def _on_grant(self, engine: CycleEngine, conn) -> None:
        self._builder.granted(conn.pid, self._elabel(conn.element))

    def _on_block(self, engine: CycleEngine, ev: BlockEvent) -> None:
        cid, vc = ev.wanted[0]
        self._builder.blocked(
            ev.pid,
            engine.cycle,
            ev.why,
            self._elabel(ev.element),
            self._label(cid, vc),
        )

    def _on_deliver(self, packet, coord, cycle: int) -> None:
        inf = self._engine.in_flight.get(packet.pid)
        self._builder.delivered(
            packet.pid, cycle, done=(inf is None or inf.done)
        )

    # ------------------------------------------------------------- results
    def span_set(self) -> SpanSet:
        if self._frozen is not None:
            return self._frozen
        if self._builder is None:
            return SpanSet()
        return self._builder.snapshot()

    def metrics(self) -> MetricSet:
        return self.span_set().metrics()


def spans_from_trace(header: Dict, records: List[Dict]) -> SpanSet:
    """Rebuild a :class:`SpanSet` from a schema >= 2 JSONL trace.

    Needs the ``inject``, ``block``, ``grant`` and ``deliver`` event
    kinds in the trace; the fault-free dimension-order baseline is
    recomputed from the header's topology/shape when possible.
    """
    base = None
    if header.get("topology") == "MDCrossbar" and header.get("shape"):
        from ..topology import MDCrossbar

        base = dor_base_transfer(MDCrossbar(tuple(header["shape"])))
    builder = SpanBuilder(out_label=lambda cid, vc: f"ch{cid}:vc{vc}", base_transfer=base)
    for rec in records:
        kind = rec.get("kind")
        if kind == "inject":
            pid = rec["pid"]
            builder.queued(
                pid,
                rec["queued_at"],
                tuple(rec["src"]),
                tuple(rec["dst"]),
                rec["rc"],
                rec["length"],
            )
            builder.injected(
                pid,
                rec["cycle"],
                rec["expect"],
                element_label(("PE", tuple(rec["at"]))),
            )
        elif kind == "grant":
            builder.granted(rec["pid"], rec["element"])
        elif kind == "block":
            builder.blocked(
                rec["pid"],
                rec["cycle"],
                rec["why"],
                rec["element"],
                rec["out"],
            )
        elif kind == "deliver":
            pid = rec["pid"]
            span = builder._open.get(pid)
            done = span is not None and span.deliveries + 1 >= span.expected
            builder.delivered(pid, rec["cycle"], done)
    return builder.snapshot()
