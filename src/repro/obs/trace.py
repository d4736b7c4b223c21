"""Structured, schema-versioned event tracing over the hook bus.

:class:`TraceRecorder` subscribes to the engine's events and turns each
into a plain dict record.  Records go to an optional JSONL ``sink``
(one JSON object per line, written as events happen) and into a bounded
in-memory buffer for post-mortem queries.  The first record of a sink is
always the schema header, so a trace file is self-describing::

    {"kind": "trace_header", "schema": 2, "shape": [4, 3], ...}
    {"kind": "inject", "cycle": 0, "pid": 7, "at": [0, 0], ...}
    {"kind": "grant", "cycle": 2, "pid": 7, "element": "XB0(0,)", ...}
    {"kind": "block", "cycle": 3, "pid": 8, "out": "XB0(0,):p2:vc0", ...}
    {"kind": "deliver", "cycle": 9, "pid": 7, "at": [3, 2], "latency": 9}
    {"kind": "log", "cycle": 0, "message": "packet 7 injected at PE(0, 0)"}

Record kinds and their extra fields (schema version 3):

========== ==============================================================
kind       fields
========== ==============================================================
``inject``   ``pid``, ``at`` (source PE), ``src``, ``dst``, ``rc``,
             ``length``, ``expect`` (deliveries owed), ``queued_at``
             (cycle the packet entered the source queue); emitted when
             the packet takes the injection channel into the fabric
``grant``    ``pid``, ``element``, ``input`` (input channel cid or
             None for injections), ``outputs`` (list of [cid, vc] pairs)
``block``    ``pid``, ``element``, ``why`` (one of
             :data:`repro.sim.BLOCK_KINDS`), ``out`` (the refusing
             (crossbar, port, vc) label), ``key`` ([cid, vc] of the
             refused channel)
``deliver``  ``pid``, ``at`` (PE coordinate), ``latency`` (cycles since
             injection, None if unknown)
``deadlock`` ``cycle_pids`` (the cyclic wait), ``blocked`` (all in-flight
             pids)
``recovery`` ``victim`` (the pid rotated out of the fabric), ``attempt``
             (1-based recovery count), ``cycle_pids`` (the cyclic wait
             that was broken)
``log``      ``message`` (the engine's event-log line)
``phase``    ``phase`` (only when ``phases=True``; high volume)
========== ==============================================================

Schema history: version 2 added the ``inject`` and ``block`` kinds;
version 3 added the ``recovery`` kind (online deadlock recovery).  Older
traces read fine -- they just lack those records.

The old :class:`~repro.sim.monitor.TextTrace` rides on this recorder now:
it is a log-only recorder plus the legacy ``(cycle, message)`` rendering.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Deque, Dict, IO, List, NamedTuple, Optional, Sequence, Tuple

from ..sim.engine import BlockEvent, CycleEngine, DeadlockReport
from ..sim.fabric import Connection
from ..topology.base import element_label, output_port_map, port_label
from .telemetry import _encode, _read_jsonl

#: bump when a record kind gains/loses/renames a field
TRACE_SCHEMA_VERSION = 3

#: schema versions :func:`read_trace` understands
READABLE_SCHEMA_VERSIONS: Tuple[int, ...] = (1, 2, 3)

#: every subscribable record kind
EVENT_KINDS: Tuple[str, ...] = (
    "inject",
    "grant",
    "block",
    "deliver",
    "deadlock",
    "recovery",
    "log",
    "phase",
)


class _Encoded(dict):
    """String -> its JSON encoding, filled on first use."""

    def __missing__(self, text: str) -> str:
        out = self[text] = _encode(text)
        return out


class Labels:
    """The element and output-port labels of one topology, rendered once.

    :meth:`element` and :meth:`port` return the label strings trace
    records and packet spans key on; :attr:`json` maps each string to
    its JSON encoding, so a line writer splices a label without encoding
    it again.  One instance per topology (:func:`labels_for`) serves the
    trace recorder and the span collector alike.
    """

    def __init__(self, topo) -> None:
        # weak: the memo is a value of ``_labels``, keyed weakly by topo
        self._topo = weakref.ref(topo)
        self._ports: Optional[Dict] = None
        self._elements: Dict = {}
        self._outs: Dict[Tuple[int, Optional[int]], str] = {}
        self.json: Dict[str, str] = _Encoded()

    def element(self, el) -> str:
        label = self._elements.get(el)
        if label is None:
            label = self._elements[el] = element_label(el)
        return label

    def port(self, cid: int, vc: Optional[int]) -> str:
        key = (cid, vc)
        label = self._outs.get(key)
        if label is None:
            if self._ports is None:
                self._ports = output_port_map(self._topo())
            label = self._outs[key] = port_label(self._ports, cid, vc)
        return label


#: a topology's labels are a function of its (construction-time) graph
#: alone, so sharing one memo per topology changes nothing but speed
_labels: "weakref.WeakKeyDictionary[object, Labels]" = weakref.WeakKeyDictionary()


def labels_for(topo) -> Labels:
    """The :class:`Labels` of ``topo``, shared by every observer of it."""
    labels = _labels.get(topo)
    if labels is None:
        labels = _labels[topo] = Labels(topo)
    return labels


# One line writer per high-volume record kind: an f-string over the dict
# the recorder keeps, byte-identical to ``_encode(record) + "\n"`` (the
# writer law in tests/obs/test_trace.py).  Every value they splice is an
# int, None, or a string from ``js`` (a :attr:`Labels.json`).
def _ints(xs) -> str:
    return "[" + ",".join(map(str, xs)) + "]"


def _opt(v) -> str:
    return "null" if v is None else str(v)


def _inject_line(r: Dict, js: Dict[str, str]) -> str:
    return (
        f'{{"kind":"inject","cycle":{r["cycle"]},"pid":{r["pid"]},'
        f'"at":{_ints(r["at"])},"src":{_ints(r["src"])},'
        f'"dst":{_ints(r["dst"])},"rc":{r["rc"]},"length":{r["length"]},'
        f'"expect":{r["expect"]},"queued_at":{_opt(r["queued_at"])}}}\n'
    )


def _grant_line(r: Dict, js: Dict[str, str]) -> str:
    outputs = ",".join(f"[{cid},{vc}]" for cid, vc in r["outputs"])
    return (
        f'{{"kind":"grant","cycle":{r["cycle"]},"pid":{r["pid"]},'
        f'"element":{js[r["element"]]},"input":{_opt(r["input"])},'
        f'"outputs":[{outputs}]}}\n'
    )


def _block_line(r: Dict, js: Dict[str, str]) -> str:
    cid, vc = r["key"]
    return (
        f'{{"kind":"block","cycle":{r["cycle"]},"pid":{r["pid"]},'
        f'"element":{js[r["element"]]},"why":{js[r["why"]]},'
        f'"out":{js[r["out"]]},"key":[{cid},{vc}]}}\n'
    )


def _deliver_line(r: Dict, js: Dict[str, str]) -> str:
    return (
        f'{{"kind":"deliver","cycle":{r["cycle"]},"pid":{r["pid"]},'
        f'"at":{_ints(r["at"])},"latency":{_opt(r["latency"])}}}\n'
    )


def _any_line(r: Dict, js: Dict[str, str]) -> str:
    return _encode(r) + "\n"


class TraceRecorder:
    """Capture engine events as structured records.

    ``events`` picks the record kinds to subscribe (default: everything
    except the high-volume ``phase`` records); ``sink`` is any writable
    text file-like for JSONL output; ``limit`` bounds the in-memory
    buffer (None keeps everything).
    """

    def __init__(
        self,
        events: Sequence[str] = (
            "inject",
            "grant",
            "block",
            "deliver",
            "deadlock",
            "recovery",
            "log",
        ),
        sink: Optional[IO[str]] = None,
        limit: Optional[int] = 10_000,
    ) -> None:
        unknown = set(events) - set(EVENT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown trace events {sorted(unknown)}; "
                f"choose from {list(EVENT_KINDS)}"
            )
        self.events = tuple(events)
        self.sink = sink
        self.records: Deque[Dict] = deque(maxlen=limit)
        self._engine: Optional[CycleEngine] = None
        self._labels: Optional[Labels] = None

    # -- lifecycle --------------------------------------------------------
    def attach(self, engine: CycleEngine) -> "TraceRecorder":
        self._engine = engine
        self._labels = labels_for(engine.topo)
        if self.sink is not None:
            self.sink.write(_encode(self.header(engine)) + "\n")
        hooks = engine.hooks
        if "inject" in self.events:
            hooks.on_inject(self._on_inject)
        if "grant" in self.events:
            hooks.on_grant(self._on_grant)
        if "block" in self.events:
            hooks.on_block(self._on_block)
        if "deliver" in self.events:
            hooks.on_deliver(self._on_deliver)
        if "deadlock" in self.events:
            hooks.on_deadlock(self._on_deadlock)
        if "recovery" in self.events:
            hooks.on_recovery(self._on_recovery)
        if "log" in self.events:
            hooks.on_log(self._on_log)
        if "phase" in self.events:
            hooks.on_phase_end(self._on_phase_end)
        return self

    def detach(self) -> None:
        if self._engine is not None:
            for fn in (
                self._on_inject,
                self._on_grant,
                self._on_block,
                self._on_deliver,
                self._on_deadlock,
                self._on_recovery,
                self._on_log,
                self._on_phase_end,
            ):
                self._engine.hooks.unsubscribe(fn)
            self._engine = None

    @staticmethod
    def header(engine: CycleEngine) -> Dict:
        return {
            "kind": "trace_header",
            "schema": TRACE_SCHEMA_VERSION,
            "shape": list(engine.topo.shape),
            "topology": type(engine.topo).__name__,
            "start_cycle": engine.cycle,
        }

    # -- event handlers ---------------------------------------------------
    def _emit(self, record: Dict, line=_any_line) -> None:
        self.records.append(record)
        if self.sink is not None:
            self.sink.write(line(record, self._labels.json))

    def _on_inject(
        self, engine: CycleEngine, packet, coord, queued: bool
    ) -> None:
        if queued:
            return  # only fabric entries are recorded; queue-entry time
            # travels on the record as ``queued_at``
        self._emit(
            {
                "kind": "inject",
                "cycle": engine.cycle,
                "pid": packet.pid,
                "at": list(coord),
                "src": list(packet.source),
                "dst": list(packet.dest),
                "rc": int(packet.header.rc),
                "length": packet.length,
                "expect": engine.expected_deliveries(packet),
                "queued_at": packet.injected_at,
            },
            _inject_line,
        )

    def _on_block(self, engine: CycleEngine, ev: BlockEvent) -> None:
        cid, vc = ev.wanted[0]
        labels = self._labels
        self._emit(
            {
                "kind": "block",
                "cycle": engine.cycle,
                "pid": ev.pid,
                "element": labels.element(ev.element),
                "why": ev.why,
                "out": labels.port(cid, vc),
                "key": [cid, vc],
            },
            _block_line,
        )

    def _on_grant(self, engine: CycleEngine, conn: Connection) -> None:
        self._emit(
            {
                "kind": "grant",
                "cycle": engine.cycle,
                "pid": conn.pid,
                "element": self._labels.element(conn.element),
                "input": None if conn.cin is None else conn.cin[0],
                "outputs": [[cid, vc] for cid, vc in conn.couts],
            },
            _grant_line,
        )

    def _on_deliver(self, packet, coord, cycle) -> None:
        self._emit(
            {
                "kind": "deliver",
                "cycle": cycle,
                "pid": packet.pid,
                "at": list(coord),
                "latency": None
                if packet.injected_at is None
                else cycle - packet.injected_at,
            },
            _deliver_line,
        )

    def _on_deadlock(self, engine: CycleEngine, report: DeadlockReport) -> None:
        self._emit(
            {
                "kind": "deadlock",
                "cycle": report.cycle,
                "cycle_pids": list(report.cycle_pids),
                "blocked": list(report.blocked_pids),
            }
        )

    def _on_recovery(self, engine: CycleEngine, event) -> None:
        self._emit(
            {
                "kind": "recovery",
                "cycle": event.cycle,
                "victim": event.victim,
                "attempt": event.attempt,
                "cycle_pids": list(event.cycle_pids),
            }
        )

    def _on_log(self, cycle: int, message: str) -> None:
        self._emit({"kind": "log", "cycle": cycle, "message": message})

    def _on_phase_end(self, engine: CycleEngine, phase: str) -> None:
        self._emit({"kind": "phase", "cycle": engine.cycle, "phase": phase})

    # -- queries ----------------------------------------------------------
    def of_kind(self, kind: str) -> List[Dict]:
        return [r for r in self.records if r["kind"] == kind]

    def __len__(self) -> int:
        return len(self.records)


class TraceData(NamedTuple):
    """What :func:`read_trace` returns."""

    header: Optional[Dict]
    records: List[Dict]
    #: skipped lines: ``{"line": 1-based number, "error": ..., "text": ...}``
    malformed: List[Dict]


def read_trace(lines, strict: bool = False) -> TraceData:
    """Parse a JSONL trace: returns ``(header, records, malformed)``.

    ``lines`` is any iterable of strings (an open file,
    ``text.splitlines()``...).  Unparseable lines -- typically a
    truncated tail after an interrupted run -- are skipped and reported
    in ``malformed`` instead of aborting the read; pass ``strict=True``
    to raise on the first one.  A header from a schema this reader does
    not know always raises ``ValueError`` (that is a wrong *format*, not
    a damaged file).
    """
    return TraceData(
        *_read_jsonl(
            lines, strict, "trace_header", READABLE_SCHEMA_VERSIONS, "trace"
        )
    )
