"""Structured trace tests: schema-versioned JSONL capture over the hook
bus, the reader's schema check, and the TextTrace compatibility layer."""

import io
import json

import pytest

from repro.core import RC, Fault, Header, Packet
from repro.core.config import DetourScheme
from repro.obs import (
    EVENT_KINDS,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    read_trace,
)
from repro.obs.telemetry import _encode
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig, TextTrace
from repro.sim.engine import PHASES
from repro.topology import MDCrossbar
from repro.traffic import BernoulliInjector, BroadcastInjector, uniform
from tests.conftest import make_logic


def make_sim(topo, **kw):
    return NetworkSimulator(
        MDCrossbarAdapter(make_logic(topo, **kw)), SimConfig(stall_limit=500)
    )


def traced_run(topo, **recorder_kw):
    sim = make_sim(topo)
    rec = TraceRecorder(**recorder_kw).attach(sim)
    pkt = Packet(Header(source=(0, 0), dest=(3, 2)), length=4)
    sim.send(pkt)
    res = sim.run()
    return sim, res, rec, pkt


class TestRecorder:
    def test_default_events_cover_a_unicast(self, topo43):
        _, res, rec, pkt = traced_run(topo43)
        kinds = {r["kind"] for r in rec.records}
        assert kinds == {"inject", "grant", "deliver", "log"}
        (deliver,) = rec.of_kind("deliver")
        assert deliver["pid"] == pkt.pid
        assert deliver["at"] == [3, 2]
        assert deliver["latency"] == pkt.latency

    def test_grant_records_name_the_element(self, topo43):
        _, _, rec, _ = traced_run(topo43)
        grants = rec.of_kind("grant")
        assert grants
        for g in grants:
            assert g["element"]
            assert g["input"] is None or isinstance(g["input"], int)
            assert all(
                isinstance(cid, int) and isinstance(vc, int)
                for cid, vc in g["outputs"]
            )

    def test_phase_records_opt_in(self, topo43):
        _, res, rec, _ = traced_run(topo43, events=("phase",))
        assert len(rec.of_kind("phase")) == res.cycles * len(PHASES)

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(events=("grant", "bogus"))
        assert "bogus" not in EVENT_KINDS

    def test_buffer_is_bounded(self, topo43):
        _, _, rec, _ = traced_run(topo43, limit=3)
        assert len(rec) == 3


class TestJsonlSink:
    def test_sink_starts_with_schema_header(self, topo43):
        sink = io.StringIO()
        _, _, rec, _ = traced_run(topo43, sink=sink)
        lines = sink.getvalue().splitlines()
        first = json.loads(lines[0])
        assert first["kind"] == "trace_header"
        assert first["schema"] == TRACE_SCHEMA_VERSION
        assert first["shape"] == [4, 3]
        # every line is one standalone JSON object
        assert len(lines) == 1 + len(rec.records)
        for line in lines:
            assert json.loads(line)

    def test_read_trace_roundtrip(self, topo43):
        sink = io.StringIO()
        _, _, rec, _ = traced_run(topo43, sink=sink)
        header, records, malformed = read_trace(sink.getvalue().splitlines())
        assert header["topology"] == "MDCrossbar"
        assert records == list(rec.records)
        assert malformed == []

    def test_read_trace_rejects_unknown_schema(self):
        bad = json.dumps({"kind": "trace_header", "schema": 999})
        with pytest.raises(ValueError):
            read_trace([bad])

    def test_read_trace_accepts_schema_1(self):
        lines = [
            json.dumps({"kind": "trace_header", "schema": 1, "shape": [4, 3]}),
            json.dumps({"kind": "deliver", "cycle": 9, "pid": 0}),
        ]
        header, records, malformed = read_trace(lines)
        assert header["schema"] == 1
        assert len(records) == 1 and malformed == []


class TestMalformedLines:
    def test_truncated_tail_is_skipped_and_reported(self, topo43):
        """An interrupted run leaves a half-written last line; the read
        keeps everything before it and reports the damage."""
        sink = io.StringIO()
        _, _, rec, _ = traced_run(topo43, sink=sink)
        text = sink.getvalue() + '{"kind": "deliver", "cyc'  # no newline
        header, records, malformed = read_trace(text.splitlines())
        assert header is not None
        assert records == list(rec.records)
        assert len(malformed) == 1
        bad = malformed[0]
        assert bad["line"] == len(text.splitlines())
        assert bad["text"].startswith('{"kind": "deliver"')
        assert "error" in bad

    def test_non_object_line_is_reported(self):
        _, records, malformed = read_trace(["[1, 2, 3]", '{"kind": "log"}'])
        assert len(records) == 1
        assert malformed[0]["error"] == "not a JSON object"

    def test_blank_lines_are_not_malformed(self):
        _, records, malformed = read_trace(["", "  ", '{"kind": "log"}'])
        assert len(records) == 1 and malformed == []

    def test_strict_mode_raises_on_first_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            read_trace(['{"trunc', '{"kind": "log"}'], strict=True)
        with pytest.raises(ValueError, match="not a JSON object"):
            read_trace(["42"], strict=True)


class TestTextTraceCompatibility:
    def test_attach_via_hook_bus(self, topo43):
        sim = make_sim(topo43)
        trace = TextTrace(100).attach(sim)
        sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
        sim.run()
        assert trace.matching("injected")
        assert trace.matching("completed")

    def test_rides_on_the_structured_recorder(self, topo43):
        sim = make_sim(topo43)
        trace = TextTrace(100).attach(sim)
        sim.send(Packet(Header(source=(0, 0), dest=(1, 0)), length=2))
        sim.run()
        assert trace.recorder.events == ("log",)
        assert len(trace.events) == len(trace.recorder.records)
        cycle, message = trace.events[0]
        assert isinstance(cycle, int) and isinstance(message, str)


# ------------------------------------------------------- the writer law
def fast_path_run():
    """Uniform unicast load on a fault-free 4x3: the active driver."""
    sim = make_sim(MDCrossbar((4, 3)))
    sim.add_generator(
        BernoulliInjector(load=0.3, pattern=uniform, seed=7, stop_at=120)
    )
    return sim, dict(max_cycles=1500)


def recovery_run():
    """The paper's Fig. 9 deadlock, rotated out by online recovery, then
    the same interleaving left to deadlock."""
    topo = MDCrossbar((4, 3))
    logic = make_logic(
        topo, fault=Fault.router((2, 0)), detour_scheme=DetourScheme.NAIVE
    )
    sim = NetworkSimulator(
        MDCrossbarAdapter(logic),
        SimConfig(stall_limit=200, recovery=True, recovery_limit=1),
    )
    for at in (0, 400):
        sim.send(
            Packet(
                Header(source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST),
                length=6,
            ),
            at_cycle=at,
        )
        for src, dst, dt in (
            ((0, 0), (2, 2), 1),
            ((1, 0), (3, 1), 1),
            ((0, 1), (1, 2), 2),
        ):
            sim.send(
                Packet(Header(source=src, dest=dst), length=6),
                at_cycle=at + dt,
            )
    return sim, dict(max_cycles=5000)


def broadcast_detour_run():
    """Broadcasts and unicasts around a faulty router: S-XB waits,
    multicast grants and D-XB detours."""
    topo = MDCrossbar((4, 3))
    sim = make_sim(topo, fault=Fault.router((2, 0)))
    sim.add_generator(
        BernoulliInjector(load=0.15, pattern=uniform, seed=3, stop_at=100)
    )
    sim.add_generator(BroadcastInjector(rate=0.05, seed=4, stop_at=100))
    return sim, dict(max_cycles=2000)


class TestEveryLineIsTheSharedEncoding:
    """Whatever path a record kind takes to the sink, the line written is
    ``_encode`` of the record the recorder keeps."""

    @pytest.mark.parametrize(
        "scenario",
        [fast_path_run, recovery_run, broadcast_detour_run],
        ids=["fast-path", "recovery", "broadcast-detour"],
    )
    def test_lines_equal_the_encoded_records(self, scenario):
        sim, run_kw = scenario()
        sink = io.StringIO()
        rec = TraceRecorder(events=EVENT_KINDS, sink=sink, limit=None).attach(
            sim
        )
        sim.run(**run_kw)
        rec.detach()
        lines = sink.getvalue().split("\n")
        assert lines.pop() == ""
        header = json.loads(lines[0])
        assert header["kind"] == "trace_header"
        assert lines[0] == _encode(header)
        assert lines[1:] == [_encode(r) for r in rec.records]
        kinds = {r["kind"] for r in rec.records}
        assert {"inject", "grant", "block", "deliver"} <= kinds
        if scenario is recovery_run:
            assert {"recovery", "deadlock"} <= kinds
