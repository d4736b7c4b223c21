"""The sweep-runtime run ledger: schema-versioned JSONL writing, the
tolerant reader, the identity projection (strip wall/placement fields),
and the live dashboard's pure-rendering pieces."""

import io
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.telemetry import (
    CACHE_TIERS,
    LEDGER_KINDS,
    LEDGER_SCHEMA_VERSION,
    READABLE_LEDGER_VERSIONS,
    RUNTIME_FIELDS,
    RUNTIME_KINDS,
    LiveDashboard,
    SweepLedger,
    _spec_label,
    ledger_identity,
    read_ledger,
    spec_outcome,
    strip_ledger,
    worker_names,
)
from tests.conftest import examples


def fake_result(mean=11.5, count=6, deadlocked=False, recoveries=0):
    """Duck-typed PointResult stand-in: telemetry must not need the
    runtime layer."""
    return SimpleNamespace(
        spec=SimpleNamespace(
            to_dict=lambda: {"kind": "md-crossbar", "shape": [3, 3],
                             "load": 0.1, "seed": 1}
        ),
        point=SimpleNamespace(
            latency=SimpleNamespace(count=count, mean=mean),
            cycles=810,
            deadlocked=deadlocked,
            recoveries=recoveries,
        ),
        wall_time=0.0042,
    )


class TestSweepLedger:
    def test_header_is_written_first(self):
        sink = io.StringIO()
        ledger = SweepLedger(sink=sink)
        ledger.record("sweep_start", run=1, specs=2)
        lines = sink.getvalue().splitlines()
        assert json.loads(lines[0]) == {
            "kind": "ledger_header",
            "schema": LEDGER_SCHEMA_VERSION,
        }
        assert json.loads(lines[1])["kind"] == "sweep_start"

    def test_records_buffer_without_a_sink(self):
        ledger = SweepLedger()
        ledger.record("sweep_start", run=1, specs=2)
        ledger.record("sweep_end", run=1, specs=2)
        assert len(ledger) == 3  # header + 2
        assert [r["kind"] for r in ledger.of_kind("sweep_end")] == [
            "sweep_end"
        ]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown ledger record kind"):
            SweepLedger().record("made_up_kind")

    def test_limit_bounds_the_buffer(self):
        ledger = SweepLedger(limit=3)
        for i in range(10):
            ledger.record("spec_done", i=i)
        assert len(ledger.records) == 3
        assert [r["i"] for r in ledger.records] == [7, 8, 9]

    def test_every_runtime_kind_is_a_ledger_kind(self):
        assert RUNTIME_KINDS <= set(LEDGER_KINDS)
        assert LEDGER_SCHEMA_VERSION in READABLE_LEDGER_VERSIONS


class TestReadLedger:
    def write_sample(self):
        sink = io.StringIO()
        ledger = SweepLedger(sink=sink)
        ledger.record("sweep_start", run=1, specs=1)
        ledger.record("spec_done", run=1, i=0, cycles=7)
        ledger.record("sweep_end", run=1, specs=1)
        return sink.getvalue()

    def test_roundtrip(self):
        header, records, malformed = read_ledger(
            self.write_sample().splitlines()
        )
        assert header["schema"] == LEDGER_SCHEMA_VERSION
        assert [r["kind"] for r in records] == [
            "sweep_start",
            "spec_done",
            "sweep_end",
        ]
        assert malformed == []

    def test_blank_lines_are_skipped(self):
        text = "\n" + self.write_sample() + "\n\n"
        _, records, malformed = read_ledger(text.splitlines())
        assert len(records) == 3 and not malformed

    def test_truncated_tail_is_tolerated_and_reported(self):
        lines = self.write_sample().splitlines() + ['{"kind": "spec_do']
        _, records, malformed = read_ledger(lines)
        assert len(records) == 3
        assert len(malformed) == 1
        assert malformed[0]["line"] == 5
        assert "spec_do" in malformed[0]["text"]

    def test_strict_mode_raises_on_malformed(self):
        lines = self.write_sample().splitlines() + ["not json"]
        with pytest.raises(ValueError, match="line 5"):
            read_ledger(lines, strict=True)

    def test_non_object_line(self):
        lines = self.write_sample().splitlines() + ["[1, 2]"]
        _, records, malformed = read_ledger(lines)
        assert len(malformed) == 1
        with pytest.raises(ValueError, match="not a JSON object"):
            read_ledger(lines, strict=True)

    def test_unknown_schema_always_raises(self):
        lines = ['{"kind": "ledger_header", "schema": 999}']
        with pytest.raises(ValueError, match="999"):
            read_ledger(lines)

    def test_unknown_record_kinds_pass_through(self):
        """A newer writer's extra vocabulary must not break this reader."""
        lines = self.write_sample().splitlines() + [
            '{"kind": "from_the_future", "x": 1}'
        ]
        _, records, malformed = read_ledger(lines)
        assert not malformed
        assert records[-1] == {"kind": "from_the_future", "x": 1}


class TestStripAndIdentity:
    def sample_records(self, wall=0.5, worker=111, tier="fresh"):
        return [
            {"kind": "session_open", "jobs": 2},
            {"kind": "sweep_start", "run": 1, "specs": 1, "jobs": 2,
             "workers": 2, "chunks": 3, "chunk_sizes": [1], "cache_enabled": True},
            {"kind": "chunk_dispatch", "run": 1, "chunk": 0},
            {"kind": "spec_done", "run": 1, "i": 0, "cycles": 7,
             "deadlocked": False, "recoveries": 0, "wall_s": wall,
             "cpu_s": wall, "wall_time": wall, "worker": worker,
             "chunk": 0, "cache": tier},
            {"kind": "chunk_done", "run": 1, "chunk": 0, "wall_s": wall},
            {"kind": "sweep_end", "run": 1, "specs": 1, "deadlocked": 0,
             "recoveries": 0, "workers": 2, "chunks": 3, "cache_hits": 0,
             "cache_misses": 1, "wall_s": wall},
            {"kind": "session_close", "runs": 1},
        ]

    def test_strip_drops_runtime_kinds_and_fields(self):
        stripped = strip_ledger(self.sample_records())
        assert [r["kind"] for r in stripped] == [
            "sweep_start",
            "spec_done",
            "sweep_end",
        ]
        for rec in stripped:
            assert not set(rec) & RUNTIME_FIELDS
        assert stripped[1] == {
            "kind": "spec_done",
            "i": 0,
            "cycles": 7,
            "deadlocked": False,
            "recoveries": 0,
        }

    def test_identity_ignores_runtime_noise(self):
        a = self.sample_records(wall=0.5, worker=111, tier="fresh")
        b = self.sample_records(wall=9.9, worker=222, tier="result")
        assert ledger_identity(a) == ledger_identity(b)

    def test_identity_sees_outcome_changes(self):
        a = self.sample_records()
        b = self.sample_records()
        b[3]["cycles"] = 8
        assert ledger_identity(a) != ledger_identity(b)

    def test_identity_sees_order(self):
        a = self.sample_records()
        b = list(reversed(self.sample_records()))
        assert ledger_identity(a) != ledger_identity(b)


class TestSpecOutcome:
    def test_outcome_fields(self):
        out = spec_outcome(fake_result())
        assert out["cycles"] == 810
        assert out["delivered"] == 6
        assert out["mean_latency"] == 11.5
        assert out["deadlocked"] is False
        assert out["recoveries"] == 0
        assert out["wall_time"] == 0.0042
        assert out["spec"]["kind"] == "md-crossbar"

    def test_nan_mean_becomes_none(self):
        """LatencyStats uses NaN sentinels on empty windows; the ledger
        must stay strict-JSON safe."""
        out = spec_outcome(fake_result(mean=float("nan"), count=0))
        assert out["mean_latency"] is None
        json.loads(json.dumps(out))  # round-trips as strict JSON

    def test_missing_recoveries_defaults_to_zero(self):
        result = fake_result()
        del result.point.recoveries
        assert spec_outcome(result)["recoveries"] == 0


class TestWorkerNames:
    def test_dense_names_by_first_appearance(self):
        records = [
            {"kind": "spec_done", "worker": 4711},
            {"kind": "spec_done", "worker": None},
            {"kind": "spec_done", "worker": 1234},
            {"kind": "spec_done", "worker": 4711},
            {"kind": "chunk_done", "worker": 9999},  # not a spec_done
        ]
        names = worker_names(records)
        assert names == {4711: "w0", None: "main", 1234: "w2"}


class TestSpecLabel:
    def test_label_contents(self):
        label = _spec_label(
            {"kind": "md-crossbar", "shape": [4, 3], "load": 0.1,
             "seed": 7, "faults": ["R(1,1)"], "label": "fig9"}
        )
        assert "md-crossbar 4x3" in label
        assert "load=0.1" in label
        assert "seed=7" in label
        assert "faults=1" in label
        assert "[fig9]" in label


class TestLiveDashboard:
    def test_non_tty_writes_milestones(self):
        stream = io.StringIO()  # no isatty -> treated as non-TTY
        dash = LiveDashboard(total=4, stream=stream)
        for done in range(1, 5):
            dash.progress(fake_result(), done, 4)
        out = stream.getvalue()
        assert "4/4" in out
        assert "specs/s" in out
        # milestone lines, not one per spec redraw storm
        assert out.count("\r") == 0

    def test_status_line_counts_trouble(self):
        dash = LiveDashboard(total=2, stream=io.StringIO())
        dash.progress(fake_result(deadlocked=True, recoveries=2), 1, 2)
        line = dash.status_line()
        assert "1 deadlocked" in line
        assert "2 rotation(s)" in line

    def test_finish_renders_info_and_worker_bars(self):
        stream = io.StringIO()
        dash = LiveDashboard(total=1, stream=stream)
        ledger = SweepLedger()
        ledger.record(
            "spec_done", i=0, worker=4711, wall_s=0.25, cache="fresh"
        )
        info = SimpleNamespace(describe=lambda: "1 spec(s) described")
        dash.finish(info, ledger)
        out = stream.getvalue()
        assert "ran 1 spec(s) described" in out
        assert "w0" in out
        assert "cache tiers:" in out
        for tier in CACHE_TIERS:
            assert tier in out

    def test_worker_lines_aggregate_by_worker(self):
        records = [
            {"kind": "spec_done", "worker": 1, "wall_s": 0.2, "cache": "fresh"},
            {"kind": "spec_done", "worker": 1, "wall_s": 0.2, "cache": "reuse"},
            {"kind": "spec_done", "worker": 2, "wall_s": 0.1, "cache": "result"},
        ]
        lines = LiveDashboard.worker_lines(records)
        assert len(lines) == 3  # two workers + the tier summary
        assert "2 spec(s)" in lines[0]
        assert "1 fresh" in lines[-1]
        assert "1 reuse" in lines[-1]
        assert "1 result" in lines[-1]

    def test_worker_lines_empty_without_specs(self):
        assert LiveDashboard.worker_lines([]) == []

    def test_eta_is_finite_once_moving(self):
        dash = LiveDashboard(total=10, stream=io.StringIO())
        dash.progress(fake_result(), 5, 10)
        assert "ETA" in dash.status_line()
        assert not math.isinf(5 / max(dash.done, 1))

# ------------------------------------------------------- the reader law
def reference_read_jsonl(lines, strict, header_kind, versions, noun):
    """The one-``json.loads``-per-line reader, kept as the reference the
    trace and ledger readers are held to (copied from
    ``repro.obs.telemetry._read_jsonl`` as it was before batching)."""
    header = None
    records = []
    malformed = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                raise ValueError(
                    f"{noun} line {lineno} is not valid JSON: {exc}"
                ) from exc
            malformed.append(
                {"line": lineno, "error": str(exc), "text": line[:200]}
            )
            continue
        if not isinstance(rec, dict):
            if strict:
                raise ValueError(f"{noun} line {lineno} is not a JSON object")
            malformed.append(
                {
                    "line": lineno,
                    "error": "not a JSON object",
                    "text": line[:200],
                }
            )
            continue
        if rec.get("kind") == header_kind:
            if rec.get("schema") not in versions:
                raise ValueError(
                    f"{noun} schema {rec.get('schema')!r} is not one of "
                    f"{list(versions)} (this reader's supported versions)"
                )
            header = rec
        else:
            records.append(rec)
    return header, records, malformed


#: strings that sit inside records: separators, escapes, braces
_tricky_text = st.one_of(
    st.sampled_from(
        ["},{", "}, {", '\\"', '"', "\\", "{", "}", "[", "]", ",", " "]
    ),
    st.text(max_size=12),
)
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    _tricky_text,
)
_json_value = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_tricky_text, inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def _record_line(draw, header_kind):
    """One well-formed object line, as this writer or a foreign one would
    write it (compact or spaced, ASCII-escaped or not)."""
    kind = draw(
        st.sampled_from(
            ["block", "grant", "spec_done", "log", header_kind, "x"]
        )
    )
    rec = {"kind": kind}
    if kind == header_kind:
        rec["schema"] = draw(st.sampled_from([1, 2, 3, 999, "2", None]))
    rec.update(draw(st.dictionaries(_tricky_text, _json_value, max_size=4)))
    seps = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " :")]))
    text = json.dumps(
        rec, separators=seps, ensure_ascii=draw(st.booleans())
    )
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(
        st.sampled_from(["", "\n", " \n", "\r\n"])
    )


#: lines shaped ``{...}`` that are not one object; joined with their
#: neighbours some decode, to fewer or more objects than lines
SHAPED_NOT_ONE_OBJECT = [
    '{"a":1},{"b":2}',
    '{"a":1} , {"b":2}',
    '{"a":[{"b":1}',
    '{"c":1}]}',
    '{"s":"},{"}',
    '{"a":"}',
    '{"}',
    '{"a":1}{"b":2}',
    # a non-object element between two objects makes no ``},{`` seam
    '{"a":1},2,{"b":2}',
    '{"a":1},[{"c":3}],{"b":2}',
    '{"a":1}, "s" ,{"b":2}',
    "{}}",
    "{{}",
    "{",
    "}",
]


@st.composite
def _damaged_line(draw, header_kind):
    """A line the reader must report (or raise on under ``strict``)."""
    whole = draw(_record_line(header_kind)).strip()
    return draw(
        st.one_of(
            # a truncated tail
            st.integers(1, max(1, len(whole) - 1)).map(lambda n: whole[:n]),
            # JSON that is not an object
            _json_value.filter(lambda v: not isinstance(v, dict)).map(
                json.dumps
            ),
            # garbage
            st.text(max_size=30),
            st.sampled_from(SHAPED_NOT_ONE_OBJECT),
            # two whole records on one line
            st.tuples(
                _record_line(header_kind),
                st.sampled_from([",", " , ", ",\t", ""]),
                _record_line(header_kind),
            ).map(lambda t: t[0].strip() + t[1] + t[2].strip()),
        )
    )


@st.composite
def _evened_block(draw, header_kind):
    """Adjacent lines, each shaped ``{...}``, whose joined decode has
    one element per line although no element is its line: one line
    splits into ``m + 2`` elements around ``m`` non-objects (no seam
    between them), and ``m + 2`` lines merge into one object."""
    m = draw(st.integers(1, 2))
    rec = _record_line(header_kind).map(str.strip)
    middle = draw(
        st.lists(
            _json_value.filter(lambda v: not isinstance(v, dict)).map(
                json.dumps
            ),
            min_size=m,
            max_size=m,
        )
    )
    split = ",".join([draw(rec), *middle, draw(rec)])
    merged = [draw(rec) for _ in range(m + 2)]
    merged[0] = '{"x":[' + merged[0]
    merged[-1] += "]}"
    at = draw(st.integers(0, len(merged)))
    return merged[:at] + [split] + merged[at:]


@st.composite
def jsonl_stream(draw, header_kind):
    """A JSONL stream of good records and blank lines with up to three
    damaged lines and at most one :func:`_evened_block` among them; long
    runs of good records put the damage on either side of any batching
    boundary a reader may use."""
    lines = draw(
        st.lists(
            st.one_of(
                _record_line(header_kind),
                st.sampled_from(["", "   ", "\n", "\t\n"]),
            ),
            max_size=20,
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(_damaged_line(header_kind)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(_evened_block(header_kind))
    good = json.dumps({"kind": "log", "cycle": 0, "message": "m"})
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = [good] * draw(st.integers(0, 2600))
    return lines


def outcome(read, lines, strict):
    """What a reader returns, or the ``ValueError`` text it raises."""
    try:
        return "ok", tuple(read(lines, strict))
    except ValueError as exc:
        return "raised", str(exc)


class TestReaderEqualsReference:
    """``read_trace`` / ``read_ledger`` return exactly what the per-line
    reference returns -- header, records, malformed entries with their
    line numbers -- and under ``strict=True`` raise the same error."""

    ADVERSARIAL = [
        # two shaped-but-broken lines that a joined decode would merge,
        # and one line that it would split: the counts still agree
        ['{"a":[{"b":1}', '{"c":1}]}', '{"x":1},{"y":2}'],
        ['{"a":"}', '{"}', '{"x":1} , {"y":2}'],
        ['{"a":[{"b":1,"s":"]}"}', '{"c":1,"t":"{["}]}', '{"x":1},{"y":2}'],
        # one line splits into three elements through a non-object in
        # the middle, which forms no seam; a merge evens the count out
        ['{"a":1},2,{"b":2}', '{"x":[{"y":1}', '{"z":1}', '{"w":1}]}'],
        ['{"x":[{"y":1}', '{"z":1}', '{"w":1}]}', '{"a":1},null,{"b":2}'],
    ]

    @pytest.mark.parametrize("lines", ADVERSARIAL)
    @pytest.mark.parametrize("strict", [False, True])
    def test_lines_that_only_decode_joined(self, lines, strict):
        from repro.obs.trace import READABLE_SCHEMA_VERSIONS, read_trace

        for padded in (lines, ['{"kind":"log"}'] * 3000 + lines):
            assert outcome(read_trace, padded, strict) == outcome(
                lambda ls, s: reference_read_jsonl(
                    ls, s, "trace_header", READABLE_SCHEMA_VERSIONS, "trace"
                ),
                padded,
                strict,
            )

    @settings(max_examples=examples(60), deadline=None)
    @given(jsonl_stream("trace_header"), st.booleans())
    def test_read_trace(self, lines, strict):
        from repro.obs.trace import READABLE_SCHEMA_VERSIONS, read_trace

        def reference(ls, s):
            return reference_read_jsonl(
                ls, s, "trace_header", READABLE_SCHEMA_VERSIONS, "trace"
            )

        assert outcome(read_trace, lines, strict) == outcome(
            reference, lines, strict
        )
        # any iterable of lines: a one-shot iterator reads the same
        assert outcome(read_trace, iter(lines), strict) == outcome(
            reference, lines, strict
        )

    @settings(max_examples=examples(60), deadline=None)
    @given(jsonl_stream("ledger_header"), st.booleans())
    def test_read_ledger(self, lines, strict):
        def reference(ls, s):
            return reference_read_jsonl(
                ls, s, "ledger_header", READABLE_LEDGER_VERSIONS, "ledger"
            )

        assert outcome(read_ledger, lines, strict) == outcome(
            reference, lines, strict
        )
