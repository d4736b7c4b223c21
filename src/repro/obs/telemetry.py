"""Sweep-runtime telemetry: the schema-versioned JSONL run ledger.

The engine has schema-versioned traces (:mod:`repro.obs.trace`); the
sweep runtime -- :class:`~repro.runtime.session.SweepSession`, chunked
dispatch, the per-worker network cache, the on-disk result cache -- gets
the same discipline here.  A **run ledger** is a JSONL stream of plain
dict records describing what a sweep *did*: which specs ran, where, how
long they took, which cache tier served them, and what they produced.
The first record of a sink is always the schema header, so a ledger file
is self-describing, exactly like a trace::

    {"kind": "ledger_header", "schema": 1}
    {"kind": "session_open", "jobs": 4, "chunks_per_worker": 4}
    {"kind": "sweep_start", "run": 1, "specs": 76, "jobs": 4, ...}
    {"kind": "chunk_dispatch", "run": 1, "chunk": 0, "specs": 5, ...}
    {"kind": "spec_done", "run": 1, "i": 0, "spec": {...}, "cycles": 810,
     "delivered": 58, "mean_latency": 11.4, "deadlocked": false,
     "recoveries": 0, "cache": "fresh", "worker": 4711,
     "wall_s": 0.0021, "cpu_s": 0.002, "chunk": 0}
    {"kind": "chunk_done", "run": 1, "chunk": 0, "specs": 5, ...}
    {"kind": "sweep_end", "run": 1, "specs": 76, "deadlocked": 0, ...}
    {"kind": "session_close", "runs": 1}

Record kinds and their fields (schema version 1):

=================== =====================================================
kind                fields
=================== =====================================================
``ledger_header``    ``schema``
``session_open``     ``jobs`` (requested), ``chunks_per_worker``,
                     ``network_capacity``, ``cache_enabled``
``session_close``    ``runs`` (``run()`` calls the session completed)
``sweep_start``      ``run`` (1-based per session), ``specs``, ``jobs``,
                     ``workers`` (effective), ``chunks`` (planned),
                     ``chunk_sizes``, ``cache_enabled``
``chunk_dispatch``   ``run``, ``chunk`` (0-based), ``specs`` (size),
                     ``first``/``last`` (spec indices in the chunk)
``chunk_done``       ``run``, ``chunk``, ``specs``, ``worker`` (pid),
                     ``wall_s``, ``cpu_s``
``spec_done``        ``run``, ``i`` (spec index), ``spec``
                     (``RunSpec.to_dict()``), outcome fields --
                     ``cycles``, ``delivered``, ``mean_latency`` (None
                     when nothing was measured; never NaN),
                     ``deadlocked``, ``recoveries``, ``wall_time``
                     (the worker-measured ``PointResult.wall_time``) --
                     and serving fields -- ``cache`` (tier: ``"result"``
                     served from the on-disk result cache, ``"reuse"``
                     simulated on a warm :class:`NetworkCache` network,
                     ``"fresh"`` simulated on a newly built one),
                     ``worker`` (pid, None when served parent-side),
                     ``chunk`` (None outside chunked dispatch),
                     ``wall_s``/``cpu_s`` (serve time in that worker)
``sweep_end``        ``run``, ``specs``, ``deadlocked`` (count),
                     ``recoveries`` (total), ``workers``, ``chunks``,
                     ``cache_hits``, ``cache_misses``, ``wall_s``
``sweep_error``      ``run``, ``error`` (the failed run's exception;
                     replaces the run's ``spec_done``/``sweep_end``
                     records -- a failed run records only this)
``campaign_start``   (schema 2) the :class:`CampaignSpec` fields --
                     ``shape``, ``samples``, ``seed``, ``rate``,
                     ``max_faults``, ``scheme``, ``block_samples`` --
                     plus ``blocks`` (total), ``first_block``/
                     ``last_block`` (the block range this invocation
                     covers; a resume starts past 0), ``jobs``,
                     ``workers`` (effective), ``chunks`` (planned)
``campaign_chunk``   (schema 2) ``chunk`` (0-based), ``first_block``/
                     ``last_block``, ``samples`` (in the chunk),
                     ``worker`` (pid, None in-process), ``wall_s``;
                     written in completion order -- chunk progress is
                     runtime, not result, so the whole kind is stripped
``campaign_end``     (schema 2) ``samples``, ``blocks`` (folded so
                     far), ``mean_mttf``, ``std_error`` (None when one
                     sample), ``mean_faults_survived``,
                     ``identity_sha256`` (the chunking/jobs-invariant
                     estimate hash), ``wall_s``
=================== =====================================================

Schema history: 1 -- the original sweep-session record set; 2 -- adds
the ``campaign_start``/``campaign_chunk``/``campaign_end`` kinds for
:mod:`repro.analysis.campaign` (schema-1 ledgers remain readable).

**Identity rules.**  Everything a ledger records splits into *what* the
sweep computed -- the specs and their deterministic outcomes -- and *how*
the runtime happened to execute it: wall/cpu clocks, worker placement,
chunking, cache tiers.  :func:`strip_ledger` drops the *how* (the
:data:`RUNTIME_KINDS` records wholesale and the :data:`RUNTIME_FIELDS`
keys from the rest), exactly the way
:func:`repro.runtime.cache.result_identity` strips ``wall_time``.  What
remains is the ledger's identity: the same specs run serially, chunked
over a warm pool, or replayed from a fully populated result cache strip
to byte-identical records, and :func:`ledger_identity` hashes that
projection (tested in ``tests/obs/test_telemetry.py`` and
``tests/runtime/test_session.py``, gated by CI's ledger smoke and pinned
for the ``fault_sweep_*`` workloads in ``sysbench/expected.json``).

Spec order is part of the identity: per-spec records are written in spec
order regardless of completion order (worker-side timings ride back with
the chunk results and are merged deterministically), so a ledger file
never depends on pool scheduling.

This module never imports :mod:`repro.runtime` -- the ledger takes plain
dicts and duck-typed results, keeping :mod:`repro.obs` a leaf the runtime
can depend on (same arrangement as
:class:`~repro.obs.collectors.ResultCacheStats`).
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from typing import Deque, Dict, IO, Iterable, List, NamedTuple, Optional, Tuple

from collections import deque

#: bump when a record kind gains/loses/renames a field
LEDGER_SCHEMA_VERSION = 2

#: schema versions :func:`read_ledger` understands
READABLE_LEDGER_VERSIONS: Tuple[int, ...] = (1, 2)

#: every record kind a schema-2 ledger may contain
LEDGER_KINDS: Tuple[str, ...] = (
    "ledger_header",
    "session_open",
    "session_close",
    "sweep_start",
    "chunk_dispatch",
    "chunk_done",
    "spec_done",
    "sweep_end",
    "sweep_error",
    "campaign_start",
    "campaign_chunk",
    "campaign_end",
)

#: record kinds that describe how the runtime executed (placement,
#: chunking, lifecycle) rather than what the sweep computed; dropped
#: wholesale by :func:`strip_ledger`
RUNTIME_KINDS = frozenset(
    {
        "session_open",
        "session_close",
        "chunk_dispatch",
        "chunk_done",
        "sweep_error",
        # campaign chunk progress arrives in completion order and names
        # workers -- placement, not result; campaign_start/_end survive
        # stripping (minus their RUNTIME_FIELDS) as the campaign identity
        "campaign_chunk",
    }
)

#: per-record fields that may legitimately differ between two runs of
#: the same specs: wall-clock measurements and runtime placement.
#: ``wall_time`` (the worker-measured ``PointResult`` wall) is stripped
#: for the same reason ``result_identity`` strips it; ``cache`` (the
#: serving tier) differs between a fresh run and a cache replay of the
#: same specs, so it is placement, not result.
RUNTIME_FIELDS = frozenset(
    {
        "run",
        "wall_s",
        "cpu_s",
        "wall_time",
        "worker",
        "chunk",
        "cache",
        "jobs",
        "workers",
        "chunks",
        "chunk_sizes",
        "cache_enabled",
        "cache_hits",
        "cache_misses",
    }
)

#: the ``cache`` tiers a ``spec_done`` record may carry
CACHE_TIERS: Tuple[str, ...] = ("result", "reuse", "fresh")

#: one encoder for every ledger line (``json.dumps`` builds one a call)
_encode = json.JSONEncoder(separators=(",", ":")).encode


class SweepLedger:
    """Collect sweep-runtime records; optionally stream them as JSONL.

    ``sink`` is any writable text file-like (the schema header is
    written first); ``limit`` bounds the in-memory buffer (None keeps
    everything -- ledgers are low-volume, a handful of records per spec,
    so the default keeps the whole run queryable).
    """

    def __init__(
        self, sink: Optional[IO[str]] = None, limit: Optional[int] = None
    ) -> None:
        self.sink = sink
        self.records: Deque[Dict] = deque(maxlen=limit)
        self._emit(self.header())

    @staticmethod
    def header() -> Dict:
        return {"kind": "ledger_header", "schema": LEDGER_SCHEMA_VERSION}

    def record(self, kind: str, **fields) -> Dict:
        """Append one record (and write it to the sink, when set)."""
        if kind not in LEDGER_KINDS:
            raise ValueError(
                f"unknown ledger record kind {kind!r}; "
                f"choose from {list(LEDGER_KINDS)}"
            )
        rec = {"kind": kind, **fields}
        self._emit(rec)
        return rec

    def _emit(self, rec: Dict) -> None:
        self.records.append(rec)
        if self.sink is not None:
            self.sink.write(_encode(rec) + "\n")

    def of_kind(self, kind: str) -> List[Dict]:
        return [r for r in self.records if r["kind"] == kind]

    def __len__(self) -> int:
        return len(self.records)


def spec_outcome(result) -> Dict:
    """The deterministic outcome fields of one executed sweep point.

    Duck-typed over :class:`~repro.runtime.spec.PointResult` (this module
    must not import the runtime).  ``mean_latency`` is None -- never the
    ``LatencyStats`` NaN sentinel -- when the point measured nothing, so
    every ledger record stays valid JSON.
    """
    point = result.point
    lat = point.latency
    mean = None
    if lat.count and not math.isnan(lat.mean):
        mean = lat.mean
    return {
        "spec": result.spec.to_dict(),
        "cycles": point.cycles,
        "delivered": lat.count,
        "mean_latency": mean,
        "deadlocked": point.deadlocked,
        "recoveries": getattr(point, "recoveries", 0),
        "wall_time": result.wall_time,
    }


class LedgerData(NamedTuple):
    """What :func:`read_ledger` returns."""

    header: Optional[Dict]
    records: List[Dict]
    #: skipped lines: ``{"line": 1-based number, "error": ..., "text": ...}``
    malformed: List[Dict]


def read_ledger(lines: Iterable[str], strict: bool = False) -> LedgerData:
    """Parse a JSONL run ledger: ``(header, records, malformed)``.

    Tolerant the same way :func:`repro.obs.trace.read_trace` is:
    unparseable lines -- typically a truncated tail after an interrupted
    sweep -- are skipped and reported in ``malformed`` unless
    ``strict=True``; a header from an unknown schema always raises
    ``ValueError`` (wrong format, not a damaged file).  Record kinds this
    reader does not know are passed through untouched, so a newer
    writer's extra vocabulary degrades gracefully.
    """
    return LedgerData(
        *_read_jsonl(
            lines,
            strict,
            "ledger_header",
            READABLE_LEDGER_VERSIONS,
            "ledger",
        )
    )


#: lines :func:`_read_jsonl` decodes with one ``json.loads``: large
#: enough that the per-call cost vanishes, small enough that a batch's
#: text and records stay a bounded share of a trace read
READ_BATCH = 1024

#: where two top-level objects meet in a joined batch: ``}`` ``,`` ``{``
_SEAM = re.compile(r"\}\s*,\s*\{")


def _decode_batch(texts: List[str]) -> Optional[List[Dict]]:
    """The objects of ``texts`` (stripped, non-blank lines) from one
    ``json.loads`` of the joined batch, or None when that could differ
    from decoding each line alone.

    Every line must be shaped ``{...}``, the join must hold no seam but
    the ``len(texts) - 1`` it made (a line holding ``}``, ``,``, ``{``,
    even inside a string, falls back), and the decode must yield one
    object per line.  Together these make the batch sound: between two
    top-level objects the separating comma forms a seam, so with every
    element an object the array's ``len(texts) - 1`` top-level commas
    are seams, hence exactly the join's, and element *i* is exactly line
    *i*.  No check can go: a comma next to a non-object element forms no
    seam, so ``{"a":1},2,{"b":2}`` splits into three elements and two
    lines that merge into one can even the count out."""
    for text in texts:
        if text[0] != "{" or text[-1] != "}":
            return None
    joined = ",".join(texts)
    if len(_SEAM.findall(joined)) != len(texts) - 1:
        return None
    try:
        recs = json.loads("[" + joined + "]")
    except ValueError:
        return None
    if len(recs) == len(texts) and all(type(r) is dict for r in recs):
        return recs
    return None


def _read_jsonl(
    lines: Iterable[str],
    strict: bool,
    header_kind: str,
    versions: Tuple[int, ...],
    noun: str,
) -> Tuple[Optional[Dict], List[Dict], List[Dict]]:
    """The tolerant JSONL reader behind :func:`read_ledger` and
    :func:`repro.obs.trace.read_trace`: ``(header, records,
    malformed)``.  The ``header_kind`` record must carry a ``schema`` in
    ``versions``; ``noun`` names the stream in error messages.

    Non-blank lines are decoded :data:`READ_BATCH` at a time
    (:func:`_decode_batch`); a batch that does not decode cleanly is
    read again line by line, so malformed-line reports, their line
    numbers and ``strict`` errors are those of a per-line read."""
    header: Optional[Dict] = None
    records: List[Dict] = []
    malformed: List[Dict] = []

    def take(rec: Dict) -> None:
        nonlocal header
        if rec.get("kind") == header_kind:
            if rec.get("schema") not in versions:
                raise ValueError(
                    f"{noun} schema {rec.get('schema')!r} is not one of "
                    f"{list(versions)} (this reader's supported versions)"
                )
            header = rec
        else:
            records.append(rec)

    def flush(numbers: List[int], texts: List[str]) -> None:
        recs = _decode_batch(texts)
        if recs is not None:
            for rec in recs:
                take(rec)
            return
        for lineno, line in zip(numbers, texts):
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
                    raise ValueError(
                        f"{noun} line {lineno} is not a JSON object"
                    )
                malformed.append(
                    {
                        "line": lineno,
                        "error": "not a JSON object",
                        "text": line[:200],
                    }
                )
                continue
            take(rec)

    numbers: List[int] = []
    texts: List[str] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            numbers.append(lineno)
            texts.append(line)
            if len(texts) == READ_BATCH:
                flush(numbers, texts)
                numbers, texts = [], []
    if texts:
        flush(numbers, texts)
    return header, records, malformed


def strip_ledger(records: Iterable[Dict]) -> List[Dict]:
    """The deterministic projection of a ledger.

    Drops the :data:`RUNTIME_KINDS` records and the
    :data:`RUNTIME_FIELDS` keys from the rest, preserving record order
    (per-spec records are written in spec order, so order *is* part of
    the identity).  Two runs of the same specs -- serial, chunked, or
    cache-replayed -- strip to byte-identical lists.
    """
    out: List[Dict] = []
    for rec in records:
        if rec.get("kind") in RUNTIME_KINDS:
            continue
        out.append(
            {k: v for k, v in rec.items() if k not in RUNTIME_FIELDS}
        )
    return out


def ledger_identity(records: Iterable[Dict]) -> str:
    """sha256 over the canonical JSON of :func:`strip_ledger`.

    The ledger-level sibling of
    :func:`repro.runtime.cache.result_identity`: the hash the
    ``tests/obs`` / ``tests/runtime`` identity tests, the CI ledger smoke
    and the ``fault_sweep_*`` pins in ``sysbench/expected.json`` gate on.
    """
    import hashlib

    blob = json.dumps(
        strip_ledger(records), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _spec_label(spec: Dict) -> str:
    """Terse human label for a ``spec_done`` record's spec dict."""
    shape = "x".join(str(v) for v in spec.get("shape", ()))
    bits = [
        f"{spec.get('kind', '?')} {shape} load={spec.get('load', '?')} "
        f"seed={spec.get('seed', '?')}"
    ]
    if spec.get("faults"):
        bits.append(f"faults={len(spec['faults'])}")
    if spec.get("label"):
        bits.append(f"[{spec['label']}]")
    return " ".join(bits)


def worker_names(records: Iterable[Dict]) -> Dict[Optional[int], str]:
    """Stable display names for the worker pids in ``spec_done`` records.

    Pids are runtime noise; for rendering they map to ``w0``, ``w1``, ...
    by first appearance in record (= spec) order, with parent-side
    serving (``worker`` None) shown as ``main``.
    """
    names: Dict[Optional[int], str] = {}
    for rec in records:
        if rec.get("kind") != "spec_done":
            continue
        w = rec.get("worker")
        if w not in names:
            names[w] = "main" if w is None else f"w{len(names)}"
    return names


class LiveDashboard:
    """Single-line live sweep progress, driven by the progress callback.

    Plug :meth:`progress` into :meth:`SweepSession.run`; call
    :meth:`finish` afterwards for the closing summary (and, when a
    ledger was recorded, per-worker utilization bars and the cache-tier
    breakdown).  Renders to ``stream`` (default stderr, so ``--json``
    stdout stays pure): a live carriage-return ticker on a TTY, sparse
    milestone lines otherwise (CI logs stay readable).
    """

    #: minimum seconds between TTY redraws
    REFRESH_S = 0.1

    def __init__(
        self,
        total: int,
        stream: Optional[IO[str]] = None,
        width: int = 24,
    ) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.width = width
        self.done = 0
        self.cache_hits = 0
        self.deadlocked = 0
        self.recoveries = 0
        self._t0 = time.monotonic()
        self._last_draw = 0.0
        self._last_milestone = 0
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())

    # ------------------------------------------------------------ updates
    def progress(self, result, done: int, total: int) -> None:
        """The ``progress(result, done, total)`` callback."""
        self.done = done
        self.total = total
        point = getattr(result, "point", None)
        if point is not None:
            if point.deadlocked:
                self.deadlocked += 1
            self.recoveries += getattr(point, "recoveries", 0)
        now = time.monotonic()
        if self._tty:
            if now - self._last_draw >= self.REFRESH_S or done == total:
                self._last_draw = now
                self.stream.write("\r" + self.status_line() + "\x1b[K")
                self.stream.flush()
        else:
            # non-TTY: one line per ~10% so logs stay bounded
            milestone = (10 * done) // max(1, total)
            if milestone > self._last_milestone or done == total:
                self._last_milestone = milestone
                self.stream.write(self.status_line() + "\n")

    def status_line(self) -> str:
        elapsed = max(time.monotonic() - self._t0, 1e-9)
        rate = self.done / elapsed
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0 else float("inf")
        filled = round(
            self.width * self.done / self.total if self.total else 0
        )
        bar = "#" * filled + "-" * (self.width - filled)
        bits = [
            f"[{bar}] {self.done}/{self.total}",
            f"{rate:.1f} specs/s",
            "ETA --" if math.isinf(eta) else f"ETA {eta:.0f}s",
        ]
        if self.deadlocked:
            bits.append(f"{self.deadlocked} deadlocked")
        if self.recoveries:
            bits.append(f"{self.recoveries} rotation(s)")
        return "  ".join(bits)

    # ------------------------------------------------------------ closing
    def finish(self, info=None, ledger: Optional[SweepLedger] = None) -> None:
        """Final summary: the run's :class:`RunInfo` one-liner plus,
        when a ledger was recorded, per-worker utilization bars and the
        cache-tier breakdown."""
        if self._tty:
            self.stream.write("\r\x1b[K")
        if info is not None:
            self.stream.write(f"ran {info.describe()}\n")
        if ledger is not None:
            for line in self.worker_lines(ledger.records):
                self.stream.write(line + "\n")
        self.stream.flush()

    @staticmethod
    def worker_lines(records: Iterable[Dict], width: int = 20) -> List[str]:
        """Per-worker utilization bars + cache-tier counts, from the
        ledger's ``spec_done`` records."""
        specs = [r for r in records if r.get("kind") == "spec_done"]
        if not specs:
            return []
        names = worker_names(specs)
        busy: Dict[Optional[int], float] = {}
        count: Dict[Optional[int], int] = {}
        tiers: Dict[str, int] = {}
        for rec in specs:
            w = rec.get("worker")
            busy[w] = busy.get(w, 0.0) + (rec.get("wall_s") or 0.0)
            count[w] = count.get(w, 0) + 1
            tier = rec.get("cache", "fresh")
            tiers[tier] = tiers.get(tier, 0) + 1
        peak = max(busy.values()) or 1.0
        lines = []
        for w, name in names.items():
            bar = "#" * round(width * busy[w] / peak)
            lines.append(
                f"  {name:>5} {count[w]:>5} spec(s) "
                f"{busy[w]:>8.3f}s {bar}"
            )
        lines.append(
            "  cache tiers: "
            + ", ".join(
                f"{tiers.get(t, 0)} {t}" for t in CACHE_TIERS
            )
        )
        return lines
