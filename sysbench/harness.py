"""Measurement plumbing of sysbench: the metric registry, the span
recorder of the traced run, and the /proc readers behind the CPU and
memory metrics.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: end-to-end metrics, measured with tracing off: name -> unit.  All host
#: time.  ``failed_share`` is printed beside them but is always 0 on a
#: healthy tree, so the driver reads it from ``attempted``/``failed``.
END_TO_END: Dict[str, str] = {
    "work_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: ISSUE 11's regression bounds, as shares of the parent's median: what
#: ``compare.py`` judges by.  ``BENCHMARK.json`` carries the benchmark
#: driver's bounds, which may not be tighter than this box repeats.
REGRESSION_BOUNDS: Dict[str, float] = {
    "work_per_s": 0.10,
    "cpu_s_per_op": 0.10,
    "peak_rss_mb": 0.10,
    "setup_s": 0.20,
}

#: per-layer metrics of the traced run: name -> (unit, exact).  ``exact``
#: counts are simulated statistics or deterministic tallies: they repeat
#: bit for bit and are pinned in ``expected.json``.  A metric a workload
#: never touches reads 0 there -- "this layer did no work" is the
#: measurement the bypass workloads exist for.
PER_LAYER: Dict[str, Tuple[str, bool]] = {
    "topology.build_s": ("s", False),
    "core.make_config_s": ("s", False),
    "routing.make_scheme_s": ("s", False),
    "sim.construct_s": ("s", False),
    "sim.reset_s": ("s", False),
    "sim.run_s": ("s", False),
    "sim.host_us_per_flit_move": ("us", False),
    "sim.cycles_per_s": ("1/s", False),
    "sim.cycles": ("count", True),
    "sim.flit_moves": ("count", True),
    "sim.delivered": ("count", True),
    "sim.mean_latency_cycles": ("cycles", True),
    "sim.accepted_load": ("flits/node/cyc", True),
    "sim.engine_fallbacks": ("count", True),
    "runtime.spec_build_s": ("s", False),
    "runtime.spec_key_s": ("s", False),
    "runtime.specs": ("count", True),
    "runtime.session_spawn_s": ("s", False),
    "runtime.session_run_s": ("s", False),
    "runtime.worker_busy_s": ("s", False),
    "runtime.overhead_share": ("ratio", False),
    "runtime.netcache_get_s": ("s", False),
    "runtime.netcache_builds": ("count", True),
    "runtime.netcache_reuses": ("count", True),
    "runtime.result_pickle_s": ("s", False),
    "runtime.result_pickle_bytes": ("bytes", False),
    "runtime.cache_put_s": ("s", False),
    "runtime.cache_get_s": ("s", False),
    "runtime.cache_hits": ("count", True),
    "runtime.cache_misses": ("count", True),
    "runtime.cache_bytes": ("bytes", False),
    "runtime.result_json_s": ("s", False),
    "runtime.result_json_bytes": ("bytes", False),
    "runtime.result_identity_s": ("s", False),
    "obs.ledger_records": ("count", True),
    "obs.ledger_record_s": ("s", False),
    "obs.ledger_overhead_ratio": ("ratio", False),
    "obs.read_ledger_s": ("s", False),
    "obs.ledger_identity_s": ("s", False),
    "obs.render_sweep_report_s": ("s", False),
    "obs.attach_s": ("s", False),
    "obs.collectors_overhead_ratio": ("ratio", False),
    "obs.spans_overhead_ratio": ("ratio", False),
    "obs.trace_overhead_ratio": ("ratio", False),
    "obs.all_overhead_ratio": ("ratio", False),
    "obs.trace_records": ("count", True),
    "obs.trace_bytes": ("bytes", False),
    "obs.read_trace_s": ("s", False),
    "obs.spans_from_trace_s": ("s", False),
    "obs.render_report_s": ("s", False),
    "obs.fastpath_lost": ("count", True),
    "analysis.universe_build_s": ("s", False),
    "analysis.sample_block_s": ("s", False),
    "analysis.ns_per_sample": ("ns", False),
    "analysis.blocks": ("count", True),
    "analysis.samples": ("count", True),
    "analysis.merge_states_s": ("s", False),
    "analysis.oracle_feasible_per_s": ("1/s", False),
    "analysis.overhead_share": ("ratio", False),
    "core.switch_logic_s": ("s", False),
    "core.route_all_s": ("s", False),
    "core.cdg_build_s": ("s", False),
    "core.find_deadlock_s": ("s", False),
    "core.cdg_edges": ("count", True),
    "routing.check_cycle_free_s": ("s", False),
    "routing.dependency_edges": ("count", True),
    "cli.startup_s": ("s", False),
    "cli.import_s": ("s", False),
    "cli.overhead_s": ("s", False),
    "trace.overhead_ratio": ("ratio", False),
    "trace.unaccounted_share": ("ratio", False),
}


# ------------------------------------------------------------------ spans
class _Span:
    """Context manager recording one span into its recorder."""

    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "SpanRecorder", name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Span":
        rec = self.rec
        self.index = len(rec.spans)
        parent = rec.stack[-1] if rec.stack else None
        rec.stack.append(self.index)
        # [name, start, end, parent, op]; start is taken last so the
        # recorder's own bookkeeping lands in the parent, not the span
        rec.spans.append([self.name, 0.0, 0.0, parent, rec.op])
        rec.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        self.rec.spans[self.index][2] = end
        self.rec.stack.pop()
        return False


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent index, op id]``.

    Spans nest by ``with`` blocks; ``op`` tags every span recorded while
    it is set, so the spans of one operation share an identifier.  Kept
    in memory and written out by the caller when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op: Optional[str] = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self) -> Dict[str, List[float]]:
        """Every span's duration, grouped by name in recording order."""
        out: Dict[str, List[float]] = {}
        for name, start, end, _parent, _op in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def total(self, name: str, op: Optional[str] = None) -> float:
        """Summed duration of the spans called ``name`` (of one op)."""
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (op is None or s[4] == op)
        )

    def to_json(self) -> List[Dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


class NullRecorder:
    """The untraced twin: same call sites, nothing recorded."""

    op = None
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL = NullRecorder()


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def subtree(spans: Sequence[Sequence], root: int) -> List[int]:
    """Indices of ``root`` and every span below it (parents precede
    children in recording order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)


def unaccounted_share(spans: Sequence[Sequence], root: int) -> float:
    """Share of the root span that no layer span covers: the harness's own
    glue between calls into the program.

    Self times below a root sum to the root exactly when every span lies
    inside its parent, so that is what is checked; the share left to the
    root itself is the part of the accounting no layer answers for.
    """
    idx = subtree(spans, root)
    for i in idx[1:]:
        parent = spans[spans[i][3]]
        if not parent[1] <= spans[i][1] <= spans[i][2] <= parent[2]:
            raise AssertionError(
                f"span accounting broken: {spans[i][0]!r} is not inside "
                f"its parent {parent[0]!r}"
            )
    duration = spans[root][2] - spans[root][1]
    return self_times(spans)[root] / duration if duration > 0 else 0.0


# ------------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------- /proc
_TICK = os.sysconf("SC_CLK_TCK")


def _worker_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def cpu_seconds() -> float:
    """user+sys CPU of this process plus its live worker processes.

    Workers are read from ``/proc/<pid>/stat`` (10 ms ticks), so deltas
    are taken over a whole timed window, never a single short op.
    """
    total = time.process_time()
    for pid in _worker_pids():
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def peak_rss_mb() -> float:
    """Summed ``VmHWM`` of this process and its live workers, MiB: what
    the box has to hold at once for the launch."""
    total = 0
    for pid in [os.getpid()] + _worker_pids():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total / 1024.0
