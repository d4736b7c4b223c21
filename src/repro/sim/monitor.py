"""Simulation observability: time-series sampling and event capture.

:class:`SimMonitor` subscribes to the engine's public hook bus
(``hooks.on_cycle_start``) and samples occupancy counters (in-flight
packets, buffered flits, blocked grant requests, active connections,
source-queue depth) through the engine's public observability API.  The
series expose congestion build-up, the serialization plateau of broadcast
storms, and the tell-tale flatline of a deadlock.  The peaks ride on
:mod:`repro.obs` gauges, so :meth:`SimMonitor.metrics` drops straight into
the mergeable metric pipeline.

:class:`TextTrace` renders the simulator's event log (injections, grants,
drops, completions) the old ``(cycle, message)`` way; since the
metrics/tracing subsystem landed it is a thin view over a log-only
:class:`repro.obs.trace.TraceRecorder` rather than an ad-hoc buffer --
structured capture belongs to :mod:`repro.obs.trace`.

Neither observer touches simulator internals: they are ordinary hook
subscribers, exactly like user instrumentation would be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import MetricSet
from ..obs.trace import TraceRecorder
from .engine import CycleEngine


@dataclass
class Sample:
    """One snapshot of the fabric."""

    cycle: int
    in_flight: int
    buffered_flits: int
    blocked_requests: int
    active_connections: int
    queued_packets: int

    def row(self) -> str:
        return (
            f"cycle={self.cycle:<7} in_flight={self.in_flight:<4} "
            f"buffered={self.buffered_flits:<5} blocked={self.blocked_requests:<4} "
            f"connections={self.active_connections:<4} queued={self.queued_packets}"
        )


class SimMonitor:
    """Samples fabric occupancy every ``interval`` cycles.

    Attach before running::

        mon = SimMonitor(sim, interval=10)
        sim.run(...)
        print(mon.summary())
        point_metrics.merge(mon.metrics())   # optional: join the pipeline

    The monitor is a passive ``on_cycle_start`` subscriber: unlike the old
    generator-based attachment it does not keep a drained simulation
    running.
    """

    #: gauge name per sampled quantity (the Sample field it mirrors)
    GAUGES: Tuple[Tuple[str, str], ...] = (
        ("monitor.in_flight", "in_flight"),
        ("monitor.buffered_flits", "buffered_flits"),
        ("monitor.blocked_requests", "blocked_requests"),
        ("monitor.active_connections", "active_connections"),
        ("monitor.queued_packets", "queued_packets"),
    )

    def __init__(self, sim: CycleEngine, interval: int = 10) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.sim = sim
        self.interval = interval
        self.samples: List[Sample] = []
        self._metrics = MetricSet()
        sim.hooks.on_cycle_start(self._on_cycle_start)

    def detach(self) -> None:
        """Stop sampling."""
        self.sim.hooks.unsubscribe(self._on_cycle_start)

    def _on_cycle_start(self, engine: CycleEngine) -> None:
        if engine.cycle % self.interval:
            return
        sample = Sample(
            cycle=engine.cycle,
            in_flight=len(engine.in_flight),
            buffered_flits=engine.buffered_flits(),
            blocked_requests=engine.blocked_requests(),
            active_connections=len(engine.connections),
            queued_packets=engine.queued_packets(),
        )
        self.samples.append(sample)
        self._metrics.counter("monitor.samples").inc()
        for gauge_name, field_name in self.GAUGES:
            self._metrics.gauge(gauge_name).observe(
                getattr(sample, field_name)
            )

    # -- analysis ------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """The sampled series as mergeable gauges (+ a sample counter)."""
        return self._metrics

    def _peak(self, gauge_name: str) -> int:
        g = self._metrics.gauge(gauge_name)
        return int(g.max) if g.max is not None else 0

    def peak_in_flight(self) -> int:
        return self._peak("monitor.in_flight")

    def peak_buffered(self) -> int:
        return self._peak("monitor.buffered_flits")

    def stalled_tail(self) -> int:
        """Number of trailing samples with blocked requests but no change
        in buffered flits: a long tail is the signature of deadlock."""
        n = 0
        prev: Optional[Sample] = None
        for s in reversed(self.samples):
            if prev is not None and (
                s.buffered_flits != prev.buffered_flits or s.blocked_requests == 0
            ):
                break
            if s.blocked_requests > 0:
                n += 1
            prev = s
        return n

    def summary(self, last: int = 5) -> str:
        lines = [
            f"{len(self.samples)} samples every {self.interval} cycles; "
            f"peak in-flight {self.peak_in_flight()}, "
            f"peak buffered flits {self.peak_buffered()}"
        ]
        lines += ["  " + s.row() for s in self.samples[-last:]]
        return "\n".join(lines)


class TextTrace:
    """Bounded ``(cycle, message)`` view of the simulator's event log.

    Subscribe through the hook bus::

        trace = TextTrace(500)
        trace.attach(sim)            # sim.hooks.on_log under the hood

    Internally this is a log-only :class:`repro.obs.trace.TraceRecorder`;
    use that class directly for structured (JSONL, multi-event) capture.
    """

    def __init__(self, limit: int = 1000) -> None:
        self.limit = limit
        self.recorder = TraceRecorder(events=("log",), limit=limit)

    @property
    def events(self) -> List[Tuple[int, str]]:
        return [(r["cycle"], r["message"]) for r in self.recorder.records]

    def attach(self, sim: CycleEngine) -> "TextTrace":
        """Subscribe to ``sim``'s event log; returns self for chaining."""
        self.recorder.attach(sim)
        return self

    def matching(self, needle: str) -> List[Tuple[int, str]]:
        return [(c, m) for c, m in self.events if needle in m]

    def dump(self, last: int = 50) -> str:
        items = self.events[-last:]
        return "\n".join(f"[{c:>6}] {m}" for c, m in items)


def channel_load_heatmap(
    sim: CycleEngine, busy: Dict[int, int], cycles: int
) -> str:
    """ASCII per-PE heat of adjacent channel utilization (2D networks).

    Each cell shows the mean busy fraction of the channels touching that
    PE's router, 0-9 scaled; hotspots (e.g. the S-XB row under broadcast
    load) stand out.  Rendering lives in :mod:`repro.viz.heatmap`.
    """
    from ..viz.heatmap import render_router_heatmap

    if cycles <= 0:
        busy_fraction: Dict[int, float] = {}
    else:
        busy_fraction = {cid: n / cycles for cid, n in busy.items()}
    return render_router_heatmap(sim.topo, busy_fraction)
