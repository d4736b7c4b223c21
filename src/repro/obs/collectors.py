"""Hook-bus collectors: turn engine events into :class:`MetricSet`s.

Each collector subscribes to exactly the hooks it needs on
:meth:`attach` and contributes metrics on demand; an unattached collector
costs nothing, and an attached one only reads the engine's *public*
observable state (``connections``, ``channel_busy``, ``pending`` ...) --
never private internals.  Every metric a collector emits is a
deterministic function of the simulated events, so metric sets gathered
in worker processes merge byte-identically to a serial run
(wall-clock profiling stays out of this module by design; see
``PointResult.wall_time`` for that).

* :class:`DeliveryCollector`   -- delivered count + fixed-bucket latency
  histogram (one observation per recipient, so broadcasts weigh by fanout);
* :class:`GrantCollector`      -- grants total, multicast (whole-crossbar)
  grants, and per-element grant counts (the Fig. 6 serialization story);
* :class:`PhaseProfiler`       -- per-phase work counters for the five
  engine phases (ejected flits, requests queued, connections established,
  flit moves, injections) plus the cycle count;
* :class:`ChannelUtilization`  -- held cycles per (crossbar, port, VC)
  and busy cycles per channel, renderable as an ASCII heatmap;
* :class:`DeadlockWatch`       -- deadlock count and detection cycle;
* :class:`RouteCacheStats`     -- hit/miss counters and size of the
  adapter's route-decision memo (hookless; read on demand).

:class:`CollectorSuite` bundles the standard set for one engine;
:func:`attach_standard_collectors` is what ``RunSpec(metrics=True)`` uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.engine import CycleEngine, DeadlockReport
from ..sim.fabric import Connection, VCKey
from ..topology.base import Channel, element_label, output_port_map, port_label
from .metrics import LATENCY_BUCKETS, MetricSet, merge_metric_sets


class Collector:
    """Base: subscribe on attach, contribute a MetricSet on demand."""

    def attach(self, engine: CycleEngine) -> "Collector":
        raise NotImplementedError

    def detach(self, engine: CycleEngine) -> None:
        for fn in self._hooks():
            engine.hooks.unsubscribe(fn)

    def _hooks(self):
        return ()

    def metrics(self) -> MetricSet:
        raise NotImplementedError


class DeliveryCollector(Collector):
    """Latency histogram and delivery counter, fed by ``on_deliver``."""

    def __init__(self, bounds: Sequence[int] = LATENCY_BUCKETS) -> None:
        self._set = MetricSet()
        self._hist = self._set.histogram("latency_cycles", bounds)
        self._count = self._set.counter("deliveries")

    def attach(self, engine: CycleEngine) -> "DeliveryCollector":
        engine.hooks.on_deliver(self._on_deliver)
        return self

    def _hooks(self):
        return (self._on_deliver,)

    def _on_deliver(self, packet, coord, cycle) -> None:
        self._count.inc()
        if packet.injected_at is not None:
            self._hist.observe(cycle - packet.injected_at)

    def metrics(self) -> MetricSet:
        return self._set


class GrantCollector(Collector):
    """Grant counts, overall / multicast / per switch element."""

    def __init__(self) -> None:
        self._set = MetricSet()
        self._grants = self._set.counter("grants")
        self._multicast = self._set.counter("grants_multicast")
        self._by_element = self._set.labeled("grants_by_element")

    def attach(self, engine: CycleEngine) -> "GrantCollector":
        engine.hooks.on_grant(self._on_grant)
        return self

    def _hooks(self):
        return (self._on_grant,)

    def _on_grant(self, engine: CycleEngine, conn: Connection) -> None:
        self._grants.inc()
        if len(conn.couts) > 1:
            self._multicast.inc()
        self._by_element.inc(element_label(conn.element))

    def metrics(self) -> MetricSet:
        return self._set


class PhaseProfiler(Collector):
    """Deterministic work counters for the five engine phases.

    Attribution is by public-counter deltas across each phase: flits
    ejected in *eject*, grant requests queued in *route*, connections
    established in *grant*, flit moves in *transfer*, packets injected in
    *inject* -- the profile of where a cycle's work happens, stable across
    processes (unlike wall-clock time).
    """

    def __init__(self) -> None:
        self._set = MetricSet()
        self._cycles = self._set.counter("cycles")
        self._prev: Tuple[int, int, int, int, int] = (0, 0, 0, 0, 0)

    def attach(self, engine: CycleEngine) -> "PhaseProfiler":
        engine.hooks.on_cycle_start(self._on_cycle_start)
        engine.hooks.on_phase_end(self._on_phase_end)
        return self

    def _hooks(self):
        return (self._on_cycle_start, self._on_phase_end)

    @staticmethod
    def _snapshot(engine: CycleEngine) -> Tuple[int, int, int, int, int]:
        return (
            engine.flit_moves,
            len(engine.delivered),
            engine.blocked_requests(),
            len(engine.connections),
            engine.injected,
        )

    def _on_cycle_start(self, engine: CycleEngine) -> None:
        self._cycles.inc()
        self._prev = self._snapshot(engine)

    def _on_phase_end(self, engine: CycleEngine, phase: str) -> None:
        cur = self._snapshot(engine)
        moves, delivered, blocked, conns, injected = (
            cur[i] - self._prev[i] for i in range(5)
        )
        self._prev = cur
        if phase == "eject":
            self._bump("phase.eject.ejected_flits", moves)
            self._bump("phase.eject.completed_packets", delivered)
        elif phase == "route":
            self._bump("phase.route.requests_queued", blocked)
        elif phase == "grant":
            self._bump("phase.grant.connections_established", conns)
        elif phase == "transfer":
            self._bump("phase.transfer.flit_moves", moves)
        elif phase == "inject":
            self._bump("phase.inject.packets_injected", injected)

    def _bump(self, name: str, delta: int) -> None:
        if delta > 0:
            self._set.counter(name).inc(delta)

    def metrics(self) -> MetricSet:
        return self._set


class ChannelUtilization(Collector):
    """Channel occupancy keyed by (owning switch, output port, VC).

    Two signals per channel:

    * **held cycles** -- cycles a granted connection owned the output
      port after the transfer phase (counted per VC via the public
      connection table; this is the paper's S-XB contention quantity:
      serialized broadcasts hold every port of the crossbar at once);
    * **busy cycles** -- cycles a flit actually crossed the link (from
      the engine's public ``channel_busy`` counters; VC-aggregated).

    ``heatmap()`` renders the per-router heat of either signal for 2D
    networks -- the Fig. 5/6 contention picture.
    """

    def __init__(self) -> None:
        self._held: Dict[VCKey, int] = {}
        self._engine: Optional[CycleEngine] = None
        #: cid -> (channel, owning element label, port index)
        self._ports: Dict[int, Tuple[Channel, str, int]] = {}
        #: frozen (busy, cycles) captured on detach, so a detached
        #: collector stops tracking the live engine
        self._frozen: Optional[Tuple[Dict[int, int], int]] = None

    def attach(self, engine: CycleEngine) -> "ChannelUtilization":
        self._engine = engine
        self._ports = output_port_map(engine.topo)
        engine.hooks.on_phase_end(self._on_phase_end)
        return self

    def _hooks(self):
        return (self._on_phase_end,)

    def detach(self, engine: CycleEngine) -> None:
        self._frozen = (dict(engine.channel_busy), engine.cycle)
        super().detach(engine)

    def _busy_and_cycles(self) -> Tuple[Dict[int, int], int]:
        if self._frozen is not None:
            return self._frozen
        if self._engine is None:
            return {}, 0
        return self._engine.channel_busy, self._engine.cycle

    def _on_phase_end(self, engine: CycleEngine, phase: str) -> None:
        if phase != "transfer":
            return
        held = self._held
        for conn in engine.connections.values():
            for key in conn.couts:
                held[key] = held.get(key, 0) + 1

    def _label(self, cid: int, vc: Optional[int] = None) -> str:
        return port_label(self._ports, cid, vc)

    def metrics(self) -> MetricSet:
        out = MetricSet()
        held = out.labeled("chan.held_cycles")
        for (cid, vc), n in self._held.items():
            held.inc(self._label(cid, vc), n)
        busy = out.labeled("chan.busy_cycles")
        for cid, n in self._busy_and_cycles()[0].items():
            busy.inc(self._label(cid), n)
        return out

    # -- rendering --------------------------------------------------------
    def busy_fractions(self) -> Dict[int, float]:
        """Busy fraction per channel cid over the cycles so far."""
        busy, cycles = self._busy_and_cycles()
        if cycles == 0:
            return {}
        return {cid: n / cycles for cid, n in busy.items()}

    def heatmap(self) -> str:
        """ASCII per-router heat of adjacent channel utilization (2D)."""
        from ..viz.heatmap import render_router_heatmap

        if self._engine is None:
            raise ValueError("collector is not attached")
        return render_router_heatmap(
            self._engine.topo, self.busy_fractions()
        )


class DeadlockWatch(Collector):
    """Counts watchdog firings and records the detection cycle.

    Also counts online recovery actions (``SimConfig.recovery``): the
    ``recoveries`` counter, the last ``recovery_cycle``, and the victims
    rotated out per cyclic wait -- a run that recovers its way to full
    delivery shows ``recoveries > 0`` with ``deadlocks == 0``.
    """

    def __init__(self) -> None:
        self._set = MetricSet()

    def attach(self, engine: CycleEngine) -> "DeadlockWatch":
        engine.hooks.on_deadlock(self._on_deadlock)
        engine.hooks.on_recovery(self._on_recovery)
        return self

    def _hooks(self):
        return (self._on_deadlock, self._on_recovery)

    def _on_deadlock(self, engine: CycleEngine, report: DeadlockReport) -> None:
        self._set.counter("deadlocks").inc()
        self._set.gauge("deadlock_cycle").observe(report.cycle)
        self._set.counter("deadlock_blocked_packets").inc(
            len(report.blocked_pids)
        )

    def _on_recovery(self, engine: CycleEngine, event) -> None:
        self._set.counter("recoveries").inc()
        self._set.gauge("recovery_cycle").observe(event.cycle)
        self._set.counter("recovery_cycle_members").inc(
            len(event.cycle_pids)
        )

    def metrics(self) -> MetricSet:
        return self._set


class RouteCacheStats(Collector):
    """Route-decision memo statistics from the adapter.

    Subscribes to no hooks: the adapter's memo counters
    (:meth:`~repro.sim.adapter.MDCrossbarAdapter.cache_info`) are read on
    demand, frozen on :meth:`detach`.  Adapters without a ``cache_info``
    method contribute an empty metric set, so the collector is safe in
    the standard bundle for any topology.  The counters are deterministic
    functions of the simulated route requests, so per-process sets merge
    identically to a serial run like every other collector here.
    """

    def __init__(self) -> None:
        self._engine: Optional[CycleEngine] = None
        self._frozen: Optional[Dict[str, int]] = None

    def attach(self, engine: CycleEngine) -> "RouteCacheStats":
        self._engine = engine
        return self

    def detach(self, engine: CycleEngine) -> None:
        self._frozen = self._info()
        super().detach(engine)

    def _info(self) -> Optional[Dict[str, int]]:
        if self._frozen is not None:
            return self._frozen
        if self._engine is None:
            return None
        info_fn = getattr(self._engine.adapter, "cache_info", None)
        return info_fn() if info_fn is not None else None

    def metrics(self) -> MetricSet:
        out = MetricSet()
        info = self._info()
        if info is None:
            return out
        out.counter("route_cache.hits").inc(info["hits"])
        out.counter("route_cache.misses").inc(info["misses"])
        out.gauge("route_cache.size").observe(info["size"])
        return out


class ResultCacheStats(Collector):
    """Counters of the sweep runtime's on-disk result cache.

    The cache lives *above* the engine (one per sweep, not per run), so
    this collector subscribes to no hooks and never attaches to an
    engine: it wraps any source with a ``stats() -> {name: int}`` method
    -- :class:`repro.runtime.cache.ResultCache` is the intended one
    (duck-typed to keep :mod:`repro.obs` free of runtime imports) -- and
    exports the counters as a :class:`MetricSet` so cache behaviour
    merges into the same digest as the per-point collectors.
    :meth:`detach` freezes the counters like every other collector here.
    """

    def __init__(self, source) -> None:
        self._source = source
        self._frozen: Optional[Dict[str, int]] = None

    def attach(self, engine: Optional[CycleEngine] = None) -> "ResultCacheStats":
        return self

    def detach(self, engine: Optional[CycleEngine] = None) -> None:
        self._frozen = self._stats()

    def _stats(self) -> Dict[str, int]:
        if self._frozen is not None:
            return self._frozen
        return dict(self._source.stats())

    def metrics(self) -> MetricSet:
        out = MetricSet()
        for name, value in sorted(self._stats().items()):
            out.counter(f"result_cache.{name}").inc(value)
        return out


class CollectorSuite:
    """The standard collector bundle for one engine.

    Attach before running, read :meth:`metrics` after::

        suite = CollectorSuite(sim)
        sim.run(...)
        print(suite.metrics().summary())
    """

    def __init__(
        self,
        engine: CycleEngine,
        collectors: Optional[Sequence[Collector]] = None,
        latency_bounds: Sequence[int] = LATENCY_BUCKETS,
    ) -> None:
        self.engine = engine
        self.collectors: List[Collector] = list(
            collectors
            if collectors is not None
            else (
                DeliveryCollector(latency_bounds),
                GrantCollector(),
                PhaseProfiler(),
                ChannelUtilization(),
                DeadlockWatch(),
                RouteCacheStats(),
            )
        )
        for c in self.collectors:
            c.attach(engine)

    def detach(self) -> None:
        for c in self.collectors:
            c.detach(self.engine)

    def find(self, cls):
        """The first collector of the given class, or None."""
        for c in self.collectors:
            if isinstance(c, cls):
                return c
        return None

    def metrics(self) -> MetricSet:
        return merge_metric_sets(c.metrics() for c in self.collectors)


def attach_standard_collectors(engine: CycleEngine) -> CollectorSuite:
    """What ``RunSpec(metrics=True)`` attaches inside a worker process."""
    return CollectorSuite(engine)
