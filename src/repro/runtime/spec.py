"""Picklable run specifications for the sweep runtime.

A :class:`RunSpec` is a self-contained, hashable, picklable description of
one independent simulation point: network kind and shape, offered load,
traffic pattern (by registry name, so it crosses process boundaries),
fault set, measurement windows, and -- crucially for multi-seed replicas --
the **experiment-level seed** that parameterizes every random process in
the run.  Executing a spec builds a fresh simulator in whatever process it
lands in; nothing live is ever pickled.

Spec constructors for the standard experiment families:

* :func:`load_sweep_specs`      -- one spec per offered load (Fig.-style
  latency/load curves);
* :func:`seed_replicas`         -- replicate specs across seeds for
  confidence intervals;
* :func:`fault_placement_specs` -- one spec per single-fault placement
  (the fault-tolerance overhead enumeration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.fault import Fault
from ..obs.metrics import MetricSet
from ..obs.spans import SpanSet
from ..sim.stats import LoadPoint


@dataclass(frozen=True)
class RunSpec:
    """One independent sweep point, executable in any worker process."""

    kind: str = "md-crossbar"
    shape: Tuple[int, ...] = (4, 3)
    load: float = 0.1
    #: traffic pattern registry name (see ``repro.traffic.PATTERNS``)
    pattern: str = "uniform"
    packet_length: int = 4
    warmup: int = 200
    window: int = 500
    drain: int = 4000
    #: experiment-level seed: drives the injector RNG for this point
    seed: int = 1
    stall_limit: int = 2000
    faults: Tuple[Fault, ...] = ()
    #: replica index (bookkeeping for multi-seed runs)
    replica: int = 0
    label: str = ""
    #: attach the standard :mod:`repro.obs` collectors; the gathered
    #: MetricSet rides back on the PointResult (picklable + mergeable)
    metrics: bool = False
    #: attach a :class:`~repro.obs.spans.PacketSpanCollector`; the
    #: gathered SpanSet rides back on the PointResult with its pids
    #: rebased, so serial and parallel sweeps merge byte-identically
    spans: bool = False
    #: routing-scheme identity (see ``repro.routing``); ``""`` resolves to
    #: the kind's default scheme (``dxb`` on the MD crossbar), keeping
    #: pre-scheme specs and pickles valid
    scheme: str = ""
    #: run with the engine's online deadlock recovery enabled (see
    #: ``SimConfig.recovery``); part of the spec's cached identity --
    #: recovery changes what the same workload observably produces
    recovery: bool = False
    #: cycle-driver selection (see ``SimConfig.engine``): ``"active"``
    #: (scalar active-set driver) or ``"soa"`` (batched
    #: structure-of-arrays kernel).  Results are fingerprint-identical
    #: by contract, but the field is still part of the spec's cached
    #: identity: a cache hit must replay the driver the spec named, so
    #: an engine-parity bug can never be masked by the cache
    engine: str = "active"

    def describe(self) -> str:
        shape_s = "x".join(map(str, self.shape))
        bits = [f"{self.kind} {shape_s} load={self.load:g} seed={self.seed}"]
        if self.scheme:
            bits.append(f"scheme={self.scheme}")
        if self.recovery:
            bits.append("recovery")
        if self.engine != "active":
            bits.append(f"engine={self.engine}")
        if self.pattern != "uniform":
            bits.append(f"pattern={self.pattern}")
        if self.faults:
            bits.append(f"faults={len(self.faults)}")
        if self.label:
            bits.append(f"[{self.label}]")
        return " ".join(bits)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "shape": list(self.shape),
            "load": self.load,
            "pattern": self.pattern,
            "packet_length": self.packet_length,
            "warmup": self.warmup,
            "window": self.window,
            "drain": self.drain,
            "seed": self.seed,
            "stall_limit": self.stall_limit,
            "faults": [str(f) for f in self.faults],
            "replica": self.replica,
            "label": self.label,
            "metrics": self.metrics,
            "spans": self.spans,
            "scheme": self.scheme,
            "recovery": self.recovery,
            "engine": self.engine,
        }

    def network_key(self) -> Tuple:
        """Everything a built network depends on.

        Specs agreeing on this key can run on the same simulator: the
        measurement knobs (load, pattern, windows, seed) parameterize the
        *workload*, not the fabric.  The routing-scheme identity is part
        of the key -- two schemes on the same fabric are different
        networks, and a warm worker must never replay one scheme's
        simulator for another.  The warm-worker runtime's per-process
        :class:`~repro.runtime.session.NetworkCache` memoizes built
        networks under it and resets state between specs.
        """
        return (
            self.kind,
            self.shape,
            self.stall_limit,
            self.faults,
            self.scheme,
            self.recovery,
            self.engine,
        )

    def execute(self, sim=None) -> "PointResult":
        """Run this spec in the current process.

        ``sim`` short-circuits the network build with a prepared
        simulator -- freshly built or reset to its just-built state; the
        warm-worker runtime passes reused ones.  The caller guarantees it
        matches :meth:`network_key`; results must be byte-identical
        either way.
        """
        from ..experiments.sweeps import build_network, run_load_point
        from ..traffic import get_pattern

        start = time.perf_counter()
        if sim is None:
            sim = build_network(
                self.kind,
                self.shape,
                stall_limit=self.stall_limit,
                faults=self.faults,
                scheme=self.scheme,
                recovery=self.recovery,
                engine=self.engine,
            )()
        suite = span_collector = None
        if self.metrics:
            from ..obs.collectors import attach_standard_collectors

            suite = attach_standard_collectors(sim)
        if self.spans:
            from ..obs.spans import PacketSpanCollector

            span_collector = PacketSpanCollector().attach(sim)
        point = run_load_point(
            lambda: sim,
            self.load,
            pattern=get_pattern(self.pattern),
            packet_length=self.packet_length,
            warmup=self.warmup,
            window=self.window,
            drain=self.drain,
            seed=self.seed,
        )
        return PointResult(
            spec=self,
            point=point,
            wall_time=time.perf_counter() - start,
            metrics=suite.metrics() if suite is not None else None,
            spans=(
                span_collector.span_set().rebased()
                if span_collector is not None
                else None
            ),
        )


@dataclass(frozen=True)
class PointResult:
    """The outcome of one executed :class:`RunSpec`."""

    spec: RunSpec
    point: LoadPoint
    #: seconds the point took in its worker process
    wall_time: float
    #: collector metrics, when the spec asked for them (picklable, so
    #: they cross the process boundary with the result)
    metrics: Optional[MetricSet] = None
    #: per-packet spans, when the spec asked for them (pids rebased)
    spans: Optional[SpanSet] = None

    def to_dict(self) -> Dict:
        lat = self.point.latency
        out = {
            "spec": self.spec.to_dict(),
            "offered_load": self.point.offered_load,
            "accepted_load": self.point.accepted_load,
            "latency": {
                "count": lat.count,
                "mean": lat.mean,
                "median": lat.median,
                "p95": lat.p95,
                "p99": lat.p99,
                "max": lat.max,
                "min": lat.min,
            },
            "deadlocked": self.point.deadlocked,
            "cycles": self.point.cycles,
            "recoveries": self.point.recoveries,
            "wall_time": self.wall_time,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        if self.spans is not None:
            out["spans"] = self.spans.to_dict()
        return out


# --------------------------------------------------------- spec constructors
def load_sweep_specs(
    kind: str,
    shape: Sequence[int],
    loads: Sequence[float],
    *,
    pattern: str = "uniform",
    seed: int = 1,
    **kw,
) -> List[RunSpec]:
    """One spec per offered load (the latency-versus-load experiment)."""
    return [
        RunSpec(
            kind=kind,
            shape=tuple(shape),
            load=load,
            pattern=pattern,
            seed=seed,
            **kw,
        )
        for load in loads
    ]


def seed_replicas(
    specs: Sequence[RunSpec], seeds: Sequence[int]
) -> List[RunSpec]:
    """Replicate every spec once per seed.

    Replicas differ *only* in their experiment-level seed, so they are
    statistically independent yet individually reproducible -- the fix for
    the old sweep path, whose injectors all defaulted to the same
    hard-coded seed.  Results come back grouped by spec, seeds in the
    given order.
    """
    return [
        replace(spec, seed=seed, replica=i)
        for spec in specs
        for i, seed in enumerate(seeds)
    ]


def fault_placement_specs(
    kind: str,
    shape: Sequence[int],
    load: float,
    *,
    faults: Optional[Sequence[Fault]] = None,
    seed: int = 1,
    **kw,
) -> List[RunSpec]:
    """One spec per fault placement (default: every feasible single fault).

    Only the MD crossbar network models the fault facility, so ``kind``
    should be ``"md-crossbar"``.
    """
    if faults is None:
        from ..core.multifault import all_single_faults

        faults = all_single_faults(tuple(shape))
    return [
        RunSpec(
            kind=kind,
            shape=tuple(shape),
            load=load,
            seed=seed,
            faults=(fault,),
            label=str(fault),
            **kw,
        )
        for fault in faults
    ]
