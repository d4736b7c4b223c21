"""Latency-versus-load sweep machinery (the consumer layer).

The standard experiment loop of interconnect evaluation: drive a network
with Bernoulli traffic at a fixed offered load, measure latency over a
window after warmup, let the fabric drain, and sweep the load axis.  Used
by the E8/E11/E20/E22 benches, the ``repro sweep`` CLI and downstream
users directly:

    from repro.experiments import sweep
    points = sweep("md-crossbar", (8, 8), [0.1, 0.2, 0.3])
    points = sweep("md-crossbar", (8, 8), [0.1, 0.2, 0.3], jobs=4)

Sweep points are independent fixed-seed simulations, so they fan out over
a :class:`repro.runtime.SweepSession`: pass ``jobs=N`` to run them in
parallel worker processes; the merged results are identical to a serial
run.  The experiment-level ``seed`` parameterizes the injector RNG at
every point -- sweep with several seeds (see
:func:`repro.runtime.seed_replicas`) for independent replicas.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..sim import NetworkSimulator, SimConfig
from ..sim.stats import LatencyStats, LoadPoint
from ..traffic import BernoulliInjector, Pattern, pattern_name, uniform


def build_network(
    kind: str,
    shape,
    stall_limit: int = 2000,
    faults=(),
    scheme: str = "",
    recovery: bool = False,
    engine: str = "active",
):
    """(simulator factory) for a network kind and routing scheme.

    Dispatches through the :mod:`repro.routing` registry: ``scheme`` names
    a registered routing scheme (``""`` resolves to the kind's default --
    ``dxb`` for the MD crossbar), and ``faults`` pre-configures schemes
    that model standing faults, as a standing fault would be in the
    hardware.  ``recovery`` turns on the engine's online deadlock
    recovery and ``engine`` selects the cycle driver (``"active"`` or the
    batched ``"soa"`` kernel; see :class:`~repro.sim.SimConfig`).
    Unknown kinds/schemes and kind/scheme mismatches raise
    :class:`~repro.core.config.ConfigError`.
    """
    from ..routing import make_scheme, resolve_scheme

    kind, scheme = resolve_scheme(kind, scheme)
    sch = make_scheme(scheme, shape, faults=tuple(faults))
    return lambda: NetworkSimulator(
        sch.adapter,
        SimConfig(
            num_vcs=sch.num_vcs,
            stall_limit=stall_limit,
            recovery=recovery,
            engine=engine,
        ),
    )


def run_load_point(
    make_sim,
    load: float,
    pattern: Pattern = uniform,
    packet_length: int = 4,
    warmup: int = 200,
    window: int = 500,
    drain: int = 4000,
    seed: int = 1,
) -> LoadPoint:
    """One point of the latency-vs-offered-load curve."""
    sim = make_sim()
    gen = BernoulliInjector(
        load=load,
        packet_length=packet_length,
        pattern=pattern,
        seed=seed,
        stop_at=warmup + window,
        measure_from=warmup,
        measure_until=warmup + window,
    )
    sim.add_generator(gen)
    res = sim.run(max_cycles=warmup + window + drain, until_drained=False)
    measured = gen.measured_packets(res.delivered)
    nodes = len(sim.live_nodes)
    accepted = (
        sum(p.length for p in measured) / (window * nodes) if nodes else 0.0
    )
    return LoadPoint(
        offered_load=load,
        accepted_load=accepted,
        latency=LatencyStats.from_packets(measured),
        deadlocked=res.deadlocked,
        cycles=res.cycles,
        recoveries=res.recoveries,
    )


def sweep(
    kind: str,
    shape,
    loads: Sequence[float],
    pattern: Pattern = uniform,
    jobs: Optional[int] = None,
    cache=None,
    progress=None,
    ledger=None,
    seed: int = 1,
    stall_limit: int = 2000,
    scheme: str = "",
    recovery: bool = False,
    engine: str = "active",
    **kw,
) -> List[LoadPoint]:
    """Sweep the load axis; each point is an independent fixed-seed run.

    The points run through a one-shot
    :class:`~repro.runtime.session.SweepSession` (scripts issuing many
    batches should hold a session themselves): ``jobs`` > 1 fans them out
    over worker processes, the default runs them in-process.  A ``cache``
    (:class:`~repro.runtime.cache.ResultCache`) replays already-known
    points from disk, ``progress(result, done, total)`` streams
    completions, and a ``ledger``
    (:class:`~repro.obs.telemetry.SweepLedger`) records the run's
    telemetry.  Ad-hoc pattern callables
    (hotspot/permutation closures) are not picklable and therefore always
    run serially, uncached.
    """
    name = pattern_name(pattern)
    if name is None:
        if jobs is not None and jobs > 1:
            raise ValueError(
                "parallel sweeps need a registered pattern name "
                "(see repro.traffic.PATTERNS); ad-hoc callables cannot "
                "cross process boundaries"
            )
        make_sim = build_network(
            kind,
            shape,
            stall_limit=stall_limit,
            scheme=scheme,
            recovery=recovery,
            engine=engine,
        )
        return [
            run_load_point(make_sim, load, pattern, seed=seed, **kw)
            for load in loads
        ]

    from ..runtime import load_sweep_specs, run_specs

    specs = load_sweep_specs(
        kind,
        tuple(shape),
        loads,
        pattern=name,
        seed=seed,
        stall_limit=stall_limit,
        scheme=scheme,
        recovery=recovery,
        engine=engine,
        **kw,
    )
    results = run_specs(
        specs,
        jobs=jobs,
        cache=cache,
        progress=progress,
        ledger=ledger,
    )
    return [r.point for r in results]


def saturation_load(points: Sequence[LoadPoint], factor: float = 4.0) -> Optional[float]:
    """First offered load whose mean latency exceeds ``factor`` x the
    zero-ish-load latency (a standard saturation estimate)."""
    base = points[0].latency.mean
    for p in points:
        if p.latency.count == 0 or p.latency.mean > factor * base:
            return p.offered_load
    return None
