"""Command-line tools: ``python -m repro <command> ...``.

Subcommands:

* ``route``     -- print the route of a transfer or broadcast, with faults
* ``check``     -- deadlock analysis (tiered CDG + ordering certificate)
* ``census``    -- single- or two-fault tolerance census
* ``simulate``  -- run uniform traffic and print latency statistics
* ``sweep``     -- latency-vs-load sweep over the runtime's sweep session
* ``trace``     -- capture a structured JSONL event trace of one run
* ``report``    -- span/metric report from a live run or a saved trace
* ``bench``     -- pinned-counts suite with exact baseline comparison
* ``figures``   -- replay the paper's Figs. 5/6/9/10 scenarios
* ``machine``   -- describe an SR2201 configuration
* ``kernels``   -- run application kernels across topologies
* ``collectives`` -- hardware vs software broadcast and barrier costs
* ``replay``    -- replay a recorded workload trace (JSONL)
* ``doctor``    -- cross-validate every analysis layer for a configuration

Examples::

    python -m repro route --shape 4x3 --src 0,0 --dst 2,2 --fault rtr:2,0
    python -m repro check --shape 4x3 --fault rtr:2,0 --detour naive
    python -m repro census --shape 4x3 --pairs
    python -m repro simulate --shape 8x8 --load 0.3 --cycles 600
    python -m repro sweep --shape 8x8 --loads 0.05:0.4:8 --jobs 4 --json
    python -m repro sweep --shape 8x8 --loads 0.05:0.4:8 --scheme hyperx_ft
    python -m repro sweep --shape 4x3 --loads 0.1,0.3 --metrics
    python -m repro trace --shape 4x3 --load 0.2 --cycles 100 --out run.jsonl
    python -m repro machine --config SR2201/2048

``--scheme`` selects a registered routing scheme (see ``repro.routing``);
``--detour`` picks the paper facility's D-XB variant (safe vs naive) and
only applies to the default ``dxb`` scheme.  ``--recovery`` (on sweep,
trace, report and figures) switches the engine from deadlock *avoidance*
to online deadlock *recovery*: detected cycles are broken by rotating one
victim packet back to its source instead of halting the run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .core import (
    Broadcast,
    Fault,
    SwitchLogic,
    Unicast,
    analyze_deadlock_freedom,
    compute_route,
    make_config,
)
from .core.config import BroadcastMode, ConfigError, DetourScheme
from .topology import MDCrossbar


def parse_shape(text: str):
    try:
        return tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; use e.g. 4x3")


def parse_coord(text: str):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coordinate {text!r}; use e.g. 2,0")


def parse_fault(text: str) -> Fault:
    """``rtr:x,y[,z]`` or ``xb:<dim>:<line coords>``."""
    kind, _, rest = text.partition(":")
    if kind == "rtr":
        return Fault.router(parse_coord(rest))
    if kind == "xb":
        dim_s, _, line_s = rest.partition(":")
        try:
            return Fault.crossbar(int(dim_s), parse_coord(line_s) if line_s else ())
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"bad fault {text!r}; use rtr:x,y or xb:dim:line (e.g. xb:0:1)"
    )


def _build(args) -> tuple:
    topo = MDCrossbar(args.shape)
    cfg = make_config(
        args.shape,
        faults=tuple(args.fault or ()),
        detour_scheme=DetourScheme(args.detour),
        broadcast_mode=BroadcastMode(args.broadcast),
    )
    return topo, SwitchLogic(topo, cfg)


def _build_sim(args, stall_limit: int):
    """A simulator from the parsed arguments, honoring
    ``--scheme``/``--recovery``/``--engine`` where the subcommand has them
    (simulate, trace, report, collectives, replay, the doctor's obs check).

    An explicit routing scheme dispatches through the
    :mod:`repro.routing` registry; the default keeps the legacy paper
    facility path, which additionally honors ``--detour``/``--broadcast``.
    Any other scheme refuses a non-default ``--detour``/``--broadcast``.
    """
    from .sim import MDCrossbarAdapter, NetworkSimulator, SimConfig

    recovery = bool(getattr(args, "recovery", False))
    engine = getattr(args, "engine", "active") or "active"
    scheme = getattr(args, "scheme", "") or ""
    if scheme in ("", "dxb"):
        _, logic = _build(args)
        return NetworkSimulator(
            MDCrossbarAdapter(logic),
            SimConfig(
                stall_limit=stall_limit, recovery=recovery, engine=engine
            ),
        )
    from .routing import make_scheme

    ignored = [
        f"--{opt} {getattr(args, opt)}"
        for opt, default in (("detour", "safe"), ("broadcast", "serialized"))
        if getattr(args, opt, default) != default
    ]
    if ignored:
        raise ConfigError(
            f"--scheme {scheme} does not read {' or '.join(ignored)}: "
            "only the dxb facility does"
        )
    sch = make_scheme(scheme, args.shape, faults=tuple(args.fault or ()))
    return NetworkSimulator(
        sch.adapter,
        SimConfig(
            num_vcs=sch.num_vcs,
            stall_limit=stall_limit,
            recovery=recovery,
            engine=engine,
        ),
    )


def _note_engine_fallback(args, sim) -> None:
    """One stderr line when a requested ``--engine soa`` run was handed
    to the scalar driver (trace/report always subscribe per-cycle hooks,
    which the kernel does not support) -- the fallback is correct by
    contract but should never be silent at the CLI."""
    if getattr(args, "engine", "active") == "soa" and sim.engine_used != "soa":
        print(
            f"note: soa engine fell back to the scalar driver "
            f"({sim.engine_fallback})",
            file=sys.stderr,
        )


def _add_scheme(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scheme", default="",
        help="routing scheme from the repro.routing registry "
             "(dxb/adaptive/hyperx_ft/mesh/torus/hypercube/fullmesh_novc; "
             "default: the kind's default scheme)",
    )


def _add_engine(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--engine", choices=("active", "soa"), default="active",
        help="cycle driver: the scalar active-set engine (default) or "
             "the batched structure-of-arrays kernel "
             "(fingerprint-identical; soa hands unsupported state back "
             "to the scalar driver mid-run)",
    )


def _add_recovery(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--recovery", action="store_true",
        help="recover from detected deadlock online (drain one victim of "
             "the cyclic wait and re-inject it) instead of halting",
    )


def _add_shape_detour(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", type=parse_shape, default=(4, 3), help="e.g. 4x3 or 4x4x4")
    p.add_argument(
        "--detour", choices=[s.value for s in DetourScheme], default="safe",
        help="detour scheme: safe (D-XB = S-XB, paper Sec. 5) or naive",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_shape_detour(p)
    p.add_argument(
        "--fault", type=parse_fault, action="append",
        help="rtr:x,y or xb:dim:line; repeatable for multi-fault analysis",
    )
    p.add_argument(
        "--broadcast", choices=[m.value for m in BroadcastMode],
        default="serialized", help="broadcast facility mode",
    )


def cmd_route(args) -> int:
    from .viz import render_rc_legend, render_route

    topo, logic = _build(args)
    if args.bcast:
        tree = compute_route(topo, logic, Broadcast(args.src))
        print(f"broadcast from PE{args.src}: {len(tree.delivered)} PEs covered")
        show = args.dst or max(topo.node_coords())
        print(render_route(tree, show))
    else:
        if args.dst is None:
            print("route: --dst is required for point-to-point", file=sys.stderr)
            return 2
        tree = compute_route(topo, logic, Unicast(args.src, args.dst))
        print(render_route(tree, args.dst))
        print(f"crossbar hops: {tree.xb_hops_to(args.dst)}")
    print(render_rc_legend())
    return 0


def cmd_check(args) -> int:
    from .core.ordering import CertificateError, build_certificate

    topo, logic = _build(args)
    res = analyze_deadlock_freedom(topo, logic)
    print(
        f"tiered CDG analysis: {res.num_flows} flows, {res.num_edges} edges "
        f"-> deadlock free: {res.deadlock_free}"
    )
    if res.hazard is not None:
        print(res.hazard.describe())
        return 1
    try:
        cert = build_certificate(topo, logic)
        print(
            f"ordering certificate: {len(cert.rank)} channels ranked, "
            f"{cert.num_flows_verified} flows verified"
        )
    except CertificateError as e:
        print(f"ordering certificate: unavailable ({e})")
    return 0


def cmd_census(args) -> int:
    from .core.multifault import (
        all_single_faults,
        analyze_fault_set,
        fault_pair_census,
    )

    topo = MDCrossbar(args.shape)
    scheme = DetourScheme(args.detour)
    if args.pairs:
        summary = fault_pair_census(
            args.shape, detour_scheme=scheme, max_pairs=args.max_sets
        )
        print(f"two-fault census on {args.shape} ({scheme.value} scheme):")
        for line in summary.rows():
            print(" ", line)
        return 0 if summary.degraded == 0 else 1
    ok = True
    for fault in all_single_faults(args.shape):
        report = analyze_fault_set(topo, [fault], detour_scheme=scheme)
        print(report.row())
        ok = ok and (report.fully_tolerant or not report.feasible)
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    from .sim.stats import LatencyStats
    from .traffic import BernoulliInjector, get_pattern

    sim = _build_sim(args, stall_limit=args.stall_limit)
    gen = BernoulliInjector(
        load=args.load,
        packet_length=args.packet_length,
        pattern=get_pattern(args.pattern),
        seed=args.seed,
        stop_at=args.cycles,
        measure_from=args.cycles // 4,
    )
    sim.add_generator(gen)
    res = sim.run(max_cycles=args.cycles * 10, until_drained=False)
    stats = LatencyStats.from_packets(gen.measured_packets(res.delivered))
    print(
        f"{args.pattern} traffic at {args.load} flits/PE/cycle on "
        f"{'x'.join(map(str, args.shape))}: offered {gen.offered} packets, "
        f"delivered {len(res.delivered)}"
    )
    print(f"latency: {stats.row()}")
    if res.deadlocked:
        print(res.deadlock.describe())
        return 1
    return 0


def parse_loads(text: str) -> List[float]:
    """Comma list (``0.05,0.1``) or ``start:stop:count`` linear range."""
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
            if count < 1:
                raise ValueError
            if count == 1:
                return [start]
            step = (stop - start) / (count - 1)
            return [start + i * step for i in range(count)]
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad loads {text!r}; use e.g. 0.05,0.1,0.2 or 0.05:0.4:8"
        )


def cmd_sweep(args) -> int:
    import contextlib
    import json as _json

    from .obs import LiveDashboard, SweepLedger
    from .routing import make_scheme, resolve_scheme
    from .runtime import RunSpec, SweepSession, seed_replicas

    # fail fast on unknown schemes, kind-scheme mismatches and the shapes
    # or faults a scheme rejects, before any spec reaches a worker
    make_scheme(
        resolve_scheme(args.kind, args.scheme)[1],
        args.shape,
        faults=tuple(args.fault or ()),
    )
    specs = [
        RunSpec(
            kind=args.kind,
            shape=args.shape,
            load=load,
            pattern=args.pattern,
            packet_length=args.packet_length,
            warmup=args.warmup,
            window=args.window,
            drain=args.drain,
            seed=args.seed,
            stall_limit=args.stall_limit,
            faults=tuple(args.fault or ()),
            metrics=args.metrics,
            scheme=args.scheme,
            recovery=args.recovery,
            engine=args.engine,
        )
        for load in args.loads
    ]
    if args.seeds > 1:
        specs = seed_replicas(specs, list(range(args.seed, args.seed + args.seeds)))
    cache = None
    if args.cache:
        from .runtime import ResultCache

        cache = ResultCache(args.cache_dir)
    sink_cm = (
        open(args.ledger, "w")
        if args.ledger
        else contextlib.nullcontext(None)
    )
    with sink_cm as sink:
        # the ledger also feeds the --live dashboard's closing worker
        # bars, so --live records one even without --ledger
        ledger = (
            SweepLedger(sink=sink) if (args.ledger or args.live) else None
        )
        dash = LiveDashboard(len(specs)) if args.live else None
        with SweepSession(
            jobs=args.jobs, cache=cache, ledger=ledger
        ) as session:
            results = session.run(
                specs, progress=dash.progress if dash else None
            )
        info = session.last_run
    if dash is not None:
        dash.finish(ledger=ledger)
    # what actually ran (jobs<=1 and single-spec runs degrade to serial;
    # cached points never reach a worker): stderr, so --json stays pure
    print(f"ran {info.describe()}", file=sys.stderr)
    if cache is not None:
        print(cache.describe(), file=sys.stderr)
    if args.ledger:
        print(
            f"ledger: {len(ledger)} record(s) -> {args.ledger}",
            file=sys.stderr,
        )
    if args.json:
        print(_json.dumps([r.to_dict() for r in results], indent=2))
    else:
        shape_s = "x".join(map(str, args.shape))
        print(
            f"{args.kind} {shape_s} {args.pattern} traffic, "
            f"{len(specs)} points, jobs={args.jobs or 1} "
            f"({info.workers} effective worker(s), {info.chunks} chunk(s))"
        )
        for r in results:
            seed_s = f" seed={r.spec.seed}" if args.seeds > 1 else ""
            print(f"  {r.point.row()}{seed_s}")
        if args.metrics:
            from .obs import merge_metric_sets

            sets = [r.metrics for r in results]
            if cache is not None:
                sets.append(cache.metrics())
            merged = merge_metric_sets(sets)
            print("merged metrics across all points:")
            print("  " + merged.summary(top=5).replace("\n", "\n  "))
            if "latency_cycles" in merged:
                print("  latency histogram (cycles):")
                print(
                    "  " + merged["latency_cycles"].render().replace("\n", "\n  ")
                )
    return 1 if any(r.point.deadlocked for r in results) else 0


def cmd_campaign(args) -> int:
    import contextlib
    import json as _json

    from .analysis.campaign import CampaignSpec, run_campaign
    from .analysis.reliability import (
        mttf_no_facility,
        mttf_single_fault_facility,
    )
    from .obs import LiveDashboard, SweepLedger
    from .routing import resolve_scheme

    # fail fast, before any worker spawns: the campaign models the
    # md-crossbar fault facility, so the scheme must both resolve in the
    # registry and be one the R1/R2 oracle covers (CampaignSpec rejects
    # e.g. hyperx_ft, which routes md-crossbar but has no S-XB facility)
    kind, scheme = resolve_scheme("", args.scheme)
    if kind != "md-crossbar":
        from .core.config import ConfigError

        raise ConfigError(
            f"reliability campaigns model the md-crossbar facility; "
            f"scheme {scheme!r} routes {kind!r}"
        )
    spec = CampaignSpec(
        shape=args.shape,
        samples=args.samples,
        seed=args.seed,
        rate=args.rate,
        max_faults=args.max_faults,
        scheme=scheme,
        block_samples=args.block,
    ).validated()
    sink_cm = (
        open(args.ledger, "w")
        if args.ledger
        else contextlib.nullcontext(None)
    )
    with sink_cm as sink:
        ledger = (
            SweepLedger(sink=sink) if (args.ledger or args.live) else None
        )
        dash = LiveDashboard(spec.num_blocks) if args.live else None
        result = run_campaign(
            spec,
            jobs=args.jobs,
            ledger=ledger,
            progress=dash.progress if dash else None,
        )
    if dash is not None:
        dash.finish(ledger=ledger)
    est = result.estimate()
    rate_s = result.samples_done / result.wall_s if result.wall_s else 0.0
    print(
        f"ran {result.samples_done} samples in {result.blocks_done} "
        f"block(s) on {result.workers} worker(s) in {result.chunks} "
        f"chunk(s), {result.wall_s:.2f}s ({rate_s:,.0f} samples/s)",
        file=sys.stderr,
    )
    if args.ledger:
        print(
            f"ledger: {len(ledger)} record(s) -> {args.ledger}",
            file=sys.stderr,
        )
    if args.json:
        print(_json.dumps(result.to_dict(), indent=2))
        return 0
    from .topology.mdcrossbar import MDCrossbar

    n = len(MDCrossbar(spec.shape).switch_elements())
    base = mttf_no_facility(n, spec.rate)
    shape_s = "x".join(map(str, spec.shape))
    print(
        f"reliability campaign: {shape_s} ({n} switches), "
        f"{spec.samples} samples, seed {spec.seed}, "
        f"scheme {spec.scheme}, blocks of {spec.block_samples}"
    )
    print(f"no facility     : MTTF {base:.6f}  (1.00x)")
    single = mttf_single_fault_facility(n, spec.rate)
    print(f"paper facility  : MTTF {single:.6f}  ({single / base:.2f}x)")
    print(
        f"extended (multi): {est.row()} ({est.mean / base:.2f}x)"
    )
    print(f"identity: {result.identity_sha256}")
    table = result.disconnect_table()
    if table:
        print("P(disconnect | k faults), Wilson 95%:")
        print("  k    trials  disconnects      p      [lo, hi]")
        shown = table[:20]
        for row in shown:
            print(
                f"  {row['k']:<4d} {row['trials']:>7d}  {row['disconnects']:>11d}  "
                f"{row['p']:.4f}  [{row['wilson_lo']:.4f}, "
                f"{row['wilson_hi']:.4f}]"
            )
        if len(table) > len(shown):
            print(f"  ... {len(table) - len(shown)} more row(s), see --json")
    return 0


def cmd_trace(args) -> int:
    import contextlib

    from .obs import TraceRecorder
    from .traffic import BernoulliInjector, get_pattern

    sim = _build_sim(args, stall_limit=args.stall_limit)
    events = (
        tuple(args.event)
        if args.event
        else ("inject", "grant", "block", "deliver", "deadlock",
              "recovery", "log")
    )
    sink_cm = (
        open(args.out, "w")
        if args.out
        else contextlib.nullcontext(sys.stdout)
    )
    with sink_cm as sink:
        recorder = TraceRecorder(events=events, sink=sink).attach(sim)
        gen = BernoulliInjector(
            load=args.load,
            packet_length=args.packet_length,
            pattern=get_pattern(args.pattern),
            seed=args.seed,
            stop_at=args.cycles,
        )
        sim.add_generator(gen)
        res = sim.run(max_cycles=args.cycles * 10, until_drained=False)
    _note_engine_fallback(args, sim)
    # keep stdout pure JSONL when tracing to it; the summary goes to stderr
    print(
        f"traced {sorted(recorder.events)} for {res.cycles} cycles: "
        f"{len(res.delivered)} delivered"
        + (f" -> {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    if res.deadlocked:
        print(res.deadlock.describe(), file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from .obs import (
        ChannelUtilization,
        PacketSpanCollector,
        read_trace,
        spans_from_trace,
    )
    from .obs.report import render_report

    if args.sweep:
        from .obs import read_ledger
        from .obs.report import render_sweep_report

        with open(args.sweep) as f:
            header, records, malformed = read_ledger(f)
        if malformed:
            print(
                f"warning: skipped {len(malformed)} malformed ledger "
                f"line(s) (first: line {malformed[0]['line']}: "
                f"{malformed[0]['error']})",
                file=sys.stderr,
            )
        print(
            render_sweep_report(
                header,
                records,
                title=f"Sweep report: {args.sweep}",
                fmt=args.format,
                top=args.top,
            ),
            end="",
        )
        return 0

    if args.trace:
        with open(args.trace) as f:
            header, records, malformed = read_trace(f)
        if malformed:
            print(
                f"warning: skipped {len(malformed)} malformed trace line(s) "
                f"(first: line {malformed[0]['line']}: {malformed[0]['error']})",
                file=sys.stderr,
            )
        spans = spans_from_trace(header, records)
        recoveries = [r for r in records if r.get("kind") == "recovery"]
        run_info = {"trace": args.trace, "records": len(records)}
        if header is not None:
            run_info["schema"] = header.get("schema")
            shape = header.get("shape")
            if shape:
                run_info["shape"] = "x".join(map(str, shape))
        print(
            render_report(
                spans=spans,
                title=f"Trace report: {args.trace}",
                run_info=run_info,
                fmt=args.format,
                top=args.top,
                recoveries=recoveries,
            ),
            end="",
        )
        return 0

    from .obs.collectors import CollectorSuite
    from .traffic import BernoulliInjector, get_pattern

    sim = _build_sim(args, stall_limit=args.stall_limit)
    suite = CollectorSuite(sim)
    spans = PacketSpanCollector().attach(sim)
    recovery_records: List[dict] = []

    @sim.hooks.on_recovery
    def _saw_recovery(engine, event):
        recovery_records.append(
            {
                "cycle": event.cycle,
                "victim": event.victim,
                "attempt": event.attempt,
                "cycle_pids": list(event.cycle_pids),
            }
        )

    gen = BernoulliInjector(
        load=args.load,
        packet_length=args.packet_length,
        pattern=get_pattern(args.pattern),
        seed=args.seed,
        stop_at=args.cycles,
    )
    sim.add_generator(gen)
    res = sim.run(max_cycles=args.cycles * 10, until_drained=False)
    _note_engine_fallback(args, sim)
    spans.detach(sim)
    util = suite.find(ChannelUtilization)
    try:
        heatmap = util.heatmap() if util is not None else None
    except ValueError:  # heatmaps are 2D-only
        heatmap = None
    shape_s = "x".join(map(str, args.shape))
    print(
        render_report(
            spans=spans.span_set(),
            metrics=suite.metrics(),
            heatmap=heatmap,
            title=f"Run report: {args.pattern} traffic on {shape_s}",
            run_info={
                "shape": shape_s,
                "pattern": args.pattern,
                "load": args.load,
                "seed": args.seed,
                "cycles": res.cycles,
                "delivered": len(res.delivered),
            },
            fmt=args.format,
            top=args.top,
            recoveries=recovery_records,
        ),
        end="",
    )
    if res.deadlocked:
        print(res.deadlock.describe(), file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    import os

    from .bench import (
        compare_bench,
        load_bench,
        render_bench,
        run_suite,
        write_bench,
    )

    doc = run_suite(
        label=args.label,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    write_bench(doc, out_path)
    print(render_bench(doc))
    print(f"wrote {out_path}")
    if args.compare:
        baseline = load_bench(args.compare)
        regressions = compare_bench(doc, baseline)
        if regressions:
            print(f"REGRESSIONS vs {args.compare}:")
            for r in regressions:
                print(f"  {r.case}.{r.field}: {r.old} -> {r.new} ({r.note})")
            return 1
        print(f"no regressions vs {args.compare}")
    return 0


def cmd_figures(args) -> int:
    from .core import Header, Packet, RC
    from .sim import MDCrossbarAdapter, NetworkSimulator, SimConfig

    shape = (4, 3)

    def scenario(name, mode, scheme, fault, sends, expect_deadlock):
        topo = MDCrossbar(shape)
        cfg = make_config(
            shape, faults=(fault,) if fault else (),
            broadcast_mode=mode, detour_scheme=scheme,
        )
        sim = NetworkSimulator(
            MDCrossbarAdapter(SwitchLogic(topo, cfg)),
            SimConfig(stall_limit=200, recovery=args.recovery),
        )
        for cycle, src, dst, rc in sends:
            sim.send(Packet(Header(source=src, dest=dst, rc=rc), length=6), at_cycle=cycle)
        res = sim.run(max_cycles=5000)
        if args.recovery and expect_deadlock:
            # the scenarios that deadlock by design must instead drain
            # after >= 1 online rotation
            okay = not res.deadlocked and res.recoveries >= 1
            print(
                f"{name}: {len(res.delivered)} delivered after "
                f"{res.recoveries} recovery rotation(s) "
                + ("(deadlock broken online)" if okay else "(UNEXPECTED)")
            )
            return okay
        verdict = "deadlock" if res.deadlocked else f"{len(res.delivered)} delivered"
        flag = "(as the paper predicts)" if res.deadlocked == expect_deadlock else "(UNEXPECTED)"
        print(f"{name}: {verdict} {flag}")
        return res.deadlocked == expect_deadlock

    bc = RC.BROADCAST
    req = RC.BROADCAST_REQUEST
    n = RC.NORMAL
    ok = True
    ok &= scenario(
        "Fig. 5  naive broadcasts ", BroadcastMode.NAIVE, DetourScheme.SAFE, None,
        [(0, (2, 1), (2, 1), bc), (0, (3, 2), (3, 2), bc)], True,
    )
    ok &= scenario(
        "Fig. 6  serialized S-XB  ", BroadcastMode.SERIALIZED, DetourScheme.SAFE, None,
        [(0, (2, 1), (2, 1), req), (0, (3, 2), (3, 2), req)], False,
    )
    fig9 = [
        (0, (3, 2), (3, 2), req),
        (1, (0, 0), (2, 2), n),
        (1, (1, 0), (3, 1), n),
        (2, (0, 1), (1, 2), n),
    ]
    ok &= scenario(
        "Fig. 9  naive D-XB       ", BroadcastMode.SERIALIZED, DetourScheme.NAIVE,
        Fault.router((2, 0)), fig9, True,
    )
    ok &= scenario(
        "Fig. 10 D-XB = S-XB      ", BroadcastMode.SERIALIZED, DetourScheme.SAFE,
        Fault.router((2, 0)), fig9, False,
    )
    return 0 if ok else 1


def cmd_machine(args) -> int:
    from .machine import SR2201, STANDARD_CONFIGS

    if args.config:
        m = SR2201.named(args.config)
        print(m.describe())
    else:
        for name in STANDARD_CONFIGS:
            print(SR2201.named(name).describe())
            print()
    return 0


def cmd_kernels(args) -> int:
    from .traffic import KERNELS, compare_topologies

    names = args.kernel or sorted(KERNELS)
    kinds = tuple(args.topology) if args.topology else ("md-crossbar", "mesh", "torus")
    for kernel in names:
        try:
            out = compare_topologies(kernel, args.shape, kinds=kinds)
        except ValueError as e:
            print(f"{kernel}: skipped ({e})")
            continue
        print(f"-- {kernel}")
        for kind, res in out.items():
            print(f"   {kind:<12} {res.row()}")
    return 0


def cmd_collectives(args) -> int:
    from .collectives import (
        BinomialBroadcast,
        DisseminationBarrier,
        LinearBroadcast,
    )
    from .core import Header, Packet, RC

    root = tuple(0 for _ in args.shape)

    def fresh():
        return _build_sim(args, stall_limit=5000)

    sim = fresh()
    pkt = Packet(
        Header(source=root, dest=root, rc=RC.BROADCAST_REQUEST),
        length=args.packet_length,
    )
    sim.send(pkt)
    sim.run()
    print(f"hardware S-XB broadcast : {pkt.latency} cycles, 1 injection")
    for name, cls in (("binomial", BinomialBroadcast), ("linear", LinearBroadcast)):
        sim = fresh()
        col = cls(sim, root, packet_length=args.packet_length)
        while not col.result.done and sim.cycle < 200_000:
            sim.step()
        print(
            f"software {name:<8} tree : {col.result.duration} cycles, "
            f"{col.result.messages_sent} messages"
        )
    sim = fresh()
    bar = DisseminationBarrier(sim)
    while not bar.result.done and sim.cycle < 200_000:
        sim.step()
    print(
        f"dissemination barrier   : {bar.result.duration} cycles, "
        f"{bar.result.messages_sent} messages ({bar.rounds} rounds)"
    )
    return 0


def cmd_replay(args) -> int:
    from .sim.stats import LatencyStats
    from .traffic import WorkloadTrace

    trace = WorkloadTrace.load(args.trace)
    args.shape = trace.shape
    sim = _build_sim(args, stall_limit=5000)
    trace.install(sim)
    res = sim.run(max_cycles=args.max_cycles)
    stats = LatencyStats.from_packets(res.delivered)
    print(
        f"replayed {len(trace)} packets on {'x'.join(map(str, trace.shape))}: "
        f"{len(res.delivered)} delivered, {len(res.dropped)} dropped, "
        f"{res.cycles} cycles"
    )
    print(f"latency: {stats.row()}")
    if res.deadlocked:
        print(res.deadlock.describe())
        return 1
    return 0


def _doctor_obs() -> List[Tuple[str, bool]]:
    """Observability health: collector attach/detach roundtrip, trace
    write/read roundtrip and schema echo, exercised on a tiny engine."""
    import io

    from .core import Header, Packet, RC
    from .obs import (
        PacketSpanCollector,
        TRACE_SCHEMA_VERSION,
        TraceRecorder,
        read_trace,
        spans_from_trace,
    )
    from .obs.collectors import CollectorSuite

    sim = _build_sim(
        argparse.Namespace(
            shape=(3, 3), fault=None, detour="safe", broadcast="serialized"
        ),
        stall_limit=1000,
    )
    suite = CollectorSuite(sim)
    spans = PacketSpanCollector().attach(sim)
    sink = io.StringIO()
    recorder = TraceRecorder(sink=sink).attach(sim)
    sim.send(Packet(Header(source=(0, 0), dest=(2, 2), rc=RC.NORMAL), length=4))
    res = sim.run(max_cycles=500)
    live = spans.span_set().totals()
    spans.detach(sim)
    recorder.detach()
    suite.detach()

    checks: List[Tuple[str, bool]] = []
    checks.append(("obs: tiny run delivers", len(res.delivered) == 1))
    checks.append(
        (
            "obs: collector detach leaves the hook bus empty",
            not any(
                getattr(sim.hooks, slot) for slot in type(sim.hooks).__slots__
            ),
        )
    )
    header, records, malformed = read_trace(sink.getvalue().splitlines())
    checks.append(
        (
            f"obs: trace roundtrip (schema {TRACE_SCHEMA_VERSION} echoed)",
            header is not None
            and header.get("schema") == TRACE_SCHEMA_VERSION
            and not malformed
            and len(records) > 0,
        )
    )
    replayed = spans_from_trace(header, records).totals()
    checks.append(
        ("obs: trace replay matches the live span totals", replayed == live)
    )
    _, _, bad = read_trace(
        sink.getvalue().splitlines() + ['{"kind": "trunc'],
    )
    checks.append(("obs: truncated tail line is skipped+reported", len(bad) == 1))
    return checks


def _doctor_telemetry() -> List[Tuple[str, bool]]:
    """Sweep-telemetry health: ledger write/read round-trip and schema
    echo on a tiny doctor-grid sweep, plus identity stability -- the same
    sweep run twice must strip to the same ledger identity with no
    runtime fields left behind."""
    import io

    from .obs import (
        LEDGER_SCHEMA_VERSION,
        RUNTIME_FIELDS,
        SweepLedger,
        ledger_identity,
        read_ledger,
        strip_ledger,
    )
    from .runtime import SweepSession, load_sweep_specs

    specs = load_sweep_specs(
        "md-crossbar",
        (3, 3),
        [0.05, 0.1],
        seed=1,
        warmup=20,
        window=40,
        drain=400,
    )

    def ledgered_run():
        sink = io.StringIO()
        with SweepSession(ledger=SweepLedger(sink=sink)) as session:
            session.run(specs)
        return sink.getvalue()

    first, second = ledgered_run(), ledgered_run()
    checks: List[Tuple[str, bool]] = []
    header, records, malformed = read_ledger(first.splitlines())
    checks.append(
        (
            f"telemetry: ledger roundtrip "
            f"(schema {LEDGER_SCHEMA_VERSION} echoed)",
            header is not None
            and header.get("schema") == LEDGER_SCHEMA_VERSION
            and not malformed
            and sum(1 for r in records if r["kind"] == "spec_done")
            == len(specs),
        )
    )
    _, records2, _ = read_ledger(second.splitlines())
    checks.append(
        (
            "telemetry: repeated sweep strips to the same identity",
            ledger_identity(records) == ledger_identity(records2),
        )
    )
    checks.append(
        (
            "telemetry: stripped records carry no runtime fields",
            not any(
                set(r) & RUNTIME_FIELDS for r in strip_ledger(records)
            ),
        )
    )
    return checks


def _doctor_routing() -> List[Tuple[str, bool]]:
    """Routing-scheme health: every registered scheme must present an
    acyclic (channel, vc) dependency graph on its doctor grid."""
    from .routing import get_scheme, make_scheme, scheme_names

    checks: List[Tuple[str, bool]] = []
    names = scheme_names()
    checks.append(
        (f"routing: {len(names)} scheme(s) registered ({', '.join(names)})",
         len(names) > 0)
    )
    for name in names:
        shape = get_scheme(name).doctor_shape
        audit = make_scheme(name, shape).check_cycle_free()
        checks.append((f"routing: {audit.row()}", audit.cycle_free))
    return checks


def _doctor_engines() -> List[Tuple[str, bool]]:
    """Engine-mode health: the same doctor-grid workloads on both cycle
    drivers (batched SoA kernel, scalar active driver) and stepping every
    cycle must fingerprint byte-identically; the kernel must
    actually run in-kernel on its supported workload (no silent
    fallback); unsupported state must hand back with an explicit
    reason."""
    import itertools

    import repro.core.packet as packet_mod
    from .core import Fault, Header, Packet, RC
    from .sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
    from .traffic import BernoulliInjector, uniform

    shape = (4, 3)

    def run(engine, exact=False, faults=(), bcast=False):
        # identical pid streams per driver: fingerprints compare exactly
        packet_mod._packet_ids = itertools.count(1_000_000)
        logic = SwitchLogic(
            MDCrossbar(shape), make_config(shape, faults=tuple(faults))
        )
        sim = NetworkSimulator(
            MDCrossbarAdapter(logic),
            SimConfig(stall_limit=400, engine=engine),
        )
        if exact:
            # any cycle_start subscriber turns off every run-loop shortcut
            sim.hooks.on_cycle_start(lambda s: None)
        if bcast:
            sim.send(
                Packet(
                    Header(
                        source=(2, 1), dest=(2, 1), rc=RC.BROADCAST_REQUEST
                    ),
                    length=4,
                )
            )
        sim.add_generator(
            BernoulliInjector(load=0.2, pattern=uniform, seed=3, stop_at=80)
        )
        return sim.run(max_cycles=2000).fingerprint(), sim

    checks: List[Tuple[str, bool]] = []
    for label, faults in (
        ("healthy", ()),
        ("faulted", (Fault.router((2, 0)),)),
    ):
        fp_soa, sim_soa = run("soa", faults=faults)
        fp_act, _ = run("active", faults=faults)
        fp_exact, _ = run("active", exact=True, faults=faults)
        checks.append(
            (
                f"engine: soa == active == exact stepping on the {label} "
                f"4x3 grid",
                fp_soa == fp_act == fp_exact,
            )
        )
        checks.append(
            (
                f"engine: {label} grid ran in-kernel (no silent fallback)",
                sim_soa.engine_used == "soa"
                and sim_soa.engine_fallback is None,
            )
        )
    fp_b_soa, sim_b = run("soa", bcast=True)
    fp_b_act, _ = run("active", bcast=True)
    checks.append(
        (
            f"engine: unsupported state falls back with a reason "
            f"({sim_b.engine_fallback or 'MISSING'}), identically",
            sim_b.engine_used == "active"
            and bool(sim_b.engine_fallback)
            and fp_b_soa == fp_b_act,
        )
    )
    return checks


def cmd_doctor(args) -> int:
    from .core.selfcheck import self_check

    topo, logic = _build(args)
    report = self_check(topo, logic)
    print(f"self-check on {'x'.join(map(str, args.shape))}:")
    for line in report.rows():
        print(" ", line)
    obs_checks = (
        _doctor_obs()
        + _doctor_telemetry()
        + _doctor_routing()
        + _doctor_engines()
    )
    for name, ok in obs_checks:
        print(f"  {name}: {'ok' if ok else 'FAIL'}")
    healthy = report.healthy and all(ok for _, ok in obs_checks)
    print("healthy" if healthy else "INCONSISTENT")
    return 0 if healthy else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SR2201 deadlock-free fault-tolerant routing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("route", help="print a route")
    _add_common(p)
    p.add_argument("--src", type=parse_coord, required=True)
    p.add_argument("--dst", type=parse_coord)
    p.add_argument("--bcast", action="store_true", help="broadcast from --src")
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("check", help="deadlock analysis")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("census", help="fault tolerance census")
    _add_shape_detour(p)
    p.add_argument("--pairs", action="store_true", help="two-fault census")
    p.add_argument("--max-sets", type=int, default=None)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("simulate", help="run synthetic traffic")
    _add_common(p)
    p.add_argument("--load", type=float, default=0.2)
    p.add_argument("--pattern", default="uniform")
    p.add_argument("--packet-length", type=int, default=4)
    p.add_argument("--cycles", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--stall-limit", type=int, default=2000)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "sweep", help="latency-vs-load sweep (optionally parallel)"
    )
    p.add_argument("--kind", default="md-crossbar",
                   help="md-crossbar or a baseline: mesh/torus/hypercube")
    p.add_argument("--shape", type=parse_shape, default=(4, 3))
    p.add_argument("--loads", type=parse_loads, default=[0.05, 0.1, 0.2, 0.3],
                   help="comma list (0.05,0.1) or start:stop:count (0.05:0.4:8)")
    p.add_argument("--pattern", default="uniform")
    p.add_argument("--packet-length", type=int, default=4)
    p.add_argument("--warmup", type=int, default=200)
    p.add_argument("--window", type=int, default=500)
    p.add_argument("--drain", type=int, default=4000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, default=1,
                   help="replicate each point over this many seeds")
    p.add_argument("--stall-limit", type=int, default=2000)
    p.add_argument("--fault", type=parse_fault, action="append",
                   help="standing fault (fault-modelling schemes only); "
                        "repeatable")
    _add_scheme(p)
    _add_recovery(p)
    _add_engine(p)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the sweep (default: serial)")
    p.add_argument("--cache", dest="cache", action="store_true",
                   help="serve already-known points from the on-disk "
                        "result cache and store fresh ones")
    p.add_argument("--no-cache", dest="cache", action="store_false",
                   help="force simulation even when a cache dir exists")
    p.set_defaults(cache=False)
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result cache directory (default: .repro-cache)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable per-point results on stdout")
    p.add_argument("--metrics", action="store_true",
                   help="attach the repro.obs collectors to every point and "
                        "report merged metrics")
    p.add_argument("--ledger", metavar="PATH",
                   help="write the schema-versioned JSONL run ledger "
                        "(chunk plan, per-spec serve telemetry, cache "
                        "tiers) to PATH; render it with "
                        "'repro report --sweep PATH'")
    p.add_argument("--live", action="store_true",
                   help="live progress dashboard on stderr (specs/sec, "
                        "ETA, deadlocks) with closing per-worker "
                        "utilization bars")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="Monte-Carlo reliability campaign (streaming, chunkable)",
    )
    p.add_argument("--shape", type=parse_shape, default=(4, 3),
                   help="e.g. 4x3 or 16x16x8 (the full SR2201)")
    p.add_argument("--samples", type=int, default=100_000,
                   help="fault-placement samples (default: 100000)")
    p.add_argument("--seed", type=int, default=13,
                   help="campaign seed; block b draws from "
                        "SeedSequence(seed, spawn_key=(b,)) so results "
                        "never depend on chunking or --jobs")
    p.add_argument("--rate", type=float, default=1.0,
                   help="per-switch exponential failure rate")
    p.add_argument("--max-faults", type=int, default=None,
                   help="stop each walk at this many accumulated faults "
                        "(default: run to infeasibility)")
    p.add_argument("--block", type=int, default=16384,
                   help="samples per sampling block -- the RNG/reduction "
                        "unit, part of the campaign identity")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: in-process serial; "
                        "any value yields the identical estimate)")
    _add_scheme(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable estimate + per-k disconnect "
                        "table on stdout")
    p.add_argument("--ledger", metavar="PATH",
                   help="write campaign_start/campaign_chunk/campaign_end "
                        "records to the schema-versioned JSONL run ledger")
    p.add_argument("--live", action="store_true",
                   help="live block-progress dashboard on stderr")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "trace", help="capture a structured JSONL event trace of one run"
    )
    _add_common(p)
    _add_scheme(p)
    _add_recovery(p)
    _add_engine(p)
    p.add_argument("--load", type=float, default=0.2)
    p.add_argument("--pattern", default="uniform")
    p.add_argument("--packet-length", type=int, default=4)
    p.add_argument("--cycles", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--stall-limit", type=int, default=2000)
    p.add_argument(
        "--event", action="append",
        choices=["inject", "grant", "block", "deliver", "deadlock",
                 "recovery", "log", "phase"],
        help="record kind to capture; repeatable "
             "(default: inject, grant, block, deliver, deadlock, "
             "recovery, log)",
    )
    p.add_argument("--out", help="JSONL output path (default: stdout)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "report",
        help="render a span/metric report from a live run or a saved trace",
    )
    _add_common(p)
    _add_scheme(p)
    _add_recovery(p)
    _add_engine(p)
    p.add_argument("--trace", help="render from a saved JSONL trace instead "
                                   "of running a simulation")
    p.add_argument("--sweep", metavar="LEDGER",
                   help="render a sweep-runtime report from a saved JSONL "
                        "run ledger (see 'repro sweep --ledger') instead "
                        "of running a simulation")
    p.add_argument("--load", type=float, default=0.2)
    p.add_argument("--pattern", default="uniform")
    p.add_argument("--packet-length", type=int, default=4)
    p.add_argument("--cycles", type=int, default=300)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--stall-limit", type=int, default=2000)
    p.add_argument("--format", choices=["text", "md"], default="text")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the blocked-port attribution table")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "bench", help="run the pinned-counts suite; optionally compare "
                      "exactly against a saved baseline"
    )
    p.add_argument("--label", default="local",
                   help="suffix of the BENCH_<label>.json output file")
    p.add_argument("--out-dir", default="benchmarks",
                   help="directory for the BENCH_<label>.json result")
    p.add_argument("--compare", metavar="BASELINE.json",
                   help="compare against a saved bench file; exit 1 on "
                        "any difference")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("figures", help="replay the paper's figures")
    _add_recovery(p)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("machine", help="describe an SR2201 configuration")
    p.add_argument("--config", help="e.g. SR2201/2048")
    p.set_defaults(fn=cmd_machine)

    p = sub.add_parser("kernels", help="application kernels across topologies")
    p.add_argument("--shape", type=parse_shape, default=(4, 4))
    p.add_argument("--kernel", action="append", help="stencil/fft/alltoall/sweep")
    p.add_argument(
        "--topology", action="append",
        default=None, help="md-crossbar/mesh/torus (repeatable)",
    )
    p.set_defaults(fn=cmd_kernels, topology=None)

    p = sub.add_parser("collectives", help="hardware vs software broadcast")
    _add_common(p)
    p.add_argument("--packet-length", type=int, default=8)
    p.set_defaults(fn=cmd_collectives)

    p = sub.add_parser("doctor", help="cross-validate all analysis layers")
    _add_common(p)
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser("replay", help="replay a workload trace (JSONL)")
    _add_common(p)
    p.add_argument("trace", help="path to the trace file")
    p.add_argument("--max-cycles", type=int, default=200_000)
    p.set_defaults(fn=cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
