"""Pinned-counts suite and exact comparison.

A small, fixed set of simulator workloads (``BENCH_CASES``) whose
simulated quantities -- cycles, deliveries, flit moves, the span
aggregates (blocked / S-XB wait cycles), the per-scheme and per-leg
tables of the two shoot-outs -- are deterministic, so a run is a
correctness canary: the document it produces must equal the committed
one field for field, on any machine.  Nothing here reads a clock; how
long the system takes is measured by ``sysbench/`` (see its README).

``run_suite`` produces a plain-dict document (``BENCH_SCHEMA``),
``write_bench``/``load_bench`` round-trip it through ``BENCH_<label>.json``
files, and ``compare_bench`` gates a new run against a saved baseline:
a case regresses when it is missing on either side or when any of its
fields differs.

The ``repro bench`` subcommand is the CLI face; CI runs it against the
committed ``benchmarks/BENCH_baseline.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .core import Fault, Header, Packet, RC, SwitchLogic, make_config
from .obs.spans import PacketSpanCollector
from .sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from .topology import MDCrossbar
from .traffic import BernoulliInjector, uniform

#: bump when the per-case fields change.
#: schema 9: clock-free -- every time-derived field and ``peak_rss_kb``
#: is gone, and with them the ``sweep_fanout``, ``machine_2048`` and
#: ``campaign_reliability`` cases (timed by ``sysbench`` workloads,
#: their identities pinned by tier-1 tests); what is left is exact on
#: every machine, so older files are not comparable.
#: schema 10: engine cases lose the in-run drift list against the
#: full-scan driver, which is gone; every other field is as in 9.
BENCH_SCHEMA = 10

#: runs of each shoot-out leg; they must agree on every simulated
#: quantity (state leaking from one run into the next is a bug)
SHOOTOUT_RUNS = 2


class BenchCase(NamedTuple):
    name: str
    description: str
    #: () -> (sim, max_cycles); engine cases only
    build: Optional[Callable[[], Tuple[NetworkSimulator, int]]] = None
    #: whole-case override: ``() -> case dict``.  The shoot-outs run
    #: several simulations into one table rather than one engine run.
    runner: Optional[Callable[[], Dict]] = None


def _md_sim(shape, faults=(), stall_limit: int = 5000) -> NetworkSimulator:
    topo = MDCrossbar(shape)
    logic = SwitchLogic(topo, make_config(shape, faults=tuple(faults)))
    return NetworkSimulator(
        MDCrossbarAdapter(logic), SimConfig(stall_limit=stall_limit)
    )


def _bernoulli_case(shape, load, cycles, faults=(), seed=1):
    def build() -> Tuple[NetworkSimulator, int]:
        sim = _md_sim(shape, faults=faults)
        sim.add_generator(
            BernoulliInjector(
                load=load,
                packet_length=4,
                pattern=uniform,
                seed=seed,
                stop_at=cycles,
            )
        )
        return sim, cycles * 10

    return build


def _broadcast_case(shape, rounds, gap):
    def build() -> Tuple[NetworkSimulator, int]:
        sim = _md_sim(shape)
        coords = sorted(MDCrossbar(shape).node_coords())
        for i in range(rounds):
            src = coords[i % len(coords)]
            sim.send(
                Packet(
                    Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST),
                    length=4,
                ),
                at_cycle=i * gap,
            )
        return sim, rounds * gap * 50 + 5000

    return build


def _stream_case(shape, packets, length, gap):
    """Long packets with idle gaps between them: exercises the engine's
    bulk flit-run windows (the body of each packet) and the idle-cycle
    fast-forward (the gaps)."""

    def build() -> Tuple[NetworkSimulator, int]:
        sim = _md_sim(shape)
        coords = sorted(MDCrossbar(shape).node_coords())
        src, dst = coords[0], coords[-1]
        for i in range(packets):
            sim.send(
                Packet(Header(source=src, dest=dst), length=length),
                at_cycle=i * gap,
            )
        return sim, packets * gap + 2000

    return build


def _scheme_faults(cls, shape) -> List[Fault]:
    """The single-fault enumeration a scheme's coverage leg must survive
    (e11-style: every placement, one at a time)."""
    if cls.kind == "md-crossbar":
        from .core.multifault import all_single_faults

        return list(all_single_faults(shape))
    # the full mesh has routers only; every router is a placement
    from .core.coords import all_coords

    return [Fault.router(c) for c in all_coords(shape)]


def _shootout_latency(name: str, shape) -> Dict:
    """One deterministic Bernoulli leg on a scheme's bench grid."""
    from .routing import make_scheme

    sch = make_scheme(name, shape)
    sim = NetworkSimulator(
        sch.adapter, SimConfig(num_vcs=sch.num_vcs, stall_limit=5000)
    )
    sim.add_generator(
        BernoulliInjector(
            load=0.15, packet_length=4, pattern=uniform, seed=1, stop_at=300
        )
    )
    res = sim.run(max_cycles=3000, until_drained=False)
    lats = res.latencies
    return {
        "cycles": res.cycles,
        "flit_moves": res.flit_moves,
        "delivered": len(res.delivered),
        "mean_latency": round(sum(lats) / len(lats), 3) if lats else None,
        "deadlocked": res.deadlocked,
    }


def _shootout_coverage(name: str, cls, shape) -> Tuple[int, int]:
    """Total-exchange delivery under every single-fault placement.

    For each fault the scheme claims to tolerate, every live (src, dest)
    pair sends one packet at cycle 0 and the run must drain with zero
    drops and zero deadlocks.  Returns (placements survived, packets
    delivered); any loss raises -- fault coverage is a correctness
    property, not a statistic."""
    from .routing import make_scheme

    covered = 0
    delivered = 0
    for fault in _scheme_faults(cls, shape):
        sch = make_scheme(name, shape, faults=(fault,))
        sim = NetworkSimulator(
            sch.adapter, SimConfig(num_vcs=sch.num_vcs, stall_limit=5000)
        )
        live = sorted(sch.live_nodes())
        sent = 0
        for s in live:
            for d in live:
                if s != d:
                    sim.send(Packet(Header(source=s, dest=d), length=4))
                    sent += 1
        res = sim.run(max_cycles=50_000)
        if res.deadlocked:
            raise AssertionError(
                f"scheme_shootout: {name} deadlocked under {fault}"
            )
        if res.dropped or len(res.delivered) != sent:
            raise AssertionError(
                f"scheme_shootout: {name} lost packets under {fault} "
                f"({len(res.delivered)}/{sent} delivered, "
                f"{len(res.dropped)} dropped)"
            )
        covered += 1
        delivered += sent
    return covered, delivered


def _run_scheme_shootout() -> Dict:
    """Cross-scheme shoot-out: every registered routing scheme on its
    bench grid, measured on one table -- zero-ish-load latency, path
    stretch vs shortest channel paths, CDG cycle-freedom (raises on any
    cyclic scheme), and, for the fault-modelling schemes, full delivery
    under the single-fault enumeration.  The latency leg runs
    ``SHOOTOUT_RUNS`` times and every simulated quantity must agree
    across the runs; the per-scheme table (``schemes``) is compared
    with the baseline's exactly like a ``cycles`` count."""
    from .analysis.properties import route_stats
    from .routing import get_scheme, make_scheme, scheme_names

    schemes: Dict[str, Dict] = {}
    for name in scheme_names():
        cls = get_scheme(name)
        shape = cls.bench_shape
        audit = make_scheme(name, shape).check_cycle_free()
        if not audit.cycle_free:
            raise AssertionError(f"scheme_shootout: {audit.row()}")
        stats = route_stats(make_scheme(name, shape))
        runs = [_shootout_latency(name, shape) for _ in range(SHOOTOUT_RUNS)]
        first = runs[0]
        for other in runs[1:]:
            for field in ("cycles", "delivered", "flit_moves", "mean_latency"):
                if other[field] != first[field]:
                    raise AssertionError(
                        f"scheme_shootout: {name}.{field} drifted between "
                        f"repeats ({first[field]!r} != {other[field]!r})"
                    )
        if first["deadlocked"]:
            raise AssertionError(f"scheme_shootout: {name} deadlocked")
        covered = fault_delivered = None
        if cls.supports_faults:
            covered, fault_delivered = _shootout_coverage(name, cls, shape)
        schemes[name] = {
            "kind": cls.kind,
            "shape": "x".join(map(str, shape)),
            "cdg_edges": audit.num_edges,
            "cycle_free": audit.cycle_free,
            "pairs": stats["pairs"],
            "avg_channels": stats["avg_channels"],
            "stretch": stats["stretch"],
            "cycles": first["cycles"],
            "delivered": first["delivered"],
            "flit_moves": first["flit_moves"],
            "mean_latency": first["mean_latency"],
            "faults_covered": covered,
            "fault_delivered": fault_delivered,
        }
    identity = json.dumps(schemes, sort_keys=True, separators=(",", ":"))
    return {
        "description": (
            f"{len(schemes)}-scheme shoot-out: latency, path stretch, "
            f"CDG acyclicity and single-fault coverage per registered "
            f"routing scheme"
        ),
        "cycles": sum(s["cycles"] for s in schemes.values()),
        "delivered": sum(s["delivered"] for s in schemes.values()),
        "deadlocked": False,
        "schemes": schemes,
        "identity_sha256": hashlib.sha256(
            identity.encode("utf-8")
        ).hexdigest(),
    }


#: (leg name, detour scheme, recovery flag) for the recovery shoot-out
RECOVERY_LEGS: Tuple[Tuple[str, str, bool], ...] = (
    ("avoidance", "safe", False),
    ("recovery", "naive", True),
    ("halt", "naive", False),
)


def _fig9_recovery_sim(detour: str, recovery: bool):
    """The paper's Fig. 9 deadlock interleaving on a (4, 3) network with
    router (2, 0) faulty: one broadcast plus three unicasts whose naive
    detours close a cyclic wait.  Returns (sim, packets)."""
    from .core.config import DetourScheme

    shape = (4, 3)
    topo = MDCrossbar(shape)
    logic = SwitchLogic(
        topo,
        make_config(
            shape,
            fault=Fault.router((2, 0)),
            detour_scheme=DetourScheme(detour),
        ),
    )
    sim = NetworkSimulator(
        MDCrossbarAdapter(logic),
        SimConfig(stall_limit=200, recovery=recovery),
    )
    pkts = [
        Packet(
            Header(source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST),
            length=6,
        ),
        Packet(Header(source=(0, 0), dest=(2, 2)), length=6),
        Packet(Header(source=(1, 0), dest=(3, 1)), length=6),
        Packet(Header(source=(0, 1), dest=(1, 2)), length=6),
    ]
    for pkt, dt in zip(pkts, (0, 1, 1, 2)):
        sim.send(pkt, at_cycle=dt)
    return sim, pkts


def _run_recovery_shootout() -> Dict:
    """Avoidance vs recovery vs halt on the same deadlock-prone workload.

    Three legs, one table (``legs``): (a) *avoidance* -- the paper's
    safe detour scheme, which never deadlocks in the first place; (b)
    *recovery* -- the naive scheme plus the engine's online drain/rotate
    mode, which must still deliver 100% with at least one rotation; (c)
    *halt* -- the naive scheme bare, which must end in a
    :class:`DeadlockReport`.  Every leg runs ``SHOOTOUT_RUNS`` times and
    every simulated quantity (including the rebased victim pids) must
    agree across the runs; the whole table is compared with the
    baseline's."""
    import itertools

    import repro.core.packet as packet_mod

    legs: Dict[str, Dict] = {}
    for leg, detour, recovery in RECOVERY_LEGS:
        runs = []
        for _ in range(SHOOTOUT_RUNS):
            # pid counter restart: victim pids rebase identically per run
            packet_mod._packet_ids = itertools.count(1_000_000)
            sim, pkts = _fig9_recovery_sim(detour, recovery)
            base = min(p.pid for p in pkts)
            res = sim.run(max_cycles=20_000)
            runs.append(
                {
                    "cycles": res.cycles,
                    "flit_moves": res.flit_moves,
                    "delivered": len(res.delivered),
                    "recoveries": res.recoveries,
                    "victims": [v - base for v in res.recovery_victims],
                    "deadlocked": res.deadlocked,
                    "deadlock_cycle": (
                        None if res.deadlock is None else res.deadlock.cycle
                    ),
                    "in_flight": res.in_flight_at_end,
                }
            )
        first = runs[0]
        for other in runs[1:]:
            for field in sorted(first):
                if other[field] != first[field]:
                    raise AssertionError(
                        f"recovery_shootout: {leg}.{field} drifted between "
                        f"repeats ({first[field]!r} != {other[field]!r})"
                    )
        sent = 4
        if leg in ("avoidance", "recovery"):
            if first["deadlocked"] or first["delivered"] != sent:
                raise AssertionError(
                    f"recovery_shootout: {leg} leg must deliver all {sent} "
                    f"packets without a final deadlock "
                    f"({first['delivered']} delivered, "
                    f"deadlocked={first['deadlocked']})"
                )
        if leg == "avoidance" and first["recoveries"]:
            raise AssertionError(
                "recovery_shootout: the safe scheme must not need recovery"
            )
        if leg == "recovery" and first["recoveries"] < 1:
            raise AssertionError(
                "recovery_shootout: the recovery leg never deadlocked -- "
                "the workload no longer exercises the rotate path"
            )
        if leg == "halt" and not first["deadlocked"]:
            raise AssertionError(
                "recovery_shootout: the halt leg must end in a "
                "DeadlockReport"
            )
        legs[leg] = {"detour": detour, "recovery": recovery, **first}
    identity = json.dumps(legs, sort_keys=True, separators=(",", ":"))
    return {
        "description": (
            "Fig. 9 deadlock workload three ways: VC avoidance (safe "
            "detours) vs online drain/rotate recovery vs halt-and-report"
        ),
        "cycles": sum(leg["cycles"] for leg in legs.values()),
        "delivered": sum(leg["delivered"] for leg in legs.values()),
        # the halt leg deadlocks *by design* (asserted above); the
        # case-level flag keeps the "nothing unexpected deadlocked"
        # meaning the other cases use
        "deadlocked": False,
        "legs": legs,
        "identity_sha256": hashlib.sha256(
            identity.encode("utf-8")
        ).hexdigest(),
    }


#: the pinned suite; order is the report order
BENCH_CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        "p2p_4x3_low",
        "uniform Bernoulli traffic, 4x3, load 0.15",
        _bernoulli_case((4, 3), 0.15, 300),
    ),
    BenchCase(
        "broadcast_4x3",
        "12 serialized S-XB broadcasts, 4x3",
        _broadcast_case((4, 3), 12, 3),
    ),
    BenchCase(
        "detour_4x3_fault",
        "uniform traffic around a faulty router, 4x3",
        _bernoulli_case((4, 3), 0.15, 300, faults=(Fault.router((2, 0)),)),
    ),
    BenchCase(
        "stream_8x1_long",
        "12 length-64 packets across an 8x1 line, 120-cycle gaps",
        _stream_case((8, 1), 12, 64, 120),
    ),
    BenchCase(
        "scheme_shootout",
        "every registered routing scheme: latency, stretch, CDG "
        "acyclicity, single-fault coverage",
        runner=_run_scheme_shootout,
    ),
    BenchCase(
        "recovery_shootout",
        "Fig. 9 deadlock workload: avoidance vs online recovery vs halt",
        runner=_run_recovery_shootout,
    ),
    BenchCase(
        "p2p_8x8_mid",
        "uniform Bernoulli traffic, 8x8, load 0.3",
        _bernoulli_case((8, 8), 0.3, 300),
    ),
)


def _measure(case: BenchCase) -> Dict:
    """One run of an engine case (spans attached throughout)."""
    sim, max_cycles = case.build()
    spans = PacketSpanCollector().attach(sim)
    res = sim.run(max_cycles=max_cycles, until_drained=False)
    spans.detach(sim)
    totals = spans.span_set().totals()
    lats = res.latencies
    return {
        "cycles": res.cycles,
        "flit_moves": res.flit_moves,
        "delivered": len(res.delivered),
        "mean_latency": (
            round(sum(lats) / len(lats), 3) if lats else None
        ),
        "blocked_cycles": totals["blocked"],
        "sxb_wait_cycles": totals["sxb_wait"],
        "queue_wait_cycles": totals["queue_wait"],
        "detour_overhead_cycles": totals["detour_overhead"],
        "deadlocked": res.deadlocked,
    }


def run_case(case: BenchCase) -> Dict:
    """The pinned quantities of one case: one run of an engine case on
    the active driver, or the dict a runner case (``case.runner``, the
    shoot-outs) fills in itself."""
    if case.runner is not None:
        return case.runner()
    return {"description": case.description, **_measure(case)}


def run_suite(
    label: str = "local",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the pinned suite into a bench doc."""
    cases: Dict[str, Dict] = {}
    for case in BENCH_CASES:
        if progress:
            progress(f"running {case.name}: {case.description}")
        cases[case.name] = run_case(case)
    return {
        "kind": "bench",
        "schema": BENCH_SCHEMA,
        "label": label,
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "cases": cases,
    }


def write_bench(doc: Dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bench(path: str) -> Dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("kind") != "bench" or doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path} is not a schema-{BENCH_SCHEMA} bench file "
            f"(kind={doc.get('kind')!r}, schema={doc.get('schema')!r}); "
            f"regenerate with `repro bench --label baseline`"
        )
    return doc


class Regression(NamedTuple):
    case: str
    field: str
    old: object
    new: object
    note: str


def compare_bench(new: Dict, baseline: Dict) -> List[Regression]:
    """Differences of ``new`` from ``baseline``; every one is a regression.

    No field of a case depends on the machine or the clock, so each must
    match exactly.  A case present on one side only regresses too:
    a silently dropped case would hide anything, and a new or renamed
    one would run ungated until someone refreshed the baseline.
    """
    out: List[Regression] = []
    old_cases, new_cases = baseline.get("cases", {}), new.get("cases", {})
    for name, old_case in old_cases.items():
        new_case = new_cases.get(name)
        if new_case is None:
            out.append(
                Regression(name, "presence", "present", "missing",
                           "case disappeared from the suite")
            )
            continue
        for field in sorted(set(old_case) | set(new_case)):
            if old_case.get(field) != new_case.get(field):
                out.append(
                    Regression(
                        name, field, old_case.get(field), new_case.get(field),
                        "pinned quantity drifted",
                    )
                )
    for name in new_cases:
        if name not in old_cases:
            out.append(
                Regression(name, "presence", "missing", "present",
                           "case not in baseline; refresh it")
            )
    return out


def render_bench(doc: Dict) -> str:
    """One-line-per-case ASCII table of a bench doc."""
    lines = [
        f"bench {doc['label']} (schema {doc['schema']}, "
        f"python {doc['python']})"
    ]
    for name, c in doc["cases"].items():
        if "schemes" in c:  # runner case (scheme_shootout): one row/scheme
            lines.append(f"  {name:<18} {len(c['schemes'])} schemes")
            for sname, s in c["schemes"].items():
                cov = (
                    f" faults={s['faults_covered']}"
                    if s["faults_covered"] is not None
                    else ""
                )
                lines.append(
                    f"    {sname:<14} {s['shape']:<6} "
                    f"lat={s['mean_latency']:<6} stretch={s['stretch']:<7} "
                    f"cdg={'acyclic' if s['cycle_free'] else 'CYCLIC'}"
                    f"({s['cdg_edges']})"
                    f" delivered={s['delivered']}{cov}"
                )
            continue
        if "legs" in c:  # runner case (recovery_shootout): one row/leg
            lines.append(f"  {name:<18} {len(c['legs'])} legs")
            for lname, leg in c["legs"].items():
                end = (
                    f"deadlock@{leg['deadlock_cycle']}"
                    if leg["deadlocked"]
                    else "drained"
                )
                lines.append(
                    f"    {lname:<10} detour={leg['detour']:<5} "
                    f"recovery={'on' if leg['recovery'] else 'off':<3} "
                    f"cycles={leg['cycles']:<5} "
                    f"delivered={leg['delivered']} "
                    f"rotations={leg['recoveries']} {end}"
                )
            continue
        lines.append(
            f"  {name:<18} {c['cycles']:>6} cycles "
            f"{c['flit_moves']:>7} flit moves  "
            f"delivered={c['delivered']} blocked={c['blocked_cycles']} "
            f"sxb={c['sxb_wait_cycles']}"
        )
    return "\n".join(lines)
