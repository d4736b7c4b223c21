"""The seven sysbench workloads.

Each workload drives ``repro`` through its public API only and gets its
inputs from the run seed: the seed never reaches ``repro`` except as the
injector / campaign / replica seeds derived here (:func:`derive`).

A workload has one timed operation, :meth:`Workload.op`, run closed-loop
by the launch loop in ``run.py``.  Workloads that fan out over worker
processes (``parallel = True``) also have :meth:`Workload.serial_op`: the
same inputs pushed through the layers one public call at a time, so the
traced run can put a span around work that otherwise happens inside a
worker.  :meth:`Workload.probes` holds the per-layer measurements that
are not part of an operation (single-layer builds, observer twins, the
CLI faces).

Sizes marked "ISSUE" are the ones ISSUE 11 measured (~3 s an op); the ops
here are trimmed to 1.5-2 s, because the driver's time cap leaves ~21 s
for a whole run of three launches.  Shape, scheme, engine and traffic mix are
kept.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import NULL

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MACHINE = (16, 16, 8)
#: the standing fault of ``machine_bcast_detour`` (D-XB = S-XB)
MACHINE_FAULT = (8, 8, 4)
#: cycles after the last injection within which every workload must drain
DRAIN = 2000
#: ``machine_bcast_detour`` sends one broadcast per slot of this many cycles
BROADCAST_SLOT = 25


def derive(seed: int, *salt: int) -> int:
    """A 31-bit seed for one random stream of one op of one run."""
    digest = hashlib.sha256(repr((seed,) + salt).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    """One completed operation: its work units, and whatever
    :meth:`Workload.stats` needs to describe it once the clock is off."""

    units: int
    payload: Any


def timed(fn, *args) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def cli_wall(*args: str) -> float:
    """Wall of one ``python -m repro`` subprocess (stdout discarded)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, *args]
    t0 = time.perf_counter()
    subprocess.run(
        cmd, cwd=ROOT, env=env, check=True, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def shape_arg(shape: Sequence[int]) -> str:
    return "x".join(map(str, shape))


class Workload:
    name = ""
    #: the work unit of ``work_per_s``
    unit = ""
    why = ""
    #: ``op`` fans out over worker processes; ``serial_op`` decomposes it
    parallel = False
    #: timed ops of one launch at ``run_seconds`` (``run.ops_per_launch``)
    ops_per_launch = 2

    def __init__(self, seed: int, quick: bool, tmp: str) -> None:
        self.seed = seed
        self.quick = quick
        self.tmp = tmp

    def setup(self, rec=NULL) -> None:
        """Everything up to "ready for the first timed op", including one
        untimed reduced-size warm-up op."""
        raise NotImplementedError

    def op(self, k: int, rec=NULL) -> Op:
        raise NotImplementedError

    def serial_op(self, k: int, rec=NULL) -> Op:
        return self.op(k, rec)

    def stats(self, op: Op) -> Dict:
        """Exact (simulated-time / deterministic) statistics of ``op``,
        keyed by per-layer metric name where one exists."""
        raise NotImplementedError

    def invariants(self, stats: Dict) -> List[str]:
        """Failures that need no pinned reference (any ``--seed``)."""
        return []

    def release(self, op: Op) -> None:
        """Drop what a described op left on disk (the clock is off)."""

    def probes(self, rec, ctx: Dict) -> Dict[str, float]:
        """Per-layer measurements outside the op.  ``ctx`` describes the
        ops the traced run already made: ``stats`` and ``serial_wall`` of
        the untraced serial op, ``parallel_wall`` of the jobs=2 op (when
        there is one), ``layer``, seconds per traced op by span name, and
        ``op``, the last traced op.
        """
        return {}

    def close(self) -> None:
        pass


# ------------------------------------------------------------ machine scale
def build_layers(rec, shape, scheme: str, faults=(), engine="active"):
    """``build_network(...)()`` taken apart: one public constructor per
    layer, each under its own span (mean seconds per build is reported).
    """
    from repro import MDCrossbar, make_config
    from repro.routing import make_scheme
    from repro.sim import NetworkSimulator, SimConfig

    with rec.span("topology.build"):
        MDCrossbar(shape)
    with rec.span("core.make_config"):
        make_config(shape, faults=tuple(faults))
    with rec.span("routing.make_scheme"):
        sch = make_scheme(scheme, shape, faults=tuple(faults))
    with rec.span("sim.construct"):
        NetworkSimulator(
            sch.adapter,
            SimConfig(num_vcs=sch.num_vcs, stall_limit=2000, engine=engine),
        )


def mean_spans(rec, names: Sequence[str]) -> Dict[str, float]:
    durations = rec.durations()
    return {
        name + "_s": sum(durations[name]) / len(durations[name])
        for name in names
        if name in durations
    }


def sim_rates(ctx: Dict) -> Dict[str, float]:
    """Host time per simulated event, from the op's ``sim.run`` spans."""
    run_s, stats = ctx["layer"]["sim.run"], ctx["stats"]
    return {
        "sim.host_us_per_flit_move": 1e6 * run_s / stats["sim.flit_moves"],
        "sim.cycles_per_s": stats["sim.cycles"] / run_s,
    }


BUILD_LAYERS = (
    "topology.build", "core.make_config", "routing.make_scheme",
    "sim.construct",
)


class _Machine(Workload):
    """Shared by the two full-machine workloads: one warm 2048-PE
    simulator, requested on the SoA kernel, ``reset()`` between ops."""

    unit = "flit moves"
    faults: Tuple = ()

    def setup(self, rec=NULL) -> None:
        from repro.experiments.sweeps import build_network

        self.shape = MACHINE
        with rec.span("sim.build_network"):
            self.sim = build_network(
                "md-crossbar", self.shape, scheme="dxb",
                faults=self.faults, engine="soa",
            )()
        self.nodes = len(self.sim.live_nodes)
        with rec.span("warmup"):
            self._run(-1, NULL, reduced=True)

    def op(self, k: int, rec=NULL) -> Op:
        return self._run(k, rec, reduced=False)

    def _sim_stats(self, extra: Dict) -> Dict:
        sim = self.sim
        return {
            "sim.flit_moves": sim.flit_moves,
            "sim.engine_fallbacks": int(sim.engine_used != "soa"),
            "engine_fallback_reason": sim.engine_fallback,
            **extra,
        }

    def stats(self, op: Op) -> Dict:
        return op.payload

    def invariants(self, stats: Dict) -> List[str]:
        out = []
        if stats["deadlocked"]:
            out.append("unexpected deadlock on dxb")
        if stats["sim.delivered"] <= 0:
            out.append("nothing delivered")
        return out

    def probes(self, rec, ctx) -> Dict[str, float]:
        build_layers(rec, self.shape, "dxb", self.faults, engine="soa")
        return mean_spans(rec, BUILD_LAYERS) | sim_rates(ctx)


class MachineP2P(_Machine):
    name = "machine_p2p"
    why = (
        "full 16x16x8 dxb p2p on the SoA kernel: sim.soa does all the work, "
        "runtime/obs none; bypass for runtime/obs changes, exercise for SoA"
    )

    def _spec(self, k: int, reduced: bool):
        from repro.runtime import RunSpec

        # ISSUE: warmup=50, window=150 (2.6 s)
        warmup, window = (5, 5) if reduced or self.quick else (50, 100)
        return RunSpec(
            kind="md-crossbar", shape=self.shape, scheme="dxb", engine="soa",
            load=0.3, packet_length=8, warmup=warmup, window=window,
            drain=200 if self.quick else 400, seed=derive(self.seed, k),
        )

    def _run(self, k: int, rec, reduced: bool) -> Op:
        spec = self._spec(k, reduced)
        with rec.span("sim.reset"):
            self.sim.reset()
        with rec.span("sim.run"):
            result = spec.execute(sim=self.sim)
        point = result.point
        return Op(
            self.sim.flit_moves,
            self._sim_stats({
                "sim.cycles": point.cycles,
                "sim.delivered": point.latency.count,
                "sim.mean_latency_cycles": point.latency.mean,
                "sim.accepted_load": point.accepted_load,
                "deadlocked": point.deadlocked,
            }),
        )

    def probes(self, rec, ctx) -> Dict[str, float]:
        out = super().probes(rec, ctx)
        spec = self._spec(0, reduced=False)
        cli = cli_wall(
            "-m", "repro", "sweep", "--shape", shape_arg(spec.shape),
            "--scheme", "dxb", "--engine", "soa", "--loads", str(spec.load),
            "--packet-length", str(spec.packet_length),
            "--warmup", str(spec.warmup), "--window", str(spec.window),
            "--drain", str(spec.drain), "--seed", str(spec.seed), "--json",
        )
        out["cli.overhead_s"] = cli - ctx["serial_wall"]
        return out


class MachineBcastDetour(_Machine):
    name = "machine_bcast_detour"
    why = (
        "the paper's Fig. 9/10 mix at machine scale: S-XB serialisation, "
        "multicast fan-out and D-XB detours; SoA is requested and falls "
        "back to the active driver today"
    )

    def __init__(self, seed, quick, tmp) -> None:
        super().__init__(seed, quick, tmp)
        from repro import Fault

        self.faults = (Fault.router(MACHINE_FAULT),)

    def _run(self, k: int, rec, reduced: bool) -> Op:
        from repro.core import RC, Header, Packet
        from repro.traffic import BernoulliInjector

        sim = self.sim
        # ISSUE: 160 injection cycles (~3 s)
        inject = 15 if reduced or self.quick else 100
        with rec.span("sim.reset"):
            sim.reset()
        sim.add_generator(
            BernoulliInjector(
                load=0.15, packet_length=8, seed=derive(self.seed, k, 0),
                stop_at=inject,
            )
        )
        # ISSUE: BroadcastInjector(rate=0.04).  Its count over an op is
        # Binomial(inject, 0.04), 4 +/- 2: an op's work, and cpu_s_per_op
        # with it, would move by tens of percent with the seed.  The same
        # mean rate, stratified: one broadcast at a seeded random cycle of
        # every 25-cycle slot, from a seeded random source.  A broadcast is
        # in flight for 50-150 cycles, so two to four overlap at the S-XB.
        rng = random.Random(derive(self.seed, k, 1))
        live = sim.live_nodes
        for slot in range(0, inject, BROADCAST_SLOT):
            src = live[rng.randrange(len(live))]
            sim.send(
                Packet(
                    Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST),
                    length=8,
                ),
                at_cycle=slot + rng.randrange(min(BROADCAST_SLOT, inject - slot)),
            )
        with rec.span("sim.run"):
            res = sim.run(max_cycles=inject + DRAIN, until_drained=False)
        done = [p.delivered_at for p in res.delivered]
        flits = sum(p.length for p in res.delivered)
        spans = [
            (p.injected_at, p.delivered_at) for p in res.delivered
            if p.header.rc == RC.BROADCAST_REQUEST
        ]
        return Op(
            res.flit_moves,
            self._sim_stats({
                "sim.cycles": max(done) if done else 0,
                "sim.delivered": len(res.delivered),
                "sim.mean_latency_cycles": res.mean_latency,
                "sim.accepted_load": flits / (self.nodes * inject),
                "deadlocked": res.deadlocked,
                "injected": res.injected,
                "broadcasts": len(spans),
                "broadcasts_in_flight": max(
                    sum(a <= t < b for a, b in spans) for t, _ in spans
                ),
                "dropped": len(res.dropped),
                "in_flight_at_end": res.in_flight_at_end,
            }),
        )

    def invariants(self, stats: Dict) -> List[str]:
        out = super().invariants(stats)
        if stats["in_flight_at_end"] or stats["dropped"]:
            out.append("undelivered packets after the drain horizon")
        if stats["injected"] != stats["sim.delivered"]:
            out.append("injected != delivered")
        return out


# ------------------------------------------------------------- fault sweeps
SWEEP_SHAPE = (4, 3)
SWEEP_SCHEMES = ("dxb", "hyperx_ft")
SWEEP_LOADS = (0.05, 0.1, 0.15, 0.2)


def sweep_specs(seed: int, k: int, replicas: int):
    """19 single faults x 2 schemes x 4 loads x ``replicas`` seeds on 4x3:
    38 network keys, more than a worker's NetworkCache keeps (32)."""
    from repro.runtime import fault_placement_specs, seed_replicas

    base = []
    for scheme in SWEEP_SCHEMES:
        for load in SWEEP_LOADS:
            base += fault_placement_specs(
                "md-crossbar", SWEEP_SHAPE, load, scheme=scheme,
                packet_length=4, warmup=5, window=10, drain=60,
                stall_limit=200,
            )
    return seed_replicas(base, [derive(seed, k, r) for r in range(replicas)])


class _FaultSweep(Workload):
    unit = "specs"
    parallel = True

    def __init__(self, seed, quick, tmp) -> None:
        super().__init__(seed, quick, tmp)
        # ISSUE: 32 replicas = 4 864 specs (3.6-3.9 s cold)
        self.replicas = 1 if quick else 12
        self.ledger_path = os.path.join(tmp, "ledger.jsonl")
        self._dirs = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.tmp, f"cache-{self._dirs}")

    def session_run(self, session, specs, cache_dir, ledgered=True, rec=NULL):
        """One ``session.run(specs)`` against the cache in ``cache_dir``,
        with a file-backed ledger or none: (wall, results, ledger, cache).
        """
        from repro.obs import SweepLedger
        from repro.runtime import ResultCache

        cache = ResultCache(cache_dir)
        with open(self.ledger_path, "w") as sink:
            ledger = SweepLedger(sink=sink) if ledgered else None
            session.cache, session.ledger = cache, ledger
            try:
                with rec.span("runtime.session_run"):
                    wall, results = timed(session.run, specs)
            finally:
                # also keeps close() from writing to the closed sink
                session.cache = session.ledger = None
        return wall, results, ledger, cache

    def harness_ledger(self, sink, results, tiers):
        """The records ``SweepSession.run`` writes for a serial run."""
        from repro.obs import SweepLedger, spec_outcome

        ledger = SweepLedger(sink=sink)
        ledger.record("sweep_start", run=1, specs=len(results))
        for i, (result, tier) in enumerate(zip(results, tiers)):
            ledger.record(
                "spec_done", run=1, i=i, cache=tier, **spec_outcome(result)
            )
        ledger.record("sweep_end", run=1, specs=len(results))
        return ledger

    def stats(self, op: Op) -> Dict:
        from repro.obs import ledger_identity
        from repro.runtime import result_identity

        results, ledger_records, cache, extra = op.payload[:4]
        counts = [r.point.latency.count for r in results]
        latency = sum(
            r.point.latency.mean * r.point.latency.count
            for r in results if r.point.latency.count
        )
        return {
            "runtime.specs": len(results),
            "identity": sha(result_identity(results)),
            "ledger_identity": ledger_identity(ledger_records),
            "obs.ledger_records": len(ledger_records),
            "runtime.cache_hits": cache.hits,
            "runtime.cache_misses": cache.misses,
            "sim.cycles": sum(r.point.cycles for r in results),
            "sim.delivered": sum(counts),
            "sim.mean_latency_cycles": latency / max(1, sum(counts)),
            "sim.accepted_load": (
                sum(r.point.accepted_load for r in results) / len(results)
            ),
            "deadlocked": sum(r.point.deadlocked for r in results),
            "runtime.cache_bytes": dir_bytes(cache.root),
            **extra,
        }

    def invariants(self, stats: Dict) -> List[str]:
        out = []
        if stats["deadlocked"]:
            out.append(f"{stats['deadlocked']} spec(s) deadlocked")
        if stats["obs.ledger_records"] < stats["runtime.specs"]:
            out.append("ledger lost spec records")
        return out

    def layer_probes(self, rec, ctx, session, cache_dir):
        """Single-layer costs over the traced op's specs and results,
        what the ledger costs a jobs=2 run, and that run's results."""
        from repro.obs import ledger_identity
        from repro.runtime import NetworkCache, result_identity, spec_key

        specs = sweep_specs(self.seed, 0, self.replicas)
        results, records = ctx["op"].payload[:2]
        out: Dict[str, float] = {}
        out["runtime.spec_key_s"] = timed(
            lambda: [spec_key(s) for s in specs]
        )[0]
        out["runtime.result_pickle_s"], blob = timed(
            pickle.dumps, results, pickle.HIGHEST_PROTOCOL
        )
        out["runtime.result_pickle_s"] += timed(pickle.loads, blob)[0]
        out["runtime.result_pickle_bytes"] = len(blob)
        out["runtime.result_identity_s"] = timed(result_identity, results)[0]
        out["obs.ledger_identity_s"] = timed(ledger_identity, records)[0]
        for key_spec in {s.network_key(): s for s in specs}.values():
            build_layers(
                rec, key_spec.shape, key_spec.scheme, key_spec.faults
            )
        out.update(mean_spans(rec, BUILD_LAYERS))
        sim = NetworkCache().get(specs[0])
        specs[0].execute(sim=sim)
        out["sim.reset_s"] = timed(sim.reset)[0]
        bare = self.session_run(session, specs, cache_dir(), ledgered=False)
        ledgered = self.session_run(session, specs, cache_dir())
        out["obs.ledger_overhead_ratio"] = ledgered[0] / bare[0]
        return out, bare


def dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _dirs, files in os.walk(root)
        for f in files
    )


class FaultSweepCold(_FaultSweep):
    name = "fault_sweep_cold"
    why = (
        "thousands of ~1 ms specs through a warm jobs=2 session into an "
        "empty result cache: runtime dispatch, pickling, NetworkCache churn, "
        "cache writes and the ledger dominate; only multi-VC traffic here"
    )

    def setup(self, rec=NULL) -> None:
        from repro.runtime import SweepSession

        with rec.span("runtime.session_spawn"):
            self.session = SweepSession(jobs=2)
            # the reduced warm-up op is what starts both workers; it is
            # large enough for each of them to meet every network key
            warm = sweep_specs(self.seed, -1, 1 if self.quick else 3)
            cache = self.session_run(self.session, warm, self.fresh_dir())[3]
            shutil.rmtree(cache.root)

    def op(self, k: int, rec=NULL) -> Op:
        with rec.span("runtime.spec_build"):
            specs = sweep_specs(self.seed, k, self.replicas)
        _, results, ledger, cache = self.session_run(
            self.session, specs, self.fresh_dir(), rec=rec
        )
        return Op(len(results), (results, list(ledger.records), cache, {}))

    def serial_op(self, k: int, rec=NULL) -> Op:
        """What ``SweepSession.run`` and its workers do for an all-miss
        sweep, one public call at a time on a fresh NetworkCache."""
        from repro.runtime import NetworkCache, ResultCache

        with rec.span("runtime.spec_build"):
            specs = sweep_specs(self.seed, k, self.replicas)
        networks = NetworkCache()
        results, tiers = [], []
        flit_moves = fallbacks = 0
        with rec.span("runtime.cache_get"):
            cache = ResultCache(self.fresh_dir())
            todo = [spec for spec in specs if cache.get(spec) is None]
        for spec in todo:
            builds = networks.builds
            with rec.span("runtime.netcache_get"):
                sim = networks.get(spec)
            with rec.span("sim.run"):
                results.append(spec.execute(sim=sim))
            tiers.append("fresh" if networks.builds > builds else "reuse")
            flit_moves += sim.flit_moves
            fallbacks += sim.engine_used != spec.engine
        with rec.span("runtime.cache_put"):
            for result in results:
                cache.put(result)
        with rec.span("obs.ledger_record"), open(self.ledger_path, "w") as f:
            records = list(self.harness_ledger(f, results, tiers).records)
        extra = {
            "sim.flit_moves": flit_moves,
            "sim.engine_fallbacks": fallbacks,
            "runtime.netcache_builds": networks.builds,
            "runtime.netcache_reuses": networks.reuses,
        }
        # the simulators go with the op, so freeing them is not part of it
        return Op(len(results), (results, records, cache, extra, networks))

    def release(self, op: Op) -> None:
        """Every op, and the warm-up, removes the cache it filled.  On this
        box (ext4) writing ~2 000 small files costs the parent 0.1 or 1.0
        s of system time depending on how recently as many were deleted
        nearby; removing each op's files keeps every op on the same side
        of that, instead of the first launches of a run on one side and
        the later ones on the other."""
        shutil.rmtree(op.payload[2].root)

    def probes(self, rec, ctx) -> Dict[str, float]:
        out, (wall, results, _, _) = self.layer_probes(
            rec, ctx, self.session, self.fresh_dir
        )
        # worker-side seconds against the wall two workers were held for
        busy = sum(r.wall_time for r in results)
        out["runtime.worker_busy_s"] = busy
        out["runtime.overhead_share"] = 1.0 - busy / (
            self.session.last_run.workers * wall
        )
        return out | sim_rates(ctx)

    def close(self) -> None:
        self.session.close()


class FaultSweepReplay(_FaultSweep):
    name = "fault_sweep_replay"
    why = (
        "the same specs against a populated cache: hashing, cache reads, "
        "JSON, ledger parsing and report rendering, zero simulation; the "
        "read-side twin of fault_sweep_cold"
    )

    #: ISSUE: ~0.5 s an op, "run 6 ops per launch"
    ops_per_launch = 6

    def setup(self, rec=NULL) -> None:
        from repro.runtime import SweepSession, result_identity

        self.cache_dir = self.fresh_dir()
        specs = sweep_specs(self.seed, 0, self.replicas)
        with rec.span("runtime.session_spawn"), SweepSession(jobs=2) as s:
            populated = self.session_run(s, specs, self.cache_dir)[1]
        self.cold_identity = sha(result_identity(populated))
        with rec.span("warmup"):
            self.op(-1)

    def op(self, k: int, rec=NULL) -> Op:
        """Every op replays the one populated spec set (repeated keys)
        through a fresh session, as a rerun of a finished sweep would."""
        from repro.runtime import SweepSession

        with rec.span("runtime.spec_build"):
            specs = sweep_specs(self.seed, 0, self.replicas)
        with SweepSession(jobs=2) as session:
            _, results, _, cache = self.session_run(
                session, specs, self.cache_dir, rec=rec
            )
        return self._report(results, cache, rec)

    def serial_op(self, k: int, rec=NULL) -> Op:
        """The all-hit path of ``SweepSession.run`` taken apart."""
        from repro.runtime import ResultCache

        with rec.span("runtime.spec_build"):
            specs = sweep_specs(self.seed, 0, self.replicas)
        with rec.span("runtime.cache_get"):
            cache = ResultCache(self.cache_dir)
            results = [cache.get(spec) for spec in specs]
        with rec.span("obs.ledger_record"), open(self.ledger_path, "w") as f:
            self.harness_ledger(f, results, ["result"] * len(results))
        return self._report(results, cache, rec)

    def _report(self, results, cache, rec) -> Op:
        """What a user does with a finished sweep: JSON out, ledger read
        back, post-mortem rendered."""
        from repro.obs import read_ledger
        from repro.obs.report import render_sweep_report

        with rec.span("runtime.result_json"):
            doc = json.dumps([r.to_dict() for r in results])
        with rec.span("obs.read_ledger"), open(self.ledger_path) as f:
            data = read_ledger(f)
        with rec.span("obs.render_sweep_report"):
            render_sweep_report(data.header, data.records)
        extra = {
            "runtime.result_json_bytes": len(doc),
            "cold_identity": self.cold_identity,
        }
        records = [data.header] + data.records
        return Op(len(results), (results, records, cache, extra))

    def invariants(self, stats: Dict) -> List[str]:
        out = super().invariants(stats)
        if stats["identity"] != stats["cold_identity"]:
            out.append("replayed results differ from the cold run's")
        if stats["runtime.cache_misses"]:
            out.append("replay missed the populated cache")
        return out

    def probes(self, rec, ctx) -> Dict[str, float]:
        from repro.runtime import SweepSession

        with SweepSession(jobs=2) as session:
            return self.layer_probes(
                rec, ctx, session, lambda: self.cache_dir
            )[0]


# ----------------------------------------------------------------- campaign
class CampaignMTTF(Workload):
    name = "campaign_mttf"
    unit = "samples"
    parallel = True
    why = (
        "Monte-Carlo reliability on 16x16x8 over the warm pool: the campaign "
        "block kernel, the feasibility oracle and the ordered merge; no sim "
        "at all, so it is the bypass for every engine change"
    )

    def setup(self, rec=NULL) -> None:
        from repro.runtime import SweepSession

        # ISSUE: 44 blocks of 16 384 (~3 s)
        self.block, self.blocks = (2048, 2) if self.quick else (16384, 36)
        with rec.span("runtime.session_spawn"):
            self.session = SweepSession(jobs=2)
            self._campaign(-1, blocks=2 if self.quick else 6)

    def _spec(self, k: int, blocks: Optional[int] = None):
        from repro.analysis import CampaignSpec

        return CampaignSpec(
            shape=MACHINE, samples=self.block * (blocks or self.blocks),
            scheme="dxb", seed=derive(self.seed, k), block_samples=self.block,
        )

    def _campaign(self, k: int, blocks: Optional[int] = None):
        from repro.analysis import run_campaign

        return run_campaign(self._spec(k, blocks), session=self.session)

    def op(self, k: int, rec=NULL) -> Op:
        with rec.span("runtime.session_run"):
            result = self._campaign(k)
        return Op(result.samples_done, result)

    def serial_op(self, k: int, rec=NULL) -> Op:
        """``run_campaign`` taken apart: the chunk plan a jobs=2 session
        makes, executed in-process, states folded in block order."""
        from repro.analysis.campaign import (
            BlockState,
            CampaignResult,
            empty_state,
            execute_campaign_blocks,
            merge_states,
        )
        from repro.runtime import chunk_indices

        spec = self._spec(k).validated()
        session = self.session
        chunks = chunk_indices(
            spec.num_blocks,
            session.effective_workers(spec.num_blocks)
            * session.chunks_per_worker,
        )
        docs = []
        for lo, hi in chunks:
            with rec.span("analysis.sample_block"):
                docs.append(execute_campaign_blocks(spec, lo, hi)[2])
        with rec.span("analysis.merge_states"):
            state = empty_state()
            for chunk_docs in docs:
                for doc in chunk_docs:
                    state = merge_states(state, BlockState.from_dict(doc))
        result = CampaignResult(
            spec=spec, state=state, blocks_done=spec.num_blocks,
            wall_s=0.0, workers=1, chunks=len(chunks),
        )
        return Op(result.samples_done, result)

    def stats(self, op: Op) -> Dict:
        result = op.payload
        return {
            "identity": result.identity_sha256,
            "analysis.samples": result.samples_done,
            "analysis.blocks": result.blocks_done,
            "mean_mttf_hex": result.estimate().mean.hex(),
        }

    def invariants(self, stats: Dict) -> List[str]:
        if stats["analysis.samples"] != self.block * self.blocks:
            return ["campaign lost samples"]
        return []

    def probes(self, rec, ctx) -> Dict[str, float]:
        from repro.analysis import SwitchUniverse, run_campaign

        blocks_s = ctx["layer"]["analysis.sample_block"]
        out = {
            "analysis.ns_per_sample": 1e9 * blocks_s / (self.block * self.blocks),
            "analysis.overhead_share": 1.0 - blocks_s / 2 / ctx["parallel_wall"],
        }
        out["analysis.universe_build_s"], universe = timed(
            SwitchUniverse, MACHINE
        )
        rng = random.Random(derive(self.seed, 0, 7))
        n = universe.num_routers
        sets = [
            tuple(rng.sample(range(n), rng.randint(1, 3)))
            for _ in range(200 if self.quick else 2000)
        ]
        took, _ = timed(lambda: [universe.feasible(s) for s in sets])
        out["analysis.oracle_feasible_per_s"] = len(sets) / took
        # jobs=2 == jobs=1 on a 4-block prefix, through run_campaign itself
        prefix = min(4, self.blocks)
        serial = run_campaign(self._spec(0), jobs=1, until_block=prefix)
        pooled = run_campaign(
            self._spec(0), session=self.session, until_block=prefix
        )
        if serial.identity_sha256 != pooled.identity_sha256:
            raise AssertionError("campaign identity differs jobs=1 vs jobs=2")
        cli = cli_wall(
            "-m", "repro", "campaign", "--shape", shape_arg(MACHINE),
            "--samples", str(self.block * self.blocks),
            "--block", str(self.block),
            "--seed", str(derive(self.seed, 0)), "--json",
        )
        out["cli.overhead_s"] = cli - ctx["serial_wall"]
        return out

    def close(self) -> None:
        self.session.close()


# ------------------------------------------------------------- safety audit
class SafetyAudit(Workload):
    name = "safety_audit"
    unit = "certified configurations"
    why = (
        "the paper's claim as a static certificate: tiered CDG analysis of "
        "fault-free and single-fault 6x6 configurations plus the scheme "
        "self-checks; core.routes + core.cdg + routing.base, nothing else"
    )
    SCHEMES = ("dxb", "hyperx_ft", "adaptive")

    def setup(self, rec=NULL) -> None:
        from repro import MDCrossbar
        from repro.core.multifault import all_single_faults

        # ISSUE: all 49 configurations of 6x6 per op (~4.5 s); an op here
        # audits the fault-free one plus a seeded sample of the placements
        self.shape = (4, 4) if self.quick else (6, 6)
        self.sample = 2 if self.quick else 16
        with rec.span("topology.build"):
            self.topo = MDCrossbar(self.shape)
        self.faults = all_single_faults(self.shape)
        with rec.span("warmup"):
            self._audit([None], self.SCHEMES[:1], NULL)

    def _audit(self, faults, schemes, rec) -> Dict:
        from repro import SwitchLogic, make_config
        from repro.core import build_cdg
        from repro.routing import make_scheme

        cdg: Dict[str, list] = {}
        for fault in faults:
            with rec.span("core.make_config"):
                config = make_config(self.shape, fault=fault)
            with rec.span("core.switch_logic"):
                logic = SwitchLogic(self.topo, config)
            with rec.span("core.cdg_build"):
                graph = build_cdg(self.topo, logic)
            with rec.span("core.find_deadlock"):
                verdict = graph.find_deadlock()
            cdg[str(fault) if fault else "fault-free"] = [
                verdict.deadlock_free, verdict.num_edges,
                verdict.num_channels, verdict.num_flows,
            ]
        audits: Dict[str, list] = {}
        for name in schemes:
            with rec.span("routing.make_scheme"):
                scheme = make_scheme(name, self.shape)
            with rec.span("routing.check_cycle_free"):
                audit = scheme.check_cycle_free()
            audits[name] = [audit.cycle_free, audit.num_edges]
        return {"cdg": cdg, "schemes": audits}

    def op(self, k: int, rec=NULL) -> Op:
        rng = random.Random(derive(self.seed, k))
        faults = [None] + rng.sample(self.faults, self.sample)
        verdicts = self._audit(faults, self.SCHEMES, rec)
        return Op(len(verdicts["cdg"]) + len(verdicts["schemes"]), verdicts)

    def stats(self, op: Op) -> Dict:
        v = op.payload
        return {
            **v,
            "core.cdg_edges": sum(row[1] for row in v["cdg"].values()),
            "routing.dependency_edges": sum(
                row[1] for row in v["schemes"].values()
            ),
        }

    def invariants(self, stats: Dict) -> List[str]:
        bad = [k for k, row in stats["cdg"].items() if not row[0]]
        bad += [k for k, row in stats["schemes"].items() if not row[0]]
        return [f"cyclic dependency graph: {', '.join(bad)}"] if bad else []

    def probes(self, rec, ctx) -> Dict[str, float]:
        from repro import SwitchLogic, make_config
        from repro.core import route_all_broadcasts, route_all_unicasts

        logic = SwitchLogic(self.topo, make_config(self.shape))

        def route_all():
            route_all_unicasts(self.topo, logic)
            route_all_broadcasts(self.topo, logic)

        return {"core.route_all_s": timed(route_all)[0]}


# ------------------------------------------------------------- observed run
class ObservedRun(Workload):
    name = "observed_run"
    unit = "flit moves"
    why = (
        "an 8x8x4 run with every observer on (collectors, packet spans, "
        "full JSONL trace) then read_trace -> spans_from_trace -> report: "
        "obs does most of the work and the SoA fast path is lost"
    )

    def setup(self, rec=NULL) -> None:
        from repro.experiments.sweeps import build_network

        # ISSUE: 350 injection cycles (~3 s observed)
        self.shape = (4, 4, 2) if self.quick else (8, 8, 4)
        self.inject = 20 if self.quick else 260
        with rec.span("sim.build_network"):
            self.sim = build_network(
                "md-crossbar", self.shape, scheme="dxb", engine="soa"
            )()
        self.nodes = len(self.sim.live_nodes)
        self.path = os.path.join(self.tmp, "observed.trace.jsonl")
        with rec.span("warmup"):
            self._run(-1, NULL, inject=max(10, self.inject // 6))

    def op(self, k: int, rec=NULL) -> Op:
        return self._run(k, rec)

    def _run(
        self, k, rec, inject=None, collectors=True, spans=True, trace=True
    ) -> Op:
        from repro.obs import (
            EVENT_KINDS,
            CollectorSuite,
            PacketSpanCollector,
            TraceRecorder,
            read_trace,
            spans_from_trace,
        )
        from repro.obs.report import render_report
        from repro.traffic import BernoulliInjector

        sim = self.sim
        inject = inject or self.inject
        with rec.span("sim.reset"):
            sim.reset()
        sim.add_generator(
            BernoulliInjector(
                load=0.3, packet_length=8, seed=derive(self.seed, k),
                stop_at=inject,
            )
        )
        suite = collector = tracer = None
        # attach and detach share a span name: obs.attach_s is both, and
        # includes creating and flushing the trace file
        with rec.span("obs.attach"):
            sink = open(self.path, "w")
            if collectors:
                suite = CollectorSuite(sim)
            if spans:
                collector = PacketSpanCollector().attach(sim)
            if trace:
                tracer = TraceRecorder(
                    events=EVENT_KINDS, sink=sink, limit=0
                ).attach(sim)
        try:
            with rec.span("sim.run"):
                run_wall, res = timed(
                    sim.run, inject + DRAIN, False  # until_drained=False
                )
        finally:
            with rec.span("obs.attach"):
                if tracer:
                    tracer.detach()
                if collector:
                    collector.detach(sim)
                if suite:
                    suite.detach()
                sink.close()
        raw = {
            "res": res, "inject": inject, "run_wall": run_wall,
            "fallback": (sim.engine_used != "soa", sim.engine_fallback),
            "collector": collector,
        }
        if trace:
            with rec.span("obs.read_trace"), open(self.path) as f:
                data = read_trace(f)
            with rec.span("obs.spans_from_trace"):
                raw["replayed"] = spans_from_trace(data.header, data.records)
            # kept with the op, so freeing it is not part of the op
            raw["trace"] = data, os.path.getsize(self.path)
        if collector:
            with rec.span("obs.render_report"):
                raw["report"] = render_report(
                    spans=raw.get("replayed") or collector.span_set(),
                    metrics=suite.metrics() if suite else None,
                )
        return Op(res.flit_moves, raw)

    def stats(self, op: Op) -> Dict:
        raw = op.payload
        res = raw["res"]
        done = [p.delivered_at for p in res.delivered]
        flits = sum(p.length for p in res.delivered)
        stats = {
            "sim.flit_moves": res.flit_moves,
            "sim.cycles": max(done) if done else 0,
            "sim.delivered": len(res.delivered),
            "sim.mean_latency_cycles": res.mean_latency,
            "sim.accepted_load": flits / (self.nodes * raw["inject"]),
            "sim.engine_fallbacks": int(raw["fallback"][0]),
            "engine_fallback_reason": raw["fallback"][1],
            "deadlocked": res.deadlocked,
            "injected": res.injected,
            "in_flight_at_end": res.in_flight_at_end,
            "run_wall": raw["run_wall"],
        }
        if "trace" in raw:
            stats["obs.trace_records"] = len(raw["trace"][0].records)
            stats["obs.trace_bytes"] = raw["trace"][1]
            stats["span_totals"] = raw["replayed"].totals()
            if raw["collector"]:
                stats["live_span_totals"] = raw["collector"].span_set().totals()
        return stats

    def invariants(self, stats: Dict) -> List[str]:
        out = []
        if stats["deadlocked"]:
            out.append("unexpected deadlock on dxb")
        if stats["in_flight_at_end"] or (
            stats["injected"] != stats["sim.delivered"]
        ):
            out.append("injected != delivered")
        totals = stats["span_totals"]
        if totals != stats["live_span_totals"]:
            out.append("spans rebuilt from the trace differ from live spans")
        parts = sum(
            totals[k] for k in ("queue_wait", "blocked", "sxb_wait", "transfer")
        )
        if parts != totals["latency"] or totals["incomplete"]:
            out.append("per-packet span accounting identity broken")
        if totals["detour_overhead"]:
            out.append("detour overhead on a fault-free network")
        return out

    def probes(self, rec, ctx) -> Dict[str, float]:
        legs = {
            "bare": dict(collectors=False, spans=False, trace=False),
            "collectors": dict(spans=False, trace=False),
            "spans": dict(collectors=False, trace=False),
            "trace": dict(collectors=False, spans=False),
            "report": dict(trace=False),
        }
        stats = ctx["stats"]
        walls: Dict[str, float] = {}
        runs: Dict[str, Dict] = {}
        for leg, flags in legs.items():
            walls[leg], op = timed(lambda: self._run(0, NULL, **flags))
            runs[leg] = self.stats(op)
            if runs[leg]["sim.flit_moves"] != stats["sim.flit_moves"]:
                raise AssertionError(f"observer leg {leg!r} changed the run")
        # observers multiply the cycle loop: compare sim.run walls only
        bare = runs["bare"]["run_wall"]
        out = {
            f"obs.{leg}_overhead_ratio": runs[leg]["run_wall"] / bare
            for leg in ("collectors", "spans", "trace")
        }
        out["obs.all_overhead_ratio"] = ctx["layer"]["sim.run"] / bare
        out["obs.fastpath_lost"] = int(
            stats["sim.engine_fallbacks"]
            != runs["bare"]["sim.engine_fallbacks"]
        )
        out.update(sim_rates(ctx))
        build_layers(rec, self.shape, "dxb", engine="soa")
        out.update(mean_spans(rec, BUILD_LAYERS))
        cli = cli_wall(
            "-m", "repro", "report", "--shape", shape_arg(self.shape),
            "--scheme", "dxb", "--engine", "soa", "--load", "0.3",
            "--packet-length", "8", "--cycles", str(self.inject),
            "--seed", str(derive(self.seed, 0)),
        )
        out["cli.overhead_s"] = cli - walls["report"]
        return out


#: statistics pinned in ``expected.json`` beside the exact per-layer counts
PINNED_EXTRA = (
    "identity", "ledger_identity", "cdg", "schemes", "span_totals",
    "mean_mttf_hex", "deadlocked", "injected", "broadcasts",
    "broadcasts_in_flight", "engine_fallback_reason",
)


def pinned(stats: Dict) -> Dict:
    """The part of an op's statistics that must repeat bit for bit."""
    from harness import PER_LAYER

    return {
        k: v for k, v in stats.items()
        if k in PINNED_EXTRA or PER_LAYER.get(k, ("", False))[1]
    }


WORKLOADS = {
    w.name: w
    for w in (
        MachineP2P, MachineBcastDetour, FaultSweepCold, FaultSweepReplay,
        CampaignMTTF, SafetyAudit, ObservedRun,
    )
}
