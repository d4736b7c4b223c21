#!/usr/bin/env python3
"""sysbench: the outside, end-to-end + per-layer benchmark of ``repro``.

    python sysbench/run.py [--seed 11] [--workload NAME] [--trace] [--quick]

runs the named workloads (default: all seven) and prints every metric by
name with its unit and sample count.  Without ``--trace`` a workload is
three fresh process launches, each doing set-up, an untimed warm-up op
and a closed loop of a fixed number of timed ops; the end-to-end metrics
are plain medians over those ops.  With ``--trace`` it is one launch that
pushes one op through the layers serially under the span recorder and
reports the per-layer metrics.

The benchmark driver calls ``--workload W --seed N --seconds S --trace
0|1``; with exactly one workload the last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.

This file only orchestrates: every launch is a child process (``--launch``)
so that set-up is measured from interpreter start and nothing a workload
leaves behind reaches the next one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
from harness import END_TO_END, PER_LAYER, median  # noqa: E402
from workloads import (  # noqa: E402  (repro itself is imported lazily)
    WORKLOADS,
    cli_wall,
    mean_spans,
    pinned,
    timed,
)

OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

#: seeds whose statistics ``expected.json`` pins
PINNED_SEEDS = (11, 23)
#: nominal seconds of timed ops per run (BENCHMARK.json ``run_seconds``)
RUN_SECONDS = 12
LAUNCHES = 3
#: a traced launch makes at least this many untraced/traced op pairs
MIN_PAIRS = 2
#: harness health limits of the traced run (ISSUE 11)
MAX_UNACCOUNTED = 0.02
MAX_OVERHEAD = 1.05


def ops_per_launch(workload, seconds: float, quick: bool) -> int:
    """Timed ops of one launch.  A fixed count, never a deadline, so two
    commits are always compared over the same ops: the workload's own
    count (ops are sized to ~RUN_SECONDS / LAUNCHES seconds a launch at
    the first measured commit), scaled with ``--seconds``."""
    if quick:
        return 2
    return max(1, round(workload.ops_per_launch * seconds / RUN_SECONDS))


# ------------------------------------------------------------------ launch
def launch_main(args) -> int:
    """One fresh-process launch of one workload (the ``--launch`` child)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    tmp = tempfile.mkdtemp(dir=args.tmp)
    workload = WORKLOADS[args.workload[0]](args.seed, args.quick, tmp)
    try:
        if args.trace:
            doc = traced_launch(workload, args)
        else:
            doc = timed_launch(workload, args)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    doc["numpy"] = numpy.__version__
    print(json.dumps(doc))
    return 0


def timed_launch(workload, args) -> Dict:
    """Set-up, then a closed loop of ``--ops`` timed ops."""
    workload.setup()
    setup_s = time.time() - args.t0
    records, error = [], None
    for k in range(args.ops):
        cpu0 = harness.cpu_seconds()
        t0 = time.perf_counter()
        try:
            op = workload.op(k)
        except Exception as exc:  # an op that raises is a failed op
            error = f"op {k} raised {type(exc).__name__}: {exc}"
            break
        wall = time.perf_counter() - t0
        cpu = harness.cpu_seconds() - cpu0
        # the clock is off: describe and check the op, then let go of it --
        # results kept alive here would slow the next op's garbage collector
        stats = workload.stats(op)
        records.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "units": op.units,
            "pinned": pinned(stats),
            "failures": workload.invariants(stats),
        })
        workload.release(op)
        del op, stats
    return {
        "setup_s": setup_s,
        "ops": records,
        "error": error,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def traced_launch(workload, args) -> Dict:
    """One op through the layers under the span recorder.

    Order: set-up; the jobs=2 op as one span (parallel workloads); then
    alternating untraced / traced serial ops, whose ratio is the tracing
    overhead; then the workload's probes and the two CLI start-up probes.
    """
    rec = harness.SpanRecorder()
    rec.op = "setup"
    with rec.span("setup"):
        workload.setup(rec)
    ctx: Dict = {"parallel_wall": None}
    legs = {}
    if workload.parallel:
        rec.op = "parallel"
        ctx["parallel_wall"], op = timed(workload.op, 0, rec)
        legs["parallel"] = workload.stats(op)
        workload.release(op)
    untraced: List[float] = []
    roots: List[int] = []
    # every repeat of op 0 finds the caches the first one filled (route
    # memo, worker universes), so fill them before the twins are compared
    workload.release(workload.serial_op(0, harness.NULL))

    def plain() -> None:
        wall, op = timed(workload.serial_op, 0, harness.NULL)
        untraced.append(wall)
        legs["untraced"] = workload.stats(op)
        workload.release(op)

    def spanned() -> None:
        rec.op = f"op{len(roots)}"
        roots.append(len(rec.spans))
        with rec.span("op"):
            op = workload.serial_op(0, rec)
        legs["traced"] = workload.stats(op)
        workload.release(op)
        ctx["op"] = op  # the previous one is freed here, outside any span

    # Same inputs, alternating order, each leg from a collected heap; the
    # tracing overhead is the median of the per-pair ratios.  Pairs are
    # made for a third of ``--seconds`` (short ops get more of them).  One
    # op's wall moves by several percent on this box, so pairs are added
    # while the ratio still reads over the limit, for at most 2.5 x
    # ``--seconds``: a real overhead stays over it, noise does not.
    def overhead() -> float:
        walls = [rec.spans[r][2] - rec.spans[r][1] for r in roots]
        return median([t / u for t, u in zip(walls, untraced)])

    start = time.perf_counter()
    while True:
        for leg in (plain, spanned) if len(roots) % 2 == 0 else (spanned, plain):
            gc.collect()
            leg()
        took = time.perf_counter() - start
        settled = took >= args.seconds / 3 and overhead() < MAX_OVERHEAD
        if (len(roots) >= MIN_PAIRS and settled) or took >= 2.5 * args.seconds:
            break
    names = {s[0] for s in rec.spans if s[4] and s[4].startswith("op")}
    layer = {
        name: median([rec.total(name, f"op{i}") for i in range(len(roots))])
        for name in names - {"op"}
    }
    stats = legs["traced"]
    ctx.update(stats=stats, serial_wall=median(untraced), layer=layer)

    failures = workload.invariants(stats)
    metrics = {name: 0.0 for name in PER_LAYER}
    rec.op = "probe"
    try:
        metrics.update(workload.probes(rec, ctx))
    except AssertionError as exc:  # a probe found two legs disagreeing
        failures.append(str(exc))
    metrics.update(mean_spans(rec, ["runtime.session_spawn"]))
    metrics.update({k + "_s": v for k, v in layer.items() if k + "_s" in PER_LAYER})
    metrics.update({k: v for k, v in stats.items() if k in PER_LAYER})
    if workload.parallel:
        metrics["runtime.session_run_s"] = rec.total(
            "runtime.session_run", "parallel"
        )
    metrics["cli.startup_s"] = cli_wall("-m", "repro", "--help")
    metrics["cli.import_s"] = cli_wall("-c", "import repro")
    metrics["trace.overhead_ratio"] = overhead()
    metrics["trace.unaccounted_share"] = median(
        [harness.unaccounted_share(rec.spans, r) for r in roots]
    )
    failures += health_failures(metrics)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise AssertionError(f"undeclared per-layer metrics: {sorted(unknown)}")

    if pinned(legs["untraced"]) != pinned(stats):
        failures.append("traced and untraced serial ops disagree")
    for key in ("identity", "sim.cycles", "sim.delivered", "analysis.samples"):
        par = legs.get("parallel", {})
        if key in par and key in stats and par[key] != stats[key]:
            failures.append(f"jobs=2 and serial legs disagree on {key}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace_{workload.name}.json"), "w") as f:
        json.dump({"workload": workload.name, "spans": rec.to_json()}, f)
    return {
        "metrics": metrics,
        "failures": failures,
        "pinned": {leg: pinned(s) for leg, s in legs.items() if leg != "untraced"},
        "ops": len(legs) - 1 + 2 * len(roots),  # warm-up op not counted
        "pairs": len(roots),
        "spans": len(rec.spans),
    }


def health_failures(metrics: Dict[str, float]) -> List[str]:
    """The traced run's own limits: glue no layer answers for, and what
    the spans cost."""
    out = []
    share = metrics["trace.unaccounted_share"]
    if share >= MAX_UNACCOUNTED:
        out.append(f"trace.unaccounted_share {share:.4f} >= {MAX_UNACCOUNTED}")
    ratio = metrics["trace.overhead_ratio"]
    if ratio >= MAX_OVERHEAD:
        out.append(f"trace.overhead_ratio {ratio:.4f} >= {MAX_OVERHEAD}")
    return out


# ------------------------------------------------------------ orchestration
def spawn_launch(name: str, args, tmp: str) -> Dict:
    ops = ops_per_launch(WORKLOADS[name], args.seconds, args.quick)
    cmd = [
        sys.executable, os.path.abspath(__file__), "--launch",
        "--workload", name, "--seed", str(args.seed),
        "--ops", str(ops), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--tmp", tmp, "--t0", repr(time.time()),
    ]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170
    )
    if proc.returncode != 0:
        raise SystemExit(f"sysbench: launch of {name} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected(args) -> Dict:
    with open(EXPECTED) as f:
        doc = json.load(f)
    scale = "quick" if args.quick else "full"
    return doc.get(scale, {}).get(str(args.seed), {})


def mismatches(label: str, got: Dict, want: Optional[Dict]) -> List[str]:
    """Pinned statistics that differ from the reference, by key."""
    if want is None:
        return []
    return [
        f"{label}: {key} is {got.get(key)!r}, pinned {want.get(key)!r}"
        for key in sorted(set(got) | set(want))
        if got.get(key) != want.get(key)
    ]


def run_timed(name: str, args, tmp: str, expected: Dict) -> Dict:
    launches = 1 if args.quick else LAUNCHES
    docs = [spawn_launch(name, args, tmp) for _ in range(launches)]
    pins = expected.get("ops", {})
    failures: List[str] = []
    attempted = failed = 0
    ops: List[Dict] = []
    first = docs[0]["ops"]
    for n, doc in enumerate(docs):
        # every launch runs the same op sequence: op k repeats bit for bit
        for k, op in enumerate(doc["ops"]):
            bad = list(op["failures"])
            bad += mismatches(f"op {k}", op["pinned"], pins.get(str(k)))
            if k < len(first) and op["pinned"] != first[k]["pinned"]:
                bad.append(f"op {k} differs between launches")
            ops.append(op)
            attempted += 1
            failed += bool(bad)
            failures += [f"launch {n} {b}" for b in bad]
        if doc["error"]:
            attempted += 1
            failed += 1
            failures.append(f"launch {n} {doc['error']}")
    # plain medians over every timed op; with no op completed there is
    # nothing to report but the failures
    rates = [o["units"] / o["wall_s"] for o in ops]
    return {
        "workload": name,
        "metrics": {
            "work_per_s": median(rates) if ops else 0.0,
            "cpu_s_per_op": median([o["cpu_s"] for o in ops]) if ops else 0.0,
            "peak_rss_mb": max(d["peak_rss_mb"] for d in docs),
            "setup_s": median([d["setup_s"] for d in docs]),
        },
        "samples": {
            "work_per_s": len(ops), "cpu_s_per_op": len(ops),
            "peak_rss_mb": len(docs), "setup_s": len(docs),
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "numpy": docs[0]["numpy"],
        "pinned": {"ops": {str(k): op["pinned"] for k, op in
                           enumerate(first[:2])}},
    }


def run_traced(name: str, args, tmp: str, expected: Dict) -> Dict:
    doc = spawn_launch(name, args, tmp)
    failures = list(doc["failures"])
    wants = {
        "traced": expected.get("serial"),
        "parallel": expected.get("ops", {}).get("0"),
    }
    for leg, got in doc["pinned"].items():
        failures += mismatches(leg, got, wants[leg])
    return {
        "workload": name,
        "metrics": doc["metrics"],
        "samples": {"pairs": doc["pairs"], "spans": doc["spans"]},
        "attempted": doc["ops"],
        "failed": min(doc["ops"], len(failures)),
        "failures": failures,
        "numpy": doc["numpy"],
        "pinned": {"serial": doc["pinned"]["traced"]},
    }


def git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def report(result: Dict, trace: bool) -> None:
    name = result["workload"]
    if trace:
        print(f"\n{name}: per-layer metrics of one traced launch "
              f"({result['samples']['pairs']} untraced/traced op pair(s), "
              f"{result['samples']['spans']} spans)")
        for metric, value in result["metrics"].items():
            unit, exact = PER_LAYER[metric]
            tag = " (exact)" if exact else ""
            print(f"  {metric:<34}{value:>16.6g} {unit}{tag}")
    else:
        n = result["samples"]["work_per_s"]
        print(f"\n{name}: end-to-end metrics, medians (n={n} timed ops, "
              f"which supports no percentile above the median)")
        for metric, value in result["metrics"].items():
            unit = END_TO_END[metric]
            if metric == "work_per_s":
                unit = f"{WORKLOADS[name].unit}/s"
            how = "max" if metric == "peak_rss_mb" else "median"
            print(f"  {metric:<14}{value:>16.6g} {unit:<28}"
                  f"{how} of {result['samples'][metric]}")
        print(f"  {'failed_share':<14}{result['failed']:>9}/{result['attempted']:<6} "
              f"ops failed / ops attempted")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="run only this workload (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="nominal seconds of timed ops per workload run; "
                   "scales the fixed op count of a launch")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="traced run: per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="~1/20-size smoke: one launch, two ops per workload")
    p.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out", help="append this run's record to a JSON list "
                   "file (default: a new file under sysbench/out/)")
    p.add_argument("--update-expected", action="store_true",
                   help="re-pin expected.json for this seed and scale")
    p.add_argument("--launch", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--tmp", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if args.launch:
        return launch_main(args)
    if args.quick:
        args.seconds = RUN_SECONDS / 4
    names = args.workload or list(WORKLOADS)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("sysbench: no src/repro beside sysbench/ -- nothing to measure",
              file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    noisy = load_start > 0.5 * nproc
    run = {
        "seed": args.seed, "trace": args.trace, "quick": args.quick,
        "seconds": args.seconds, "nproc": nproc,
        "python": platform.python_version(), "commit": git_commit(),
        "load_start": load_start, "noisy": noisy,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    print(f"sysbench seed={args.seed} trace={args.trace} "
          f"scale={'quick' if args.quick else 'full'} nproc={nproc} "
          f"python={run['python']} commit={run['commit']} "
          f"load1={load_start:.2f}")
    if noisy:
        print(f"NOISY: 1-min load {load_start:.2f} > 0.5 x nproc before the "
              f"run; timings below are not comparable")
    expected = load_expected(args)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    results = []
    try:
        for name in names:
            runner = run_traced if args.trace else run_timed
            wanted = {} if args.update_expected else expected.get(name, {})
            result = runner(name, args, tmp, wanted)
            report(result, bool(args.trace))
            results.append(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run["numpy"] = results[0]["numpy"]
    run["load_end"] = os.getloadavg()[0]
    run["results"] = results
    print(f"\nnumpy={run['numpy']} load1 at end={run['load_end']:.2f}")
    if args.update_expected:
        update_expected(args, results)
    write_record(args.out, run)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"failed_share overall: {failed}/{attempted}")
    if len(results) == 1:
        table = PER_LAYER if args.trace else END_TO_END
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                k: {"value": v, "unit": (table[k][0] if args.trace else table[k])}
                for k, v in results[0]["metrics"].items()
            },
        }))
    return 1 if failed else 0


def write_record(path: Optional[str], run: Dict) -> None:
    if path is None:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = os.path.join(OUT, f"run_{stamp}_{os.getpid()}.json")
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)
    runs.append(run)
    with open(path, "w") as f:
        json.dump(runs, f, indent=1)
    print(f"record appended to {os.path.relpath(path, os.getcwd())}")


def update_expected(args, results: List[Dict]) -> None:
    doc = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            doc = json.load(f)
    scale = "quick" if args.quick else "full"
    seed = doc.setdefault(scale, {}).setdefault(str(args.seed), {})
    for result in results:
        seed.setdefault(result["workload"], {}).update(result["pinned"])
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"re-pinned {scale} seed {args.seed} in expected.json")


if __name__ == "__main__":
    sys.exit(main())
