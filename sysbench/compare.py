#!/usr/bin/env python3
"""Compare two sets of sysbench runs, one row per (workload, metric).

    python sysbench/compare.py A.json B.json
    python sysbench/compare.py --pairs 10 --a CHECKOUT_A --b CHECKOUT_B \
        [--workload NAME] [--seed 11] [--trace]

``A.json`` / ``B.json`` are the run-record lists ``run.py --out`` appends
to: A is the parent (or the first set), B the change (or the second).
``--pairs N`` makes them: N alternating runs of ``sysbench/run.py`` in two
checkouts, the side that goes first swapping every pair.

Verdicts, for the end-to-end metrics, by ISSUE 11's bounds
(``harness.REGRESSION_BOUNDS``: 10 % on ``work_per_s``, ``cpu_s_per_op``
and ``peak_rss_mb``, 20 % on ``setup_s``):

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- not regressed, but a side's quartile spread is wider
  than the bound and B does not beat A on every run, so "no change"
  cannot be told from noise;
* ``ok``         -- otherwise.

Exact per-layer counts must be identical (``ok`` / ``regressed``); other
per-layer metrics have no bound and are listed without a verdict.  Exits
1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import PER_LAYER, REGRESSION_BOUNDS, median, quartiles  # noqa: E402


def declared() -> Dict[str, Dict]:
    """End-to-end metric declarations by name: ``better`` as
    ``BENCHMARK.json`` has it, ``bound`` as ISSUE 11 fixed it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {
            m["name"]: dict(m, bound=REGRESSION_BOUNDS[m["name"]])
            for m in json.load(f)["end_to_end"]
        }


def collect(runs: Sequence[Dict], trace: int) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run, traced or untraced runs."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for result in run["results"]:
            name = result["workload"]
            for metric, value in result["metrics"].items():
                out.setdefault((name, metric), []).append(value)
            out.setdefault((name, "failed_share"), []).append(
                result["failed"] / result["attempted"]
            )
    return out


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """The choosing-metrics rule for one bounded metric (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    base = median(a)
    worse_by = sign * (median(b) - base) / abs(base) if base else (
        sign * (median(b) - base)
    )
    if worse_by > bound:
        return "regressed"
    spreads = [
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
        for q in (quartiles(a), quartiles(b))
    ]
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spreads) > bound and not b_always_better:
        return "unresolved"
    return "ok"


def compare(a_runs: Sequence[Dict], b_runs: Sequence[Dict]) -> List[Dict]:
    bounds = declared()
    rows: List[Dict] = []
    for trace in (0, 1):
        a_vals, b_vals = collect(a_runs, trace), collect(b_runs, trace)
        for key in a_vals:
            if key not in b_vals:
                continue
            a, b = a_vals[key], b_vals[key]
            metric = key[1]
            if metric == "failed_share":
                bound, mark = 0.0, verdict(a, b, "lower", 0.0)
            elif metric in bounds:
                bound = bounds[metric]["bound"]
                mark = verdict(a, b, bounds[metric]["better"], bound)
            elif PER_LAYER[metric][1]:
                bound = 0.0
                mark = "ok" if set(a) == set(b) and len(set(a)) == 1 else "regressed"
            else:
                bound, mark = None, "-"
            rows.append({
                "workload": key[0], "metric": metric, "bound": bound,
                "a": quartiles(a), "b": quartiles(b),
                "n": (len(a), len(b)), "verdict": mark,
            })
    return rows


def render(rows: Sequence[Dict]) -> str:
    lines = [
        f"{'workload':<22}{'metric':<32}{'n':>7}  "
        f"{'A q1 / median / q3':<40}{'B q1 / median / q3':<40}"
        f"{'bound':>7}  verdict"
    ]
    for row in rows:
        a = " / ".join(f"{v:.5g}" for v in row["a"])
        b = " / ".join(f"{v:.5g}" for v in row["b"])
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        n = f"{row['n'][0]}+{row['n'][1]}"
        lines.append(
            f"{row['workload']:<22}{row['metric']:<32}{n:>7}  "
            f"{a:<40}{b:<40}{bound:>7}  {row['verdict']}"
        )
    return "\n".join(lines)


def run_pairs(args) -> Tuple[str, str]:
    """N alternating runs in two checkouts; returns their record files."""
    files = {}
    for side, root in (("a", args.a), ("b", args.b)):
        out = os.path.join(root, "sysbench", "out", f"pairs_{side}.json")
        if os.path.exists(out):
            os.unlink(out)
        files[side] = out
    extra = ["--seed", str(args.seed), "--trace", str(args.trace)]
    for name in args.workload or []:
        extra += ["--workload", name]
    for i in range(args.pairs):
        for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
            root = args.a if side == "a" else args.b
            subprocess.run(
                [sys.executable, os.path.join("sysbench", "run.py"),
                 "--out", files[side], *extra],
                cwd=root, check=True, stdout=subprocess.DEVNULL,
            )
            print(f"pair {i + 1}/{args.pairs}: ran {side.upper()}", flush=True)
    return files["a"], files["b"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("files", nargs="*", help="A.json B.json")
    p.add_argument("--pairs", type=int, help="drive N alternating A/B runs")
    p.add_argument("--a", help="checkout A (with --pairs)")
    p.add_argument("--b", help="checkout B (with --pairs)")
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    args = p.parse_args(argv)
    if args.pairs:
        if not (args.a and args.b):
            p.error("--pairs needs --a and --b")
        files = run_pairs(args)
    elif len(args.files) == 2:
        files = tuple(args.files)
    else:
        p.error("give A.json B.json, or --pairs N --a DIR --b DIR")
    sets = []
    for path in files:
        with open(path) as f:
            sets.append(json.load(f))
    rows = compare(*sets)
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
