"""Statistics over simulation results: latency distributions, accepted
throughput, channel utilization and latency-versus-load sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.packet import Packet
from .network import NetworkSimulator, SimResult


#: samples up to this size are summarised without numpy (see
#: :meth:`LatencyStats.from_packets`)
SMALL_SAMPLE = 64


def _linear_percentile(ordered: Sequence[int], q: int) -> float:
    """``np.percentile(ordered, q)`` (the default ``linear`` method) for a
    sorted sample, float operation for float operation."""
    virtual = (len(ordered) - 1) * (q / 100)
    if virtual >= len(ordered) - 1:
        return float(ordered[-1])
    below = int(virtual)
    a, b = float(ordered[below]), float(ordered[below + 1])
    gamma = virtual - below
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


@dataclass
class LatencyStats:
    """Latency distribution summary over measured packets.

    With no measured packets every distribution field -- including ``max``
    and ``min`` -- is NaN.  The old sentinel (``max=0, min=0`` alongside
    NaN means) looked like a real zero-latency observation to anything
    aggregating across points (``min()`` over a sweep, plot axes,
    regression baselines); NaN is unambiguous and propagates instead of
    silently poisoning the aggregate.  Check ``count == 0`` (or
    ``math.isnan``) before consuming the fields.
    """

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    max: float
    min: float

    @staticmethod
    def from_packets(packets: Sequence[Packet]) -> "LatencyStats":
        lats = [p.latency for p in packets if p.latency is not None]
        n = len(lats)
        if n == 0:
            nan = float("nan")
            return LatencyStats(0, nan, nan, nan, nan, nan, nan)
        # A sweep point measures a handful of packets, and numpy's set-up
        # per call costs more than the arithmetic.  Latencies are integer
        # cycle counts, so the sum is exact and the mean rounds once, as
        # numpy's does; the median and percentiles repeat numpy's
        # operations in numpy's order -- every field is bit-identical to
        # the array path below (tests/sim/test_stats.py holds the two
        # together).
        total = sum(lats) if n <= SMALL_SAMPLE else None
        if isinstance(total, int):
            lats.sort()
            mid = n // 2
            return LatencyStats(
                count=n,
                mean=total / n,
                median=(
                    float(lats[mid])
                    if n % 2
                    else (lats[mid - 1] + lats[mid]) / 2
                ),
                p95=_linear_percentile(lats, 95),
                p99=_linear_percentile(lats, 99),
                max=float(lats[-1]),
                min=float(lats[0]),
            )
        arr = np.array(lats, dtype=float)
        return LatencyStats(
            count=n,
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            max=float(arr.max()),
            min=float(arr.min()),
        )

    def row(self) -> str:
        return (
            f"n={self.count:6d} mean={self.mean:8.2f} median={self.median:7.1f} "
            f"p95={self.p95:8.1f} p99={self.p99:8.1f} max={self.max:6.0f}"
        )


@dataclass
class ThroughputStats:
    """Accepted throughput in flits per node per cycle over a window."""

    delivered_packets: int
    delivered_flits: int
    cycles: int
    nodes: int

    @property
    def flits_per_node_per_cycle(self) -> float:
        if self.cycles == 0 or self.nodes == 0:
            return 0.0
        return self.delivered_flits / (self.cycles * self.nodes)

    @staticmethod
    def from_result(
        result: SimResult, nodes: int, window: Optional[int] = None
    ) -> "ThroughputStats":
        cycles = window if window is not None else result.cycles
        flits = sum(p.length for p in result.delivered)
        return ThroughputStats(
            delivered_packets=len(result.delivered),
            delivered_flits=flits,
            cycles=cycles,
            nodes=nodes,
        )


def channel_utilization(
    result: SimResult, sim: NetworkSimulator
) -> Dict[int, float]:
    """Busy fraction per channel cid over the run."""
    if result.cycles == 0:
        return {}
    return {
        cid: busy / result.cycles for cid, busy in result.channel_busy.items()
    }


def top_utilized_channels(
    result: SimResult, sim: NetworkSimulator, k: int = 10
) -> List[str]:
    util = channel_utilization(result, sim)
    chans = {c.cid: c for c in sim.topo.channels()}
    top = sorted(util.items(), key=lambda kv: kv[1], reverse=True)[:k]
    return [f"{chans[cid]!r}: {frac:.2%}" for cid, frac in top]


@dataclass
class LoadPoint:
    """One point of a latency-versus-offered-load curve.

    ``recoveries`` counts online deadlock-recovery rotations the run
    performed (0 unless the engine ran with ``recovery=True`` and its
    watchdog fired) -- surfaced here so sweep-scale consumers (the run
    ledger, ``repro report --sweep``) see rotation counts without
    re-running points.
    """

    offered_load: float
    accepted_load: float
    latency: LatencyStats
    deadlocked: bool
    cycles: int
    recoveries: int = 0

    def row(self) -> str:
        return (
            f"load={self.offered_load:5.3f} accepted={self.accepted_load:5.3f} "
            f"{self.latency.row()}"
            + ("  [DEADLOCK]" if self.deadlocked else "")
            + (
                f"  [{self.recoveries} recovery rotation(s)]"
                if self.recoveries
                else ""
            )
        )
