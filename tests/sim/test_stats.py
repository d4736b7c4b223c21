"""Unit tests for the statistics helpers."""

import math
import random

import numpy as np
import pytest

from repro.core import Header, Packet
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.sim.stats import (
    SMALL_SAMPLE,
    LatencyStats,
    LoadPoint,
    ThroughputStats,
    channel_utilization,
    top_utilized_channels,
)
from tests.conftest import make_logic


def delivered_packet(lat, length=4):
    p = Packet(Header(source=(0, 0), dest=(1, 0)), length=length)
    p.injected_at = 0
    p.delivered_at = lat
    return p


class TestLatencyStats:
    def test_basic(self):
        stats = LatencyStats.from_packets(
            [delivered_packet(lat) for lat in (10, 20, 30)]
        )
        assert stats.count == 3
        assert stats.mean == 20
        assert stats.median == 20
        assert stats.min == 10 and stats.max == 30

    def test_percentiles_ordered(self):
        stats = LatencyStats.from_packets(
            [delivered_packet(lat) for lat in range(1, 101)]
        )
        assert stats.median <= stats.p95 <= stats.p99 <= stats.max

    def test_empty(self):
        stats = LatencyStats.from_packets([])
        assert stats.count == 0
        assert math.isnan(stats.mean)

    def test_empty_sentinel_is_nan_throughout(self):
        """Regression: the old empty sentinel returned ``max=0, min=0``
        beside NaN means, so a cross-point aggregation (a sweep's best-case
        latency, a plot's axis range) saw a fake zero-latency observation.
        Every distribution field must be NaN on empty input."""
        empty = LatencyStats.from_packets([])
        for name in ("mean", "median", "p95", "p99", "max", "min"):
            assert math.isnan(getattr(empty, name)), name

    def test_empty_sentinel_does_not_poison_aggregation(self):
        saturated = LatencyStats.from_packets([])  # zero deliveries
        healthy = LatencyStats.from_packets(
            [delivered_packet(lat) for lat in (10, 30)]
        )
        sweep = [healthy, saturated]
        best = min(s.min for s in sweep if s.count)
        assert best == 10
        # the old sentinel made the unguarded aggregate return a fake 0;
        # with NaN no comparison can ever prefer the empty point
        assert min(s.min for s in sweep if s.count) == healthy.min
        assert not any(s.min == 0 for s in sweep)

    def test_empty_row_renders(self):
        assert "nan" in LatencyStats.from_packets([]).row()

    def test_skips_undelivered(self):
        undelivered = Packet(Header(source=(0, 0), dest=(1, 0)))
        stats = LatencyStats.from_packets([undelivered, delivered_packet(5)])
        assert stats.count == 1

    def test_row(self):
        assert "mean" in LatencyStats.from_packets([delivered_packet(5)]).row()


def numpy_reference(latencies):
    """What ``from_packets`` computed before the small-sample path."""
    lats = np.array(latencies, dtype=float)
    return LatencyStats(
        count=int(lats.size),
        mean=float(lats.mean()),
        median=float(np.median(lats)),
        p95=float(np.percentile(lats, 95)),
        p99=float(np.percentile(lats, 99)),
        max=float(lats.max()),
        min=float(lats.min()),
    )


class TestSmallSampleParity:
    """The numpy-free path for n <= SMALL_SAMPLE agrees with numpy on every
    float, bit for bit -- cached results and identity hashes depend on it."""

    @staticmethod
    def assert_same(latencies):
        got = LatencyStats.from_packets(
            [delivered_packet(lat) for lat in latencies]
        )
        # dataclass equality is == field by field: no tolerance
        assert got == numpy_reference(latencies), latencies

    @pytest.mark.parametrize("n", range(1, SMALL_SAMPLE + 3))
    def test_random_integer_latencies(self, n):
        rng = random.Random(n)
        for high in (3, 40, 1000, 10**6, 2**40):
            for _ in range(20):
                self.assert_same([rng.randint(1, high) for _ in range(n)])

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 20, 21, SMALL_SAMPLE, SMALL_SAMPLE + 1]
    )
    def test_degenerate_samples(self, n):
        self.assert_same([7] * n)
        self.assert_same([5, 9] * (n // 2) + [9] * (n % 2))
        self.assert_same([1] * (n - 1) + [10**9])
        self.assert_same(list(range(n, 0, -1)))

    def test_non_integer_latencies_take_the_numpy_path(self):
        self.assert_same([0.1, 0.2, 0.30000000000000004, 1e-9, 3.5])


class TestThroughputStats:
    def test_flits_per_node_per_cycle(self):
        t = ThroughputStats(
            delivered_packets=10, delivered_flits=40, cycles=100, nodes=4
        )
        assert t.flits_per_node_per_cycle == pytest.approx(0.1)

    def test_zero_cycles(self):
        t = ThroughputStats(0, 0, 0, 4)
        assert t.flits_per_node_per_cycle == 0.0

    def test_from_result(self, topo43):
        sim = NetworkSimulator(MDCrossbarAdapter(make_logic(topo43)), SimConfig())
        sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=5))
        res = sim.run()
        t = ThroughputStats.from_result(res, nodes=12)
        assert t.delivered_packets == 1
        assert t.delivered_flits == 5


class TestUtilization:
    def test_fractions_bounded(self, topo43):
        sim = NetworkSimulator(MDCrossbarAdapter(make_logic(topo43)), SimConfig())
        sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=8))
        res = sim.run()
        util = channel_utilization(res, sim)
        assert util
        assert all(0 < v <= 1 for v in util.values())

    def test_top_channels(self, topo43):
        sim = NetworkSimulator(MDCrossbarAdapter(make_logic(topo43)), SimConfig())
        sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=8))
        res = sim.run()
        top = top_utilized_channels(res, sim, k=3)
        assert len(top) == 3
        assert all("%" in line for line in top)

    def test_empty_run(self, topo43):
        sim = NetworkSimulator(MDCrossbarAdapter(make_logic(topo43)), SimConfig())
        res = sim.run(max_cycles=0, until_drained=False)
        assert channel_utilization(res, sim) == {}


class TestLoadPoint:
    def test_row_flags_deadlock(self):
        lp = LoadPoint(
            offered_load=0.2,
            accepted_load=0.18,
            latency=LatencyStats.from_packets([delivered_packet(9)]),
            deadlocked=True,
            cycles=100,
        )
        assert "DEADLOCK" in lp.row()
