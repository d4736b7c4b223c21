"""Traffic injection processes for the flit-level simulator.

:class:`BernoulliInjector` drives open-loop random traffic at a configured
offered load (flits per node per cycle) -- the standard workload for
latency-versus-load curves.  :class:`BroadcastInjector` adds hardware
broadcasts at a Poisson-like rate.  :class:`ScenarioScript` replays an exact
timed list of packets, used by the per-figure experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.coords import Coord, all_coords, lexicographic_index
from ..core.packet import Header, Packet, RC
from ..sim.network import NetworkSimulator
from .patterns import Pattern, block_form, uniform


class WordStream:
    """A PCG64 generator's draws as ``numpy.random.Generator`` makes
    them, from blocks of raw words read ahead (DESIGN.md 5j).

    ``random()`` is one word ``w``, ``(w >> 11) * 2**-53``.
    ``integers(0, r)`` takes 32-bit halves through the bit generator's
    ``has_uint32`` / ``uinteger`` buffer, which ``random_raw`` leaves
    alone, and keeps a half ``h`` unless the low 32 bits of ``h * r``
    are below ``2**32 % r`` (Lemire).  A block must hold no word the
    scalar draws would not use: ``PCG64.advance`` clears the buffer, so
    there is no way back.  The buffer is read from ``state`` at the
    first half and written back by :meth:`close` if it changed.
    """

    def __init__(self, bit_generator) -> None:
        self.bitgen = bit_generator
        self.words: Sequence[int] = ()
        self.pos = 0  # the block's next unconsumed word
        self.has = self.uinteger = 0
        #: the buffer as read, and its state dict until a word is drawn
        self._read: Optional[tuple] = None
        self._state: Optional[dict] = None

    def block(self, n: int) -> np.ndarray:
        """Draw the next ``n`` words as the current block."""
        self.words = self.bitgen.random_raw(n)
        self.pos = 0
        self._state = None
        return self.words

    def below(self, r: int) -> int:
        """``Generator.integers(0, r)``, for ``1 < r < 2**32``; a half
        past the block's end comes from a freshly drawn word."""
        if self._read is None:
            st = self._state = self.bitgen.state
            self._read = self.has, self.uinteger = st["has_uint32"], st["uinteger"]
        thresh = (1 << 32) % r
        while True:
            if self.has:
                self.has = 0
                h = self.uinteger
            else:
                if self.pos < len(self.words):
                    w = int(self.words[self.pos])
                    self.pos += 1
                else:
                    w = self.bitgen.random_raw()
                    self._state = None
                self.has, self.uinteger = 1, w >> 32
                h = w & 0xFFFFFFFF
            m = h * r
            if m & 0xFFFFFFFF >= thresh:
                return m >> 32

    def close(self) -> None:
        """Write the half buffer back to the bit generator if it changed."""
        if self._read is not None and self._read != (self.has, self.uinteger):
            st = self._state if self._state is not None else self.bitgen.state
            st["has_uint32"], st["uinteger"] = self.has, self.uinteger
            self.bitgen.state = st
        self._read = self._state = None


class BernoulliInjector:
    """Open-loop Bernoulli injection at a fixed offered load.

    Each cycle, each live PE starts a new packet with probability
    ``load / packet_length`` (so the offered load in flits/node/cycle is
    ``load``).  Destinations come from ``pattern``.  Packets injected inside
    the measurement window are tagged for statistics; the generator stops
    offering traffic after ``stop_at`` so the network can drain.

    ``seed`` is the experiment-level seed: sweeps and the runtime thread it
    down from :class:`repro.runtime.spec.RunSpec`, so two runs are
    identical exactly when their specs are, and multi-seed replicas draw
    independent traffic.  The default exists for interactive use only --
    any experiment should pass its own seed explicitly.
    """

    def __init__(
        self,
        load: float,
        packet_length: int = 4,
        pattern: Pattern = uniform,
        seed: int = 1,
        start_at: int = 0,
        stop_at: Optional[int] = None,
        measure_from: int = 0,
        measure_until: Optional[int] = None,
    ) -> None:
        if not 0.0 <= load <= 1.0:
            raise ValueError("offered load must be in [0, 1] flits/node/cycle")
        self.load = load
        self.packet_length = packet_length
        self.pattern = pattern
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.start_at = start_at
        self.stop_at = stop_at
        self.measure_from = measure_from
        self.measure_until = measure_until
        self.offered = 0
        self.measured_pids: set = set()
        #: ``sim.live_nodes`` as last seen, and its set for O(1) lookups
        self._live: Sequence[Coord] = ()
        self._live_set: frozenset = frozenset()
        #: the block walk's pattern form (None: the scalar loop), each
        #: live node's lexicographic index and every index's coordinate
        self._form = None
        self._live_idx: List[int] = []
        self._coords: List[Coord] = []

    @property
    def packet_rate(self) -> float:
        return self.load / self.packet_length

    def next_wake(self, cycle: int) -> Optional[int]:
        """Earliest cycle >= ``cycle`` at which this generator may act (the
        engine's idle fast-forward contract): ``None`` once past ``stop_at``
        (never again), ``start_at`` before the window opens, else ``cycle``
        itself -- inside the window the injector draws from its RNG every
        cycle, so no cycle may be skipped."""
        if self.stop_at is not None and cycle >= self.stop_at:
            return None
        if cycle < self.start_at:
            return self.start_at
        return cycle

    def __call__(self, sim: NetworkSimulator) -> None:
        """One cycle of admissions: the block walk for a registered
        pattern, else the per-PE loop, which the walk reproduces exactly
        (draws, sends, pids, measured set and generator state)."""
        cycle = sim.cycle
        if cycle < self.start_at:
            return
        if self.stop_at is not None and cycle >= self.stop_at:
            return
        shape = sim.topo.shape
        live = sim.live_nodes
        if live is not self._live:  # a reset or fault built a new tuple
            self._live, self._live_set = live, frozenset(live)
            self._form = block_form(self.pattern, shape)
            if self._form is not None:
                self._live_idx = [lexicographic_index(c, shape) for c in live]
                self._coords = list(all_coords(shape))
        if self._form is not None:
            return self._block(sim, cycle, live)
        live_set = self._live_set
        rng = self.rng
        random = rng.random
        rate = self.packet_rate
        pattern = self.pattern
        for src in live:
            if random() >= rate:
                continue
            dest = pattern(src, shape, rng)
            if dest == src:
                continue
            if dest not in live_set:
                continue
            pkt = Packet(
                Header(source=src, dest=dest), length=self.packet_length
            )
            sim.send(pkt)
            self.offered += 1
            if cycle >= self.measure_from and (
                self.measure_until is None or cycle < self.measure_until
            ):
                self.measured_pids.add(pkt.pid)

    def _block(self, sim: NetworkSimulator, cycle: int, live) -> None:
        """Admit a block of raw words with one comparison and walk only
        the hits.  The first block is one word per live node; each word a
        destination takes shifts the rest by one, drawn as the next block."""
        stream = WordStream(self.rng.bit_generator)
        below = stream.below
        form = self._form
        idx, coords, live_set = self._live_idx, self._coords, self._live_set
        # random() < rate  <=>  (w >> 11) < ceil(rate * 2**53) = t
        #                  <=>  w <= (t << 11) - 1
        lim = (math.ceil(self.packet_rate * 2**53) << 11) - 1
        measured = cycle >= self.measure_from and (
            self.measure_until is None or cycle < self.measure_until
        )
        n = len(live)
        s = 0  # the next live node to admit
        try:
            while s < n:
                words = stream.block(n - s)
                for p in (words <= lim).nonzero()[0].tolist():
                    if p < stream.pos:
                        continue  # a destination's word
                    s += p - stream.pos
                    stream.pos = p + 1
                    src = live[s]
                    dest = coords[form(idx[s], below)]
                    s += 1
                    if dest == src or dest not in live_set:
                        continue
                    pkt = Packet(
                        Header(source=src, dest=dest), length=self.packet_length
                    )
                    sim.send(pkt)
                    self.offered += 1
                    if measured:
                        self.measured_pids.add(pkt.pid)
                s += len(words) - stream.pos
        finally:
            stream.close()

    def measured_packets(self, delivered: Sequence[Packet]) -> List[Packet]:
        return [p for p in delivered if p.pid in self.measured_pids]


class BroadcastInjector:
    """Inject hardware broadcasts from random sources at ``rate`` per cycle
    (network-wide).  ``naive`` selects the RC used at injection.

    As with :class:`BernoulliInjector`, pass the experiment-level ``seed``
    explicitly in any experiment (the default serves interactive use); mix
    a constant in (e.g. ``seed + 1``) when running alongside a Bernoulli
    generator so the two processes stay decorrelated under the same
    experiment seed.
    """

    def __init__(
        self,
        rate: float,
        packet_length: int = 4,
        naive: bool = False,
        seed: int = 2,
        start_at: int = 0,
        stop_at: Optional[int] = None,
    ) -> None:
        self.rate = rate
        self.packet_length = packet_length
        self.rc = RC.BROADCAST if naive else RC.BROADCAST_REQUEST
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.start_at = start_at
        self.stop_at = stop_at
        self.offered = 0

    def next_wake(self, cycle: int) -> Optional[int]:
        """Same idle fast-forward contract as
        :meth:`BernoulliInjector.next_wake`."""
        if self.stop_at is not None and cycle >= self.stop_at:
            return None
        if cycle < self.start_at:
            return self.start_at
        return cycle

    def __call__(self, sim: NetworkSimulator) -> None:
        cycle = sim.cycle
        if cycle < self.start_at:
            return
        if self.stop_at is not None and cycle >= self.stop_at:
            return
        if self.rng.random() >= self.rate:
            return
        nodes = sim.live_nodes
        src = nodes[int(self.rng.integers(0, len(nodes)))]
        sim.send(
            Packet(
                Header(source=src, dest=src, rc=self.rc),
                length=self.packet_length,
            )
        )
        self.offered += 1


@dataclass
class TimedSend:
    cycle: int
    source: Coord
    dest: Coord
    rc: RC = RC.NORMAL
    length: int = 4


@dataclass
class ScenarioScript:
    """An exact, reproducible injection schedule (for the figure replays)."""

    sends: List[TimedSend] = field(default_factory=list)
    packets: List[Packet] = field(default_factory=list)

    def p2p(self, cycle: int, source: Coord, dest: Coord, length: int = 4) -> "ScenarioScript":
        self.sends.append(TimedSend(cycle, source, dest, RC.NORMAL, length))
        return self

    def broadcast(
        self, cycle: int, source: Coord, length: int = 4, naive: bool = False
    ) -> "ScenarioScript":
        rc = RC.BROADCAST if naive else RC.BROADCAST_REQUEST
        self.sends.append(TimedSend(cycle, source, source, rc, length))
        return self

    def install(self, sim: NetworkSimulator) -> List[Packet]:
        """Schedule every send on the simulator; returns the packets."""
        self.packets = []
        for s in sorted(self.sends, key=lambda s: s.cycle):
            pkt = Packet(
                Header(source=s.source, dest=s.dest, rc=s.rc), length=s.length
            )
            sim.send(pkt, at_cycle=s.cycle)
            self.packets.append(pkt)
        return self.packets
