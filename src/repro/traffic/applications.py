"""Application communication kernels (paper Section 1: "large-scale
numerical applications" are the workload the SR2201 was built for).

Each kernel is a sequence of *phases*; a phase is a set of point-to-point
transfers that the application issues together and completes before the
next phase starts (the bulk-synchronous shape of stencil codes, FFTs and
transposes).  :class:`PhasedWorkload.run` drives any simulator adapter
phase by phase and records per-phase completion times, so the same kernel
compares topologies directly.

Kernels:

* :func:`stencil_phases` -- 2D halo exchange (+x, -x, +y, -y neighbour
  shifts), the inner loop of finite-difference solvers;
* :func:`fft_phases` -- the butterfly exchange of a distributed FFT
  (partner = rank XOR 2**k), the paper's hypercube-remap showcase;
* :func:`alltoall_phases` -- personalized all-to-all (matrix transpose /
  FFT reorder), n-1 rounds of rotating permutations;
* :func:`sweep_phases` -- a wavefront sweep along dimension 0 (pipelined
  line relaxation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.coords import Coord, all_coords, num_nodes
from ..core.packet import Header, Packet
from ..sim.network import NetworkSimulator

Phase = List[Tuple[Coord, Coord]]


def stencil_phases(shape) -> List[Phase]:
    """Halo exchange: one phase per (dimension, direction), non-wrapping."""
    phases: List[Phase] = []
    for k in range(len(shape)):
        if shape[k] == 1:
            continue
        for step in (+1, -1):
            phase: Phase = []
            for c in all_coords(shape):
                v = c[k] + step
                if 0 <= v < shape[k]:
                    phase.append((c, c[:k] + (v,) + c[k + 1 :]))
            phases.append(phase)
    return phases


def fft_phases(shape) -> List[Phase]:
    """Butterfly: round k exchanges rank r with rank r XOR 2**k."""
    n = num_nodes(shape)
    if n & (n - 1):
        raise ValueError("FFT butterfly needs a power-of-two node count")
    coords = list(all_coords(shape))
    phases: List[Phase] = []
    bits = n.bit_length() - 1
    for b in range(bits):
        phase = [
            (coords[i], coords[i ^ (1 << b)])
            for i in range(n)
        ]
        phases.append(phase)
    return phases


def alltoall_phases(shape) -> List[Phase]:
    """Personalized all-to-all as n-1 rotation rounds: in round r, rank i
    sends to rank (i + r) mod n (the classic linear-shift schedule)."""
    n = num_nodes(shape)
    coords = list(all_coords(shape))
    phases: List[Phase] = []
    for r in range(1, n):
        phases.append(
            [(coords[i], coords[(i + r) % n]) for i in range(n)]
        )
    return phases


def sweep_phases(shape) -> List[Phase]:
    """Wavefront sweep: column x sends to column x+1, one phase per step."""
    phases: List[Phase] = []
    for x in range(shape[0] - 1):
        phase: Phase = []
        for c in all_coords(shape):
            if c[0] == x:
                phase.append((c, (x + 1,) + c[1:]))
        phases.append(phase)
    return phases


KERNELS: Dict[str, Callable[[Tuple[int, ...]], List[Phase]]] = {
    "stencil": stencil_phases,
    "fft": fft_phases,
    "alltoall": alltoall_phases,
    "sweep": sweep_phases,
}


@dataclass
class PhaseResult:
    index: int
    transfers: int
    cycles: int


@dataclass
class WorkloadResult:
    kernel: str
    phases: List[PhaseResult] = field(default_factory=list)
    deadlocked: bool = False

    @property
    def total_cycles(self) -> int:
        return sum(p.cycles for p in self.phases)

    @property
    def total_transfers(self) -> int:
        return sum(p.transfers for p in self.phases)

    def row(self) -> str:
        worst = max((p.cycles for p in self.phases), default=0)
        return (
            f"{self.kernel:<10} phases={len(self.phases):<4} "
            f"transfers={self.total_transfers:<5} "
            f"total={self.total_cycles:<7} worst_phase={worst}"
            + ("  [DEADLOCK]" if self.deadlocked else "")
        )


@dataclass
class PhasedWorkload:
    """Run an application kernel phase by phase on a simulator factory.

    ``make_sim`` builds a fresh simulator per phase (phases are bulk
    synchronous, so carrying fabric state across them is not needed);
    dead PEs (faults) are skipped like a fault-aware application would.
    """

    kernel: str
    shape: Tuple[int, ...]
    packet_length: int = 8
    max_cycles_per_phase: int = 100_000

    def phases(self) -> List[Phase]:
        try:
            fn = KERNELS[self.kernel]
        except KeyError:
            raise KeyError(
                f"unknown kernel {self.kernel!r}; choose from {sorted(KERNELS)}"
            ) from None
        return fn(self.shape)

    def run(
        self, make_sim: Callable[[], NetworkSimulator]
    ) -> WorkloadResult:
        result = WorkloadResult(kernel=self.kernel)
        for i, phase in enumerate(self.phases()):
            sim = make_sim()
            live = set(sim.live_nodes)
            sent = 0
            for s, t in phase:
                if s == t or s not in live or t not in live:
                    continue
                sim.send(Packet(Header(source=s, dest=t), length=self.packet_length))
                sent += 1
            res = sim.run(max_cycles=self.max_cycles_per_phase)
            if res.deadlocked:
                result.deadlocked = True
                result.phases.append(PhaseResult(i, sent, res.cycles))
                break
            result.phases.append(PhaseResult(i, sent, res.cycles))
        return result


def compare_topologies(
    kernel: str,
    shape: Tuple[int, ...],
    kinds: Sequence[str] = ("md-crossbar", "mesh", "torus"),
    packet_length: int = 8,
) -> Dict[str, WorkloadResult]:
    """Run one kernel on the MD crossbar and baseline topologies, each
    network built by its kind's default routing scheme."""
    from ..experiments.sweeps import build_network

    workload = PhasedWorkload(kernel, shape, packet_length=packet_length)
    return {
        kind: workload.run(build_network(kind, shape, stall_limit=5000))
        for kind in kinds
    }
