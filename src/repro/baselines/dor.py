"""Dimension-order routing adapters for the baseline topologies.

All three baselines route dimension 0 first, matching the MD crossbar's
X-Y order, so the comparison isolates the *topology* (paper Section 3.1:
"far fewer network conflicts occur in the MD crossbar network than in
mesh-connected or torus networks").

* **Mesh** -- classic dimension-order routing; deadlock free on a single
  virtual channel because each dimension's chain of channels is acyclic.
* **Torus** -- dimension-order with shortest-way wrap links; rings close a
  channel cycle, so the adapter applies the Dally/Seitz dateline scheme:
  packets start a dimension on VC 0 and switch to VC 1 once they cross the
  wrap edge, breaking the cycle.  Requires ``SimConfig(num_vcs=2)``.
* **Hypercube** -- e-cube routing (fix differing address bits in ascending
  order), deadlock free on one VC.

Baselines carry only point-to-point traffic; the SR2201's broadcast and
detour facilities are specific to the MD crossbar.
"""

from __future__ import annotations

from typing import Tuple

from ..core.coords import Coord
from ..core.packet import RC, Header
from ..sim.adapter import SimDecision
from ..topology.base import ElementId, element_kind, ElementKind, pe, rtr


class _BaselineAdapter:
    """Shared plumbing: deliver at the destination, else ask the subclass
    for the next (neighbor, vc) along dimension-order."""

    #: virtual channels per physical channel the adapter routes on
    required_vcs = 1

    def __init__(self, topo) -> None:
        self.topo = topo

    def decide(
        self, element: ElementId, in_from: ElementId, in_vc: int, header: Header
    ) -> SimDecision:
        if header.rc is not RC.NORMAL:
            raise ValueError(
                f"{type(self).__name__} routes point-to-point traffic only "
                f"(got RC={header.rc.name})"
            )
        if element_kind(element) is not ElementKind.RTR:
            raise ValueError(f"baseline routing runs on routers, not {element}")
        cur: Coord = element[1]
        if cur == header.dest:
            return SimDecision(outputs=((pe(cur), 0),), rc=RC.NORMAL)
        nxt, vc = self.next_hop(cur, header.dest, in_from, in_vc)
        return SimDecision(outputs=((rtr(nxt), vc),), rc=RC.NORMAL)

    def next_hop(
        self, cur: Coord, dest: Coord, in_from: ElementId, in_vc: int
    ) -> Tuple[Coord, int]:
        raise NotImplementedError


class MeshAdapter(_BaselineAdapter):
    """Dimension-order routing on a mesh (single VC)."""

    def next_hop(self, cur, dest, in_from, in_vc):
        for k in range(len(cur)):
            if cur[k] != dest[k]:
                step = 1 if dest[k] > cur[k] else -1
                return cur[:k] + (cur[k] + step,) + cur[k + 1 :], 0
        raise AssertionError("next_hop called at destination")


class TorusAdapter(_BaselineAdapter):
    """Dimension-order routing on a torus with dateline VCs.

    Within each dimension the shorter way around the ring is taken (ties go
    the +1 way).  A hop leaving node ``n-1`` in the + direction or node ``0``
    in the - direction crosses the dateline; that hop and all later hops in
    the same dimension use VC 1.
    """

    required_vcs = 2

    def next_hop(self, cur, dest, in_from, in_vc):
        shape = self.topo.shape
        for k in range(len(cur)):
            if cur[k] == dest[k]:
                continue
            n = shape[k]
            fwd = (dest[k] - cur[k]) % n
            step = 1 if fwd <= n - fwd else -1
            nxt = cur[:k] + ((cur[k] + step) % n,) + cur[k + 1 :]
            crossing = (step == 1 and cur[k] == n - 1) or (
                step == -1 and cur[k] == 0
            )
            staying = (
                element_kind(in_from) is ElementKind.RTR
                and _link_dim(in_from[1], cur) == k
            )
            vc = 1 if crossing or (staying and in_vc == 1) else 0
            return nxt, vc
        raise AssertionError("next_hop called at destination")


class HypercubeAdapter(_BaselineAdapter):
    """E-cube routing: flip differing address bits in ascending dimension
    order (single VC)."""

    def next_hop(self, cur, dest, in_from, in_vc):
        for k in range(len(cur)):
            if cur[k] != dest[k]:
                return cur[:k] + (dest[k],) + cur[k + 1 :], 0
        raise AssertionError("next_hop called at destination")


def _link_dim(a: Coord, b: Coord) -> int:
    """Dimension along which two adjacent routers differ."""
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return k
    return -1

