"""Structural network properties (paper Section 3.1, "short communication
distances" and switch inventory).

Hop metrics follow each topology's own convention: the MD crossbar counts
*crossbar traversals* (the paper: any two PEs communicate within d hops),
while mesh / torus / hypercube count router-to-router links.  Both equal the
number of pipeline stages a header crosses between routers, so zero-load
latencies are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.coords import all_coords, hop_distance, num_nodes
from ..core.routes import route_all_unicasts
from ..topology.base import Topology
from ..topology.fullcrossbar import FullMesh
from ..topology.hypercube import Hypercube
from ..topology.mdcrossbar import MDCrossbar
from ..topology.mesh import Mesh
from ..topology.torus import Torus


@dataclass
class NetworkProfile:
    """Summary row for the topology-comparison tables."""

    name: str
    shape: Tuple[int, ...]
    num_pes: int
    num_switches: int
    num_channels: int
    router_ports: int
    diameter_hops: int
    avg_hops: float
    crosspoints: int

    def row(self) -> str:
        return (
            f"{self.name:<14} n={self.num_pes:<5} switches={self.num_switches:<5} "
            f"channels={self.num_channels:<5} ports/rtr={self.router_ports:<3} "
            f"diameter={self.diameter_hops:<3} avg_hops={self.avg_hops:5.2f} "
            f"crosspoints={self.crosspoints}"
        )


def _pairwise_hops(shape, dist_fn) -> Tuple[int, float]:
    coords = list(all_coords(shape))
    dists = [dist_fn(a, b) for a, b in combinations(coords, 2)]
    if not dists:
        return 0, 0.0
    return max(dists), float(np.mean(dists))


def mesh_distance(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def torus_distance(a, b, shape) -> int:
    return sum(min((x - y) % n, (y - x) % n) for x, y, n in zip(a, b, shape))


def hypercube_distance(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def crosspoint_count(topo: Topology) -> int:
    """Total crossbar crosspoints over every switch: the paper's "hardware
    quantity" proxy (cf. Hamanaka et al. [6]).  A k-port crossbar switch has
    k*k crosspoints; a router is a crossbar too."""
    total = 0
    for el in topo.switch_elements():
        fan_in, fan_out = topo.element_degree(el)
        total += fan_in * fan_out
    return total


def profile(topo: Topology, name: Optional[str] = None) -> NetworkProfile:
    """Compute the comparison profile of a topology instance."""
    shape = topo.shape
    if isinstance(topo, MDCrossbar):
        diameter, avg = _pairwise_hops(shape, hop_distance)
        ports = topo.router_ports
        label = name or ("crossbar" if topo.is_plain_crossbar() else "md-crossbar")
    elif isinstance(topo, Torus):
        diameter, avg = _pairwise_hops(shape, lambda a, b: torus_distance(a, b, shape))
        ports = topo.router_ports
        label = name or "torus"
    elif isinstance(topo, Hypercube):
        diameter, avg = _pairwise_hops(shape, hypercube_distance)
        ports = topo.router_ports
        label = name or "hypercube"
    elif isinstance(topo, Mesh):
        diameter, avg = _pairwise_hops(shape, mesh_distance)
        ports = topo.router_ports
        label = name or "mesh"
    elif isinstance(topo, FullMesh):
        diameter, avg = (1, 1.0) if topo.n > 1 else (0, 0.0)
        ports = topo.router_ports
        label = name or "fullmesh"
    else:  # pragma: no cover - future topologies
        raise TypeError(f"no profile rule for {type(topo).__name__}")
    return NetworkProfile(
        name=label,
        shape=shape,
        num_pes=num_nodes(shape),
        num_switches=len(topo.switch_elements()),
        num_channels=topo.num_channels,
        router_ports=ports,
        diameter_hops=diameter,
        avg_hops=avg,
        crosspoints=crosspoint_count(topo),
    )


def comparison_table(n_target: int = 64) -> Dict[str, NetworkProfile]:
    """Profiles of the paper's contenders at (close to) a common node count.

    ``n_target`` must be a power of two >= 16 for all four topologies to be
    instantiable at identical size.
    """
    if n_target < 16 or n_target & (n_target - 1):
        raise ValueError("n_target must be a power of two >= 16")
    import math

    side = int(math.isqrt(n_target))
    while side * (n_target // side) != n_target or side > n_target // side:
        side -= 1
    shape2d = (n_target // side, side)
    return {
        "md-crossbar": profile(MDCrossbar(shape2d)),
        "mesh": profile(Mesh(shape2d)),
        "torus": profile(Torus(shape2d)),
        "hypercube": profile(Hypercube.with_nodes(n_target)),
        "crossbar": profile(MDCrossbar((n_target,)), name="crossbar"),
    }


def route_stats(scheme) -> Dict[str, float]:
    """Path-length statistics of a routing scheme's static route relation.

    Walks the scheme's route relation (the preferred branch of adaptive
    decisions) for every deliverable pair with
    :func:`~repro.core.routes.route_all_unicasts`, and compares
    against the shortest channel path in the element graph, giving the
    scheme's **path stretch** -- 1.0 for minimal routing, above 1.0 when
    detours/misroutes lengthen paths (e.g. the D-XB detour under a
    standing fault).  Lengths count traversed channels, injection and
    ejection included, so they are comparable across topologies.
    """
    from collections import deque

    topo = scheme.topo
    # unweighted shortest element-path lengths from every PE
    adjacency: Dict = {}
    for ch in topo.channels():
        adjacency.setdefault(ch.src, []).append(ch.dst)
    shortest: Dict[Tuple, int] = {}
    live = scheme.live_nodes()
    from ..topology.base import pe as pe_el

    for s in live:
        dist = {pe_el(s): 0}
        q = deque([pe_el(s)])
        while q:
            el = q.popleft()
            for nxt in adjacency.get(el, ()):
                if nxt not in dist:
                    dist[nxt] = dist[el] + 1
                    q.append(nxt)
        for d in live:
            if d != s:
                shortest[(s, d)] = dist[pe_el(d)]
    trees = route_all_unicasts(topo, scheme.route_relation())
    if not trees:
        return {"pairs": 0, "avg_channels": 0.0, "max_channels": 0, "stretch": 1.0}
    lengths = [len(t.path_to(t.flow.dest)) for t in trees]
    minimal_total = sum(shortest[(t.flow.source, t.flow.dest)] for t in trees)
    return {
        "pairs": len(trees),
        "avg_channels": round(sum(lengths) / len(trees), 4),
        "max_channels": max(lengths),
        "stretch": round(sum(lengths) / minimal_total, 4),
    }


def verify_md_crossbar_distances(shape) -> bool:
    """Check the paper's claim directly: every PE pair communicates within
    d crossbar hops, pairs sharing a line within one hop."""
    topo = MDCrossbar(shape)
    d_eff = topo.diameter_hops
    for a, b in combinations(all_coords(shape), 2):
        h = hop_distance(a, b)
        if h > d_eff:
            return False
        same_line = sum(1 for x, y in zip(a, b) if x != y) == 1
        if same_line and h != 1:
            return False
    return True
