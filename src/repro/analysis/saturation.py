"""Analytic saturation throughput from static channel loads.

For uniform point-to-point traffic at offered load ``r`` flits/PE/cycle,
the expected utilization of channel ``c`` is ``r * routes(c) / n`` where
``routes(c)`` counts the source-destination pairs whose route crosses
``c``.  The network saturates when its most-loaded channel reaches full
utilization, giving the classic bottleneck bound

    r_sat = n / max_c routes(c)   (flits/PE/cycle).

This turns the static route set -- no simulation -- into a throughput
prediction, and explains *where* each topology chokes: the MD crossbar's
bottleneck is a turn-router port, the mesh's is a bisection link.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.coords import all_coords, num_nodes
from ..routing import default_scheme, make_scheme
from .conflicts import route_channels


@dataclass
class SaturationEstimate:
    """Bottleneck analysis of one topology under uniform traffic."""

    name: str
    num_pes: int
    max_routes_per_channel: int
    mean_routes_per_channel: float
    saturation_load: float
    bottleneck_channel: object

    def row(self) -> str:
        return (
            f"{self.name:<14} max_load={self.max_routes_per_channel:<5} "
            f"mean={self.mean_routes_per_channel:6.1f} "
            f"r_sat={self.saturation_load:5.3f} flits/PE/cycle "
            f"bottleneck={self.bottleneck_channel!r}"
        )


def channel_route_counts(name: str, shape) -> Tuple[Counter, Dict[int, object]]:
    """Route-count per channel cid over all source-destination pairs of
    the network kind ``name``, routed by its default scheme."""
    sch = make_scheme(default_scheme(name), shape)
    route = route_channels(sch.topo, sch.route_relation())
    counts: Counter = Counter()
    for s in all_coords(shape):
        for t in all_coords(shape):
            if s != t:
                counts.update(route(s, t))
    return counts, {c.cid: c for c in sch.topo.channels()}


def estimate_saturation(name: str, shape) -> SaturationEstimate:
    """Bottleneck saturation estimate for uniform traffic.

    Injection/ejection channels are excluded from the bottleneck (they are
    per-PE and scale with the endpoints, not the network fabric).
    """
    counts, chans = channel_route_counts(name, shape)
    n = num_nodes(shape)
    fabric = {
        cid: k
        for cid, k in counts.items()
        if chans[cid].src[0] != "PE" and chans[cid].dst[0] != "PE"
    }
    if not fabric:
        raise ValueError("no fabric channels found")
    bottleneck_cid, max_load = max(fabric.items(), key=lambda kv: (kv[1], -kv[0]))
    # a source offers r flits/cycle spread uniformly over n-1 destinations,
    # so channel utilization = r * routes(c) / n; full at r = n / routes(c)
    saturation = n / max_load
    return SaturationEstimate(
        name=name,
        num_pes=n,
        max_routes_per_channel=max_load,
        mean_routes_per_channel=sum(fabric.values()) / len(fabric),
        saturation_load=min(1.0, saturation),
        bottleneck_channel=chans[bottleneck_cid],
    )


def saturation_comparison(
    shape, names: Tuple[str, ...] = ("md-crossbar", "mesh", "torus")
) -> List[SaturationEstimate]:
    return [estimate_saturation(n, shape) for n in names]
