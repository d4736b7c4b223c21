"""Static conflict analysis (paper Section 3.1, "few network conflicts").

For a set of simultaneously active point-to-point transfers, a *conflict* is
a channel shared by two different routes: with cut-through switching the
second transfer stalls until the first drains.  The paper claims far fewer
conflicts on the MD crossbar than on mesh or torus networks; this module
measures it by routing random permutations statically on each topology and
counting shared channels -- no flit simulation needed, so it scales to many
samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.coords import Coord, all_coords
from ..core.routes import RouteRelation, Unicast, compute_route
from ..routing import default_scheme, make_scheme
from ..topology.base import Topology
from ..topology.hypercube import Hypercube


@dataclass
class ConflictStats:
    """Channel contention of one simultaneous transfer set."""

    name: str
    num_transfers: int
    max_channel_load: int
    conflicted_channels: int
    conflicted_transfers: int

    @property
    def conflict_free(self) -> bool:
        return self.max_channel_load <= 1

    def row(self) -> str:
        return (
            f"{self.name:<14} transfers={self.num_transfers:<4} "
            f"max_load={self.max_channel_load:<3} "
            f"conflicted_channels={self.conflicted_channels:<4} "
            f"conflicted_transfers={self.conflicted_transfers}"
        )


def route_channels(topo: Topology, relation: RouteRelation):
    """``(source, dest) -> channel cids`` of the static route, injection to
    ejection: :func:`~repro.core.routes.compute_route` over ``relation``
    (a scheme's :meth:`~repro.routing.RoutingScheme.route_relation`)."""
    return lambda s, t: [
        c.cid for c in compute_route(topo, relation, Unicast(s, t)).path_to(t)
    ]


def measure_conflicts(
    name: str,
    route_channels,
    pairs: Sequence[Tuple[Coord, Coord]],
) -> ConflictStats:
    """Count channel sharing among the given simultaneous transfers."""
    load: Counter = Counter()
    per_transfer: List[List[int]] = []
    for s, t in pairs:
        cids = route_channels(s, t)
        per_transfer.append(cids)
        load.update(cids)
    conflicted = {cid for cid, k in load.items() if k > 1}
    hit = sum(1 for cids in per_transfer if any(c in conflicted for c in cids))
    return ConflictStats(
        name=name,
        num_transfers=len(pairs),
        max_channel_load=max(load.values()) if load else 0,
        conflicted_channels=len(conflicted),
        conflicted_transfers=hit,
    )


def random_permutation_pairs(
    shape, rng: np.random.Generator
) -> List[Tuple[Coord, Coord]]:
    """A random permutation workload: every PE sends to a distinct PE."""
    coords = list(all_coords(shape))
    perm = rng.permutation(len(coords))
    return [
        (coords[i], coords[int(p)])
        for i, p in enumerate(perm)
        if coords[i] != coords[int(p)]
    ]


def permutation_conflict_comparison(
    shape: Tuple[int, ...],
    samples: int = 20,
    seed: int = 7,
    include: Sequence[str] = ("md-crossbar", "mesh", "torus"),
) -> Dict[str, List[ConflictStats]]:
    """Route the same random permutations on each topology (paper 3.1).

    Returns per-topology lists of :class:`ConflictStats`, one per sampled
    permutation; aggregate with :func:`summarize_conflicts`.
    """
    rng = np.random.default_rng(seed)
    coords = list(all_coords(shape))
    routers: Dict[str, object] = {}
    for kind in include:
        net = shape
        if kind == "hypercube":
            # the k-cube on the same 2**k nodes, matched in row-major order
            net = Hypercube.with_nodes(len(coords)).shape
        sch = make_scheme(default_scheme(kind), net)
        route = route_channels(sch.topo, sch.route_relation())
        to_net = dict(zip(coords, all_coords(net)))
        routers[kind] = lambda s, t, route=route, m=to_net: route(m[s], m[t])

    results: Dict[str, List[ConflictStats]] = {k: [] for k in routers}
    for _ in range(samples):
        pairs = random_permutation_pairs(shape, rng)
        for name, route_fn in routers.items():
            results[name].append(measure_conflicts(name, route_fn, pairs))
    return results


def summarize_conflicts(
    results: Dict[str, List[ConflictStats]]
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for name, stats in results.items():
        out[name] = {
            "mean_max_load": float(np.mean([s.max_channel_load for s in stats])),
            "mean_conflicted_channels": float(
                np.mean([s.conflicted_channels for s in stats])
            ),
            "mean_conflicted_transfers": float(
                np.mean([s.conflicted_transfers for s in stats])
            ),
        }
    return out
