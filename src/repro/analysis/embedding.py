"""Conflict-free remapping of standard topologies (paper Section 3.1).

The paper: *"The high number of interconnections in an MD crossbar network
allows many important topologies ... to be efficiently mapped onto it ...
A program that generates no conflicts in these topologies will not generate
conflicts when re-mapped onto the MD crossbar."*

A program on a guest topology that is conflict free sends, at any instant,
at most one message per guest channel -- i.e. each *communication phase* is
a partial permutation along one guest direction.  We therefore embed each
guest (ring, mesh, hypercube, binary tree) onto the MD crossbar's PEs and
verify that every phase routes with zero shared channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.coords import Coord, all_coords, num_nodes
from ..routing import make_scheme
from .conflicts import ConflictStats, measure_conflicts, route_channels

Pair = Tuple[Coord, Coord]


def snake_order(shape) -> List[Coord]:
    """Boustrophedon enumeration: consecutive entries are lattice
    neighbours, so a ring embeds with unit dilation."""
    coords = sorted(all_coords(shape))
    if len(shape) == 1:
        return coords
    # sort row-major, flipping the last dimension on odd prefixes
    def key(c: Coord):
        flip = sum(c[:-1]) % 2 == 1
        last = shape[-1] - 1 - c[-1] if flip else c[-1]
        return c[:-1] + (last,)

    return sorted(coords, key=key)


def ring_phases(shape) -> List[List[Pair]]:
    """A ring program: neighbours exchange in two phases (even links, odd
    links), as a conflict-free ring program would."""
    order = snake_order(shape)
    n = len(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    return [
        [e for i, e in enumerate(edges) if i % 2 == 0],
        [e for i, e in enumerate(edges) if i % 2 == 1],
    ]


def mesh_phases(shape) -> List[List[Pair]]:
    """A mesh program: one phase per (dimension, direction): every node
    sends to its +k / -k neighbour."""
    phases: List[List[Pair]] = []
    for k in range(len(shape)):
        if shape[k] == 1:
            continue
        for step in (+1, -1):
            phase = []
            for c in all_coords(shape):
                v = c[k] + step
                if 0 <= v < shape[k]:
                    phase.append((c, c[:k] + (v,) + c[k + 1 :]))
            phases.append(phase)
    return phases


def hypercube_phases(shape) -> List[List[Pair]]:
    """A hypercube program on 2**b nodes: phase b = exchange across bit b.

    Nodes are identified with snake-order indices; partner = index XOR 2**b.
    """
    order = snake_order(shape)
    n = len(order)
    if n & (n - 1):
        raise ValueError("hypercube embedding needs a power-of-two node count")
    bits = n.bit_length() - 1
    phases = []
    for b in range(bits):
        phases.append([(order[i], order[i ^ (1 << b)]) for i in range(n)])
    return phases


def binary_tree_edges(shape) -> List[Tuple[int, Pair]]:
    """Axis-aligned binary-tree embedding by recursive bisection.

    Each node's children sit on the same grid line as the parent (one in
    the other half of its row span, one in the other half of its column
    span), so every tree edge routes in a single crossbar hop.  That makes
    each level's phase trivially conflict free: distinct senders, distinct
    receivers, no turn channels.  (A naive level-order embedding of a
    complete binary tree does conflict -- the paper's claim is about the
    existence of an efficient mapping, which this provides.)

    Returns ``(level, (parent, child))`` pairs; the tree spans a subset of
    the PEs (the recursion halves both extents).
    """
    if len(shape) != 2:
        raise ValueError("the tree embedding is defined for 2D shapes")
    edges: List[Tuple[int, Pair]] = []

    def build(x0: int, y0: int, w: int, h: int, level: int) -> None:
        root = (x0, y0)
        if w > 1:
            lw = w - w // 2
            left = (x0 + lw, y0)
            edges.append((level, (root, left)))
            build(left[0], left[1], w - lw, h, level + 1)
            w = lw
        if h > 1:
            lh = h - h // 2
            right = (x0, y0 + lh)
            edges.append((level, (root, right)))
            build(right[0], right[1], w, h - lh, level + 1)

    build(0, 0, shape[0], shape[1], 0)
    return edges


def binary_tree_phases(shape) -> List[List[Pair]]:
    """The tree program: one phase per (level, direction) -- parents send
    along rows, then along columns, level by level."""
    edges = binary_tree_edges(shape)
    phases: Dict[Tuple[int, int], List[Pair]] = {}
    for level, (p, c) in edges:
        axis = 0 if p[1] == c[1] else 1
        phases.setdefault((level, axis), []).append((p, c))
    return [phases[k] for k in sorted(phases)]


GUESTS = {
    "ring": ring_phases,
    "mesh": mesh_phases,
    "hypercube": hypercube_phases,
    "binary_tree": binary_tree_phases,
}


@dataclass
class EmbeddingReport:
    guest: str
    phases: int
    transfers: int
    conflict_free: bool
    worst_phase: ConflictStats

    def row(self) -> str:
        flag = "conflict-free" if self.conflict_free else "HAS CONFLICTS"
        return (
            f"{self.guest:<12} phases={self.phases:<3} "
            f"transfers={self.transfers:<4} {flag} "
            f"(worst max_load={self.worst_phase.max_channel_load})"
        )


def check_embedding(
    shape: Tuple[int, ...], guest: str
) -> EmbeddingReport:
    """Route every phase of the guest program on the MD crossbar and report
    whether any channel carries two messages at once."""
    sch = make_scheme("dxb", shape)
    route = route_channels(sch.topo, sch.route_relation())
    phase_fn = GUESTS[guest]
    phases = phase_fn(shape)
    worst: ConflictStats | None = None
    total = 0
    for i, phase in enumerate(phases):
        pairs = [(s, t) for s, t in phase if s != t]
        total += len(pairs)
        stats = measure_conflicts(f"{guest}/phase{i}", route, pairs)
        if worst is None or stats.max_channel_load > worst.max_channel_load:
            worst = stats
    assert worst is not None
    return EmbeddingReport(
        guest=guest,
        phases=len(phases),
        transfers=total,
        conflict_free=worst.max_channel_load <= 1,
        worst_phase=worst,
    )


def check_all_embeddings(shape) -> Dict[str, EmbeddingReport]:
    """Run every guest topology's program on one MD crossbar shape."""
    out = {}
    for guest in GUESTS:
        if guest == "hypercube" and num_nodes(shape) & (num_nodes(shape) - 1):
            continue
        out[guest] = check_embedding(shape, guest)
    return out
