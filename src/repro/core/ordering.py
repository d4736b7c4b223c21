"""Channel-ordering certificates: a second, independent deadlock proof.

The classic way to prove a routing relation deadlock free (Dally & Seitz)
is to exhibit a *total order* on channels such that every packet acquires
channels in strictly increasing order.  The tiered CDG analysis in
:mod:`repro.core.cdg` searches for cycles; this module goes the other way:
it **constructs an explicit numeric rank for every channel** by
topologically sorting the tier-1 dependency graph, and then *verifies* the
certificate against every flow — an auditor can re-check the verification
without trusting the construction (or the CDG search).

For the multicast spread the certificate covers the path-shaped phases
(requests, p2p, detours); the spread itself is handled by the serialization
argument (at most one spread at a time, FIFO behind its predecessor), which
the certificate records as the set of channels reserved atomically by the
S-XB.  :func:`verify_certificate` checks, for every flow:

* path flows: channel ranks strictly increase hop by hop, and every barrier
  wait (entering the S-XB) targets higher-ranked channels;
* broadcast trees: every parent-to-child step outside the atomic S-XB grant
  increases rank, so the spread's own acquisitions are ordered too.

A valid certificate implies the absence of any cyclic wait among path
packets and between path packets and the single active spread -- the same
guarantee tier 1 + tier 2 of the CDG analysis establish, derived by an
entirely different computation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..topology.base import Channel
from ..topology.mdcrossbar import MDCrossbar
from .config import BroadcastMode
from .routes import route_all_broadcasts, route_all_unicasts
from .switch_logic import SwitchLogic


class CertificateError(RuntimeError):
    """The configuration admits no consistent channel order (it is not
    deadlock free), or a supplied certificate fails verification."""


@dataclass
class OrderingCertificate:
    """An explicit witness of deadlock freedom.

    ``rank`` maps channel cid to its position in the acquisition order;
    ``atomic`` lists the channels granted in one step by the serialized
    S-XB (exempt from pairwise ordering against each other).
    """

    rank: Dict[int, int]
    atomic: Set[int] = field(default_factory=set)
    num_flows_verified: int = 0

    def describe(self, topo: MDCrossbar, limit: int = 12) -> str:
        chans = {c.cid: c for c in topo.channels()}
        ordered = sorted(self.rank, key=self.rank.get)
        head = [f"  rank {self.rank[c]:4d}: {chans[c]!r}" for c in ordered[:limit]]
        return (
            f"channel ordering over {len(self.rank)} channels "
            f"({len(self.atomic)} atomic at the S-XB), "
            f"{self.num_flows_verified} flows verified:\n" + "\n".join(head)
            + ("\n  ..." if len(ordered) > limit else "")
        )


def _gather(topo: MDCrossbar, logic: SwitchLogic):
    uni = route_all_unicasts(topo, logic)
    bc = route_all_broadcasts(topo, logic)
    serialized = logic.config.broadcast_mode is BroadcastMode.SERIALIZED
    sxb_outputs: Tuple[Channel, ...] = ()
    if serialized:
        sxb_outputs = tuple(topo.channels_from(logic.config.sxb_element))
    return uni, bc, serialized, sxb_outputs


def build_certificate(
    topo: MDCrossbar, logic: SwitchLogic
) -> OrderingCertificate:
    """Construct a channel ordering for the given configuration.

    Raises :class:`CertificateError` if the tier-1 dependency graph is
    cyclic (the configuration is not certifiably deadlock free -- e.g. the
    naive detour scheme with broadcasts).
    """
    uni, bc, serialized, sxb_outputs = _gather(topo, logic)
    if not serialized and bc:
        raise CertificateError(
            "the naive broadcast mode has no serialization argument; no "
            "ordering certificate exists (see the Fig. 5 deadlock)"
        )
    succ: Dict[int, Set[int]] = {}
    atomic: Set[int] = set()
    barrier = [c.cid for c in sxb_outputs]

    def add_edge(a: int, b: int) -> None:
        succ.setdefault(a, set()).add(b)
        succ.setdefault(b, set())

    def add_chain(chain: Sequence[Channel]) -> None:
        for a, b in zip(chain, chain[1:]):
            if a.cid != b.cid:
                add_edge(a.cid, b.cid)

    for tree in uni:
        chain = tree.path_to(tree.flow.dest)
        add_chain(chain)
        for c in chain:
            if c.dst == logic.config.sxb_element and barrier:
                for w in barrier:
                    if w != c.cid:
                        add_edge(c.cid, w)
    for tree in bc:
        # request chain (pre-grant phase)
        for entry in tree.serialize_entries:
            chain = list(reversed(tree.ancestors(entry))) + [entry]
            add_chain(chain)
            for w in barrier:
                if w != entry.cid:
                    add_edge(entry.cid, w)
            atomic.update(ch.cid for ch in tree.children[entry])
        # spread tree: parent->child edges except into the atomic grant set
        for c in tree.channels():
            for child in tree.children[c]:
                if child.cid not in atomic and c.cid != child.cid:
                    add_edge(c.cid, child.cid)

    # atomic channels still need *some* rank; order them after their parent
    # (the entry) by keeping the parent->atomic edges implicit: give them
    # edges from every entry channel so the topological sort places them
    # consistently.
    order = _topological_order(succ)
    # include channels never seen in any flow at the end
    seen = set(order)
    tail = [c.cid for c in topo.channels() if c.cid not in seen]
    rank = {cid: i for i, cid in enumerate(order + tail)}
    cert = OrderingCertificate(rank=rank, atomic=atomic)
    verify_certificate(topo, logic, cert)
    return cert


def _topological_order(succ: Dict[int, Set[int]]) -> List[int]:
    """The channels of ``succ`` in dependency order, by Kahn's algorithm
    over a sorted ready-heap (the smallest ready cid goes first, so the
    ranking is deterministic); :class:`CertificateError` on a cycle."""
    indeg = dict.fromkeys(succ, 0)
    for vs in succ.values():
        for v in vs:
            indeg[v] += 1
    ready = [u for u, n in indeg.items() if n == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) < len(succ):
        raise CertificateError(
            "tier-1 dependency graph is cyclic: no channel ordering exists "
            "for this configuration"
        )
    return order


def verify_certificate(
    topo: MDCrossbar, logic: SwitchLogic, cert: OrderingCertificate
) -> int:
    """Check ``cert`` against every flow of the configuration.

    Returns the number of flows verified; raises :class:`CertificateError`
    on the first violation.  This check is independent of how the
    certificate was produced.
    """
    uni, bc, serialized, sxb_outputs = _gather(topo, logic)
    rank = cert.rank
    barrier = [c.cid for c in sxb_outputs]
    verified = 0

    def check_step(a: Channel, b: Channel, what: str) -> None:
        if b.cid in cert.atomic:
            return  # granted atomically with its siblings; serialization
        if rank[a.cid] >= rank[b.cid]:
            raise CertificateError(
                f"{what}: rank({a!r}) = {rank[a.cid]} !< "
                f"rank({b!r}) = {rank[b.cid]}"
            )

    for tree in uni:
        chain = tree.path_to(tree.flow.dest)
        for a, b in zip(chain, chain[1:]):
            check_step(a, b, f"p2p {tree.flow}")
        for c in chain:
            if c.dst == logic.config.sxb_element:
                for w in barrier:
                    if w != c.cid and w not in cert.atomic:
                        if rank[c.cid] >= rank[w]:
                            raise CertificateError(
                                f"barrier of {tree.flow}: entry rank not "
                                f"below S-XB output rank"
                            )
        verified += 1
    for tree in bc:
        for c in tree.channels():
            for child in tree.children[c]:
                check_step(c, child, f"broadcast {tree.flow}")
        verified += 1
    cert.num_flows_verified = verified
    return verified

