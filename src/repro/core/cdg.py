"""Channel-dependency deadlock analysis for the SR2201 facility.

Under cut-through switching a blocked packet keeps every channel it has
acquired (paper Section 3.2), so deadlock is a cyclic wait on *channels*.
For deterministic unicast routing the classic channel-dependency-graph (CDG)
theorem of Dally & Seitz applies directly: build the graph whose edge
``c -> c'`` says the routing relation forwards packets from channel ``c``
to channel ``c'`` next, and the routing is deadlock free iff that graph is
acyclic.  The SR2201 adds *multicast trees* (hardware broadcast) which the
classic theorem does not cover, so the analysis here runs in three tiers:

**Tier 1 -- path packets.**  Point-to-point packets (normal and detoured)
and broadcast *request* legs are path-shaped.  Their immediate-successor
edges form the classic CDG; we also add the S-XB *barrier* edges: the S-XB
serves arrivals drain-then-serve (a pending broadcast reserves the whole
crossbar), so the channel entering the S-XB may wait for every S-XB output
channel.  A cycle here is a unicast-style deadlock hazard.  The
point-to-point edges come from walking the relation once per destination,
a chunk of destinations at a time in arrays
(:func:`~repro.core.routes.unicast_hops`), not from per-flow trees.

**Tier 2 -- one multicast against path packets.**  A spreading broadcast
holds a *prefix-closed* subset ``A`` of its route tree ``T`` and waits for
frontier channels.  Because acquired channels are kept until the tail
drains, a blocked state with channel ``a`` held and channel ``w`` waited
exists iff ``w`` is neither ``a`` nor an ancestor of ``a`` in ``T``.  A
deadlock closing through the multicast therefore requires channels
``w, a in T`` with ``w`` not an ancestor-or-self of ``a`` and a non-empty
tier-1 CDG path ``w ->+ a`` (the chain of path packets that hold ``w`` and
transitively wait back into the tree).  Channels granted *atomically* by the
serialized S-XB (its output ports) are never waited by the multicast itself
and are excluded from ``w``.  Serialized broadcasts share one S-XB spread
below their request legs, so this condition is checked once for the spread
and its legs together (:meth:`ChannelDependencyGraph._tier2`), not once per
source.

**Tier 3 -- concurrent multicasts.**  Only the naive (non-serialized)
broadcast mode allows two multicasts in flight; under serialization the
S-XB admits one spread at a time and successive spreads cross identical
channels FIFO, so they cannot block each other.  For concurrent trees we
search the meta-graph over states ``(tree, held channel a)`` with a
transition to ``(tree', a')`` when the first tree can wait for some ``w``
(per the tier-2 state condition) from which tier-1 edges reach ``a'`` in the
second tree; a cycle is a multi-broadcast deadlock hazard -- exactly the
paper's Fig. 5.

Soundness: a configuration reporting *deadlock free* admits no blocked-wait
cycle under the modelled protocol (the tiers enumerate every way a cycle can
thread path packets and multicast states).  Reported hazards are
constructive candidates; the flit-level simulator confirms the paper's
Fig. 5 and Fig. 9 hazards dynamically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..topology.base import Channel, ElementId, Topology
from .config import BroadcastMode
from .coords import Coord
from .routes import (
    Broadcast,
    RouteRelation,
    RouteTree,
    Unicast,
    _Spread,
    broadcast_legs,
    compute_route,
    unicast_hops,
    unicast_pairs,
)


def find_vc_cycle(
    edges: Iterable[Tuple[Hashable, Hashable]]
) -> Optional[List[Hashable]]:
    """A cycle ``[n0, n1, ..., n0]`` in a dependency graph, or ``None``.

    Nodes are any sortable keys -- channel cids (tier 1), ``(tree, cid)``
    states (tier 3), ``(cid, vc)`` resources (the scheme audits).
    Iterative three-colour DFS over sorted roots and successors; no
    library dependency so the check runs identically in every worker.
    """
    adj: Dict[Hashable, List[Hashable]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    for succs in adj.values():
        succs.sort()
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Hashable, int] = {}
    for root in sorted(adj):
        if colour.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[Hashable, int]] = [(root, 0)]
        path: List[Hashable] = []
        colour[root] = GREY
        path.append(root)
        while stack:
            node, idx = stack[-1]
            succs = adj.get(node, [])
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx]
                state = colour.get(nxt, WHITE)
                if state == GREY:
                    return path[path.index(nxt):] + [nxt]
                if state == WHITE:
                    colour[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, 0))
            else:
                colour[node] = BLACK
                path.pop()
                stack.pop()
    return None


@dataclass
class DeadlockHazard:
    """A witness for a possible deadlock.

    ``kind`` is ``path-cycle`` (tier 1), ``tree-path-cycle`` (tier 2) or
    ``multi-tree-cycle`` (tier 3); ``channels`` traces the cyclic wait and
    ``flows`` names the packets that realize it.
    """

    kind: str
    channels: Tuple[Channel, ...]
    flows: Tuple[str, ...]

    def describe(self) -> str:
        chain = " ->\n  ".join(repr(c) for c in self.channels)
        return f"[{self.kind}] involving {', '.join(self.flows)}:\n  {chain}"


@dataclass
class CDGResult:
    deadlock_free: bool
    hazard: Optional[DeadlockHazard]
    num_channels: int
    num_edges: int
    num_flows: int

    def __bool__(self) -> bool:
        return self.deadlock_free


class _TreeInfo:
    """Channel ids, ancestor sets and waitable channels of one multicast
    tree -- or of the S-XB spread that serialized broadcasts share -- for
    tiers 2 and 3."""

    def __init__(
        self,
        name: str,
        parent: Iterable[Tuple[Channel, Optional[Channel]]],
        atomic: Set[int],
    ) -> None:
        """``parent`` lists (channel, parent) parent-first, ``None`` at a
        root; ``atomic`` holds the channels the serialized S-XB grants at
        once.  The multicast never *waits* for those or for a root."""
        self.name = name
        self.cids: Set[int] = set()
        self.anc: Dict[int, Set[int]] = {}
        roots: Set[int] = set()
        for c, p in parent:
            self.cids.add(c.cid)
            if p is None:
                roots.add(c.cid)
                self.anc[c.cid] = {c.cid}
            else:
                self.anc[c.cid] = self.anc[p.cid] | {c.cid}
        self.waitable: Set[int] = self.cids - atomic - roots

    @classmethod
    def of_tree(cls, tree: RouteTree, serialized: bool) -> "_TreeInfo":
        atomic: Set[int] = set()
        if serialized:
            for entry in tree.serialize_entries:
                atomic.update(ch.cid for ch in tree.children[entry])
        return cls(str(tree.flow), tree.parent.items(), atomic)

    def state_allows(self, held: int, waited: int) -> bool:
        """True if some prefix-closed state holds ``held`` while ``waited``
        is still pending."""
        return waited in self.waitable and waited not in self.anc[held]


class _Leg:
    """A serialized broadcast held as its request leg and the shared
    :class:`_TreeInfo` of the S-XB spread below it.  Every leg channel is
    an ancestor of every spread channel."""

    __slots__ = ("name", "flow", "cids", "spread")

    def __init__(self, flow: Broadcast, cids: Set[int], spread: _TreeInfo) -> None:
        self.name = str(flow)
        self.flow = flow
        self.cids = cids
        self.spread = spread


class ChannelDependencyGraph:
    """Tiered channel-dependency deadlock analysis (see module docstring)."""

    def __init__(self) -> None:
        #: tier-1 immediate-successor edges: cid -> set of cids
        self.succ: Dict[int, Set[int]] = {}
        #: witness label per tier-1 edge (first flow to contribute it).
        #: Broadcast edges are labelled as they are added; unicast edges
        #: only when a hazard names them (:meth:`_edge_labels`).
        self.edge_flows: Dict[Tuple[int, int], str] = {}
        self.channels: Dict[int, Channel] = {}
        #: one entry per broadcast, in source order: a whole tree's
        #: :class:`_TreeInfo`, or a :class:`_Leg` sharing a spread's
        self.trees: List[Union[_TreeInfo, _Leg]] = []
        self.concurrent_trees: bool = False
        self.num_flows = 0
        #: arguments of every :meth:`add_unicasts` call, for lazy labelling
        self._unicasts: List[tuple] = []
        #: the relation the broadcasts were walked on, to rebuild a leg's
        #: whole tree for a witness
        self._relation: Optional[Tuple[Topology, RouteRelation]] = None

    # ------------------------------------------------------------ building
    def _note_channel(self, c: Channel) -> None:
        self.channels.setdefault(c.cid, c)

    def _add_succ(self, u: Channel, v: Channel, flow_name: str) -> None:
        self._note_channel(u)
        self._note_channel(v)
        vs = self.succ.setdefault(u.cid, set())
        if v.cid not in vs:
            vs.add(v.cid)
            self.edge_flows[(u.cid, v.cid)] = flow_name

    def add_unicasts(
        self,
        topo: Topology,
        logic: RouteRelation,
        pairs: Optional[Sequence[Tuple[Coord, Coord]]] = None,
        sxb_element: Optional[ElementId] = None,
        sxb_outputs: Sequence[Channel] = (),
    ) -> None:
        """Add the tier-1 edges (plus barrier edges) of point-to-point
        ``pairs`` (every healthy pair when ``None``), walking the relation
        once per destination (:func:`~repro.core.routes.unicast_hops`)."""
        flows, cids, hops = unicast_hops(topo, logic, pairs)
        self.num_flows += flows
        self._unicasts.append((topo, logic, pairs, sxb_element, sxb_outputs))
        chans = topo.channels()
        channels, succ = self.channels, self.succ
        for cid in cids:
            channels[cid] = chans[cid]
        entries = () if sxb_element is None else set(cids).intersection(
            c.cid for c in topo.channels_to(sxb_element)
        )
        if entries and sxb_outputs:
            # every held channel into the S-XB waits for all its outputs
            hops = sorted(
                set(hops).union((e, o.cid) for e in entries for o in sxb_outputs)
            )
            for o in sxb_outputs:
                channels[o.cid] = o
        # sorted (u, v) order, so a set's iteration order does not depend
        # on the walk's
        for u, v in hops:
            succ.setdefault(u, set()).add(v)

    def _edge_labels(self, edges: Iterable[Tuple[int, int]]) -> Set[str]:
        """Witness labels of tier-1 ``edges``, filling ``edge_flows`` for
        the unicast ones: the first flow, in the order given to
        :meth:`add_unicasts`, whose route contributes the edge."""
        edges = set(edges)
        wanted = edges - self.edge_flows.keys()

        def claim(u: Channel, v: Channel, label: str) -> None:
            if (u.cid, v.cid) in wanted:
                wanted.remove((u.cid, v.cid))
                self.edge_flows[(u.cid, v.cid)] = label

        for topo, logic, pairs, sxb_element, sxb_outputs in self._unicasts:
            if pairs is None:
                pairs = unicast_pairs(topo, logic)
            for source, dest in pairs:
                if not wanted:
                    break
                tree = compute_route(topo, logic, Unicast(source, dest))
                name = str(tree.flow)
                for c in tree.channels():
                    p = tree.parent[c]
                    if p is not None:
                        claim(p, c, name)
                    if c.dst == sxb_element:
                        for o in sxb_outputs:
                            claim(c, o, name + " @S-XB barrier")
        return {self.edge_flows[e] for e in edges}

    def add_broadcasts(
        self,
        topo: Topology,
        logic: RouteRelation,
        sources: Optional[Sequence[Coord]],
        sxb_outputs: Sequence[Channel] = (),
    ) -> None:
        """Add the broadcasts from ``sources`` (every healthy node when
        ``None``): each request leg as a tier-1 path flow (it is
        path-shaped until the S-XB grant, and waits at the S-XB for
        ``sxb_outputs``) and, for tiers 2/3, the whole tree -- or, for a
        serialized leg that shares the S-XB spread, the leg's channels
        and the spread's one :class:`_TreeInfo`."""
        serialized = logic.config.broadcast_mode is BroadcastMode.SERIALIZED
        self._relation = (topo, logic)
        spreads: Dict[_Spread, _TreeInfo] = {}
        for tree, spread in broadcast_legs(topo, logic, sources):
            self.num_flows += 1
            name = str(tree.flow)
            if spread is not None and not serialized:
                # a relation that serializes in the naive mode: its trees
                # may be in flight together, so tier 3 needs them whole
                tree, spread = spread.graft(tree), None
            for c in tree.channels():
                self._note_channel(c)
            if spread is None:
                self.trees.append(_TreeInfo.of_tree(tree, serialized))
            else:
                info = spreads.get(spread)
                if info is None:
                    pairs = [(o, None) for o in spread.outputs] + spread.parent
                    for c, _ in pairs:
                        self._note_channel(c)
                    # the outputs, its roots, are granted atomically
                    info = spreads[spread] = _TreeInfo("S-XB spread", pairs, set())
                leg = tree.channels()[: -len(spread.outputs)]
                self.trees.append(_Leg(tree.flow, {c.cid for c in leg}, info))
            if serialized and tree.serialize_entries:
                # the pre-grant request phase is a path packet: chain edges
                # up to the S-XB entry plus the barrier wait
                for entry in tree.serialize_entries:
                    chain = list(reversed(tree.ancestors(entry))) + [entry]
                    for a, b in zip(chain, chain[1:]):
                        self._add_succ(a, b, name + " request")
                    for o in sxb_outputs:
                        self._add_succ(entry, o, name + " request @S-XB barrier")
            else:
                self.concurrent_trees = True

    def _whole(self, tree: Union[_TreeInfo, _Leg]) -> _TreeInfo:
        """A broadcast's :class:`_TreeInfo`, rebuilding a leg's whole tree."""
        if not isinstance(tree, _Leg):
            return tree
        topo, logic = self._relation
        return _TreeInfo.of_tree(compute_route(topo, logic, tree.flow), True)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.succ.values())

    # --------------------------------------------------------- reachability
    def _reach_plus(self, start: int) -> Set[int]:
        """Channels reachable from ``start`` via >= 1 tier-1 edge."""
        seen: Set[int] = set()
        q = deque(self.succ.get(start, ()))
        seen.update(self.succ.get(start, ()))
        while q:
            u = q.popleft()
            for v in self.succ.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen

    def _shortest_chain(self, start: int, goals: Set[int]) -> List[int]:
        """A shortest >=1-edge tier-1 path from ``start`` into ``goals``,
        both ends included."""
        prev: Dict[int, int] = {}
        q = deque()
        for v in self.succ.get(start, ()):
            if v not in prev:
                prev[v] = start
                q.append(v)
        while q:
            u = q.popleft()
            if u in goals:
                chain = [u]
                while chain[-1] != start:
                    chain.append(prev[chain[-1]])
                return list(reversed(chain))
            for v in self.succ.get(u, ()):
                if v not in prev:
                    prev[v] = u
                    q.append(v)
        raise RuntimeError("no chain found despite reachability")  # pragma: no cover

    # -------------------------------------------------------------- tiers
    def find_deadlock(self) -> CDGResult:
        hazard = self._tier1() or self._tier2() or self._tier3()
        return CDGResult(
            deadlock_free=hazard is None,
            hazard=hazard,
            num_channels=len(self.channels),
            num_edges=self.num_edges,
            num_flows=self.num_flows,
        )

    def _tier1(self) -> Optional[DeadlockHazard]:
        cyc = find_vc_cycle((u, v) for u, vs in self.succ.items() for v in vs)
        if cyc is None:
            return None
        return DeadlockHazard(
            kind="path-cycle",
            channels=tuple(self.channels[c] for c in cyc[:-1]),
            flows=tuple(sorted(self._edge_labels(zip(cyc, cyc[1:])))),
        )

    def _scan(
        self, info: _TreeInfo, legs: AbstractSet[int] = frozenset()
    ) -> Tuple[Optional[Tuple[int, int]], Set[int]]:
        """Tier 2 over one tree or spread, visiting each waitable channel
        ``w`` once: the first ``(w, a)``, ``a`` in ``info``, with a
        tier-1 chain ``w ->+ a`` and a state that holds ``a`` while ``w``
        is pending; else ``None`` and the channels of ``legs`` that such
        chains reach."""
        reached: Set[int] = set()
        for w in info.waitable:
            reach = self._reach_plus(w)
            for a in reach & info.cids:
                if info.state_allows(held=a, waited=w):
                    return (w, a), reached
            reached |= reach & legs
        return None, reached

    def _tier2(self) -> Optional[DeadlockHazard]:
        # A leg's channels are ancestors of every channel of its spread, so
        # no state holds a spread channel while a leg channel is pending;
        # and a leg channel held while a later one of the same leg is
        # pending would close a tier-1 cycle through the leg's request
        # chain, which tier 1 has ruled out.  So a shared broadcast is
        # hazardous iff its spread is, or a chain from a waitable spread
        # channel reaches its leg: one scan of the spread serves them all.
        legs: Dict[_TreeInfo, Set[int]] = {}
        for t in self.trees:
            if isinstance(t, _Leg):
                legs.setdefault(t.spread, set()).update(t.cids)
        scans: Dict[_TreeInfo, Tuple[Optional[Tuple[int, int]], Set[int]]] = {}
        for t in self.trees:
            if isinstance(t, _Leg):
                if t.spread not in scans:
                    scans[t.spread] = self._scan(t.spread, legs[t.spread])
                inside, reached = scans[t.spread]
                if inside is None and reached.isdisjoint(t.cids):
                    continue
            # the witness: the first hazardous tree, searched whole
            info = self._whole(t)
            hit, _ = self._scan(info)
            if hit is not None:
                w, a = hit
                cids = self._shortest_chain(w, {a})
                labels = self._edge_labels(zip(cids, cids[1:]))
                return DeadlockHazard(
                    kind="tree-path-cycle",
                    channels=tuple(self.channels[c] for c in cids),
                    flows=tuple(sorted({info.name} | labels)),
                )
        return None

    def _tier3(self) -> Optional[DeadlockHazard]:
        if not self.concurrent_trees or len(self.trees) < 2:
            return None
        trees = [self._whole(t) for t in self.trees]
        # meta-graph over (tree index, held channel); an edge means "tree i
        # blocked in a state holding a can wait for w whose tier-1 closure
        # reaches a' held by tree j"
        meta: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
        closures: Dict[int, Set[int]] = {}
        n = len(trees)
        for i, ti in enumerate(trees):
            for a in ti.cids:
                waits = [w for w in ti.waitable if ti.state_allows(a, w)]
                targets: Set[Tuple[int, int]] = set()
                for w in waits:
                    closure = closures.get(w)
                    if closure is None:
                        closure = closures[w] = {w} | self._reach_plus(w)
                    for j in range(n):
                        if j == i:
                            continue
                        for a2 in closure & trees[j].cids:
                            targets.add((j, a2))
                meta.extend(((i, a), t) for t in targets)
        cyc = find_vc_cycle(meta)
        if cyc is None:
            return None
        states = cyc[:-1]
        chans = tuple(self.channels[a] for _, a in states)
        flows = tuple(sorted({trees[i].name for i, _ in states}))
        return DeadlockHazard(kind="multi-tree-cycle", channels=chans, flows=flows)


def build_cdg(
    topo: Topology,
    logic: RouteRelation,
    *,
    include_unicasts: bool = True,
    include_broadcasts: bool = True,
    unicast_flows: Optional[Sequence[Unicast]] = None,
    broadcast_sources: Optional[Sequence] = None,
) -> ChannelDependencyGraph:
    """Build the tiered dependency structure for all (or given) flows.

    ``logic`` is any route relation (see
    :class:`~repro.core.routes.RouteRelation`).  The broadcast tiers and
    the S-XB barrier are features of the paper's facility, so they engage
    only when the relation carries a
    :class:`~repro.core.config.RoutingConfig`; for a config-less scheme
    relation the analysis covers its unicast flows.
    """
    cfg = getattr(logic, "config", None)
    if cfg is None:
        include_broadcasts = False
    cdg = ChannelDependencyGraph()
    serialized = (
        cfg is not None and cfg.broadcast_mode is BroadcastMode.SERIALIZED
    )
    # The drain-then-serve barrier at the S-XB only ever engages when a
    # broadcast is pending there; without broadcasts the S-XB behaves like
    # any other crossbar and unicasts wait for single ports only.
    barrier_active = serialized and include_broadcasts
    sxb_element = cfg.sxb_element if barrier_active else None
    sxb_outputs: Tuple[Channel, ...] = (
        tuple(topo.channels_from(cfg.sxb_element)) if barrier_active else ()
    )

    if include_unicasts:
        pairs = (
            None
            if unicast_flows is None
            else [(f.source, f.dest) for f in unicast_flows]
        )
        cdg.add_unicasts(topo, logic, pairs, sxb_element, sxb_outputs)
    if include_broadcasts:
        cdg.add_broadcasts(topo, logic, broadcast_sources, sxb_outputs)
    return cdg


def analyze_deadlock_freedom(
    topo: Topology,
    logic: RouteRelation,
    **kwargs,
) -> CDGResult:
    """One-call tiered deadlock analysis (see :func:`build_cdg`)."""
    return build_cdg(topo, logic, **kwargs).find_deadlock()
