"""Static route computation: walk a routing relation to a channel tree.

The simulator exercises routing dynamically; this module walks the same
relation statically, producing the complete channel tree a packet (or
broadcast) traverses.  The trees feed the channel-dependency-graph
deadlock analysis (:mod:`repro.core.cdg`), the per-figure experiments,
and the tests that cross-check the logic against an independent route
oracle.

Historically this walked :class:`~repro.core.switch_logic.SwitchLogic`
only; it now accepts any **route relation** -- an object exposing
``decide(element, in_from, header) -> Decision`` and
``check_deliverable(source, dest)`` (the :class:`RouteRelation`
protocol).  ``SwitchLogic`` is the paper's relation; every registered
routing scheme provides one via
:meth:`repro.routing.RoutingScheme.route_relation`.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple, Union

from ..topology.base import Channel, ElementId, element_kind, ElementKind, Topology
from .coords import Coord
from .decision_table import DecisionTable
from .packet import RC, Header
from .switch_logic import Decision, RoutingError, UnreachableDestinationError


class RouteRelation(Protocol):
    """The routing relation the static analyses walk.

    :class:`~repro.core.switch_logic.SwitchLogic` implements it directly;
    scheme adapters are bridged by
    :class:`~repro.routing.SchemeRouteRelation`.
    """

    def decide(self, el: ElementId, in_from: ElementId, header: Header) -> Decision:
        ...

    def check_deliverable(self, source: Coord, dest: Coord) -> None:
        ...


def relation_dead_nodes(logic: RouteRelation) -> Tuple[Coord, ...]:
    """Nodes a relation's standing faults disconnect (empty when the
    relation has no fault registry)."""
    registry = getattr(logic, "registry", None)
    if registry is not None:
        return tuple(registry.dead_pes())
    dead = getattr(logic, "dead_nodes", None)
    return tuple(dead()) if dead is not None else ()


@dataclass(frozen=True)
class Unicast:
    """A point-to-point flow from ``source`` to ``dest``."""

    source: Coord
    dest: Coord

    def initial_header(self) -> Header:
        return Header(source=self.source, dest=self.dest, rc=RC.NORMAL)

    def __str__(self) -> str:
        return f"p2p {self.source}->{self.dest}"


@dataclass(frozen=True)
class Broadcast:
    """A broadcast flow from ``source`` to every PE."""

    source: Coord
    #: RC value at injection: BROADCAST_REQUEST under the serialized
    #: facility, BROADCAST under the naive mode
    initial_rc: RC = RC.BROADCAST_REQUEST

    def initial_header(self) -> Header:
        return Header(source=self.source, dest=self.source, rc=self.initial_rc)

    def __str__(self) -> str:
        return f"bcast {self.source}"


Flow = Union[Unicast, Broadcast]


@dataclass
class RouteTree:
    """The channels one flow occupies, as a tree rooted at injection.

    For a unicast the tree is a path.  ``rc_on[c]`` is the RC bit the packet
    carries while traversing channel ``c``; ``serialize_entries`` lists the
    channels that enter the S-XB under its one-at-a-time serialization.
    """

    flow: Flow
    root: Channel
    parent: Dict[Channel, Optional[Channel]] = field(default_factory=dict)
    children: Dict[Channel, List[Channel]] = field(default_factory=dict)
    rc_on: Dict[Channel, RC] = field(default_factory=dict)
    serialize_entries: List[Channel] = field(default_factory=list)
    delivered: Set[Coord] = field(default_factory=set)
    dropped_at: List[ElementId] = field(default_factory=list)

    def channels(self) -> Tuple[Channel, ...]:
        return tuple(self.parent.keys())

    def ancestors(self, c: Channel) -> Tuple[Channel, ...]:
        """Strict ancestors of ``c``, nearest first."""
        out = []
        p = self.parent[c]
        while p is not None:
            out.append(p)
            p = self.parent[p]
        return tuple(out)

    def path_to(self, dest: Coord) -> Tuple[Channel, ...]:
        """Injection-to-ejection channel path reaching PE ``dest``."""
        from ..topology.base import pe

        target = pe(dest)
        leaf = next(
            (c for c in self.parent if c.dst == target),
            None,
        )
        if leaf is None:
            raise KeyError(f"flow {self.flow} does not deliver to {dest}")
        return tuple(reversed((leaf,) + self.ancestors(leaf)))

    def elements_to(self, dest: Coord) -> Tuple[ElementId, ...]:
        """Element sequence (PE, RTR, XB, ... PE) of the path to ``dest``."""
        chans = self.path_to(dest)
        return (chans[0].src,) + tuple(c.dst for c in chans)

    def xb_hops_to(self, dest: Coord) -> int:
        """Crossbar traversals on the path to ``dest`` (paper: <= d normally)."""
        return sum(
            1 for el in self.elements_to(dest) if element_kind(el) is ElementKind.XB
        )

    @property
    def num_channels(self) -> int:
        return len(self.parent)

    def rc_trace_to(self, dest: Coord) -> Tuple[RC, ...]:
        """RC bit per channel along the path to ``dest`` (e.g. the paper's
        detour leaves the trace NORMAL.. DETOUR.. NORMAL..)."""
        return tuple(self.rc_on[c] for c in self.path_to(dest))


class RouteLoopError(RoutingError):
    """The switch logic revisited a channel: a routing loop (livelock)."""


def compute_route(
    topo: Topology,
    logic: RouteRelation,
    flow: Flow,
    max_steps: Optional[int] = None,
) -> RouteTree:
    """Trace ``flow`` through a routing relation and return its route tree.

    Raises :class:`RouteLoopError` if a channel repeats (which a correct
    configuration never produces) and propagates :class:`RoutingError` from
    the relation for invalid states.
    """
    walk = _RouteWalk(topo, logic, flow, max_steps)
    walk.run()
    return walk.tree


class _RouteWalk:
    """The breadth-first expansion behind :func:`compute_route`, resumable:
    ``run(until_serialize=True)`` returns right after the first serialized
    (S-XB) decision has been applied, so :func:`broadcast_legs` can walk a
    broadcast's request leg alone."""

    def __init__(
        self,
        topo: Topology,
        logic: RouteRelation,
        flow: Flow,
        max_steps: Optional[int] = None,
    ) -> None:
        header = flow.initial_header()
        if isinstance(flow, Unicast):
            logic.check_deliverable(flow.source, flow.dest)
        else:
            logic.check_deliverable(flow.source, flow.source)

        root = topo.injection_channel(flow.source)
        tree = RouteTree(flow=flow, root=root)
        tree.parent[root] = None
        tree.children[root] = []
        tree.rc_on[root] = header.rc
        self.topo, self.logic, self.header, self.tree = topo, logic, header, tree
        self.limit = (
            max_steps if max_steps is not None else 4 * topo.num_channels + 16
        )
        # BFS frontier: (channel just traversed, rc carried on it)
        self.frontier = deque([(root, header.rc)])
        self.steps = 0

    def run(self, until_serialize: bool = False) -> Optional[Decision]:
        """Expand the frontier; return the serialized decision that stopped
        the walk, or ``None`` once the frontier is empty."""
        topo, logic, header, tree = self.topo, self.logic, self.header, self.tree
        flow, limit, frontier = tree.flow, self.limit, self.frontier
        while frontier:
            chan, rc = frontier.popleft()
            el = chan.dst
            if element_kind(el) is ElementKind.PE:
                tree.delivered.add(el[1])
                continue
            self.steps += 1
            if self.steps > limit:
                raise RouteLoopError(
                    f"flow {flow} exceeded {limit} routing steps; livelock?"
                )
            decision = logic.decide(el, chan.src, header.with_rc(rc))
            if decision.drop:
                tree.dropped_at.append(el)
                continue
            for out_el in decision.outputs:
                out_chan = topo.channel(el, out_el)
                if out_chan in tree.parent:
                    raise RouteLoopError(
                        f"flow {flow} revisited channel {out_chan}; routing loop"
                    )
                tree.parent[out_chan] = chan
                tree.children[chan].append(out_chan)
                tree.children[out_chan] = []
                tree.rc_on[out_chan] = decision.rc
                frontier.append((out_chan, decision.rc))
            if decision.serialize:
                tree.serialize_entries.append(chan)
                if until_serialize:
                    return decision
        return None

    def fork(self) -> "_RouteWalk":
        """A copy of this walk that runs on without touching it."""
        twin = copy.copy(self)
        twin.tree = _copy_tree(self.tree)
        twin.frontier = deque(self.frontier)
        return twin


def _copy_tree(tree: RouteTree) -> RouteTree:
    """A route tree sharing no container with ``tree``."""
    return RouteTree(
        flow=tree.flow,
        root=tree.root,
        parent=dict(tree.parent),
        children={c: list(kids) for c, kids in tree.children.items()},
        rc_on=dict(tree.rc_on),
        serialize_entries=list(tree.serialize_entries),
        delivered=set(tree.delivered),
        dropped_at=list(tree.dropped_at),
    )


def _stopped_on_a_path(walk: _RouteWalk, decision: Optional[Decision]) -> bool:
    """True when ``walk`` stopped at an S-XB decision with one path of
    channels behind it: no other branch, finished or pending."""
    if decision is None:
        return False
    tree = walk.tree
    entry = tree.serialize_entries[0]
    return len(tree.parent) == (
        len(tree.ancestors(entry)) + 1 + len(decision.outputs)
    )


class _Spread:
    """What a broadcast walk does after its S-XB decision, walked once and
    shared by every source whose request leg ends in the same decision
    (see :func:`broadcast_legs`)."""

    def __init__(self, walk: _RouteWalk, decision: Decision) -> None:
        """Finish ``walk``, stopped at its S-XB ``decision`` on a path,
        recording what followed that decision."""
        tree = walk.tree
        leg_end, leg_steps = len(tree.parent), walk.steps
        walk.run()
        chans = list(tree.parent)
        self.decision = decision
        self.sxb = tree.serialize_entries[0].dst
        self.steps = walk.steps - leg_steps
        #: the S-XB outputs (parented on each leg's entry channel), the
        #: channels below them, and the spread's dict entries as (channel,
        #: value) pairs in insertion order (``children`` from the S-XB
        #: outputs on: they are re-parented, not added)
        self.outputs = chans[leg_end - len(decision.outputs):leg_end]
        self.below = chans[leg_end:]
        self.below_set = frozenset(self.below)
        self.parent = [(c, tree.parent[c]) for c in self.below]
        self.children = [(c, tree.children[c]) for c in self.outputs + self.below]
        self.rc_on = [(c, tree.rc_on[c]) for c in self.below]
        self.serialize_entries = tree.serialize_entries[1:]
        # a path leg delivers nothing and drops nothing
        self.delivered = tree.delivered
        self.dropped_at = tree.dropped_at

    def shares(self, walk: _RouteWalk, decision: Decision) -> bool:
        """True when ``walk``, stopped at its S-XB ``decision`` on a path,
        goes on exactly as the spread: the same decision at the same S-XB,
        and no further S-XB below it, so the spread is the same channels
        under every leg.  Raises what :func:`compute_route` would when the
        leg holds a spread channel or leg plus spread exceed the step
        limit."""
        tree = walk.tree
        if (
            decision != self.decision
            or tree.serialize_entries[0].dst != self.sxb
            or self.serialize_entries
        ):
            return False
        if not self.below_set.isdisjoint(tree.parent):
            c = next(c for c in self.below if c in tree.parent)
            raise RouteLoopError(
                f"flow {tree.flow} revisited channel {c}; routing loop"
            )
        if walk.steps + self.steps > walk.limit:
            raise RouteLoopError(
                f"flow {tree.flow} exceeded {walk.limit} routing steps; livelock?"
            )
        return True

    def graft(self, leg: RouteTree) -> RouteTree:
        """The whole tree of a ``leg`` that shares the spread: a copy of
        the leg with the spread below its S-XB entry."""
        tree = _copy_tree(leg)
        tree.parent.update(self.parent)
        tree.children.update([(c, list(kids)) for c, kids in self.children])
        tree.rc_on.update(self.rc_on)
        tree.delivered.update(self.delivered)
        tree.dropped_at.extend(self.dropped_at)
        return tree


def unicast_hops(
    topo: Topology,
    logic: RouteRelation,
    pairs: Optional[Sequence[Tuple[Coord, Coord]]] = None,
):
    """Walk the routing relation of point-to-point ``pairs`` (every
    healthy pair when ``None``) once per destination, a chunk of
    destinations at a time in lockstep.  Returns ``(flows, held, hops)``:
    the number of pairs, the sorted resources the flows hold, and the
    sorted distinct ``(resource, next resource)`` hops -- the union of the
    flows' route-tree edges.  Resource ``cid * V + vc`` is VC ``vc`` of
    channel ``cid`` under a relation with ``num_vcs = V`` (its ``decide(el,
    in_from, vc, header)`` gives ``(element, vc)`` outputs, as a simulator
    adapter's does); a :class:`RouteRelation` has one VC.

    A decision depends on ``(element, input, vc, dest, rc)`` only (no
    relation reads ``header.source``), so flows to one destination share
    every ``(dest, resource, rc)`` state from where they merge, and each
    state is expanded once, every branch of it.  The checks are
    :func:`compute_route`'s: ``check_deliverable`` (a dead-node mask; a
    hit calls it on the first failing pair, so the relation raises its
    own exception) and :class:`RoutingError` from the relation.  A chunk
    whose states form a cycle, or enter another PE than their
    destination's, are dropped or are given no output, is walked again to
    raise :class:`RouteLoopError` or
    :class:`~repro.core.switch_logic.UnreachableDestinationError` for its
    first pair that loops or is not delivered.
    """
    import numpy as np

    lanes = logic if hasattr(logic, "num_vcs") else _OneVC(logic)
    walk = _HopWalk(np, topo, lanes, pairs)
    for lo in range(0, len(walk.dests), walk.width):
        walk.walk(walk.dests[lo:lo + walk.width])
    return walk.flows, np.flatnonzero(walk.held).tolist(), walk.hops()


class _OneVC:
    """A :class:`RouteRelation` as a relation with one VC: its decisions
    with ``(element, 0)`` outputs; the rest of it (``decision_key``,
    ``config``, ``registry``, ``check_deliverable``) shows through."""

    num_vcs = 1

    def __init__(self, logic: RouteRelation) -> None:
        self.logic = logic
        #: each distinct decision of the relation -> its one-VC form
        self._one_vc: Dict[Decision, Decision] = {}

    def __getattr__(self, name: str):
        return getattr(self.logic, name)

    def decide(self, el: ElementId, in_from: ElementId, vc: int, header: Header):
        d = self.logic.decide(el, in_from, header)
        one = self._one_vc.get(d)
        if one is None:
            one = Decision(tuple((o, 0) for o in d.outputs), d.rc, d.serialize, d.drop)
            self._one_vc[d] = one
        return one


#: states one chunk of :class:`_HopWalk` addresses (its ``local`` array):
#: 8 destinations of 16x16x8 at a time, every destination of 6x6
_CHUNK_STATES = 1 << 19


class _HopWalk:
    """The array walk behind :func:`unicast_hops`.

    A state is ``(dest, res, rc)``: a packet for ``dest`` that holds
    resource ``res`` (VC ``res % V`` of channel ``res // V``) with RC bit
    ``rc``.  One step of every state of a chunk is a lookup in the
    relation's :class:`DecisionTable`: the entry ``(row, rc, sel)``,
    ``row`` the switch the channel enters and ``sel`` the part of the
    destination its rule reads (DESIGN.md 5l), holds a decision whose
    ``out`` / ``rc`` are the next resource and RC bit.  An entry is
    filled from the first state that reaches it; the
    states of an entry the table keeps by hand are decided one by one
    (:meth:`scalar`).  A table key reads no VC, so only a relation with
    one VC has a ``decision_key``.
    """

    def __init__(self, np, topo: Topology, logic, pairs) -> None:
        self.np, self.topo, self.logic, self.pairs = np, topo, logic, pairs
        self.V = V = logic.num_vcs
        self.R = R = len(RC)
        self.chans = chans = topo.channels()
        #: resources
        self.C = C = len(chans) * V
        self.nodes = nodes = topo.node_coords()
        node_of = {c: i for i, c in enumerate(nodes)}
        self.inj = np.array(
            [topo.injection_channel(c).cid * V for c in nodes], np.int64
        )
        #: the node whose PE each resource enters, -1 at a switch
        pe_node = np.full(len(chans), -1, np.int64)
        pe_node[[topo.ejection_channel(c).cid for c in nodes]] = np.arange(len(nodes))
        self.pe_node = np.repeat(pe_node, V)
        dead = np.zeros(len(nodes), bool)
        dead[[node_of[c] for c in relation_dead_nodes(logic)]] = True

        if pairs is None:
            self.live = live = np.flatnonzero(~dead)
            self.flows = len(live) * (len(live) - 1)
            self.dests = live
        else:
            self.flows = len(pairs)
            self.s_idx = np.array([node_of[s] for s, _ in pairs], np.int64)
            self.t_idx = np.array([node_of[t] for _, t in pairs], np.int64)
            bad = np.flatnonzero(dead[self.s_idx] | dead[self.t_idx])
            if bad.size:
                logic.check_deliverable(*pairs[bad[0]])
            _, first = np.unique(self.t_idx, return_index=True)
            first.sort()
            self.dests = self.t_idx[first]  # in order of first appearance

        self.table = DecisionTable(topo, logic)
        #: the switch row each resource enters, -1 at a PE
        self.row = np.repeat(self.table.row, V)
        self.width = max(1, min(len(self.dests), _CHUNK_STATES // (C * R)))
        #: state -> its discovery index in the chunk being walked, or -1
        self.local = np.full(self.width * C * R, -1, np.int32)
        self.held = np.zeros(C, bool)
        #: ``res * R * S + rc * S + sel``: a tabled step left resource
        #: ``res`` through table entry ``(row(res), rc, sel)``
        self.left = np.zeros(C * R * self.table.S, bool)
        #: ``(res, next res)`` hops of the states decided one by one
        self.scalar_hops: List[Tuple[int, int]] = []
        #: states discovered so far in the chunk being walked
        self.n = 0

    def decide(self, t: int, res: int, rc: int):
        """Destination node ``t``'s state ``(res, rc)`` decided by the
        relation: ``(element, input, header, decision, wanted)``, the
        outputs ``wanted`` as ``(resource, vc)`` pairs.  No relation reads
        the header's source, so it names the destination too."""
        V, dest = self.V, self.nodes[t]
        chan = self.chans[res // V]
        el, h = chan.dst, Header(dest, dest, RC(rc))
        d = self.logic.decide(el, chan.src, res % V, h)
        wanted = [(self.topo.channel(el, o).cid * V + vc, vc) for o, vc in d.outputs]
        return el, chan.src, h, d, wanted

    def scalar(self, t: int, res: int, rc: int) -> List[Tuple[int, int]]:
        """The ``(next res, next rc)`` states of destination node ``t``'s
        state ``(res, rc)``, decided by the relation itself."""
        el, _, _, decision, wanted = self.decide(t, res, rc)
        if decision.drop:
            self.dropped.append(el)
            return []
        self.scalar_hops.extend((res, w) for w, _ in wanted)
        return [(w, int(decision.rc)) for w, _ in wanted]

    def roots(self, chunk):
        """Chunk-local destination and source node of every pair to
        ``chunk``."""
        np = self.np
        if self.pairs is None:
            t = np.repeat(np.arange(len(chunk)), len(self.live))
            s = np.tile(self.live, len(chunk))
            keep = s != chunk[t]
            return t[keep], s[keep]
        pos = np.full(len(self.nodes), -1, np.int64)
        pos[chunk] = np.arange(len(chunk))
        mine = pos[self.t_idx] >= 0
        return pos[self.t_idx[mine]], self.s_idx[mine]

    def walk(self, chunk) -> None:
        """Expand every state the pairs to ``chunk`` reach, recording the
        held resources and the hops; raise on a routing loop or a pair
        that is not delivered."""
        t, s = self.roots(chunk)
        if any(self.expand(chunk, t, s)):
            self.replay(chunk, t, s)

    def expand(self, chunk, t, s) -> Tuple[bool, bool]:
        """Expand every state the pairs ``(chunk[t], s)`` reach; return
        whether the states of some destination form a cycle and whether
        some pair is lost (a state enters another PE than its
        destination's, is dropped or is given no output)."""
        np, C, R, tab, local = self.np, self.C, self.R, self.table, self.local
        RS, T = R * tab.S, len(chunk)
        # sel per (switch row, chunk destination), flat
        sel_of = tab.selector(np.arange(len(tab.switches))[:, None], chunk).ravel()
        #: where packets were dropped, and the nodes whose PEs they entered
        self.dropped: List[ElementId] = []
        self.entered: List = []
        lost = False
        res = self.inj[s]
        rc = np.full(t.size, RC.NORMAL, np.int64)
        sid = (t * C + res) * R + rc
        self.n = 0
        first = self.claim(sid)
        t, res, rc, sid = t[first], res[first], rc[first], sid[first]
        visited, arcs_from, arcs_to = [sid], [], []
        while t.size:
            self.held[res] = True
            rows = self.row[res]
            go = rows >= 0
            self.entered.append(self.pe_node[res[~go]])
            lost = lost or bool((self.entered[-1] != chunk[t[~go]]).any())
            t, res, rc, sid, rows = t[go], res[go], rc[go], sid[go], rows[go]
            k, ent = tab.lookup(rows, rc, sel_of[rows * T + t])
            todo = np.flatnonzero(ent == tab.UNFILLED)
            if todo.size:
                # one state per empty entry: the one whose mark stays
                mark = tab.HAND - 1 - np.arange(todo.size)
                tab.entry[k[todo]] = mark
                p = todo[tab.entry[k[todo]] == mark]
                # each filled from its state's decision by the relation
                states = zip(chunk[t[p]].tolist(), res[p].tolist(), rc[p].tolist())
                for i, state in zip(k[p].tolist(), states):
                    tab.file(i, *self.decide(*state))
                ent = tab.entry[k]
            step = np.flatnonzero(ent >= 0)
            self.left[(res * RS + k % RS)[step]] = True
            dec = ent[step]
            nt, nres, nrc = t[step], tab.out[dec], tab.rc[dec]
            frm = local[sid[step]]
            by_hand = np.flatnonzero(ent == tab.HAND)
            if by_hand.size:
                states = zip(
                    chunk[t[by_hand]].tolist(),
                    res[by_hand].tolist(),
                    rc[by_hand].tolist(),
                )
                nexts = [self.scalar(*state) for state in states]
                lost = lost or not all(nexts)
                more = [
                    (p, *nxt)
                    for p, outs in zip(by_hand.tolist(), nexts)
                    for nxt in outs
                ]
                if more:
                    p, ores, orc = np.array(more, np.int64).T
                    nt = np.concatenate([nt, t[p]])
                    nres = np.concatenate([nres, ores])
                    nrc = np.concatenate([nrc, orc])
                    frm = np.concatenate([frm, local[sid[p]]])
            nsid = (nt * C + nres) * R + nrc
            first = self.claim(nsid)
            arcs_from.append(frm)
            arcs_to.append(local[nsid])
            t, res, rc, sid = nt[first], nres[first], nrc[first], nsid[first]
            visited.append(sid)
        cyclic = bool(arcs_from) and _cyclic(
            np, self.n, np.concatenate(arcs_from), np.concatenate(arcs_to)
        )
        local[np.concatenate(visited)] = -1
        return cyclic, lost

    def claim(self, sid):
        """Give every state of ``sid`` not seen before in this chunk the
        next discovery index; return the positions in ``sid`` of those
        states, one per state."""
        np, local = self.np, self.local
        new = np.flatnonzero(local[sid] < 0)
        # of the copies of one new state, the one whose mark stays wins
        mark = -2 - np.arange(new.size)
        local[sid[new]] = mark
        new = new[local[sid[new]] == mark]
        local[sid[new]] = np.arange(self.n, self.n + new.size)
        self.n += new.size
        return new

    def replay(self, chunk, t, s) -> None:
        """Expand the pairs ``(chunk[t], s)`` again, destination by
        destination and then, in the first destination that fails, pair
        by pair, in order: the first pair whose states form a cycle
        raises :class:`RouteLoopError`, and the first one that is lost
        raises :class:`UnreachableDestinationError`, naming where it was
        dropped and the PEs it reached."""
        np = self.np
        for i in range(len(chunk)):
            dest, srcs = chunk[i:i + 1], s[t == i]
            if not any(self.expand(dest, np.zeros_like(srcs), srcs)):
                continue
            for src in srcs.tolist():
                cyclic, lost = self.expand(dest, np.zeros(1, np.int64), np.array([src]))
                flow = Unicast(self.nodes[src], self.nodes[dest[0]])
                if cyclic:
                    raise RouteLoopError(f"flow {flow} revisits a state; routing loop")
                if lost:
                    reached = set(np.concatenate(self.entered).tolist())
                    raise UnreachableDestinationError(
                        f"flow {flow} is not delivered: dropped at "
                        f"{self.dropped}, delivered to "
                        f"{sorted(self.nodes[n] for n in reached)}"
                    )

    def hops(self) -> List[Tuple[int, int]]:
        """The sorted distinct ``(res, next res)`` hops walked so far."""
        tab, RS = self.table, self.R * self.table.S
        left = self.np.flatnonzero(self.left)
        res = left // RS
        nxt = tab.out[tab.entry[self.row[res] * RS + left % RS]]
        return sorted(set(zip(res.tolist(), nxt.tolist())).union(self.scalar_hops))


def _cyclic(np, n: int, frm, to) -> bool:
    """True when the ``n``-state graph with arcs ``frm -> to`` has a
    cycle, i.e. Kahn's algorithm cannot peel every state.  Which source
    reached a state first plays no part.  One round peels every state
    whose in-arcs all come from peeled states, so the rounds are as many
    as the longest route is long."""
    indeg = np.bincount(to, minlength=n)
    peeled = np.zeros(n, bool)
    ready = indeg == 0
    while ready.any():
        peeled |= ready
        indeg -= np.bincount(to[ready[frm]], minlength=n)
        ready = (indeg == 0) & ~peeled
    return not peeled.all()


def unicast_pairs(
    topo: Topology,
    logic: RouteRelation,
    sources: Optional[Sequence[Coord]] = None,
    dests: Optional[Sequence[Coord]] = None,
) -> List[Tuple[Coord, Coord]]:
    """Every healthy (source, dest) pair (or given subsets), source-major."""
    dead = set(relation_dead_nodes(logic))
    nodes = [c for c in topo.node_coords() if c not in dead]
    srcs = [c for c in (sources if sources is not None else nodes) if c not in dead]
    dsts = [c for c in (dests if dests is not None else nodes) if c not in dead]
    return [(s, t) for s in srcs for t in dsts if s != t]


def route_all_unicasts(
    topo: Topology,
    logic: RouteRelation,
    sources: Optional[Sequence[Coord]] = None,
    dests: Optional[Sequence[Coord]] = None,
) -> List[RouteTree]:
    """Routes of every healthy (source, dest) pair (or given subsets)."""
    return [
        compute_route(topo, logic, Unicast(s, t))
        for s, t in unicast_pairs(topo, logic, sources, dests)
    ]


def broadcast_legs(
    topo: Topology,
    logic: RouteRelation,
    sources: Optional[Sequence[Coord]] = None,
) -> List[Tuple[RouteTree, Optional[_Spread]]]:
    """The broadcasts from every healthy source (or a subset), each as a
    ``(tree, spread)`` pair: a request leg and the one spread it shares,
    or a whole tree and ``None``.

    Broadcast is the paper facility's feature, so ``logic`` must carry a
    :class:`~repro.core.config.RoutingConfig` (``SwitchLogic`` does).

    Under the serialized facility a tree is the source's request leg (a
    path) plus the S-XB spread: the S-XB decision does not read the input
    port and no spread decision reads the header beyond its RC, so the
    spread is the same for every source.  Every source walks its leg up to
    and including its S-XB decision; the first leg that ends on a path has
    the rest of its walk recorded once as the spread, and every leg that
    ends on a path in the same decision is returned as it stopped (a path
    :class:`RouteTree` holding the S-XB outputs as leaves) with a
    reference to that spread.  Any other walk is finished and returned
    whole.  ``spread.graft(leg)`` equals :func:`compute_route`'s tree,
    field for field and in dict order; the checks are
    :func:`compute_route`'s: ``check_deliverable`` per source,
    :class:`RouteLoopError` when the leg meets a spread channel and the
    step limit counted over leg plus spread.
    """
    from .config import BroadcastMode

    rc0 = (
        RC.BROADCAST_REQUEST
        if logic.config.broadcast_mode is BroadcastMode.SERIALIZED
        else RC.BROADCAST
    )
    dead = set(relation_dead_nodes(logic))
    nodes = [c for c in topo.node_coords() if c not in dead]
    srcs = [c for c in (sources if sources is not None else nodes) if c not in dead]
    legs: List[Tuple[RouteTree, Optional[_Spread]]] = []
    spread: Optional[_Spread] = None
    for s in srcs:
        walk = _RouteWalk(topo, logic, Broadcast(s, rc0))
        decision = walk.run(until_serialize=True)
        if _stopped_on_a_path(walk, decision):
            if spread is None:
                spread = _Spread(walk.fork(), decision)
            if spread.shares(walk, decision):
                legs.append((walk.tree, spread))
                continue
        walk.run()
        legs.append((walk.tree, None))
    return legs


def route_all_broadcasts(
    topo: Topology,
    logic: RouteRelation,
    sources: Optional[Sequence[Coord]] = None,
) -> List[RouteTree]:
    """Broadcast route trees from every healthy source (or a subset): the
    :func:`broadcast_legs` with every shared spread grafted back on.
    Each tree equals :func:`compute_route`'s, field for field and in dict
    order."""
    return [
        tree if spread is None else spread.graft(tree)
        for tree, spread in broadcast_legs(topo, logic, sources)
    ]
