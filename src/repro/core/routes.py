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
from typing import Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, Set, Tuple, Union

from ..topology.base import Channel, ElementId, element_kind, ElementKind, Topology
from .coords import Coord
from .packet import RC, Header
from .switch_logic import Decision, RoutingError


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


def walk_unicast_states(
    topo: Topology,
    logic: RouteRelation,
    pairs: Iterable[Tuple[Coord, Coord]],
) -> Iterator[Tuple[Channel, List[Channel]]]:
    """Expand the routing relation of point-to-point ``pairs`` once per
    destination, yielding ``(channel, output channels)`` per switch decision.

    A decision depends on ``(element, input, dest, rc)`` only (no relation
    reads ``header.source``), so flows to one destination share every
    ``(channel, rc)`` state from where they merge; each state is decided
    once, and the yielded hops are the union of those flows' route-tree
    edges.  Makes the checks :func:`compute_route` makes:
    ``check_deliverable`` per pair, :class:`RouteLoopError` when a source's
    walk re-enters a state it opened itself (merging into an earlier
    source's state is not a loop), :class:`RoutingError` from the relation.
    """
    by_dest: Dict[Coord, List[Coord]] = {}
    for source, dest in pairs:
        logic.check_deliverable(source, dest)
        by_dest.setdefault(dest, []).append(source)
    for dest, sources in by_dest.items():
        headers = {rc: Header(source=sources[0], dest=dest, rc=rc) for rc in RC}
        # (cid, rc) state -> index of the source whose walk opened it
        opened_by: Dict[Tuple[int, RC], int] = {}
        for walk, source in enumerate(sources):
            stack = [(topo.injection_channel(source), RC.NORMAL)]
            while stack:
                chan, rc = stack.pop()
                state = (chan.cid, rc)
                if state in opened_by:
                    if opened_by[state] == walk:
                        raise RouteLoopError(
                            f"flow {Unicast(source, dest)} revisited channel "
                            f"{chan}; routing loop"
                        )
                    continue  # merged into an earlier source's route
                opened_by[state] = walk
                el = chan.dst
                if element_kind(el) is ElementKind.PE:
                    continue
                decision = logic.decide(el, chan.src, headers[rc])
                outs = (
                    []
                    if decision.drop
                    else [topo.channel(el, o) for o in decision.outputs]
                )
                yield chan, outs
                for out in outs:
                    stack.append((out, decision.rc))


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
