"""The :class:`RoutingScheme` protocol: routing as a first-class plug-in.

A *scheme* bundles everything the rest of the repository needs to know
about one routing algorithm on one network:

* an **identity string** (:attr:`RoutingScheme.name`) that keys the scheme
  registry, the ``RunSpec`` cache keys and the adapter route memo;
* the **network kind** it routes (:attr:`RoutingScheme.kind`, matching
  ``RunSpec.kind``) and the topology instance it builds;
* a **per-element decision function** -- the simulator adapter returned by
  :meth:`build` (``adapter.decide(element, in_from, in_vc, header)``);
* a **route relation** (:meth:`route_relation`) that
  :func:`repro.core.routes.compute_route` walks to the path a packet takes
  on an idle network, for path-overhead, conflict and delivery analyses;
* a **CDG edge contribution** (:meth:`dependency_edges`): the waiting
  graph over ``(channel, vc)`` resources whose acyclicity is the scheme's
  deadlock-freedom argument, checked by :meth:`check_cycle_free`.

Deterministic schemes contribute their full routing relation to the CDG.
Adaptive schemes with an escape lane (Duato construction) override
:meth:`cdg_branches` to contribute the *escape restriction* only: the
adaptive lane is cyclic by design, and deadlock freedom rests on the
escape subnetwork being acyclic and always present in the wait set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..core.cdg import find_vc_cycle
from ..core.config import ConfigError
from ..core.coords import Coord
from ..core.packet import RC, Header
from ..core.switch_logic import Decision
from ..sim.adapter import SimDecision
from ..topology.base import ElementId, ElementKind, Topology, element_kind

#: a CDG resource: one virtual channel of one physical channel
VCKey = Tuple[int, int]  # (channel cid, vc)


@dataclass(frozen=True)
class SchemeAudit:
    """Outcome of a scheme's deadlock-freedom self-check."""

    scheme: str
    cycle_free: bool
    num_edges: int
    detail: str = ""

    def row(self) -> str:
        verdict = "acyclic" if self.cycle_free else "CYCLIC"
        extra = f" -- {self.detail}" if self.detail else ""
        return f"{self.scheme}: CDG {verdict} ({self.num_edges} edges){extra}"


class RoutingScheme:
    """Base class for pluggable routing schemes.

    Subclasses set the class attributes, implement :meth:`build`, and
    register themselves with :func:`repro.routing.registry.register_scheme`.
    Construction takes the network shape and the standing fault set; the
    instance owns the topology and a simulator adapter.
    """

    #: registry identity; also stored in ``RunSpec.scheme`` and cache keys
    name: str = ""
    #: the ``RunSpec.kind`` network this scheme routes
    kind: str = ""
    #: whether the scheme models standing faults
    supports_faults: bool = False
    #: small shape used by ``repro doctor``'s routing health section
    doctor_shape: Tuple[int, ...] = (3, 3)
    #: shape used by the cross-scheme shoot-out bench
    bench_shape: Tuple[int, ...] = (4, 3)

    def __init__(self, shape, faults=()) -> None:
        self.shape: Tuple[int, ...] = (shape,) if isinstance(shape, int) else tuple(shape)
        self.faults = tuple(faults)
        if self.faults and not self.supports_faults:
            raise ConfigError(
                f"routing scheme {self.name!r} does not model faults; "
                "fault tolerance is the deterministic facility's job"
            )
        self.topo, self.adapter, self.num_vcs = self.build()

    # ------------------------------------------------------------ building
    def build(self) -> Tuple[Topology, object, int]:
        """(topology, simulator adapter, virtual channels per channel)."""
        raise NotImplementedError

    # ------------------------------------------------------- route relation
    def dead_nodes(self) -> Tuple[Coord, ...]:
        """Node coordinates disconnected by the standing faults."""
        logic = getattr(self.adapter, "logic", None)
        if logic is None:
            return ()
        return tuple(logic.registry.dead_pes())

    def live_nodes(self) -> List[Coord]:
        dead = set(self.dead_nodes())
        return [c for c in self.topo.node_coords() if c not in dead]

    def route_pairs(self) -> Iterable[Tuple[Coord, Coord]]:
        """All deliverable point-to-point (source, dest) pairs."""
        live = self.live_nodes()
        for s in live:
            for d in live:
                if s != d:
                    yield s, d

    # ------------------------------------------------------ CDG contribution
    def cdg_branches(self, decision: SimDecision) -> Sequence[Tuple[ElementId, int]]:
        """Which decision branches contribute dependency edges.

        Default: all of them (the full routing relation).  Adaptive
        schemes with an escape lane override this to the escape branch
        (``outputs[-1]`` under the ``policy="any"`` convention).
        """
        return decision.outputs

    def dependency_edges(self) -> Set[Tuple[VCKey, VCKey]]:
        """Edges of the (channel, vc) dependency graph.

        Expansion of :meth:`cdg_branches` from every (router, destination)
        state -- every router is a potential source, and a packet that
        reached a router adaptively then behaves like a fresh injection
        there, so this covers mid-route states as well.  A decision
        depends on the destination but not the source, so the sources of
        one destination share their visited states.
        """
        by_dest: Dict[Coord, List[Coord]] = {}
        for s, d in self.route_pairs():
            by_dest.setdefault(d, []).append(s)
        edges: Set[Tuple[VCKey, VCKey]] = set()
        for dest, sources in by_dest.items():
            header = Header(source=tuple(sources[0]), dest=tuple(dest))
            # state: (element, in_from, in_vc, rc); fully determines the
            # holding resource (channel(in_from, element), in_vc)
            stack = []
            for source in sources:
                chan = self.topo.injection_channel(tuple(source))
                stack.append((chan.dst, chan.src, 0, header.rc))
            seen = set(stack)
            limit = (16 * self.topo.num_channels + 64) * len(sources)
            while stack:
                el, in_from, in_vc, rc = stack.pop()
                if limit <= 0:  # pragma: no cover - defensive loop guard
                    raise RuntimeError(
                        f"scheme {self.name!r} dependency walk diverged toward {dest}"
                    )
                limit -= 1
                held: VCKey = (self.topo.channel(in_from, el).cid, in_vc)
                d = self.adapter.decide(el, in_from, in_vc, header.with_rc(rc))
                if d.drop:
                    continue
                for out_el, out_vc in self.cdg_branches(d):
                    nxt: VCKey = (self.topo.channel(el, out_el).cid, out_vc)
                    edges.add((held, nxt))
                    if element_kind(out_el) is ElementKind.PE:
                        continue
                    state = (out_el, el, out_vc, d.rc)
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
        return edges

    def check_cycle_free(self) -> SchemeAudit:
        """Run the scheme's deadlock-freedom self-check."""
        edges = self.dependency_edges()
        cycle = find_vc_cycle(edges)
        detail = ""
        if cycle is not None:
            detail = "cycle through " + " -> ".join(
                f"c{cid}/vc{vc}" for cid, vc in cycle
            )
        return SchemeAudit(
            scheme=self.name,
            cycle_free=cycle is None,
            num_edges=len(edges),
            detail=detail,
        )

    # ----------------------------------------- bridge to the core analyses
    def route_relation(self) -> "SchemeRouteRelation":
        """The scheme's routing relation in the shape the static analyses
        (:func:`repro.core.routes.compute_route`,
        :func:`repro.core.cdg.build_cdg`) consume: per-element ``decide``
        returning a core :class:`~repro.core.switch_logic.Decision` plus a
        deliverability predicate.  Channel-level (virtual channels
        elided); the preferred branch of adaptive decisions is followed.
        """
        return SchemeRouteRelation(self)

    def check_deliverable(self, source: Coord, dest: Coord) -> None:
        """Raise if the pair cannot be served (either endpoint dead)."""
        logic = getattr(self.adapter, "logic", None)
        if logic is not None and hasattr(logic, "check_deliverable"):
            logic.check_deliverable(tuple(source), tuple(dest))

    def describe(self) -> str:
        return (
            f"{self.name} [{self.kind}] shape={'x'.join(map(str, self.shape))} "
            f"vcs={self.num_vcs}"
        )


class SchemeRouteRelation:
    """Adapter: a scheme's per-element decisions as a core route relation.

    Mirrors the duck type of :class:`~repro.core.switch_logic.SwitchLogic`
    that :func:`repro.core.routes.compute_route` and
    :func:`repro.core.cdg.build_cdg` rely on (``decide`` +
    ``check_deliverable``), so the static analyses run against any
    registered scheme.  Virtual channels are elided: the element-level
    path geometry of every scheme here is vc-independent.
    """

    def __init__(self, scheme: RoutingScheme) -> None:
        self.scheme = scheme
        self.topo = scheme.topo

    def decide(self, el: ElementId, in_from: ElementId, header: Header) -> Decision:
        d = self.scheme.adapter.decide(el, in_from, 0, header)
        outputs = d.outputs[:1] if d.policy == "any" else d.outputs
        return Decision(
            outputs=tuple(out_el for out_el, _vc in outputs),
            rc=d.rc,
            serialize=d.serialize,
            drop=d.drop,
        )

    def check_deliverable(self, source: Coord, dest: Coord) -> None:
        self.scheme.check_deliverable(source, dest)

    def dead_nodes(self) -> Tuple[Coord, ...]:
        return self.scheme.dead_nodes()


#: RC is re-exported for scheme implementations
__all__ = [
    "RC",
    "RoutingScheme",
    "SchemeAudit",
    "SchemeRouteRelation",
    "VCKey",
    "find_vc_cycle",
]
