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
Adaptive schemes with an escape lane (Duato construction) name the
escape lane as their :meth:`~RoutingScheme.dependency_relation`: the
adaptive lane is cyclic by design, and deadlock freedom rests on the
escape subnetwork being acyclic and always present in the wait set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from ..core.cdg import find_vc_cycle
from ..core.config import ConfigError
from ..core.coords import Coord
from ..core.packet import RC, Header
from ..core.routes import unicast_hops
from ..core.switch_logic import Decision
from ..topology.base import ElementId, Topology

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

    # ------------------------------------------------------ CDG contribution
    def dependency_relation(self):
        """The relation whose dependency graph the scheme's deadlock
        argument is about, as :func:`~repro.core.routes.unicast_hops`
        walks it.  By default the scheme itself: its adapter's decisions
        on every VC (:meth:`decide`), every branch followed.  A Duato
        scheme returns its VC-0 escape lane instead."""
        return self

    def decide(self, el: ElementId, in_from: ElementId, vc: int, header: Header):
        """The adapter's decision at ``el`` for a packet on VC ``vc``."""
        return self.adapter.decide(el, in_from, vc, header)

    def dependency_edges(self) -> Set[Tuple[VCKey, VCKey]]:
        """Edges of the (channel, vc) dependency graph: the hops of every
        healthy pair through :meth:`dependency_relation`, one
        :func:`~repro.core.routes.unicast_hops` walk, which raises when a
        pair loops or is not delivered."""
        relation = self.dependency_relation()
        V = getattr(relation, "num_vcs", 1)
        _, _, hops = unicast_hops(self.topo, relation)
        return {(divmod(a, V), divmod(b, V)) for a, b in hops}

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
